"""Independent brute-force implementations used to cross-check the library.

Nothing here imports from chowobstruct: determinants come from Laplace
expansion, diagonal forms from a separate first-nonzero-pivot reduction, and
lattice membership from exact rational solving, so agreement with the library
is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations


def cofactor_det(rows: list[list[int]]) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def reference_snf_diagonal(rows: list[list[int]]) -> list[int]:
    """Invariant-factor diagonal via determinantal divisors, no reduction at all.

    The k-th determinantal divisor D_k is the gcd of all k x k minors; the
    invariant factors are D_k / D_{k-1} while D_k is nonzero, then zeros.
    Minors are taken on the original small entries, so nothing can blow up.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    limit = min(m, n)
    diag: list[int] = []
    prev = 1
    for k in range(1, limit + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, cofactor_det(minor))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    diag += [0] * (limit - len(diag))
    return diag


def rational_coords(basis: list[list[int]], vector: list[int]) -> list[Fraction] | None:
    """Solve x * basis = vector exactly over Q for square nonsingular basis."""
    n = len(basis)
    det = cofactor_det(basis)
    if det == 0:
        raise ValueError("basis must be nonsingular")
    # Cramer on the transposed system: coordinate i replaces row i of basis
    coords = []
    for i in range(n):
        replaced = [vector if r == i else basis[r] for r in range(n)]
        coords.append(Fraction(cofactor_det(replaced), det))
    return coords


def frac_membership(basis: list[list[int]], vector: list[int]) -> bool:
    """Membership in the row lattice of a square nonsingular basis, via Cramer."""
    return all(c.denominator == 1 for c in rational_coords(basis, vector))


def independent_rows_membership(basis: list[list[int]], vector: list[int]) -> bool:
    """Membership in the row lattice of linearly independent rows of any shape.

    Cramer's rule on columns where the rows have a nonsingular minor fixes the
    only rational coordinates the vector can have; it lies in the lattice when
    they are integers and reproduce it in every column.
    """
    if not basis:
        return not any(vector)
    cols = next(
        (c for c in combinations(range(len(vector)), len(basis))
         if cofactor_det([[row[j] for j in c] for row in basis])),
        None,
    )
    if cols is None:
        raise ValueError("rows must be linearly independent")
    coords = rational_coords([[row[j] for j in cols] for row in basis], [vector[j] for j in cols])
    return all(c.denominator == 1 for c in coords) and all(
        sum(c * row[j] for c, row in zip(coords, basis)) == x for j, x in enumerate(vector)
    )


def coset_key(basis: list[list[int]], vector: list[int]) -> tuple[Fraction, ...]:
    """Invariant identifying the coset of vector modulo the row lattice."""
    return tuple(c - math.floor(c) for c in rational_coords(basis, vector))


def bfs_cosets(basis: list[list[int]]) -> dict[tuple[Fraction, ...], tuple[int, ...]]:
    """Enumerate Z^n modulo the row lattice by stepping along unit vectors."""
    n = len(basis)
    start = tuple([0] * n)
    found = {coset_key(basis, list(start)): start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for i in range(n):
            for delta in (1, -1):
                w = v[:i] + (v[i] + delta,) + v[i + 1:]
                key = coset_key(basis, list(w))
                if key not in found:
                    found[key] = w
                    queue.append(w)
    return found


def torsion_count(cosets: dict, basis: list[list[int]], k: int) -> int:
    """Number of cosets killed by multiplication by k (brute force)."""
    return sum(
        1 for rep in cosets.values() if frac_membership(basis, [k * c for c in rep])
    )


def mod2_span_contains(generators: list[list[int]], rows: list[list[int]]) -> bool:
    """Whether every row lies in the GF(2) span of the generators.

    Equivalently, the quotient of Z^n by the generators, reduced mod 2, kills
    every row.  Vectors are read mod 2 as bit masks and reduced against an
    echelon basis keyed by leading bit.
    """
    pivots: dict[int, int] = {}

    def reduce(v: int) -> int:
        while v and v.bit_length() - 1 in pivots:
            v ^= pivots[v.bit_length() - 1]
        return v

    for g in generators:
        v = reduce(sum(1 << i for i, x in enumerate(g) if x % 2))
        if v:
            pivots[v.bit_length() - 1] = v
    return not any(reduce(sum(1 << i for i, x in enumerate(r) if x % 2)) for r in rows)
