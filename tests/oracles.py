"""Independent brute-force implementations used to cross-check the library.

Nothing here imports from chowobstruct: determinants come from Laplace
expansion, diagonal forms from a separate first-nonzero-pivot reduction, and
lattice membership from exact rational solving, Steenrod squares from the
total square on GF(2) polynomials, so agreement with the library is meaningful
evidence rather than a tautology.
"""

from __future__ import annotations

import math
import re
from collections import deque
from fractions import Fraction
from itertools import combinations, product


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
    D_{k-1} divides every k x k minor (expand it along a row), so the scan of
    the k x k minors stops once their gcd has come down to D_{k-1}.
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
                if g == prev:
                    break
            if g == prev:
                break
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


def forward_bfs_cosets(basis: list[list[int]]) -> list[tuple[int, ...]]:
    """Coset representatives of Z^n modulo the row lattice in discovery order,
    stepping from zero along +e_0, +e_1, ... only."""
    n = len(basis)
    start = tuple([0] * n)
    seen = {coset_key(basis, list(start))}
    order = [start]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for i in range(n):
            w = v[:i] + (v[i] + 1,) + v[i + 1:]
            key = coset_key(basis, list(w))
            if key not in seen:
                seen.add(key)
                order.append(w)
                queue.append(w)
    return order


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


# GF(2) classes on P^{n_1} x ... x P^{n_k}: sets of exponent tuples, each
# monomial present with coefficient 1; a monomial past a bound is zero.

_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def gf2_parse(label: str, k: int) -> set[tuple[int, ...]]:
    """A printed class such as '3*x1 + x1*x2^2' or '0', read mod 2."""
    out: set[tuple[int, ...]] = set()
    if label == "0":
        return out
    for term in label.split(" + "):
        coeff, exps = 1, [0] * k
        for factor in term.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                m = _FACTOR.match(factor)
                exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
        if coeff % 2:
            out ^= {tuple(exps)}
    return out


def gf2_mul(a: set, b: set, dims: tuple[int, ...]) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for ea in a:
        for eb in b:
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= n for x, n in zip(e, dims)):
                out ^= {e}
    return out


def gf2_total_square(a: set, dims: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Sq as the ring homomorphism with Sq(x_i) = x_i + x_i^2, all degrees at once."""
    k = len(dims)
    out: set[tuple[int, ...]] = set()
    for exps in a:
        image = {tuple([0] * k)}
        for i, power in enumerate(exps):
            unit = tuple(int(j == i) for j in range(k))
            for _ in range(power):
                image = gf2_mul(image, {unit, tuple(2 * u for u in unit)}, dims)
        out ^= image
    return out


def gf2_theta(dims: tuple[int, ...], c1: set, c2: set) -> set[tuple[int, ...]]:
    """theta = Sq^2(c2) + c1*c2, Sq^2(c2) being the degree-3 part of the total square."""
    return {e for e in gf2_total_square(c2, dims) if sum(e) == 3} ^ gf2_mul(c1, c2, dims)


def theta_verdict(
    dims: tuple[int, ...],
    multidegree: tuple[int, ...],
    c1: set,
    c2: set,
    direction: str,
    assumption_rows: list[set] | None,
) -> str:
    """The verdict on theta = Sq^2(c2) + c1*c2 from first principles.

    The naive rows are z*m over the degree-2 monomials m, z the hypersurface
    class; assumption_rows are the assumption's degree-3 generators mod 2, or
    None for an assumption that quotients by the naive rows too.  `direction`
    is how the assumption's subgroup sits against the pushforward image:
    'contained_in_image', 'contains_image' or 'equals_image'.
    """
    k = len(dims)
    monomials = list(product(*(range(n + 1) for n in dims)))
    degree3 = [e for e in monomials if sum(e) == 3]

    def vector(a: set) -> list[int]:
        return [int(e in a) for e in degree3]

    theta = gf2_theta(dims, c1, c2)
    z = {tuple(int(j == i) for j in range(k)) for i, d in enumerate(multidegree) if d % 2}
    naive_rows = [vector(gf2_mul(z, {m}, dims)) for m in monomials if sum(m) == 2]
    naive_zero = mod2_span_contains(naive_rows, [vector(theta)])
    if assumption_rows is None:
        assumption_zero = naive_zero
    else:
        assumption_zero = mod2_span_contains([vector(r) for r in assumption_rows], [vector(theta)])
    if direction != "contained_in_image" and not assumption_zero:
        return "NOT_ALGEBRAIZABLE"
    if naive_zero or (direction != "contains_image" and assumption_zero):
        return "ALGEBRAIZABLE"
    return "UNDETERMINED"
