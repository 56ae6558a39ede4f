"""Independent brute-force implementations used to cross-check the library.

Nothing here imports from chowobstruct: determinants come from Laplace
expansion, diagonal forms from a separate first-nonzero-pivot reduction, and
lattice membership from exact rational solving, Steenrod squares from the
total square on GF(2) polynomials, so agreement with the library is meaningful
evidence rather than a tautology.  The two exceptions are frozen copies of
the package's earlier eliminations: reference_smith_normal_form pins the exact
u, s and v the rewritten Smith elimination must reproduce, and
reference_hermite_normal_form the Hermite form its xgcd loop built.
wilson_diagonal is not a computation at all but a closed form from the
literature.
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


def reference_smith_normal_form(
    rows: list[list[int]], n: int | None = None
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(u, s, v) as row tuples, by the original one-step-at-a-time elimination.

    This is the package's Smith elimination as it stood before its Euclid
    chains were fused into 2x2 row steps and its column transform was held as
    columns: the same pivot order, quotients, swaps and carrier choices, each
    applied to whole rows and columns of a with I_m to the right and I_n
    below.  n gives the width when rows is empty.
    """
    m = len(rows)
    n = len(rows[0]) if rows else (n or 0)
    rows = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    rows += [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in rows:
            row[i], row[j] = row[j], row[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = 0
        pi = pj = -1
        for i in range(t, m):
            for j in range(t, n):
                e = abs(rows[i][j])
                if e and (best == 0 or e < best):
                    best, pi, pj = e, i, j
        if pi < 0:
            break
        rows[t], rows[pi] = rows[pi], rows[t]
        if pj != t:
            swap_cols(t, pj)
        if rows[t][t] < 0:
            rows[t] = [-x for x in rows[t]]

        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if rows[i][t]:
                    q = rows[i][t] // rows[t][t]
                    if q:
                        rows[i] = [x - q * y for x, y in zip(rows[i], rows[t])]
                    if rows[i][t]:
                        rows[t], rows[i] = rows[i], rows[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if rows[t][j]:
                    q = rows[t][j] // rows[t][t]
                    if q:
                        for row in rows:
                            row[j] -= q * row[t]
                    if rows[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break

        p = rows[t][t]
        carrier = -1
        for i in range(t + 1, m):
            if any(x % p for x in rows[i][t + 1:n]):
                carrier = i
                break
        if carrier >= 0:
            rows[t] = [x + y for x, y in zip(rows[t], rows[carrier])]
            continue
        t += 1

    u = tuple(tuple(row[n:]) for row in rows[:m])
    s = tuple(tuple(row[:n]) for row in rows[:m])
    v = tuple(tuple(row) for row in rows[m:])
    return u, s, v


def reference_hermite_normal_form(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The Hermite form by the original xgcd elimination, as row tuples.

    This is the package's Hermite loop as it stood before the floor-division
    rewrite: the first nonzero row of each column is the pivot, and every row
    below is cleared against it by the unimodular 2x2 transform that the
    extended Euclid coefficients give.
    """

    def xgcd(a: int, b: int) -> tuple[int, int, int]:
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q = a // b
            a, b = b, a - q * b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        return (-a, -x0, -y0) if a < 0 else (a, x0, y0)

    m = len(rows)
    n = len(rows[0]) if rows else 0
    h = [list(row) for row in rows]
    r = 0
    for j in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if h[i][j]), -1)
        if piv < 0:
            continue
        h[r], h[piv] = h[piv], h[r]
        for i in range(r + 1, m):
            if h[i][j] == 0:
                continue
            g, x, y = xgcd(h[r][j], h[i][j])
            p, q = h[r][j] // g, h[i][j] // g
            h[r], h[i] = (
                [x * hr + y * hi for hr, hi in zip(h[r], h[i])],
                [-q * hr + p * hi for hr, hi in zip(h[r], h[i])],
            )
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q:
                h[i] = [hi - q * hr for hi, hr in zip(h[i], h[r])]
        r += 1
    return tuple(map(tuple, h))


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


def wilson_diagonal(n: int, j: int) -> tuple[list[int], int]:
    """The nonzero diagonal and the free rank of Z^C(n,j) modulo the rows of
    the inclusion matrix of (j-1)-subsets in j-subsets of an n-set.

    R. M. Wilson, A diagonal form for the incidence matrices of t-subsets vs.
    k-subsets, Europ. J. Combin. 11 (1990) 609-615: the entries are j - i,
    each C(n, i) - C(n, i-1) times, for i = 0..j-1, and the free rank is
    C(n, j) - C(n, j-1), whenever j - 1 <= n - j.  On (P^1)^n with every
    d_i = 1 this is the degree-j relation matrix of the complement.
    """
    if not 1 <= j or j - 1 > n - j:
        raise ValueError(f"the diagonal form needs 1 <= j and j - 1 <= n - j, got n={n}, j={j}")

    def binom(k: int) -> int:
        return math.comb(n, k) if k >= 0 else 0

    diagonal = [j - i for i in range(j) for _ in range(binom(i) - binom(i - 1))]
    return diagonal, binom(j) - binom(j - 1)


def prime_powers(factors: list[int]) -> list[int]:
    """The prime-power parts of the nonzero factors, sorted, by trial
    division: two diagonal forms present the same finite group exactly when
    these lists agree."""
    out = []
    for f in factors:
        f = abs(f)
        p = 2
        while f > 1:
            if p * p > f:
                p = f
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


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
