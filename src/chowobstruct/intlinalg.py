"""Exact integer linear algebra: Smith and Hermite normal forms, lattice membership.

Everything here runs on plain Python integers, so intermediate entries may grow
without bound and no precision is ever lost.  That matters: the torsion orders
produced downstream (e.g. d^2/gcd for large degrees) overflow machine words
quickly, and the normal-form invariants are asserted exactly, never up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True, init=False, repr=False)
class IntegerMatrix:
    """Immutable dense integer matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        rows = []
        for row in entries:
            rows.append(tuple(self._as_int(e) for e in row))
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged rows in matrix literal")
        if widths:
            ncols = widths.pop()
            if cols is not None and cols != ncols:
                raise ValueError(f"expected {cols} columns, got {ncols}")
        else:
            ncols = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...], cols: int) -> "IntegerMatrix":
        """A matrix the package built itself: a tuple of int tuples, each of width cols.
        Nothing is checked or copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        return self

    @staticmethod
    def _as_int(e) -> int:
        if isinstance(e, bool) or not isinstance(e, (int, str)):
            raise ValueError(f"matrix entry {e!r} is not an integer")
        return int(e)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.cols
        out = []
        for arow in self.entries:
            out.append([sum(arow[k] * other.entries[k][j] for k in range(self.cols)) for j in range(cols)])
        return IntegerMatrix(out, cols=cols)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.to_lists()!r})"


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form data: u @ a @ v == s with unimodular u, v.

    s is diagonal (rectangular), its nonzero diagonal prefix is nonnegative and
    each entry divides the next; zeros trail.
    """

    u: IntegerMatrix
    s: IntegerMatrix
    v: IntegerMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(row[i] for i, row in enumerate(self.s.entries[: self.s.cols]))


def _smith_eliminate(rows: list[list[int]], m: int, n: int) -> None:
    """Diagonalize the top-left m x n block of rows in place.

    Pivots are chosen with minimal absolute value to keep intermediate entries
    small; after each pivot is isolated, a divisibility sweep folds any
    non-multiple of the pivot back into the working row so the final diagonal
    forms a divisor chain.  Row operations move whole rows and column
    operations whole columns, while every choice reads only the block.
    """

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
                        # remainder is a strictly smaller positive pivot
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
            # pull the offending row into the pivot row and re-reduce at the same t
            rows[t] = [x + y for x, y in zip(rows[t], rows[carrier])]
            continue
        t += 1


def smith_normal_form(a: IntegerMatrix) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations.

    The elimination runs on a with I_m appended to the right and I_n below,
    which then hold u and v.  Works for any rectangular matrix, including
    empty ones.
    """
    m, n = a.rows, a.cols
    rows = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a.entries)]
    rows += [[int(i == j) for j in range(n)] for i in range(n)]
    _smith_eliminate(rows, m, n)
    return SnfDecomposition(
        u=IntegerMatrix((row[n:] for row in rows[:m]), cols=m),
        s=IntegerMatrix((row[:n] for row in rows[:m]), cols=n),
        v=IntegerMatrix(rows[m:], cols=n),
    )


def smith_diagonal(a: IntegerMatrix) -> tuple[int, ...]:
    """The diagonal of smith_normal_form(a), without building u and v."""
    rows = [list(row) for row in a.entries]
    _smith_eliminate(rows, a.rows, a.cols)
    return tuple(rows[i][i] for i in range(min(a.rows, a.cols)))


def hermite_normal_form(a: IntegerMatrix) -> IntegerMatrix:
    """Row-style Hermite normal form h of a, reached by unimodular row operations.

    h is in row-echelon form with positive pivots and every entry above a pivot
    reduced into [0, pivot).  The rows of h span the same lattice as the rows
    of a, which makes h the canonical basis used for membership tests and coset
    reduction.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]

    r = 0
    for j in range(n):
        if r == m:
            break
        piv = -1
        for i in range(r, m):
            if h[i][j]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
        for i in range(r + 1, m):
            if h[i][j] == 0:
                continue
            aa, bb = h[r][j], h[i][j]
            g, x, y = xgcd(aa, bb)
            p, q = aa // g, bb // g
            # unimodular 2x2 transform [[x, y], [-q, p]] on rows r, i (det = 1)
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

    return IntegerMatrix._trusted(tuple(map(tuple, h)), n)


def hermite_reduce(h: IntegerMatrix, vector: Sequence[int]) -> tuple[int, ...]:
    """Reduce a vector modulo the row lattice of a Hermite-form matrix.

    Returns the unique coset representative with each pivot coordinate in
    [0, pivot).  The representative is the zero vector exactly when the input
    lies in the lattice.
    """
    if len(vector) != h.cols:
        raise ValueError(f"vector length {len(vector)} != matrix columns {h.cols}")
    w = [int(x) for x in vector]
    n = len(w)
    # pivots move strictly right, so each row's scan resumes past the last one
    pj = 0
    for row in h.entries:
        while pj < n and not row[pj]:
            pj += 1
        if pj == n:
            break
        q = w[pj] // row[pj]
        if q:
            for k in range(pj, n):
                w[k] -= q * row[k]
        pj += 1
    return tuple(w)
