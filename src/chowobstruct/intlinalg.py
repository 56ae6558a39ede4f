"""Exact integer linear algebra: Smith and Hermite normal forms, lattice membership.

Everything here runs on plain Python integers, so no precision is ever lost.
That matters: the torsion orders produced downstream (e.g. d^2/gcd for large
degrees) overflow machine words quickly, and the normal-form invariants are
asserted exactly, never up to rounding.  The Hermite form keeps its entries
small by reducing each column by its least entry; unbounded growth is left
only in the Smith transforms u and v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# superset of the item types of a sequence that holds plain ints only
_PLAIN_INT = frozenset((int,))


@dataclass(frozen=True, init=False, repr=False)
class IntegerMatrix:
    """Immutable dense integer matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        """The matrix with these rows; cols fixes the width when there are none.

        A row whose entries are all plain ints (type int exactly) is taken
        whole.  Any other row is read entry by entry: a decimal string
        (ASCII digits, optionally after one "-") is parsed, and any other
        string, a bool, a float or another value raises ValueError at the
        first such entry.  Rows of unequal width, or of another width than
        cols, raise ValueError.
        """
        rows = []
        for row in entries:
            row = tuple(row)
            if not _PLAIN_INT.issuperset(map(type, row)):
                row = tuple(map(self._as_int, row))
            rows.append(row)
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
        """e as an int: an int, or a str of ASCII digits with an optional
        leading "-", the form the JSON writer prints.  int() alone would also
        take padding, underscores, a "+" and non-ASCII digits."""
        if isinstance(e, str):
            if not (e.isascii() and e.removeprefix("-").isdigit()):
                raise ValueError(f"matrix entry {e!r} is not an integer")
        elif isinstance(e, bool) or not isinstance(e, int):
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


def _smith_eliminate(rows: list[list[int]], cols: list[list[int]], m: int, n: int) -> None:
    """Diagonalize the top-left m x n block of rows in place.

    Pivots are chosen with minimal absolute value to keep intermediate entries
    small; after each pivot is isolated, a divisibility sweep folds any
    non-multiple of the pivot back into the working row so the final diagonal
    forms a divisor chain.  Row operations move whole rows, and column
    operations move whole columns of rows and of cols, a list of columns that
    picks up the column transform (it may be empty).  Every choice reads only
    the block.

    Clearing rows[i][t] is a Euclid chain between the pivot row and row i:
    subtract a multiple, swap when a remainder is left, repeat.  Rows strictly
    between them are already zero in column t, so the chain is run on the two
    scalars alone, its steps composed into one unimodular [[a0, a1], [b0, b1]]
    that is then applied to both rows at once.  Once column t is clear below
    the pivot, it is clear above it too (those rows are finished), so a column
    operation changes only the pivot row within the block.
    """

    def swap_cols(i, j):
        for row in rows:
            row[i], row[j] = row[j], row[i]
        if cols:
            cols[i], cols[j] = cols[j], cols[i]

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

        while True:
            for i in range(t + 1, m):
                y = rows[i][t]
                if not y:
                    continue
                x = rows[t][t]
                a0, a1, b0, b1 = 1, 0, 0, 1
                while True:
                    # remainders stay in [0, x), so the pivot stays positive
                    q = y // x
                    y -= q * x
                    b0 -= q * a0
                    b1 -= q * a1
                    if not y:
                        break
                    x, y = y, x
                    a0, a1, b0, b1 = b0, b1, a0, a1
                top, row = rows[t], rows[i]
                if a1:
                    rows[t] = [a0 * u + a1 * w for u, w in zip(top, row)]
                    rows[i] = [b0 * u + b1 * w for u, w in zip(top, row)]
                else:
                    # a1 stays 0 exactly when nothing was swapped: b = (-q, 1)
                    rows[i] = [w + b0 * u for u, w in zip(top, row)]
            r = rows[t]
            p = r[t]
            for j in range(t + 1, n):
                if r[j]:
                    q = r[j] // p
                    if q:
                        r[j] -= q * p
                        if cols:
                            cols[j] = [u - q * w for u, w in zip(cols[j], cols[t])]
                    if r[j]:
                        swap_cols(t, j)
                        break
            else:
                break

        p = rows[t][t]
        carrier = -1
        if p != 1:  # every integer is a multiple of 1
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

    The elimination runs on a with I_m appended to the right, which then
    holds u, and on I_n held as its list of columns, which then holds v.
    Works for any rectangular matrix, including empty ones.
    """
    m, n = a.rows, a.cols
    rows = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a.entries)]
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    _smith_eliminate(rows, cols, m, n)
    return SnfDecomposition(
        u=IntegerMatrix._trusted(tuple(tuple(row[n:]) for row in rows), m),
        s=IntegerMatrix._trusted(tuple(tuple(row[:n]) for row in rows), n),
        v=IntegerMatrix._trusted(tuple(zip(*cols)), n),
    )


def smith_diagonal(a: IntegerMatrix) -> tuple[int, ...]:
    """The diagonal of smith_normal_form(a), without building u and v."""
    rows = [list(row) for row in a.entries]
    _smith_eliminate(rows, [], a.rows, a.cols)
    return tuple(rows[i][i] for i in range(min(a.rows, a.cols)))


def hermite_normal_form(a: IntegerMatrix) -> IntegerMatrix:
    """Row-style Hermite normal form h of a, reached by unimodular row operations.

    h is in row-echelon form with positive pivots and every entry above a pivot
    reduced into [0, pivot).  The rows of h span the same lattice as the rows
    of a, which makes h the canonical basis used for membership tests and coset
    reduction.

    One row operation builds it: subtract the floor multiple of the pivot row.
    In each column, the row with the least nonzero |entry| at or below row r
    moves to row r, made positive, and reduces every row below into
    [0, pivot); while a remainder is left, the least one is re-picked.  Then
    the rows above are reduced the same way and r advances (Cohen, GTM 138,
    Section 2.4).  No Bezout coefficients enter, so entries stay small.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]

    r = 0
    for j in range(n):
        while r < m:
            p = piv = 0
            for i in range(r, m):
                e = abs(h[i][j])
                if e and (not p or e < p):
                    p, piv = e, i
            if not p:
                break
            h[r], h[piv] = h[piv], h[r]
            if h[r][j] < 0:
                h[r] = [-x for x in h[r]]
            top, below = h[r], range(r + 1, m)
            done = all(h[i][j] % p == 0 for i in below)
            for i in range(m) if done else below:
                q = h[i][j] // p
                if q and i != r:
                    h[i] = [x - q * y for x, y in zip(h[i], top)]
            if done:
                r += 1
                break

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
    for pj, row in _pivot_rows(h):
        q = w[pj] // row[pj]
        if q:
            for k in range(pj, n):
                w[k] -= q * row[k]
    return tuple(w)


def _pivot_rows(h: IntegerMatrix) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each nonzero row of a Hermite-form matrix, top down, with its pivot
    column.  Pivots move strictly right, so each row's scan resumes past the
    last one, and the first zero row ends the walk."""
    n = h.cols
    pj = 0
    for row in h.entries:
        while pj < n and not row[pj]:
            pj += 1
        if pj == n:
            return
        yield pj, row
        pj += 1


def _gf2_mask(vector: Iterable[int]) -> int:
    """The vector mod 2 as a bit mask: bit k holds coordinate k, which may be
    negative or of any size.  _gf2_span, and decide, sq2_descends and the
    parity table in obstruction, call it; classify's sweep builds its masks
    alongside its labels instead."""
    mask = 0
    for k, x in enumerate(vector):
        if x & 1:
            mask |= 1 << k
    return mask


def _gf2_span(rows: Iterable[Iterable[int]]) -> dict[int, int]:
    """The reduced echelon form of the rows mod 2, as masks keyed by their
    lowest set bit: the leftmost column, the pivot hermite_normal_form picks."""
    span: dict[int, int] = {}
    for row in rows:
        v = _gf2_reduce(span, _gf2_mask(row))
        if v:
            pivot = v & -v
            span = {bit: w ^ v if w & pivot else w for bit, w in span.items()}
            span[pivot] = v
    return span


def _gf2_reduce(span: dict[int, int], v: int) -> int:
    """v modulo the span, with no pivot bit set; 0 exactly when v lies in it.

    As a 0/1 vector this is hermite_reduce against the Hermite form of the
    rows stacked on 2*I, whose rows are the span's and 2*e_j off its pivots.
    """
    for bit, w in span.items():
        if v & bit:
            v ^= w
    return v
