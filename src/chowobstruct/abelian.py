"""Finitely generated abelian groups presented by generators and an integer relation matrix.

A presentation is the quotient Z^n / L where L is the row lattice of the
relation matrix.  Elements are coordinate vectors in generator coordinates;
two vectors represent the same element exactly when their difference lies in
L.  Each presentation stores one Hermite form of L, with its columns taken
from the last generator back (the box form).  Reduction against it gives the
canonical per-coset representative, which makes equality, hashing and
zero-tests cheap and deterministic; on a finite group it is the vector
elements() yields for the coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .intlinalg import (
    IntegerMatrix,
    _pivot_rows,
    hermite_normal_form,
    hermite_reduce,
    smith_diagonal,
)


class InfiniteGroupError(Exception):
    """Raised when an operation requires a finite group but a free part is present."""


def bezout(d1: int, d2: int) -> tuple[int, int, int]:
    """Return (g, m, n) with m*d1 + n*d2 = g = gcd(d1, d2) and |m| minimal.

    m is only determined modulo d2/g; of the two candidates closest to zero the
    positive one wins a tie.  Generator images in quotient bases depend on this
    choice, so it is pinned here once.
    """
    if d1 <= 0 or d2 <= 0:
        raise ValueError("bezout expects positive integers")
    g = math.gcd(d1, d2)
    step = d2 // g
    m = pow(d1 // g, -1, step)
    if 2 * m > step:
        m -= step
    n = (g - m * d1) // d2
    return g, m, n


def _box_walk(bounds: Sequence[int], totals: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The vectors v with 0 <= v_i < bounds[i], level by level: for each
    coordinate sum in `totals` in turn, the vectors with that sum in
    lexicographically descending order; a sum that no vector has yields
    nothing.  bounds is not empty.  The walk is lazy, so a box with a huge
    bound yields its first vectors at once.  AbelianPresentation.elements()
    walks every sum of a group's box, obstruction._labelled the sums outside
    its runs and AmbientSpace.monomial_basis one."""
    if len(bounds) == 1:
        for total in totals:
            if 0 <= total < bounds[0]:
                yield (total,)
        return
    *head, a, b = bounds
    room = sum(bounds) - len(bounds)
    for total in totals:
        # prefixes with what they leave over, each coordinate running down
        # from its largest value while the coordinates after it can hold the rest
        prefixes = [((), total)]
        rest = room
        for p in head:
            rest -= p - 1
            prefixes = [
                (v + (c,), left - c)
                for v, left in prefixes
                for c in range(min(p - 1, left), max(0, left - rest) - 1, -1)
            ]
        # the last two coordinates: a plain range
        for v, left in prefixes:
            for c in range(min(a - 1, left), max(0, left - b + 1) - 1, -1):
                yield v + (c, left - c)


@dataclass(frozen=True, init=False, repr=False)
class AbelianPresentation:
    """Abelian group given by generator names and a relation matrix (rows are relations)."""

    generator_names: tuple[str, ...]
    relations: IntegerMatrix
    # normal forms stored on first use, outside equality and hashing
    _diagonal: tuple[int, ...] | None = field(compare=False)
    _hnf: IntegerMatrix | None = field(compare=False)

    def __init__(self, generator_names: Sequence[str], relations: IntegerMatrix | Iterable[Iterable[int]]):
        names = tuple(str(s) for s in generator_names)
        if not isinstance(relations, IntegerMatrix):
            relations = IntegerMatrix(relations, cols=len(names))
        if relations.cols != len(names):
            raise ValueError(
                f"relation width {relations.cols} != number of generators {len(names)}"
            )
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_diagonal", None)
        object.__setattr__(self, "_hnf", None)

    @classmethod
    def from_json(cls, obj: dict) -> "AbelianPresentation":
        """Build from {"generators": [...], "relations": [[...], ...]} (entries int or str);
        a payload of another shape is a ValueError naming the key."""
        if not isinstance(obj, dict):
            raise ValueError("presentation must be a JSON object")
        gens = obj.get("generators")
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise ValueError('presentation key "generators" must be a list of strings')
        rows = obj.get("relations", [])
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError('presentation key "relations" must be a list of lists')
        return cls(gens, IntegerMatrix(rows, cols=len(gens)))

    @property
    def ngens(self) -> int:
        return len(self.generator_names)

    def invariant_factors(self) -> tuple[int, ...]:
        """Diagonal of the relation SNF with 1s dropped and a 0 per free generator.

        The result is in divisibility order with zeros (free ranks) trailing.
        """
        if self._diagonal is None:
            object.__setattr__(self, "_diagonal", smith_diagonal(self.relations))
        diag = self._diagonal
        return tuple(d for d in diag if d != 1) + (0,) * (self.ngens - len(diag))

    def _box_form(self) -> IntegerMatrix:
        """The Hermite form of the relations with their columns taken from
        the last generator back, stored on first use: row i of a finite
        group's form has its pivot at reversed column i, generator n-1-i."""
        if self._hnf is None:
            n = self.ngens
            reversed_rows = IntegerMatrix._trusted(tuple(row[::-1] for row in self.relations.entries), n)
            object.__setattr__(self, "_hnf", hermite_normal_form(reversed_rows))
        return self._hnf

    def is_finite(self) -> bool:
        """Whether the box form has a nonzero row per generator; no Smith
        form is computed."""
        return sum(map(any, self._box_form().entries)) == self.ngens

    def describe(self) -> str:
        """Invariant factors as a direct-sum string, e.g. 'Z/3 ⊕ Z/4' or 'Z/2 ⊕ Z'."""
        factors = self.invariant_factors()
        if not factors:
            return "0"
        return " ⊕ ".join("Z" if f == 0 else f"Z/{f}" for f in factors)

    def canonical_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        """coords reduced against the box form from the last generator back,
        so each coordinate with a pivot lies in [0, pivot).  Two vectors give
        the same result exactly when they name the same element, and on a
        finite group the result is the box vector that elements() yields for
        that element, the label of its classify row."""
        return hermite_reduce(self._box_form(), coords[::-1])[::-1]

    def element_order(self, coords: Sequence[int]) -> int:
        """Least k >= 1 with k*coords = 0, or 0 if the element has infinite order.

        Walks the box form with coords reversed to match its columns: a
        pivot p meeting residual coordinate w multiplies the order by
        p/gcd(p, w), and a coordinate that no pivot clears means infinite
        order.
        """
        if len(coords) != self.ngens:
            raise ValueError(f"coordinate length {len(coords)} != {self.ngens} generators")
        w = list(coords[::-1])
        result = 1
        for pj, row in _pivot_rows(self._box_form()):
            p = row[pj]
            k = p // math.gcd(p, w[pj])
            q = k * w[pj] // p
            w = [k * x - q * y for x, y in zip(w, row)]
            result *= k
        return 0 if any(w) else result

    def _mod2_quotient(self, rank: int) -> "AbelianPresentation":
        """The mod-2 reduction: same generators, relations extended by
        2*(each generator), for a caller that reduced the relation rows mod 2
        itself, as decide() does, and passes the rank r of their GF(2) span.

        Only its Smith diagonal is stored: the quotient is GF(2)^n / V for V
        that span, so the diagonal is (1,)*r + (2,)*(n - r).
        """
        n = self.ngens
        twos = tuple(tuple(2 * int(i == j) for j in range(n)) for i in range(n))
        out = AbelianPresentation(self.generator_names, IntegerMatrix._trusted(self.relations.entries + twos, n))
        object.__setattr__(out, "_diagonal", (1,) * rank + (2,) * (n - rank))
        return out

    def _box_bounds(self) -> tuple[int, ...]:
        """The box bounds (p_0, ..., p_{n-1}) of a finite group, in generator
        order: p_i is generator i's pivot in the box form, and the cosets
        are the vectors of prod [0, p_i).  Raises InfiniteGroupError when a
        free generator is present.  elements() walks these bounds, and
        obstruction._labelled reads them to label runs of cosets at once."""
        if not self.is_finite():
            raise InfiniteGroupError(f"group {self.describe()} is infinite")
        h = self._box_form().entries
        return tuple(h[i][i] for i in range(self.ngens))[::-1]

    def elements(self) -> Iterator[tuple[int, ...]]:
        """Yield one coordinate tuple per coset: the vectors of the box
        prod [0, p_i) by coordinate sum ascending and, within one sum,
        lexicographically descending.  Raises InfiniteGroupError when a free
        generator is present.

        p_i is generator i's pivot in the box form, the Hermite form of the
        relations with their columns taken from the last generator back; the
        row of that pivot is zero past i, so reducing from the last generator
        back puts each coset into the box exactly once, zero first, and
        canonical_coords fixes every box vector.

        Where each box vector is the unique smallest-sum nonnegative vector
        of its coset, this is the order of a breadth-first search from zero
        adding e_0, e_1, ... in turn, with each coset named by the vector
        that first reaches it: levels are coordinate sums, a coset c is
        first reached from its lexicographically largest parent c - e_j, j
        its last nonzero coordinate, and parents in descending order find
        their children in descending order.  Every group that classify
        enumerates qualifies: the cyclic groups of P^4, the diagonal CH^1 of
        P^1 x P^3, and its CH^2 = Z^2 / <(d2, 0), (d1, d2)> with box
        [0, d2)^2.  A nonzero a*(d2, 0) + b*(d1, d2) keeping a box vector v
        nonnegative has b >= 0; b = 0 forces a > 0, and b > 0 gives
        a*d2 + b*d1 >= -v_0 > -d2, so its sum exceeds (b - 1)*d2 >= 0.  Other
        groups may differ from the search: Z^2 / <(5, 0), (-2, 1)> yields
        (0, 0), (1, 0), ..., (4, 0).

        _box_walk yields the box lazily, so a huge bound starts at once; a
        group with no generators has the empty vector as its one coset.
        """
        bounds = self._box_bounds()
        if not bounds:
            yield ()
        else:
            yield from _box_walk(bounds, range(sum(bounds) - len(bounds) + 1))

    def __repr__(self) -> str:
        return f"AbelianPresentation({self.generator_names!r}, {self.relations.to_lists()!r})"
