"""Finitely generated abelian groups presented by generators and an integer relation matrix.

A presentation is the quotient Z^n / L where L is the row lattice of the
relation matrix.  Elements are coordinate vectors in generator coordinates;
two vectors represent the same element exactly when their difference lies in
L.  Canonical per-coset representatives come from reduction against the
Hermite form of L, which makes equality, hashing and zero-tests cheap and
deterministic.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .intlinalg import (
    IntegerMatrix,
    _gf2_span,
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


def _box_level(bounds: Sequence[int], total: int) -> list[tuple[int, ...]]:
    """The vectors v with 0 <= v_i < bounds[i] and coordinate sum `total`, in
    lexicographically descending order; none when no such vector exists.
    bounds is not empty."""
    if len(bounds) == 1:
        return [(total,)] if 0 <= total < bounds[0] else []
    # prefixes with what they leave over, each coordinate running down from
    # its largest value while the coordinates after it can hold the rest
    *head, a, b = bounds
    room = sum(bounds) - len(bounds)
    prefixes = [((), total)]
    for p in head:
        room -= p - 1
        prefixes = [
            (v + (c,), left - c)
            for v, left in prefixes
            for c in range(min(p - 1, left), max(0, left - room) - 1, -1)
        ]
    # the last two coordinates: a plain range
    return [
        v + (c, left - c)
        for v, left in prefixes
        for c in range(min(a - 1, left), max(0, left - b + 1) - 1, -1)
    ]


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

    def hnf(self) -> IntegerMatrix:
        if self._hnf is None:
            object.__setattr__(self, "_hnf", hermite_normal_form(self.relations))
        return self._hnf

    def invariant_factors(self) -> tuple[int, ...]:
        """Diagonal of the relation SNF with 1s dropped and a 0 per free generator.

        The result is in divisibility order with zeros (free ranks) trailing.
        """
        if self._diagonal is None:
            object.__setattr__(self, "_diagonal", smith_diagonal(self.relations))
        diag = self._diagonal
        return tuple(d for d in diag if d != 1) + (0,) * (self.ngens - len(diag))

    def is_finite(self) -> bool:
        """Whether the Hermite form, which elements() builds anyway, has a
        nonzero row per generator; no Smith form is computed."""
        return sum(map(any, self.hnf().entries)) == self.ngens

    def describe(self) -> str:
        """Invariant factors as a direct-sum string, e.g. 'Z/3 ⊕ Z/4' or 'Z/2 ⊕ Z'."""
        factors = self.invariant_factors()
        if not factors:
            return "0"
        return " ⊕ ".join("Z" if f == 0 else f"Z/{f}" for f in factors)

    def canonical_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        return hermite_reduce(self.hnf(), coords)

    def element_order(self, coords: Sequence[int]) -> int:
        """Least k >= 1 with k*coords = 0, or 0 if the element has infinite order.

        Walks the Hermite basis of the relations: a pivot p meeting residual
        coordinate w multiplies the order by p/gcd(p, w), and a coordinate that
        no pivot clears means infinite order.  Pivots move strictly right, so
        each row's pivot search resumes past the last one.
        """
        if len(coords) != self.ngens:
            raise ValueError(f"coordinate length {len(coords)} != {self.ngens} generators")
        w = list(coords)
        n = len(w)
        result = 1
        pj = 0
        for row in self.hnf().entries:
            while pj < n and not row[pj]:
                pj += 1
            if pj == n:
                break
            p = row[pj]
            k = p // math.gcd(p, w[pj])
            q = k * w[pj] // p
            w = [k * x - q * y for x, y in zip(w, row)]
            result *= k
            pj += 1
        return 0 if any(w) else result

    def tensor_mod2(self) -> "AbelianPresentation":
        """The mod-2 reduction: same generators, relations extended by 2*(each generator).

        Only its Smith diagonal is stored: the quotient is GF(2)^n / V for V
        the GF(2) span of the relations, of rank r, so the diagonal is
        (1,)*r + (2,)*(n - r).
        """
        return self._mod2_quotient(len(_gf2_span(self.relations.entries)))

    def _mod2_quotient(self, rank: int) -> "AbelianPresentation":
        """tensor_mod2 for a caller that already holds the GF(2) span of the
        relations, from the rank of that span."""
        n = self.ngens
        twos = tuple(tuple(2 * int(i == j) for j in range(n)) for i in range(n))
        out = AbelianPresentation(self.generator_names, IntegerMatrix._trusted(self.relations.entries + twos, n))
        object.__setattr__(out, "_diagonal", (1,) * rank + (2,) * (n - rank))
        return out

    def _box_bounds(self) -> tuple[int, ...] | None:
        """The pivots (p_0, ..., p_{n-1}) when the first n Hermite rows are
        diag(p_0, ..., p_{n-1}), else None.  Only called on a finite group,
        whose Hermite form has a pivot in every column."""
        rows = self.hnf().entries[: self.ngens]
        if any(any(row[i + 1:]) for i, row in enumerate(rows)):
            return None
        return tuple(row[i] for i, row in enumerate(rows))

    def elements(self) -> Iterator[tuple[int, ...]]:
        """Yield one coordinate tuple per coset, breadth-first from zero.

        Representatives are found by repeatedly adding single generators
        e_0, e_1, ... in that order, so each coset is named by a smallest
        nonnegative generator combination, which reads as a label through
        `generator_names`; the zero coset comes first and the order is
        deterministic.  Raises InfiniteGroupError when a free generator is
        present.

        When the Hermite form is diag(p_0, ..., p_{n-1}) the search has a
        closed form, and the cosets are yielded without one: the vectors of
        the box prod [0, p_i), by coordinate sum ascending and, within one
        sum, lexicographically descending.  This is the search's own order:

        * in the box, a step off an edge wraps to a coset with a smaller sum,
          which the search has already seen; so its levels are coordinate
          sums, and each coset's representative is its unique box vector;
        * if the queue holds a level in lexicographically descending order,
          a coset c is first reached from its lexicographically largest
          parent c - e_j, where j is c's last nonzero coordinate;
        * parents in that order, each trying e_0, e_1, ... in turn, discover
          their children in lexicographically descending order, which is
          therefore the order of the next level too.

        When at most one bound exceeds 1, every level holds one vector, the
        zero vector with c in that coordinate, so the box is a plain range
        of c; with every bound 1 it is the zero vector alone.
        """
        if not self.is_finite():
            raise InfiniteGroupError(f"group {self.describe()} is infinite")
        bounds = self._box_bounds()
        if bounds is not None:
            moving = [i for i, p in enumerate(bounds) if p > 1]
            if len(moving) <= 1:
                # one coset per level: a plain range is fastest
                zero = (0,) * len(bounds)
                if not moving:
                    yield zero
                    return
                i = moving[0]
                before, after = zero[:i], zero[i + 1:]
                for c in range(bounds[i]):
                    yield before + (c,) + after
            else:
                for total in range(sum(bounds) - len(bounds) + 1):
                    yield from _box_level(bounds, total)
            return
        n = self.ngens
        start = (0,) * n
        seen = {self.canonical_coords(start)}
        queue = deque([start])
        while queue:
            coords = queue.popleft()
            yield coords
            for i in range(n):
                nb = coords[:i] + (coords[i] + 1,) + coords[i + 1:]
                key = self.canonical_coords(nb)
                if key not in seen:
                    seen.add(key)
                    queue.append(nb)

    def __repr__(self) -> str:
        return f"AbelianPresentation({self.generator_names!r}, {self.relations.to_lists()!r})"
