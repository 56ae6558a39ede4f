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
from typing import Iterable, Iterator, Sequence

from .intlinalg import (
    IntegerMatrix,
    hermite_normal_form,
    hermite_reduce,
    smith_diagonal,
    xgcd,
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
    g, x, _ = xgcd(d1, d2)
    step = d2 // g
    m = x % step
    if 2 * m > step:
        m -= step
    n = (g - m * d1) // d2
    return g, m, n


class AbelianPresentation:
    """Abelian group given by generator names and a relation matrix (rows are relations)."""

    __slots__ = ("generator_names", "relations", "_diagonal", "_hnf")

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

    def __setattr__(self, name, value):
        raise AttributeError("AbelianPresentation is immutable")

    @classmethod
    def from_json(cls, obj: dict) -> "AbelianPresentation":
        """Build from {"generators": [...], "relations": [[...], ...]} (entries int or str);
        a payload of another shape is a ValueError naming the key."""
        if not isinstance(obj, dict):
            raise ValueError("presentation must be a JSON object")
        gens = obj.get("generators")
        if not isinstance(gens, list):
            raise ValueError('presentation key "generators" must be a list')
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
        return 0 not in self.invariant_factors()

    def describe(self) -> str:
        """Invariant factors as a direct-sum string, e.g. 'Z/3 ⊕ Z/4' or 'Z/2 ⊕ Z'."""
        factors = self.invariant_factors()
        if not factors:
            return "0"
        return " ⊕ ".join("Z" if f == 0 else f"Z/{f}" for f in factors)

    def canonical_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        return hermite_reduce(self.hnf(), coords)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, coords)

    def tensor_mod2(self) -> "AbelianPresentation":
        """The mod-2 reduction: same generators, relations extended by 2*(each generator)."""
        n = self.ngens
        rows = list(self.relations.entries)
        rows.extend(tuple(2 * int(i == j) for j in range(n)) for i in range(n))
        return AbelianPresentation(self.generator_names, IntegerMatrix(rows, cols=n))

    def elements(self) -> Iterator["GroupElement"]:
        """Yield one representative per coset, breadth-first from zero.

        Representatives are found by repeatedly adding single generators, so
        each coset is labelled by a smallest nonnegative generator combination;
        the zero coset comes first and the order is deterministic.  Raises
        InfiniteGroupError when a free generator is present.
        """
        if not self.is_finite():
            raise InfiniteGroupError(f"group {self.describe()} is infinite")
        n = self.ngens
        start = (0,) * n
        seen = {self.canonical_coords(start)}
        queue = deque([start])
        while queue:
            coords = queue.popleft()
            yield GroupElement(self, coords)
            for i in range(n):
                nb = coords[:i] + (coords[i] + 1,) + coords[i + 1:]
                key = self.canonical_coords(nb)
                if key not in seen:
                    seen.add(key)
                    queue.append(nb)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbelianPresentation)
            and self.generator_names == other.generator_names
            and self.relations == other.relations
        )

    def __hash__(self) -> int:
        return hash((self.generator_names, self.relations))

    def __repr__(self) -> str:
        return f"AbelianPresentation({self.generator_names!r}, {self.relations.to_lists()!r})"


class GroupElement:
    """Element of an AbelianPresentation, stored as a raw coordinate vector."""

    __slots__ = ("group", "coords")

    def __init__(self, group: AbelianPresentation, coords: Sequence[int]):
        coords = tuple(int(c) for c in coords)
        if len(coords) != group.ngens:
            raise ValueError(f"coordinate length {len(coords)} != {group.ngens} generators")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def canonical(self) -> tuple[int, ...]:
        return self.group.canonical_coords(self.coords)

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def order(self) -> int:
        """Least k >= 1 with k*self = 0, or 0 if the element has infinite order.

        Walks the Hermite basis of the relations: a pivot p meeting residual
        coordinate w multiplies the order by p/gcd(p, w), and a coordinate that
        no pivot clears means infinite order.
        """
        w = list(self.coords)
        result = 1
        for row in self.group.hnf().entries:
            pj = next((k for k, x in enumerate(row) if x), None)
            if pj is None:
                break
            p = row[pj]
            k = p // math.gcd(p, w[pj])
            q = k * w[pj] // p
            w = [k * x - q * y for x, y in zip(w, row)]
            result *= k
        return 0 if any(w) else result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.canonical() == other.canonical()
        )

    def __hash__(self) -> int:
        return hash((self.group, self.canonical()))

    def __repr__(self) -> str:
        return f"GroupElement({self.canonical()!r} in {self.group.describe()})"
