"""The Chow ring of a product of projective spaces.

CH*(P^{n1} x ... x P^{nk}) is the truncated polynomial ring
Z[x1,...,xk] / (x1^{n1+1}, ..., xk^{nk+1}) graded by total degree, with xi the
hyperplane class pulled back from the i-th factor.  Classes are stored
sparsely as monomial -> coefficient maps; any product monomial exceeding a
truncation bound is zero and is dropped on the spot.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .abelian import _box_walk


class AmbientMismatchError(Exception):
    """Raised when classes from different ambient spaces are combined."""


@dataclass(frozen=True)
class AmbientSpace:
    """Product of projective spaces P^{n1} x ... x P^{nk}."""

    factor_dims: tuple[int, ...]
    # monomial bases by degree, stored on first use, outside equality and hashing
    _bases: dict[int, tuple[tuple[int, ...], ...]] = field(compare=False, repr=False)

    def __init__(self, factor_dims: Sequence[int]):
        dims = tuple(int(n) for n in factor_dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError("ambient needs at least one factor, each of dimension >= 1")
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "_bases", {})

    @property
    def k(self) -> int:
        return len(self.factor_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.factor_dims)

    def monomial_basis(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """All exponent vectors of the given total degree within the truncation bounds.

        Ordered by descending lexicographic comparison, so powers of the first
        factor sort first: in P^1 x P^3 degree 2 this is (x1*x2, x2^2).  The
        vectors are generated in that order, with no candidate out of bounds,
        by the box walk that AbelianPresentation.elements() runs over a
        group's Hermite box, here run over the exponent box at the one
        coordinate sum `degree`.
        Each degree's basis is generated once per ambient and stored, as a
        presentation stores its normal forms; storing the same tuple twice is
        harmless, so no lock is needed.
        """
        basis = self._bases.get(degree)
        if basis is None:
            basis = self._bases[degree] = tuple(_box_walk([n + 1 for n in self.factor_dims], (degree,)))
        return basis

    def monomial_str(self, exps: Sequence[int]) -> str:
        parts = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(exps)
            if e
        ]
        return "*".join(parts) if parts else "1"

    def in_bounds(self, exps: Sequence[int]) -> bool:
        """Whether every exponent lies in [0, n] for its factor's dimension n,
        for exps of length k; the test runs in C, as cup calls it per term."""
        return all(map(operator.le, exps, self.factor_dims)) and min(exps) >= 0

    def __str__(self) -> str:
        return " x ".join(f"P^{n}" for n in self.factor_dims)


def _check_degree(degree) -> int:
    degree = int(degree)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return degree


@dataclass(frozen=True, init=False, repr=False)
class ChowClass:
    """A graded class: integer combination of monomials of one fixed codimension."""

    ambient: AmbientSpace
    degree: int
    _items: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, ambient: AmbientSpace, degree: int, coeffs: Mapping[tuple[int, ...], int]):
        degree = _check_degree(degree)
        summed: dict[tuple[int, ...], int] = {}
        for exps, c in coeffs.items():
            exps = tuple(int(e) for e in exps)
            c = int(c)
            if c == 0:
                continue
            if len(exps) != ambient.k or not ambient.in_bounds(exps):
                raise ValueError(f"monomial {exps} is not valid in {ambient}")
            if sum(exps) != degree:
                raise ValueError(f"monomial {exps} has degree {sum(exps)}, expected {degree}")
            summed[exps] = summed.get(exps, 0) + c
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_items", ChowClass._trusted(ambient, degree, summed)._items)

    @classmethod
    def _trusted(cls, ambient: AmbientSpace, degree: int, coeffs: Mapping[tuple[int, ...], int]) -> "ChowClass":
        """A class from monomials the package built itself: int exponent tuples,
        in bounds and of the given degree, with int coefficients.  Nothing is
        checked; zero coefficients are dropped and the items sorted, which
        __init__ reuses once it has checked and summed its input."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_items", tuple(sorted([item for item in coeffs.items() if item[1]], reverse=True)))
        return self

    @classmethod
    def from_coords(cls, ambient: AmbientSpace, degree: int, coords: Sequence[int]) -> "ChowClass":
        basis = ambient.monomial_basis(degree)
        if len(coords) != len(basis):
            raise ValueError(f"expected {len(basis)} coordinates, got {len(coords)}")
        return cls._trusted(ambient, _check_degree(degree), {e: int(c) for e, c in zip(basis, coords)})

    @property
    def coeffs(self) -> dict[tuple[int, ...], int]:
        return dict(self._items)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(self._items)

    def is_zero(self) -> bool:
        return not self._items

    def coords(self) -> tuple[int, ...]:
        """Coordinates in the monomial basis of this degree."""
        coeffs = self.coeffs
        return tuple(coeffs.get(e, 0) for e in self.ambient.monomial_basis(self.degree))

    def _check_ambient(self, other: "ChowClass"):
        if not isinstance(other, ChowClass) or other.ambient != self.ambient:
            raise AmbientMismatchError("classes live in different ambient spaces")

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check_ambient(other)
        if self.degree != other.degree:
            raise ValueError(f"cannot add degree {self.degree} to degree {other.degree}")
        out = self.coeffs
        for e, c in other._items:
            out[e] = out.get(e, 0) + c
        return ChowClass._trusted(self.ambient, self.degree, out)

    def __str__(self) -> str:
        return _terms_str((self.ambient.monomial_str(exps), coeff) for exps, coeff in self.items())

    def __repr__(self) -> str:
        return f"ChowClass({self.ambient}, deg {self.degree}, {self})"


def cup(a: ChowClass, b: ChowClass) -> ChowClass:
    """Cup product: bilinear, exponentwise, dropping monomials past a truncation bound."""
    a._check_ambient(b)
    ambient = a.ambient
    degree = a.degree + b.degree
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if not ambient.in_bounds(e):
                continue
            out[e] = out.get(e, 0) + ca * cb
    return ChowClass._trusted(ambient, degree, out)


def reduce_mod2(c: ChowClass) -> ChowClass:
    """Reduce all coefficients into {0, 1}."""
    return ChowClass._trusted(c.ambient, c.degree, {e: v % 2 for e, v in c.items()})


def _divisor_columns(ambient: AmbientSpace, z: ChowClass, j: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of z * m in the degree-j basis, one tuple per degree-(j-1) basis monomial m."""
    # a product monomial missing from the index is past a truncation bound
    index = {e: i for i, e in enumerate(ambient.monomial_basis(j))}
    columns = []
    for m in ambient.monomial_basis(j - 1):
        col = [0] * len(index)
        for e, c in z.items():
            i = index.get(tuple(x + y for x, y in zip(e, m)))
            if i is not None:
                col[i] += c
        columns.append(tuple(col))
    return tuple(columns)


_FACTOR_RE = re.compile(r"(x(\d+)|xi|tau)(?:\^(\d+))?$")
_ALIASES = {"ξ": "x1", "τ": "x2"}
_NAMED_FACTORS = {"xi": 0, "tau": 1}


def parse_class(ambient: AmbientSpace, text: str, degree: int | None = None) -> ChowClass:
    """Parse a class literal such as '3*x1 + 4*x2' or 'x1*x2^2'.

    xi and the Greek letters ξ, τ are accepted as aliases for x1 and x2.
    Monomials that exceed a truncation bound, and terms with coefficient 0,
    are dropped, but a term that names a variable still contributes its
    written degree to degree inference.  Pass degree explicitly to parse a
    bare '0' at a specific codimension.

    The literal is read once, left to right, and its first error is raised: a
    '-' where a term is expected negates it, a '+' there is an error, and each
    term is summed into its monomial as it is read.  Degrees are checked last.
    """
    src = text.strip()
    for greek, name in _ALIASES.items():
        src = src.replace(greek, name)
    if not src:
        raise ValueError("empty class literal")

    coeffs: dict[tuple[int, ...], int] = {}
    degrees_seen: set[int] = set()
    sign = 1
    expect_term = True
    for tok in re.findall(r"[+-]|[^+-]+", src):
        tok = tok.strip()
        if tok in {"+", "-"}:
            if expect_term and tok == "+":
                raise ValueError(f"misplaced sign in {text!r}")
            if tok == "-":
                sign = -sign
            expect_term = True
            continue
        if not tok:
            continue
        coeff = sign
        exps = [0] * ambient.k
        named = False
        for factor in tok.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {tok!r}")
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            name = m.group(1)
            idx = int(m.group(2)) - 1 if m.group(2) else _NAMED_FACTORS[name]
            if not 0 <= idx < ambient.k:
                raise ValueError(f"{name} is not a factor of {ambient}")
            exps[idx] += int(m.group(3) or 1)
            named = True
        if coeff or named:
            degrees_seen.add(sum(exps))
        exps = tuple(exps)
        if ambient.in_bounds(exps):
            coeffs[exps] = coeffs.get(exps, 0) + coeff
        sign = 1
        expect_term = False
    if expect_term:
        raise ValueError(f"trailing sign in {text!r}")

    if degree is None:
        if len(degrees_seen) > 1:
            raise ValueError(f"mixed degrees {sorted(degrees_seen)} in {text!r}")
        degree = degrees_seen.pop() if degrees_seen else 0
    elif degrees_seen and degrees_seen != {degree}:
        raise ValueError(f"class {text!r} has degree {sorted(degrees_seen)}, expected {degree}")
    return ChowClass._trusted(ambient, _check_degree(degree), coeffs)


def _terms_str(terms: Iterable[tuple[str, int]]) -> str:
    """Join (monomial name, coefficient) terms as a class literal, skipping zero coefficients."""
    parts = []
    for mono, coeff in terms:
        if not coeff:
            continue
        if mono == "1":
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(mono)
        elif coeff == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{coeff}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"
