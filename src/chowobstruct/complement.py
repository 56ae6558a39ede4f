"""Chow groups of hypersurface complements as explicit cokernel presentations.

For an ambient product of projective spaces Y and a hypersurface Z of
multidegree (d_1, ..., d_k), the open complement X = Y \\ Z has
CH^j(X) = CH^j(Y) / im(pushforward from Z).  The pushforward image is not
directly computable from the multidegree, so each quotient is taken against a
declared subgroup S_j, given by its generator rows, together with the
direction in which S_j sits against the image:

* with no rows declared, S_j is the divisor multiples z * CH^{j-1}(Y), in
  every degree.  By the projection formula they lie INSIDE the pushforward
  image, so the quotient surjects onto CH^j(X): vanishing there certifies
  vanishing in CH^j(X).  An assumption may also declare them EQUAL to the
  image, as 'nori' does;
* otherwise the rows are declared in one degree, on the ambients they are
  written for, and the subgroup is asserted either to CONTAIN the image, so
  that CH^j(X) surjects onto the quotient (a witness quotient): nonvanishing
  there certifies nonvanishing in CH^j(X), as for 'even-degree'; or to lie
  inside it.  The caller vouches for the direction.

certificate() gives each quotient an ExactnessCertificate recording how much is
actually known about it.  EXACT is only issued for the divisor multiples, in
degrees <= 2 over an ambient of total dimension >= 4 with an ample
hypersurface class, where the quotient provably equals CH^j(X).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, lcm

from .abelian import AbelianPresentation, bezout
from .chow import (
    AmbientSpace,
    ChowClass,
    _divisor_columns,
    parse_class,
)
from .intlinalg import IntegerMatrix


class InapplicableAssumptionError(Exception):
    """Raised when an assumption is requested for a degree or ambient it does not cover."""


class Direction(str, Enum):
    CONTAINED_IN_IMAGE = "contained_in_image"
    CONTAINS_IMAGE = "contains_image"
    EQUALS_IMAGE = "equals_image"


class Status(str, Enum):
    EXACT = "EXACT"
    UPPER_BOUND_ONLY = "UPPER_BOUND_ONLY"
    ASSUMED_EXACT = "ASSUMED_EXACT"
    ASSUMED_CONTAINS = "ASSUMED_CONTAINS"


# The two certified even-degree instances: degree-3 subgroups asserted to
# contain the pushforward image, as (ambient factor dimensions, generator
# rows) pairs, the generators read into the degree-3 basis once, at import.
_EVEN_DEGREE_ROWS = tuple(
    (dims, tuple(parse_class(AmbientSpace(dims), g).coords() for g in generators))
    for dims, generators in (((1, 3), ("2*x1*x2^2", "x2^3")), ((4,), ("2*x1^3",)))
)


@dataclass(frozen=True)
class PushforwardAssumption:
    """A declared subgroup of CH^j(Y) with its containment direction.

    rows is None for the divisor multiples, in every degree.  Otherwise the
    subgroup lives in the one degree `degree`, and rows holds its generators
    in that degree's monomial basis as (factor dims, rows) pairs, one per
    ambient it is declared on.
    """

    name: str
    direction: Direction
    degree: int | None = None
    rows: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...] | None = None

    @staticmethod
    def naive() -> "PushforwardAssumption":
        return PushforwardAssumption("naive", Direction.CONTAINED_IN_IMAGE)

    @staticmethod
    def even_degree() -> "PushforwardAssumption":
        return PushforwardAssumption("even-degree", Direction.CONTAINS_IMAGE, 3, _EVEN_DEGREE_ROWS)

    @staticmethod
    def nori() -> "PushforwardAssumption":
        return PushforwardAssumption("nori", Direction.EQUALS_IMAGE)

    @staticmethod
    def custom(
        ambient: AmbientSpace,
        generators: tuple[ChowClass, ...] | list[ChowClass],
        direction: Direction | str,
        degree: int,
    ) -> "PushforwardAssumption":
        """The span of the generators in CH^degree of `ambient`, which applies
        nowhere if a generator lies in another degree or ambient."""
        direction = Direction(direction)
        if direction == Direction.EQUALS_IMAGE:
            raise ValueError("custom subgroups declare contains_image or contained_in_image")
        degree = int(degree)
        generators = tuple(generators)
        rows = ()
        if all(g.ambient == ambient and g.degree == degree for g in generators):
            rows = ((ambient.factor_dims, tuple(g.coords() for g in generators)),)
        name = f"custom[{', '.join(str(g) for g in generators)}]"
        return PushforwardAssumption(name, direction, degree, rows)

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class ExactnessCertificate:
    """What is known about a degree-j quotient: proven, bounded, or assumed."""

    degree: int
    status: Status
    note: str

    def as_dict(self) -> dict:
        out = {"degree": self.degree, "status": self.status.value}
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class ComplementModel:
    """Ambient space plus hypersurface multidegree."""

    ambient: AmbientSpace
    multidegree: tuple[int, ...]

    def __init__(self, ambient: AmbientSpace, multidegree):
        degrees = tuple(int(d) for d in multidegree)
        if len(degrees) != ambient.k:
            raise ValueError(f"multidegree needs {ambient.k} components, got {len(degrees)}")
        if any(d < 0 for d in degrees):
            raise ValueError("multidegree components must be nonnegative")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "multidegree", degrees)

    @property
    def z_class(self) -> ChowClass:
        """The hypersurface class d_1*x1 + ... + d_k*xk."""
        k = self.ambient.k
        return ChowClass._trusted(
            self.ambient, 1, {tuple(int(j == i) for j in range(k)): d for i, d in enumerate(self.multidegree)}
        )

    @property
    def is_ample(self) -> bool:
        return all(d > 0 for d in self.multidegree)


def _relation_rows(model: ComplementModel, j: int, assumption: PushforwardAssumption) -> tuple[tuple[int, ...], ...]:
    """The assumption's subgroup generators in the degree-j basis, as read by
    complement_group and the verdict rule; raises where it does not apply.

    With no rows declared this is the divisor-multiple subgroup.  In degree 1
    the quotient is presented with one relation d_i * x_i per factor, so that
    CH^1 splits as the direct sum of Z/d_i with x_i generating the i-th
    summand; in every other degree the generators are z * (each degree j-1
    basis monomial), the coordinate tuples of _divisor_columns, taken
    directly as relation rows, and degree 0 has none.  Declared rows apply in
    their one degree, on the ambients they are declared for.
    """
    if assumption.rows is None:
        if j == 1:
            k = model.ambient.k
            return tuple(tuple(model.multidegree[i] * int(c == i) for c in range(k)) for i in range(k))
        return _divisor_columns(model.ambient, model.z_class, j)
    if j == assumption.degree:
        for dims, rows in assumption.rows:
            if dims == model.ambient.factor_dims:
                return rows
    raise InapplicableAssumptionError(
        f"assumption {assumption.label()!r} does not apply to degree {j} of {model.ambient}"
    )


def certificate(model: ComplementModel, j: int, assumption: PushforwardAssumption) -> ExactnessCertificate:
    """How the degree-j quotient by the assumption's subgroup relates to CH^j(X)."""
    provably_exact = j <= 2 and model.ambient.total_dim >= 4 and model.is_ample
    note = "" if model.is_ample else "hypersurface class is not ample; closed-form guarantees are void"
    if assumption.direction == Direction.CONTAINS_IMAGE:
        status = Status.ASSUMED_CONTAINS
    elif assumption.rows is None and provably_exact:
        status = Status.EXACT
    elif assumption.direction == Direction.EQUALS_IMAGE:
        status = Status.ASSUMED_EXACT
    else:
        status = Status.UPPER_BOUND_ONLY
    # EXACT needs an ample class, so it never carries the note
    return ExactnessCertificate(degree=j, status=status, note=note)


def complement_group(model: ComplementModel, j: int, assumption: PushforwardAssumption) -> AbelianPresentation:
    """Present CH^j of the complement as (degree-j monomials) / (assumption subgroup).

    certificate() says how this quotient relates to the true Chow group.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    rows = _relation_rows(model, j, assumption)
    basis = model.ambient.monomial_basis(j)
    names = tuple(model.ambient.monomial_str(e) for e in basis)
    return AbelianPresentation(names, IntegerMatrix._trusted(rows, len(basis)))


@dataclass(frozen=True)
class ClosedFormReport:
    """Degree-1 and degree-2 invariant factors of a P^1 x P^3 complement, checked
    against the closed forms Z/d1 + Z/d2 and Z/g + Z/(d2^2/g)."""

    d1: int
    d2: int
    g: int
    m: int
    n: int
    ch1_factors: tuple[int, ...]
    ch1_expected: tuple[int, ...]
    ch2_factors: tuple[int, ...]
    ch2_expected: tuple[int, ...]
    xi_tau_image: tuple[int, int]
    ok: bool


def closed_form_check(d1: int, d2: int) -> ClosedFormReport:
    """Compare the computed degree-1/2 quotients of P^1 x P^3 minus a hypersurface
    of multidegree (d1, d2) with their closed forms.

    Also reports the Bezout data (g, m, n) with m*d1 + n*d2 = g and the image of
    x1*x2 in the diagonalized degree-2 basis, which is (1, -m*d2/g).  The image
    coordinates depend on the pinned minimal-|m| Bezout choice; the invariant
    factors do not.
    """
    d1, d2 = int(d1), int(d2)
    if d1 < 1 or d2 < 1:
        raise ValueError("closed forms require d1, d2 >= 1")
    g, m, n = bezout(d1, d2)
    model = ComplementModel(AmbientSpace((1, 3)), (d1, d2))
    naive = PushforwardAssumption.naive()
    ch1 = complement_group(model, 1, naive).invariant_factors()
    ch2 = complement_group(model, 2, naive).invariant_factors()
    ch1_expected = tuple(f for f in (gcd(d1, d2), lcm(d1, d2)) if f != 1)
    ch2_expected = tuple(f for f in (g, d2 * d2 // g) if f != 1)
    return ClosedFormReport(
        d1=d1,
        d2=d2,
        g=g,
        m=m,
        n=n,
        ch1_factors=ch1,
        ch1_expected=ch1_expected,
        ch2_factors=ch2,
        ch2_expected=ch2_expected,
        xi_tau_image=(1, -m * d2 // g),
        ok=(ch1 == ch1_expected and ch2 == ch2_expected),
    )
