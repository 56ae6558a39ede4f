"""Chow groups of hypersurface complements as explicit cokernel presentations.

For an ambient product of projective spaces Y and a hypersurface Z of
multidegree (d_1, ..., d_k), the open complement X = Y \\ Z has
CH^j(X) = CH^j(Y) / im(pushforward from Z).  The pushforward image is not
directly computable from the multidegree, so each quotient is taken against a
declared subgroup S_j together with an explicit containment direction:

* the divisor-multiple subgroup (kind 'naive') is generated by
  z * (degree j-1 monomials) and always sits INSIDE the pushforward image, by
  the projection formula, so its quotient surjects onto CH^j(X): vanishing
  there certifies vanishing in CH^j(X);
* an 'even-degree' subgroup is asserted to CONTAIN the pushforward image, so
  CH^j(X) surjects onto its quotient (a witness quotient): nonvanishing there
  certifies nonvanishing in CH^j(X);
* 'nori' asserts the divisor-multiple subgroup IS the image;
* custom subgroups carry their own direction flag and the caller vouches for
  them.

certificate() gives each quotient an ExactnessCertificate recording how much is
actually known about it.  EXACT is only issued in degrees <= 2 over an ambient
of total dimension >= 4 with an ample hypersurface class, where the quotient
provably equals CH^j(X).
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


class AssumptionKind(str, Enum):
    NAIVE_DIVISOR = "naive"
    EVEN_DEGREE = "even-degree"
    NORI_EXACT = "nori"
    CUSTOM = "custom"


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
# contain the pushforward image, keyed by ambient factor dimensions.
_EVEN_DEGREE_GENERATORS: dict[tuple[int, ...], tuple[str, ...]] = {
    (1, 3): ("2*x1*x2^2", "x2^3"),
    (4,): ("2*x1^3",),
}
# the same generators in the degree-3 monomial basis, parsed once
_EVEN_DEGREE_ROWS: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {
    dims: tuple(parse_class(AmbientSpace(dims), g).coords() for g in gens)
    for dims, gens in _EVEN_DEGREE_GENERATORS.items()
}


@dataclass(frozen=True)
class PushforwardAssumption:
    """A declared subgroup of CH^j(Y) with its containment direction."""

    kind: AssumptionKind
    direction: Direction
    applicable_degree: int | None = None
    custom_generators: tuple[ChowClass, ...] = ()

    @staticmethod
    def naive() -> "PushforwardAssumption":
        return PushforwardAssumption(AssumptionKind.NAIVE_DIVISOR, Direction.CONTAINED_IN_IMAGE)

    @staticmethod
    def even_degree() -> "PushforwardAssumption":
        return PushforwardAssumption(AssumptionKind.EVEN_DEGREE, Direction.CONTAINS_IMAGE, 3)

    @staticmethod
    def nori() -> "PushforwardAssumption":
        return PushforwardAssumption(AssumptionKind.NORI_EXACT, Direction.EQUALS_IMAGE)

    @staticmethod
    def custom(
        generators: tuple[ChowClass, ...] | list[ChowClass],
        direction: Direction | str,
        degree: int,
    ) -> "PushforwardAssumption":
        direction = Direction(direction)
        if direction == Direction.EQUALS_IMAGE:
            raise ValueError("custom subgroups declare contains_image or contained_in_image")
        return PushforwardAssumption(
            AssumptionKind.CUSTOM, direction, int(degree), tuple(generators)
        )

    @property
    def presents_divisor_multiples(self) -> bool:
        """naive and nori quotient by the same divisor-multiple subgroup in every degree."""
        return self.kind in (AssumptionKind.NAIVE_DIVISOR, AssumptionKind.NORI_EXACT)

    def label(self) -> str:
        if self.kind == AssumptionKind.CUSTOM:
            gens = ", ".join(str(g) for g in self.custom_generators)
            return f"custom[{gens}]"
        return self.kind.value


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


def _naive_relation_rows(model: ComplementModel, j: int) -> tuple[tuple[int, ...], ...]:
    """Generators of the divisor-multiple subgroup in the degree-j basis.

    In degree 1 the quotient is presented with one relation d_i * x_i per
    factor, so that CH^1 splits as the direct sum of Z/d_i with x_i generating
    the i-th summand; in every other degree the generators are z * (each
    degree j-1 basis monomial), the coordinate tuples of _divisor_columns,
    taken directly as relation rows, and degree 0 has none.
    """
    ambient = model.ambient
    if j == 1:
        k = ambient.k
        return tuple(
            tuple(model.multidegree[i] * int(c == i) for c in range(k)) for i in range(k)
        )
    return _divisor_columns(ambient, model.z_class, j)


def _relation_rows(
    model: ComplementModel, j: int, assumption: PushforwardAssumption
) -> tuple[tuple[int, ...], ...]:
    """The assumption's subgroup generators in the degree-j basis; raises where it does not apply."""
    if assumption.presents_divisor_multiples:
        return _naive_relation_rows(model, j)
    if j == assumption.applicable_degree:
        if assumption.kind == AssumptionKind.EVEN_DEGREE:
            rows = _EVEN_DEGREE_ROWS.get(model.ambient.factor_dims)
            if rows is not None:
                return rows
        elif all(g.ambient == model.ambient and g.degree == j for g in assumption.custom_generators):
            return tuple(g.coords() for g in assumption.custom_generators)
    raise InapplicableAssumptionError(
        f"assumption {assumption.label()!r} does not apply to degree {j} of {model.ambient}"
    )


def certificate(model: ComplementModel, j: int, assumption: PushforwardAssumption) -> ExactnessCertificate:
    """How the degree-j quotient by the assumption's subgroup relates to CH^j(X)."""
    provably_exact = j <= 2 and model.ambient.total_dim >= 4 and model.is_ample
    note = "" if model.is_ample else "hypersurface class is not ample; closed-form guarantees are void"
    if assumption.kind == AssumptionKind.NAIVE_DIVISOR:
        status = Status.EXACT if provably_exact else Status.UPPER_BOUND_ONLY
    elif assumption.kind == AssumptionKind.NORI_EXACT:
        status = Status.EXACT if provably_exact else Status.ASSUMED_EXACT
    elif assumption.direction == Direction.CONTAINS_IMAGE:
        status = Status.ASSUMED_CONTAINS
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
