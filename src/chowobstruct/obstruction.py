"""The rank-2 algebraizability obstruction theta = Sq^2(c2) + c1 * c2 and its verdicts.

A pair (c1, c2) of ambient classes of degrees 1 and 2 lifts candidate Chern
classes on the complement.  theta is a degree-3 mod-2 class on the ambient
space; the pair is realizable by a rank-2 bundle on the complement exactly
when theta dies in CH^3(complement)/2.  That group is never computed directly;
instead theta is pushed into quotients with a known containment direction:

* zero in a quotient by a subgroup lying INSIDE the pushforward image
  (the divisor-multiple subgroup, or a custom lower bound) forces theta = 0 in
  CH^3/2, hence ALGEBRAIZABLE;
* nonzero in a quotient by a subgroup asserted to CONTAIN the image (an
  even-degree witness quotient) forces theta != 0 in CH^3/2, hence
  NOT_ALGEBRAIZABLE;
* otherwise the verdict is UNDETERMINED and is never upgraded.

The declared containing assumption, when one is supplied, is taken at face
value and its witness check runs first; the divisor-multiple restriction is
always computed and recorded alongside.  Verdicts are only issued on ambient
spaces of total dimension 4, where the criterion applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .abelian import GroupElement, InfiniteGroupError
from .chow import AmbientMismatchError, ChowClass, class_str, cup, reduce_mod2
from .complement import ComplementModel, Direction, PushforwardAssumption, certificate, complement_group
from .steenrod import sq2

UNVERIFIED_HYPOTHESES = (
    "the complement is treated as a smooth affine fourfold over an algebraically "
    "closed field of characteristic != 2; this is recorded, not checked"
)


class DimensionUnsupportedError(Exception):
    """Raised when a verdict is requested on an ambient of total dimension != 4."""


class Verdict(str, Enum):
    ALGEBRAIZABLE = "ALGEBRAIZABLE"
    NOT_ALGEBRAIZABLE = "NOT_ALGEBRAIZABLE"
    UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class ChernPair:
    """Candidate first and second Chern classes, lifted to the ambient space."""

    c1: ChowClass
    c2: ChowClass

    def __post_init__(self):
        if self.c1.ambient != self.c2.ambient:
            raise AmbientMismatchError("c1 and c2 live in different ambient spaces")
        if self.c1.degree != 1 or self.c2.degree != 2:
            raise ValueError(
                f"expected degrees (1, 2), got ({self.c1.degree}, {self.c2.degree})"
            )


@dataclass(frozen=True, eq=False)
class ObstructionReport:
    theta_on_y: ChowClass
    theta_image: GroupElement
    verdict: Verdict
    justification: dict


def theta(pair: ChernPair) -> ChowClass:
    """Sq^2(c2) + c1 * c2 as a degree-3 mod-2 class on the ambient space."""
    return reduce_mod2(sq2(pair.c2) + cup(pair.c1, pair.c2))


def sq2_descends(model: ComplementModel) -> bool:
    """Check that Sq^2 maps the degree-2 divisor-multiple relations into the
    degree-3 ones mod 2, so the obstruction of a coset does not depend on the
    chosen lift of c2.

    This always holds, so decide() does not run it.  The degree-2 relations are
    z*m for the degree-1 monomials m.  Sq^2 is additive mod 2 and squares the
    divisor z, so the Cartan formula on Chow groups mod 2 (Brosnan, Steenrod
    operations in Chow theory, Trans. AMS 355 (2003)) gives

        Sq^2(z*m) = z^2*m + z*Sq^2(m) = z*(z*m + Sq^2(m)),

    a multiple of z in degree 3, i.e. a degree-3 relation.  The function stays
    as the executable check of that argument.
    """
    naive = PushforwardAssumption.naive()
    quotient = complement_group(model, 3, naive).tensor_mod2()
    return all(
        quotient.element(sq2(ChowClass.from_coords(model.ambient, 2, rel)).coords()).is_zero()
        for rel in complement_group(model, 2, naive).relations.entries
    )


def decide(
    model: ComplementModel,
    pair: ChernPair,
    assumption: PushforwardAssumption | None = None,
) -> ObstructionReport:
    """Evaluate theta for the pair and issue a three-valued verdict.

    The verdict is sound relative to the declared assumption: NOT_ALGEBRAIZABLE
    is only ever derived from a quotient asserted to contain the pushforward
    image, ALGEBRAIZABLE only from a quotient by a subgroup lying inside it.
    """
    if assumption is None:
        assumption = PushforwardAssumption.naive()
    if model.ambient.total_dim != 4:
        raise DimensionUnsupportedError(
            f"criterion applies to total dimension 4, not {model.ambient.total_dim}"
        )
    if pair.c1.ambient != model.ambient:
        raise AmbientMismatchError("pair does not live on the model's ambient space")

    th = theta(pair)
    coords = th.coords()
    naive = PushforwardAssumption.naive()
    naive_mod2 = complement_group(model, 3, naive).tensor_mod2()
    naive_zero = naive_mod2.element(coords).is_zero()
    if assumption.presents_divisor_multiples:
        assm_mod2 = naive_mod2
    else:
        assm_mod2 = complement_group(model, 3, assumption).tensor_mod2()
    assm_image = assm_mod2.element(coords)
    assm_zero = assm_image.is_zero()

    contains_side = assumption.direction in (Direction.CONTAINS_IMAGE, Direction.EQUALS_IMAGE)
    lower_side_zero = naive_zero or (
        assumption.direction in (Direction.CONTAINED_IN_IMAGE, Direction.EQUALS_IMAGE)
        and assm_zero
    )

    if contains_side and not assm_zero:
        verdict = Verdict.NOT_ALGEBRAIZABLE
        basis = (
            f"theta is nonzero in the degree-3 mod-2 quotient by the "
            f"'{assumption.label()}' subgroup, asserted to contain the pushforward image"
        )
    elif lower_side_zero:
        verdict = Verdict.ALGEBRAIZABLE
        if naive_zero:
            basis = (
                "theta vanishes in the degree-3 mod-2 quotient by the divisor-multiple "
                "subgroup, a lower bound for the pushforward image by the projection formula"
            )
        else:
            basis = (
                f"theta vanishes in the degree-3 mod-2 quotient by the "
                f"'{assumption.label()}' subgroup, asserted to lie inside the pushforward image"
            )
    else:
        verdict = Verdict.UNDETERMINED
        basis = (
            "theta survives every quotient bounding the pushforward image from below, "
            "and no containing subgroup certifies nonvanishing"
        )

    justification = {
        "assumption": assumption.label(),
        "direction": assumption.direction.value,
        "certificates": {
            "naive": certificate(model, 3, naive).as_dict(),
            "assumption": certificate(model, 3, assumption).as_dict(),
        },
        "naive_theta_zero": naive_zero,
        "assumption_theta_zero": assm_zero,
        "verdict_basis": basis,
        "unverified_hypotheses": UNVERIFIED_HYPOTHESES,
    }
    return ObstructionReport(
        theta_on_y=th,
        theta_image=assm_image,
        verdict=verdict,
        justification=justification,
    )


@dataclass(frozen=True)
class ClassifyRow:
    c1: str
    c2: str
    verdict: Verdict


def classify_all(
    model: ComplementModel, assumption: PushforwardAssumption | None = None
) -> list[ClassifyRow]:
    """One verdict per element of CH^1(X) x CH^2(X).

    Cosets are enumerated through the divisor-multiple quotients in degrees 1
    and 2 (the declared assumption only ever concerns degree 3) and each coset
    is lifted to the ambient space through its smallest nonnegative
    representative.  Rows run over CH^2 inside CH^1, both in enumeration
    order, so output is deterministic.

    theta, and with it the verdict, reads the lifts only mod 2, so decide()
    runs once per pair of coordinate parities: at most 2^(b1 + b2) times, where
    b1 and b2 are the ranks of CH^1 and CH^2 of the ambient space.
    """
    if assumption is None:
        assumption = PushforwardAssumption.naive()
    naive = PushforwardAssumption.naive()
    g1 = complement_group(model, 1, naive)
    g2 = complement_group(model, 2, naive)
    if not (g1.is_finite() and g2.is_finite()):
        raise InfiniteGroupError(
            f"classification sweep needs finite groups, got {g1.describe()} and {g2.describe()}"
        )

    elements2 = list(g2.elements())
    lifts2 = [ChowClass.from_coords(model.ambient, 2, e2.coords) for e2 in elements2]
    labels2 = [class_str(lift2) for lift2 in lifts2]
    parities2 = [tuple(c % 2 for c in e2.coords) for e2 in elements2]
    verdicts = {}
    rows = []
    for e1 in g1.elements():
        lift1 = ChowClass.from_coords(model.ambient, 1, e1.coords)
        label1 = class_str(lift1)
        parity1 = tuple(c % 2 for c in e1.coords)
        for lift2, label2, parity2 in zip(lifts2, labels2, parities2):
            key = (parity1, parity2)
            if key not in verdicts:
                verdicts[key] = decide(model, ChernPair(lift1, lift2), assumption).verdict
            rows.append(ClassifyRow(c1=label1, c2=label2, verdict=verdicts[key]))
    return rows
