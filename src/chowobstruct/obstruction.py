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

from .abelian import AbelianPresentation, InfiniteGroupError
from .chow import AmbientMismatchError, ChowClass, _terms_str, cup, reduce_mod2
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
    """theta on the ambient, and its canonical coordinates in the assumption's
    degree-3 mod-2 quotient."""

    theta_on_y: ChowClass
    theta_image: tuple[int, ...]
    theta_quotient: AbelianPresentation
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
        quotient.is_zero(sq2(ChowClass.from_coords(model.ambient, 2, rel)).coords())
        for rel in complement_group(model, 2, naive).relations.entries
    )


def decide(model: ComplementModel, pair: ChernPair, assumption: PushforwardAssumption) -> ObstructionReport:
    """Evaluate theta for the pair and issue a three-valued verdict.

    The verdict is sound relative to the declared assumption: NOT_ALGEBRAIZABLE
    is only ever derived from a quotient asserted to contain the pushforward
    image, ALGEBRAIZABLE only from a quotient by a subgroup lying inside it.
    The verdict comes from _verdict_rule, shared with classify's table; the
    basis text is written here, from the verdict and naive_zero.
    """
    _check_total_dim(model)
    if pair.c1.ambient != model.ambient:
        raise AmbientMismatchError("pair does not live on the model's ambient space")
    assm_mod2, rule = _verdict_rule(model, assumption)
    certificates = {
        "naive": certificate(model, 3, PushforwardAssumption.naive()).as_dict(),
        "assumption": certificate(model, 3, assumption).as_dict(),
    }
    th = theta(pair)
    verdict, naive_zero, assm_image = rule(th.coords())
    if verdict is Verdict.NOT_ALGEBRAIZABLE:
        basis = (
            f"theta is nonzero in the degree-3 mod-2 quotient by the "
            f"'{assumption.label()}' subgroup, asserted to contain the pushforward image"
        )
    elif verdict is Verdict.UNDETERMINED:
        basis = (
            "theta survives every quotient bounding the pushforward image from below, "
            "and no containing subgroup certifies nonvanishing"
        )
    elif naive_zero:
        basis = (
            "theta vanishes in the degree-3 mod-2 quotient by the divisor-multiple "
            "subgroup, a lower bound for the pushforward image by the projection formula"
        )
    else:
        basis = (
            f"theta vanishes in the degree-3 mod-2 quotient by the "
            f"'{assumption.label()}' subgroup, asserted to lie inside the pushforward image"
        )
    return ObstructionReport(
        theta_on_y=th,
        theta_image=assm_image,
        theta_quotient=assm_mod2,
        verdict=verdict,
        justification={
            "assumption": assumption.label(),
            "direction": assumption.direction.value,
            "certificates": certificates,
            "naive_theta_zero": naive_zero,
            "assumption_theta_zero": not any(assm_image),
            "verdict_basis": basis,
            "unverified_hypotheses": UNVERIFIED_HYPOTHESES,
        },
    )


def _check_total_dim(model: ComplementModel) -> None:
    if model.ambient.total_dim != 4:
        raise DimensionUnsupportedError(
            f"criterion applies to total dimension 4, not {model.ambient.total_dim}"
        )


def _verdict_rule(model: ComplementModel, assumption: PushforwardAssumption):
    """The verdict rule of decide() and classify's table, per model and assumption.

    theta is read in degree-3 mod-2 quotients that do not depend on the pair,
    so both are built here, the assumption's only when it is not the naive
    one.  Returns the assumption's quotient and a function from theta's
    degree-3 coordinates, read mod 2, to (verdict, naive_zero, theta's
    canonical coordinates in the assumption's quotient), which reduces theta
    once per distinct quotient.  Callers check that the model has total
    dimension 4.
    """
    naive = PushforwardAssumption.naive()
    naive_mod2 = complement_group(model, 3, naive).tensor_mod2()
    if assumption.presents_divisor_multiples:
        assm_mod2 = naive_mod2
    else:
        assm_mod2 = complement_group(model, 3, assumption).tensor_mod2()
    contains_side = assumption.direction in (Direction.CONTAINS_IMAGE, Direction.EQUALS_IMAGE)
    inside_side = assumption.direction in (Direction.CONTAINED_IN_IMAGE, Direction.EQUALS_IMAGE)

    def rule(coords):
        assm_image = assm_mod2.canonical_coords(coords)
        assm_zero = not any(assm_image)
        naive_zero = assm_zero if assm_mod2 is naive_mod2 else naive_mod2.is_zero(coords)
        if contains_side and not assm_zero:
            verdict = Verdict.NOT_ALGEBRAIZABLE
        elif naive_zero or (inside_side and assm_zero):
            verdict = Verdict.ALGEBRAIZABLE
        else:
            verdict = Verdict.UNDETERMINED
        return verdict, naive_zero, assm_image

    return assm_mod2, rule


def _parity_verdicts(model: ComplementModel, assumption: PushforwardAssumption):
    """The verdict of every pair of parities of (c1, c2), from b2 + b1*b2
    basis products, where b1 and b2 are the ranks of CH^1 and CH^2 of the
    ambient space.

    Returns a function of two 0/1 tuples over the degree-1 and degree-2
    monomial bases, which are the coordinates of cosets as well, since
    complement_group names its generators by the basis monomials.  Mod 2,
    Sq^2 is additive and the cup product is bilinear, so theta(c1, c2) is the
    sum over the monomials m_j of c2 of Sq^2(m_j) and of x_i*m_j for each
    monomial x_i of c1.  Those products are computed once, by sq2 and cup on
    one-monomial classes, as bit masks over the degree-3 basis, and the
    function XORs them, hands theta's coordinates to decide()'s verdict rule
    and returns the verdict, the first of the rule's three values.  Callers
    check that the model has total dimension 4.
    """
    ambient = model.ambient
    index3 = {e: k for k, e in enumerate(ambient.monomial_basis(3))}
    n3 = len(index3)

    def mask(c: ChowClass) -> int:
        return sum(1 << index3[e] for e, coeff in c.items() if coeff % 2)

    monomials1 = [ChowClass.monomial(ambient, e) for e in ambient.monomial_basis(1)]
    monomials2 = [ChowClass.monomial(ambient, e) for e in ambient.monomial_basis(2)]
    squares = [mask(sq2(m)) for m in monomials2]
    products = [[mask(cup(x, m)) for m in monomials2] for x in monomials1]
    _, rule = _verdict_rule(model, assumption)

    def verdict(parity1: tuple[int, ...], parity2: tuple[int, ...]) -> Verdict:
        rows = [row for row, bit in zip(products, parity1) if bit]
        theta_mask = 0
        for j, bit in enumerate(parity2):
            if bit:
                theta_mask ^= squares[j]
                for row in rows:
                    theta_mask ^= row[j]
        return rule(tuple((theta_mask >> k) & 1 for k in range(n3)))[0]

    return verdict


@dataclass(frozen=True)
class ClassifyRow:
    c1: str
    c2: str
    verdict: Verdict


def classify_all(model: ComplementModel, assumption: PushforwardAssumption) -> list[ClassifyRow]:
    """One verdict per element of CH^1(X) x CH^2(X).

    Cosets are enumerated through the divisor-multiple quotients in degrees 1
    and 2 (the declared assumption only ever concerns degree 3) as the
    coordinates of their smallest nonnegative representatives, and each row
    is labelled from those coordinates and the groups' generator names, which
    are the monomials of the ambient basis.  Rows run over CH^2 inside CH^1,
    both in enumeration order, so output is deterministic.

    The degree-3 quotients that decide() builds per call are built once per
    sweep.  theta reads the lifts only mod 2, where Sq^2 is additive and the
    cup product bilinear, so b2 + b1*b2 basis products determine it on every
    pair of coordinate parities, where b1 and b2 are the ranks of CH^1 and
    CH^2 of the ambient space: Sq^2 of each degree-2 basis monomial and each
    product of a degree-1 with a degree-2 basis monomial.  Each verdict
    comes from decide()'s verdict rule on those coordinates, so it equals
    decide() on the row's lift.  The list comes from the sweep that
    `classify` streams one CH^1 coset at a time, with `list` as the renderer
    of each verdict column.
    """
    return [
        ClassifyRow(c1=label1, c2=label2, verdict=verdict)
        for label1, column in _sweep(model, assumption, list)
        for label2, verdict in column
    ]


def _sweep(model: ComplementModel, assumption: PushforwardAssumption, render):
    """Lazy iterator of (CH^1 label, rendered column), one item per CH^1 coset.

    A column pairs each CH^2 label with its verdict, in CH^2 enumeration
    order, and render(pairs) turns that iterable of (label, verdict) pairs
    into what the caller keeps: `list` for classify_all, row tails for the
    CLI.  render runs once per parity of c1, and every coset of that parity
    yields its result.

    Labels are written from coset coordinates and generator names, and theta
    is read off the bilinear table of _parity_verdicts, so no lift, theta
    class, report or verdict prose is built.
    At call time come the groups of degrees 1 and 2, the finite-group guard,
    then the dimension guard, the table with its degree-3 quotients, and the
    CH^2 labels and parities.  The iterator asks the table for a verdict only
    at the first coset of each parity of c1, once per parity of c2.
    """
    naive = PushforwardAssumption.naive()
    g1 = complement_group(model, 1, naive)
    g2 = complement_group(model, 2, naive)
    if not (g1.is_finite() and g2.is_finite()):
        raise InfiniteGroupError(
            f"classification sweep needs finite groups, got {g1.describe()} and {g2.describe()}"
        )
    _check_total_dim(model)
    verdict = _parity_verdicts(model, assumption)

    cosets2 = list(g2.elements())
    labels2 = [_terms_str(zip(g2.generator_names, coords)) for coords in cosets2]
    parities2 = [tuple(c % 2 for c in coords) for coords in cosets2]
    distinct2 = set(parities2)

    def cosets():
        columns = {}
        for coords1 in g1.elements():
            parity1 = tuple(c % 2 for c in coords1)
            if parity1 not in columns:
                verdicts = {parity2: verdict(parity1, parity2) for parity2 in distinct2}
                columns[parity1] = render(zip(labels2, (verdicts[p] for p in parities2)))
            yield _terms_str(zip(g1.generator_names, coords1)), columns[parity1]

    return cosets()
