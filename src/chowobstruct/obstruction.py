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

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import chain, cycle, repeat

from .abelian import AbelianPresentation, InfiniteGroupError, _box_walk
from .chow import AmbientMismatchError, ChowClass, _divisor_columns, cup, reduce_mod2
from .complement import ComplementModel, Direction, PushforwardAssumption, _relation_rows, certificate, complement_group
from .intlinalg import _gf2_mask, _gf2_reduce, _gf2_span
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
    """theta on the ambient; theta_image, theta reduced modulo the GF(2) span
    of the assumption's degree-3 relation rows (_gf2_span), with a 0 at each
    of the span's pivots, their lowest set bits; and theta_quotient, the
    assumption's degree-3 mod-2 quotient.  theta_image is theta reduced
    against the Hermite form of those rows stacked on 2*I in column order,
    not theta_quotient.canonical_coords, which reduces from the last
    generator back."""

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
    span = _gf2_span(_relation_rows(model, 3, naive))
    return not any(
        _gf2_reduce(span, _gf2_mask(sq2(ChowClass.from_coords(model.ambient, 2, rel)).coords()))
        for rel in _relation_rows(model, 2, naive)
    )


def decide(model: ComplementModel, pair: ChernPair, assumption: PushforwardAssumption) -> ObstructionReport:
    """Evaluate theta for the pair and issue a three-valued verdict.

    The verdict is sound relative to the declared assumption: NOT_ALGEBRAIZABLE
    is only ever derived from a quotient asserted to contain the pushforward
    image, ALGEBRAIZABLE only from a quotient by a subgroup lying inside it.
    The verdict comes from _verdict_rule, shared with classify's table, on the
    rows of the degree-3 group reported mod 2; the basis text is written here.
    """
    _check_total_dim(model)
    if pair.c1.ambient != model.ambient:
        raise AmbientMismatchError("pair does not live on the model's ambient space")
    assm_group = complement_group(model, 3, assumption)
    assm_rank, rule = _verdict_rule(model, assumption, assm_group.relations.entries)
    certificates = {
        "naive": certificate(model, 3, PushforwardAssumption.naive()).as_dict(),
        "assumption": certificate(model, 3, assumption).as_dict(),
    }
    th = theta(pair)
    verdict, naive_zero, assm_mask = rule(_gf2_mask(th.coords()))
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
        theta_image=tuple((assm_mask >> k) & 1 for k in range(assm_group.ngens)),
        theta_quotient=assm_group._mod2_quotient(assm_rank),
        verdict=verdict,
        justification={
            "assumption": assumption.label(),
            "direction": assumption.direction.value,
            "certificates": certificates,
            "naive_theta_zero": naive_zero,
            "assumption_theta_zero": not assm_mask,
            "verdict_basis": basis,
            "unverified_hypotheses": UNVERIFIED_HYPOTHESES,
        },
    )


def _check_total_dim(model: ComplementModel) -> None:
    if model.ambient.total_dim != 4:
        raise DimensionUnsupportedError(
            f"criterion applies to total dimension 4, not {model.ambient.total_dim}"
        )


def _verdict_rule(model: ComplementModel, assumption: PushforwardAssumption, assm_rows):
    """The verdict rule of decide() and classify's table, per model and assumption.

    theta is read modulo degree-3 GF(2) spans that do not depend on the pair,
    built from relation rows with no group: the assumption's, from assm_rows,
    its degree-3 rows, and the divisor-multiple one, which is the same span
    when the assumption declares no rows and otherwise comes from the naive
    rows.  Returns the rank of the assumption's span, which sizes decide()'s
    reported mod-2 quotient, and a function from theta's _gf2_mask to
    (verdict, naive_zero, theta's mask reduced modulo the assumption's span),
    which reduces theta once per distinct span.  Callers check that the
    model has total dimension 4.
    """
    assm_span = _gf2_span(assm_rows)
    if assumption.rows is None:
        naive_span = assm_span
    else:
        naive_span = _gf2_span(_relation_rows(model, 3, PushforwardAssumption.naive()))
    contains_side = assumption.direction in (Direction.CONTAINS_IMAGE, Direction.EQUALS_IMAGE)
    inside_side = assumption.direction in (Direction.CONTAINED_IN_IMAGE, Direction.EQUALS_IMAGE)

    def rule(mask):
        assm_mask = _gf2_reduce(assm_span, mask)
        naive_zero = not (assm_mask if assm_span is naive_span else _gf2_reduce(naive_span, mask))
        if contains_side and assm_mask:
            verdict = Verdict.NOT_ALGEBRAIZABLE
        elif naive_zero or (inside_side and not assm_mask):
            verdict = Verdict.ALGEBRAIZABLE
        else:
            verdict = Verdict.UNDETERMINED
        return verdict, naive_zero, assm_mask

    return len(assm_span), rule


def _parity_verdicts(model: ComplementModel, assumption: PushforwardAssumption) -> list[list[Verdict]]:
    """The verdict of every pair of parities of (c1, c2): table[m1][m2] is
    the verdict at the _gf2_mask values m1 of c1 and m2 of c2, over the
    degree-1 and degree-2 monomial bases, which complement_group also uses
    for coset coordinates.  It has 2^b1 rows of 2^b2 verdicts, where b1, b2
    and b3 are the ranks of CH^1, CH^2 and CH^3 of the ambient space.

    theta is a degree-3 mod-2 class, so decide()'s verdict rule runs once on
    each of the 2^b3 masks.  Mod 2, Sq^2 is additive and the cup product is
    bilinear, so theta(c1, .) is linear in c2: its image of the degree-2
    basis monomial m_j is Sq^2(m_j) plus x_i*m_j for each monomial x_i of
    c1.  One subset doubling over the _divisor_columns of the x_i gives
    those images for every c1 mask, and one over the images gives theta of
    every c2 mask.  Callers check that the model has total dimension 4.

    The table depends on the multidegree d only mod 2: mod 2, z is the sum
    of (d_i mod 2)*x_i, and declared rows, Sq^2 and cup do not involve d.
    """
    ambient = model.ambient
    squares = [_gf2_mask(sq2(ChowClass._trusted(ambient, 2, {e: 1})).coords()) for e in ambient.monomial_basis(2)]
    products = [
        [_gf2_mask(col) for col in _divisor_columns(ambient, ChowClass._trusted(ambient, 1, {e: 1}), 3)]
        for e in ambient.monomial_basis(1)
    ]
    _, rule = _verdict_rule(model, assumption, _relation_rows(model, 3, assumption))
    verdicts = [rule(mask)[0] for mask in range(1 << len(ambient.monomial_basis(3)))]
    images = [squares]
    for row in products:
        images += [[a ^ b for a, b in zip(image, row)] for image in images]
    table = []
    for image in images:
        masks = [0]
        for term in image:
            masks += [mask ^ term for mask in masks]
        table.append([verdicts[mask] for mask in masks])
    return table


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

    theta reads the lifts only mod 2, so each verdict is the entry of the
    parity table of _parity_verdicts at the masks of the row's coordinates, which
    comes from decide()'s verdict rule and so equals decide() on the row's
    lift.  The list comes from the sweep that `classify` streams one CH^1
    coset at a time, with `list` as the renderer of each verdict column.
    """
    return [
        ClassifyRow(c1=label1, c2=label2, verdict=verdict)
        for label1, column in _sweep(model, assumption, list)
        for label2, verdict in column
    ]


def _sweep(model: ComplementModel, assumption: PushforwardAssumption, render):
    """Generate (CH^1 label, rendered column), one item per CH^1 coset.

    A column pairs each CH^2 label with its verdict, in CH^2 enumeration
    order, and render(pairs) turns that iterable of (label, verdict) pairs
    into what the caller keeps: `list` for classify_all, row tails for the
    CLI.  render runs once per parity of c1, and every coset of that parity
    yields its result.

    Each coset's label and parity mask come from one pass over its box
    vector in _labelled, which both groups go through, and each verdict is
    read from _parity_verdicts at the two masks, so no lift, theta class,
    report or verdict prose is built.  The groups of degrees 1 and 2, the
    finite-group guard, the dimension guard, the table and the CH^2 labels
    and masks come first, at the first next(); the CH^1 cosets are walked
    lazily.
    """
    naive = PushforwardAssumption.naive()
    g1 = complement_group(model, 1, naive)
    g2 = complement_group(model, 2, naive)
    if not (g1.is_finite() and g2.is_finite()):
        raise InfiniteGroupError(
            f"classification sweep needs finite groups, got {g1.describe()} and {g2.describe()}"
        )
    _check_total_dim(model)
    table = _parity_verdicts(model, assumption)
    labels2, masks2 = zip(*_labelled(g2))
    columns = {}
    for label1, mask1 in _labelled(g1):
        if mask1 not in columns:
            columns[mask1] = render(zip(labels2, [table[mask1][mask2] for mask2 in masks2]))
        yield label1, columns[mask1]


def _labelled(group: AbelianPresentation):
    """An iterator of (label, mask), one per coset of a finite group, in
    elements() order: the label names the coset's box vector as a class
    literal from the generator names, and the mask is the vector's
    _gf2_mask.

    Most cosets are labelled in C-level runs of map, chain, zip and cycle
    over the box bounds, with no Python step per coset.  One moving
    generator k (bound p above 1, every other bound 1) gives zero, then
    name_k and c*name_k for c in [2, p), with bit k on at odd c.  Two
    moving generators a < b with bounds pa and pb give levels of equal
    coordinate sum: with s = min(pa, pb) and e = max(pa, pb), every level t
    with s - 1 <= t <= e - 1 holds exactly s cosets, one per value u of the
    short coordinate, and from one such level to the next the long
    coordinate of each grows by one.  So that band is s lazy columns read
    level by level through zip: column u joins the fixed term of u to a run
    of long-coordinate terms, and its mask alternates through cycle.  The
    levels before and after the band, at most s(s - 1) cosets, go through
    _coset_labels one coset at a time, and so does every box with three or
    more moving generators, or with |pa - pb| < 3, where setting up the
    columns costs more than they save; that loop is the reference.  These
    are the shapes the sweep meets: one moving generator on P^4, and at
    most two per degree on P^1 x P^3.

    Each run is made only once the one before it is used up, and nothing of
    size pa or pb is built, so a huge bound starts at once.  Names are
    joined by concatenation and never used as format strings, so a name
    such as "{x}" is printed as it is.
    """
    return chain.from_iterable(_label_runs(group))


def _label_runs(group: AbelianPresentation):
    """Generate the runs of (label, mask) pairs that _labelled chains, in
    order; a generator, so each run is built when the chain reaches it."""
    names = group.generator_names
    bounds = group._box_bounds()
    moving = [k for k, p in enumerate(bounds) if p > 1]
    if not moving:
        yield (("0", 0),)
        return
    if len(moving) == 1:
        # zero, then the generator's terms in a row, odd ones flipping bit k
        k = moving[0]
        name = names[k]
        terms = map(operator.add, map(str, range(2, bounds[k])), repeat("*" + name))
        yield zip(chain(("0", name), terms), cycle((0, 1 << k)))
        return
    a, b, *more = moving
    pa, pb = bounds[a], bounds[b]
    if more or abs(pa - pb) < 3:
        # a band of at most three levels costs more to set up than its runs save
        yield _coset_labels(names, group.elements())
        return
    if pa <= pb:
        # the short coordinate comes first, so it runs down within a level
        short, long, s, e, us = a, b, pa, pb, range(pa - 1, -1, -1)
    else:
        short, long, s, e, us = b, a, pb, pa, range(pb)
    yield _coset_labels(names, _box_walk(bounds, range(s - 1)))
    name, bit = names[long], 1 << long
    tail = "*" + name
    columns = []
    for u in us:
        # column u: the long coordinate runs over [lo, e - u), and e - u > 2
        lo = s - 1 - u
        labels = map(operator.add, map(str, range(max(lo, 2), e - u)), repeat(tail))
        if lo < 2:
            labels = chain((name,), labels)
        base = 0
        if u:
            term = names[short] if u == 1 else str(u) + "*" + names[short]
            base = (u & 1) << short
            if short < long:
                labels = map(operator.add, repeat(term + " + "), labels)
            else:
                labels = map(operator.add, labels, repeat(" + " + term))
            if not lo:
                # long coordinate 0: the short term alone
                labels = chain((term,), labels)
        columns.append(zip(labels, cycle((base | bit, base) if lo & 1 else (base, base | bit))))
    yield chain.from_iterable(zip(*columns))
    yield _coset_labels(names, _box_walk(bounds, range(e, pa + pb - 1)))


def _coset_labels(names, vectors):
    """Generate (label, mask) for each box vector, one vector at a time.

    Box coordinates are never negative and no generator is named "1", as no
    degree-1 or degree-2 monomial is, so on these vectors the label is what
    _terms_str gives for the (name, coordinate) terms.
    """
    for coords in vectors:
        parts = []
        mask = 0
        for k, c in enumerate(coords):
            if c:
                parts.append(names[k] if c == 1 else f"{c}*{names[k]}")
                if c & 1:
                    mask |= 1 << k
        yield " + ".join(parts) or "0", mask
