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
from functools import reduce
from itertools import chain, cycle, islice, repeat

from .abelian import AbelianPresentation, InfiniteGroupError
from .chow import AmbientMismatchError, ChowClass, _divisor_columns, _terms_str
from .complement import ComplementModel, Direction, PushforwardAssumption, _relation_rows, certificate, complement_group
from .intlinalg import _gf2_mask, _gf2_reduce, _gf2_span
from .steenrod import _sq2_twisted, sq2

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
    assumption's degree-3 mod-2 quotient, presented on the degree-3 monomials
    by those rows and 2*I with its Smith diagonal written down from the
    span's rank, no degree-3 group being built.  theta_image is theta reduced
    against the Hermite form of those rows stacked on 2*I in column order,
    not theta_quotient.canonical_coords, which reduces from the last
    generator back."""

    theta_on_y: ChowClass
    theta_image: tuple[int, ...]
    theta_quotient: AbelianPresentation
    verdict: Verdict
    justification: dict


def theta(pair: ChernPair) -> ChowClass:
    """Sq^2(c2) + c1 * c2 as a degree-3 mod-2 class on the ambient space.

    Mod 2, Sq^2(m) = w(m) * m for a monomial m with parity divisor w(m) (see
    steenrod), so theta is the sum of (c1 + w(m)) * m over the odd terms m of
    c2, truncated: one pass of steenrod's monomial rule with c1 as the twist,
    and no intermediate class.
    """
    return _sq2_twisted(pair.c2, pair.c1.coords())


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
    assumption's degree-3 relation rows; the basis text is written here.  No
    degree-3 group is built: the reported mod-2 quotient is presented from
    those rows and the rank of their GF(2) span, which fixes its Smith
    diagonal.
    """
    _check_total_dim(model)
    ambient = model.ambient
    if pair.c1.ambient != ambient:
        raise AmbientMismatchError("pair does not live on the model's ambient space")
    names = tuple(map(ambient.monomial_str, ambient.monomial_basis(3)))
    rows = _relation_rows(model, 3, assumption)
    assm_rank, rule = _verdict_rule(model, assumption, rows)
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
        theta_image=tuple((assm_mask >> k) & 1 for k in range(len(names))),
        theta_quotient=AbelianPresentation._mod2_quotient(names, rows, assm_rank),
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
    c1.  The products x_i*m_j are the masks of the _divisor_columns of the
    unit weight vectors of the x_i, which are the degree-1 basis monomials
    themselves, and by steenrod's rule Sq^2(m_j) = w(m_j)*m_j is the XOR of
    the products x_i*m_j over the i with m_j[i] odd, so no Sq^2 is evaluated
    and no class is built.  One subset doubling over the products gives
    the images for every c1 mask, and one over the images gives theta of
    every c2 mask.  Callers check that the model has total dimension 4.

    The table depends on the multidegree d only mod 2: mod 2, z is the sum
    of (d_i mod 2)*x_i, and declared rows, Sq^2 and cup do not involve d.
    """
    ambient = model.ambient
    products = [[_gf2_mask(col) for col in _divisor_columns(ambient, e, 3)] for e in ambient.monomial_basis(1)]
    squares = [
        reduce(operator.xor, (row[j] for row, a in zip(products, m) if a % 2), 0)
        for j, m in enumerate(ambient.monomial_basis(2))
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

    Each coset's label and parity mask come from _labelled, which both
    groups go through, and each verdict is read from _parity_verdicts at
    the two masks, so no lift, theta class, report or verdict prose is
    built.  The groups of degrees 1 and 2, the finite-group guard, the
    dimension guard, the table and the CH^2 labels and masks come first, at
    the first next(); the CH^1 cosets are walked lazily.
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

    A box with at most two moving generators (bounds above 1), which is
    every group the sweep meets, is labelled in C-level runs of map, chain,
    zip and cycle, with no Python step per coset.  Two moving generators
    with bounds s <= e are s _columns, one per value u of the short
    coordinate, each running over the long one; level t of equal coordinate
    sum takes the next item of each column with t - e < u <= t, in the
    lexicographically descending order of the box walk (_levels).  One
    moving generator is a single column, and none is the zero coset alone.
    A box with three or more moving generators, which no command reaches,
    goes through elements() and the class printer one coset at a time.

    Each level is made only once the one before it is used up, and nothing
    of size s or e is built ahead, so a huge bound starts at once.  Names
    are joined by concatenation and never used as format strings, so a name
    such as "{x}" is printed as it is.
    """
    names = group.generator_names
    bounds = group._box_bounds()
    moving = [k for k, p in enumerate(bounds) if p > 1]
    if not moving:
        return iter((("0", 0),))
    if len(moving) == 1:
        return _column(names, None, moving[0], 0, bounds[moving[0]])
    if len(moving) > 2:
        return ((_terms_str(zip(names, v)), _gf2_mask(v)) for v in group.elements())
    a, b = moving
    short, long = (a, b) if bounds[a] <= bounds[b] else (b, a)
    return chain.from_iterable(_levels(names, short, long, bounds[short], bounds[long]))


def _column(names, short, long, u, e):
    """(label, mask) for short coordinate u and long coordinate 0, ..., e - 1:
    the short term, then the long term joined to it on the side of the
    generator that comes first, with the long generator's bit on at odd
    long coordinates.  short is read only when u is nonzero."""
    name = names[long]
    head, tail, first, base = "", "", "0", 0
    if u:
        first = names[short] if u == 1 else str(u) + "*" + names[short]
        base = (u & 1) << short
        if short < long:
            head = first + " + "
        else:
            tail = " + " + first
    labels = map(operator.add, map(str, range(2, e)), repeat("*" + name + tail))
    if head:
        labels = map(operator.add, repeat(head), labels)
    return zip(chain((first, head + name + tail), labels), cycle((base, base | 1 << long)))


def _levels(names, short, long, s, e):
    """Generate the runs of a box whose moving generators have bounds s <= e,
    one run per level outside the band s - 1 <= t <= e - 1 and one for the
    band, where every column is active.  Within a level the short
    coordinate u runs down when the short generator comes first and up
    otherwise, which is the order of cols.  Column u is made at level u and
    used up after level u + e - 1; the islice stops the band before a bare
    zip would take items from the columns before a used-up one.  cols
    changes only between runs: chain.from_iterable asks for the next run
    once the last one is used up."""
    down = short < long
    cols = []
    for u in range(s):
        cols.insert(0 if down else u, _column(names, short, long, u, e))
        if u < s - 1:
            yield map(next, cols)
    yield chain.from_iterable(islice(zip(*cols), e - s + 1))
    for _ in range(s - 1):
        del cols[-1 if down else 0]
        yield map(next, cols)
