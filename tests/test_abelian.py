import copy
import dataclasses
import itertools
import math
import pickle
import random

import pytest

from chowobstruct import abelian
from chowobstruct.abelian import (
    AbelianPresentation,
    InfiniteGroupError,
    bezout,
)
from chowobstruct.chow import AmbientSpace, ChowClass
from chowobstruct.complement import ComplementModel, PushforwardAssumption, complement_group
from chowobstruct.intlinalg import (
    IntegerMatrix,
    _gf2_mask,
    _gf2_reduce,
    _gf2_span,
    hermite_normal_form,
    hermite_reduce,
)
from chowobstruct.obstruction import classify_all

from oracles import (
    bfs_cosets,
    cofactor_det,
    forward_bfs_cosets,
    frac_membership,
    independent_rows_membership,
    reference_snf_diagonal,
    torsion_count,
)
from test_intlinalg import pivot_walk_inputs, pivots


def test_invariant_factors_diagonal_relations():
    # Z/3 + Z/4 is cyclic of order 12, so the canonical chain is (12,)
    g = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    assert g.invariant_factors() == (12,)
    assert g.describe() == "Z/12"
    assert math.prod(g.invariant_factors()) == 12


def test_invariant_factors_bezout_presentation():
    g = AbelianPresentation(("x1*x2", "x2^2"), [[4, 0], [3, 4]])
    assert g.invariant_factors() == (16,)
    assert g.describe() == "Z/16"


def test_invariant_factors_free():
    g = AbelianPresentation(("x",), IntegerMatrix([], cols=1))
    assert g.invariant_factors() == (0,)
    assert g.describe() == "Z"
    assert math.prod(g.invariant_factors()) == 0


def test_invariant_factors_mixed_free_and_torsion():
    g = AbelianPresentation(("a", "b"), [[2, 4]])
    assert g.invariant_factors() == (2, 0)
    assert g.describe() == "Z/2 ⊕ Z"


def test_is_finite_reads_the_hermite_form():
    # finite exactly when no invariant factor is 0, on free, rank-deficient
    # and zero-row presentations; each group is fresh, so neither answer
    # reads a form the other computed
    rng = random.Random(149)
    cases = [(0, []), (2, []), (1, [[0]]), (2, [[0, 0], [0, 0]]), (3, [[2, 4, 6], [4, 8, 12]])]
    for _ in range(300):
        n = rng.randint(0, 4)
        rows = [[rng.choice((0, 0, 1, -1, 2, 3, -4)) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        if rows and rng.random() < 0.3:
            rows.append([rng.randint(-2, 2) * x for x in rows[0]])
        cases.append((n, rows))
    for n, rows in cases:
        names, relations = tuple(f"g{j}" for j in range(n)), IntegerMatrix(rows, cols=n)
        finite = AbelianPresentation(names, relations).is_finite()
        assert finite == (0 not in AbelianPresentation(names, relations).invariant_factors()), rows
        assert finite == (sum(map(bool, reference_snf_diagonal(rows))) == n), rows


def test_is_zero():
    g = AbelianPresentation(("x1*x2", "x2^2"), [[4, 0], [3, 4]])
    assert not any(g.canonical_coords((4, 0)))
    assert any(g.canonical_coords((1, 0)))
    assert not any(g.canonical_coords((0, 0)))
    assert not any(g.canonical_coords((0,) * g.ngens))


def test_element_order_brute_force():
    g = AbelianPresentation(("x1*x2", "x2^2"), [[4, 0], [3, 4]])
    brute = next(k for k in range(1, 17) if not any(g.canonical_coords((k, 0))))
    assert brute == 4
    assert g.element_order((1, 0)) == 4
    assert g.element_order((0,) * g.ngens) == 1
    free = AbelianPresentation(("x",), IntegerMatrix([], cols=1))
    assert free.element_order((1,)) == 0


def test_element_order_matches_rational_oracle():
    rng = random.Random(61)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = cofactor_det(rows)
        if det == 0 or abs(det) > 200:
            continue
        g = AbelianPresentation(tuple(f"g{i}" for i in range(n)), rows)
        for _ in range(5):
            c = [rng.randint(-12, 12) for _ in range(n)]
            least = next(
                k for k in range(1, abs(det) + 1) if frac_membership(rows, [k * x for x in c])
            )
            assert g.element_order(c) == least
        checked += 1


def test_element_order_free_generator_between_torsion():
    # Z/3 + Z: the relation 2a + b leaves a and b of infinite order
    g = AbelianPresentation(("a", "b", "c"), [[2, 1, 0], [0, 0, 3]])
    assert g.element_order((1, 0, 0)) == 0
    assert g.element_order((0, 1, 0)) == 0
    assert g.element_order((0, 0, 1)) == 3
    assert g.element_order((2, 1, 0)) == 1
    assert g.element_order((4, 2, 2)) == 3


def test_element_order_rank_deficient_rectangular():
    # the three relations span only (2, 4, 6): Z^3 / Z(2, 4, 6) = Z/2 + Z^2
    g = AbelianPresentation(("a", "b", "c"), [[2, 4, 6], [4, 8, 12], [-2, -4, -6]])
    assert g.invariant_factors() == (2, 0, 0)
    assert g.element_order((1, 2, 3)) == 2
    assert g.element_order((3, 6, 9)) == 2
    assert g.element_order((2, 4, 6)) == 1
    assert g.element_order((1, 0, 0)) == 0
    assert g.element_order((1, 2, 4)) == 0


def test_element_order_with_pivot_gaps_and_zero_rows():
    # a finite order divides the product of the pivots, the minor of the
    # pivot columns, so the brute force stops there and reads 0 past it
    rng = random.Random(47)
    for h, basis in pivot_walk_inputs(rng, 40):
        g = AbelianPresentation(tuple(f"g{j}" for j in range(h.cols)), h)
        bound = math.prod(p for _, p in pivots(h))
        for _ in range(4):
            c = [rng.randint(-9, 9) for _ in range(h.cols)]
            brute = next(
                (k for k in range(1, bound + 1)
                 if independent_rows_membership(basis, [k * x for x in c])),
                0,
            )
            assert g.element_order(c) == brute, (h, c)


def _tensor_mod2(group):
    """The mod-2 reduction that decide() reports, from the GF(2) span of the
    group's relations."""
    rows = group.relations.entries
    return AbelianPresentation._mod2_quotient(group.generator_names, rows, len(_gf2_span(rows)))


def test_tensor_mod2():
    g = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    assert _tensor_mod2(g).invariant_factors() == (2,)
    free2 = AbelianPresentation(("a", "b"), IntegerMatrix([], cols=2))
    assert _tensor_mod2(free2).invariant_factors() == (2, 2)
    trivial = AbelianPresentation((), IntegerMatrix([], cols=0))
    assert _tensor_mod2(trivial).invariant_factors() == ()


def _tensor_mod2_inputs():
    """Seeded presentations, then the degree-3 groups of the five ambients of
    dimension 4 that decide() reduces mod 2."""
    rng = random.Random(131)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [
            [rng.choice((0, 0, rng.randint(-3, 3), rng.randint(-10 ** 6, 10 ** 6))) for _ in range(n)]
            for _ in range(rng.randint(0, 8))
        ]
        yield AbelianPresentation([f"g{i}" for i in range(n)], IntegerMatrix(rows, cols=n))
    for dims in ((4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)):
        assumptions = [PushforwardAssumption.naive()]
        if dims in ((4,), (1, 3)):
            assumptions.append(PushforwardAssumption.even_degree())
        for degrees in ((1,) * len(dims), (2,) * len(dims), (2, 3, 4, 5)[: len(dims)], (10 ** 6 + 1,) * len(dims)):
            model = ComplementModel(AmbientSpace(dims), degrees)
            for assumption in assumptions:
                yield complement_group(model, 3, assumption)


def test_tensor_mod2_matches_the_general_path():
    for group in _tensor_mod2_inputs():
        n = group.ngens
        twos = tuple(tuple(2 * int(i == j) for j in range(n)) for i in range(n))
        quotient = _tensor_mod2(group)
        assert quotient.relations.entries == group.relations.entries + twos
        general = AbelianPresentation(quotient.generator_names, quotient.relations)
        # the quotient stores its box form the way any presentation does, and
        # its box holds as many cosets as its written-down diagonal says
        assert quotient.is_finite() and general.is_finite()
        assert quotient._hnf == general._hnf, group
        expected = tuple(d for d in reference_snf_diagonal(quotient.relations.to_lists()) if d != 1)
        assert quotient.invariant_factors() == expected, group
        assert general.invariant_factors() == expected
        assert len(list(quotient.elements())) == math.prod(expected), group


def _mask_oracle(v):
    return int("".join(str(x & 1) for x in reversed(v)) or "0", 2)


def test_gf2_reduce_matches_hermite_reduce():
    # XOR reduction against the GF(2) span equals reduction against the
    # Hermite form of the relations stacked on 2*I, on integer vectors of
    # either sign, and the span's rank gives the count of Z/2 summands.
    # Every mask is read against the bit string of the parities, on the
    # vectors below too: empty, zero, negative (custom: generators reach the
    # mask with those) and far wider than a machine word
    for v in ((), (0,), (0, 0, 0), (-1,), (-2, -3, 5), (10 ** 40 + 1, -(10 ** 40), 0, -7),
              tuple(range(-40, 40)), (2 ** 64 - 1, -(2 ** 64) - 1, 2 ** 63)):
        assert _gf2_mask(v) == _mask_oracle(v), v
    rng = random.Random(137)
    for group in _tensor_mod2_inputs():
        n = group.ngens
        rows = group.relations.entries
        twos = tuple(tuple(2 * int(i == j) for j in range(n)) for i in range(n))
        h = hermite_normal_form(IntegerMatrix(rows + twos, cols=n))
        span = _gf2_span(rows)
        for _ in range(5):
            v = [rng.choice((0, 1, rng.randint(-9, 9), rng.randint(-10 ** 6, 10 ** 6))) for _ in range(n)]
            assert _gf2_mask(v) == _mask_oracle(v), v
            reduced = _gf2_reduce(span, _gf2_mask(v))
            assert tuple((reduced >> k) & 1 for k in range(n)) == hermite_reduce(h, v), (group, v)
        for row in rows:
            assert _gf2_mask(row) == _mask_oracle(row), row
            assert not _gf2_reduce(span, _gf2_mask(row)), (group, row)
        general = AbelianPresentation(group.generator_names, IntegerMatrix(rows + twos, cols=n))
        assert n - len(span) == general.invariant_factors().count(2), group


def test_enumerate_counts():
    g = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    elements = list(g.elements())
    assert len(elements) == 12
    assert all(isinstance(e, tuple) for e in elements)
    assert len({g.canonical_coords(e) for e in elements}) == 12
    assert not any(elements[0])

    trivial = AbelianPresentation((), IntegerMatrix([], cols=0))
    assert list(trivial.elements()) == [()]

    free = AbelianPresentation(("x",), IntegerMatrix([], cols=1))
    with pytest.raises(InfiniteGroupError):
        list(free.elements())


def test_enumerate_smallest_representatives_first():
    # CH^2 of P^1 x P^3 at degree (3, 4): its box is [0, 4)^2, and each box
    # vector is the smallest-sum nonnegative vector of its coset
    g = AbelianPresentation(("x1*x2", "x2^2"), [[4, 0], [3, 4]])
    reps = list(g.elements())
    assert reps[0] == (0, 0)
    assert (1, 0) in reps
    assert len(reps) == 16
    assert set(reps) == set(itertools.product(range(4), repeat=2))
    single = AbelianPresentation(("x",), [[5]])
    assert list(single.elements()) == [(0,), (1,), (2,), (3,), (4,)]


def _box(bounds):
    n = len(bounds)
    return [[b * (i == j) for j in range(n)] for i, b in enumerate(bounds)]


def _is_diagonal(h: IntegerMatrix) -> bool:
    return all(not x for i, row in enumerate(h.entries) for j, x in enumerate(row) if i != j)


def test_enumeration_order_matches_forward_bfs_oracle():
    # classify labels and orders its rows by these cosets, so the order is
    # checked against a search that knows nothing of Hermite forms: on
    # diagonal relations, among them wide two-generator boxes with many short
    # levels, as CH^1 of P^1 x P^3 has, and on the P^1 x P^3 degree-2
    # relations, whose Hermite form is diagonal only for some degrees
    rng = random.Random(16)
    boxes = [b for n in range(4) for b in itertools.product(range(1, 5), repeat=n)]
    boxes += [tuple(rng.randint(1, 5) for _ in range(4)) for _ in range(50)]
    boxes += [(178, 2), (2, 178), (40, 7)]
    relations = [_box(b) for b in boxes]
    relations += [[[d2, 0], [d1, d2]] for d1 in range(1, 31) for d2 in range(1, 13)]
    diagonal = 0
    for rows in relations:
        g = AbelianPresentation([f"g{i}" for i in range(len(rows))], IntegerMatrix(rows, cols=len(rows)))
        diagonal += _is_diagonal(hermite_normal_form(g.relations))
        assert list(g.elements()) == forward_bfs_cosets(rows), rows
    assert len(boxes) < diagonal < len(relations)


def _reversed_hermite_box(rows, n):
    h = hermite_normal_form(IntegerMatrix([row[::-1] for row in rows], cols=n)).entries
    bounds = [h[n - 1 - i][n - 1 - i] for i in range(n)]
    return sorted(itertools.product(*map(range, bounds)), key=lambda v: (sum(v), [-x for x in v]))


def test_enumeration_is_the_reversed_hermite_box():
    # off the groups classify enumerates, the box and the search part ways:
    # here (0, 1) = (2, 0), which the box names by the vector of larger sum
    g = AbelianPresentation(("x", "y"), [[5, 0], [-2, 1]])
    assert list(g.elements()) == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    rng = random.Random(32)
    cases = [[[5, 0], [-2, 1]]]
    while len(cases) < 60:
        n = rng.randint(2, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(n, n + 1))]
        g = AbelianPresentation([f"g{i}" for i in range(n)], rows)
        if g.is_finite() and not _is_diagonal(hermite_normal_form(g.relations)) and math.prod(g.invariant_factors()) <= 400:
            cases.append(rows)
    for rows in cases:
        n = len(rows[0])
        g = AbelianPresentation([f"g{i}" for i in range(n)], rows)
        cosets = list(g.elements())
        # each coset exactly once
        assert len(cosets) == math.prod(g.invariant_factors()), rows
        assert len({g.canonical_coords(c) for c in cosets}) == len(cosets), rows
        assert cosets == _reversed_hermite_box(rows, n), rows


def _label_grid():
    """The CH^1 and CH^2 groups that classify enumerates on P^4 with
    d = 1..12 and on P^1 x P^3 with d_i = 1..6."""
    naive = PushforwardAssumption.naive()
    models = [ComplementModel(AmbientSpace((4,)), (d,)) for d in range(1, 13)]
    models += [ComplementModel(AmbientSpace((1, 3)), d) for d in itertools.product(range(1, 7), repeat=2)]
    for model in models:
        for j in (1, 2):
            yield model, complement_group(model, j, naive)


def test_canonical_coords_is_the_label_elements_gives():
    # a class is found among the classify rows by its canonical coordinates:
    # each enumerated coset is its own canonical form, and so is any
    # representative of it, the coset vector plus a lattice vector
    rng = random.Random(33)
    labels = 0
    for model, g in _label_grid():
        rows = g.relations.entries
        for c in g.elements():
            assert g.canonical_coords(c) == c, (model, c)
            multiples = [rng.randint(-3, 3) for _ in rows]
            shift = [sum(k * row[i] for k, row in zip(multiples, rows)) for i in range(g.ngens)]
            assert g.canonical_coords([a + b for a, b in zip(c, shift)]) == c, (model, c, shift)
            labels += 1
    assert labels == 1143


def test_each_presentation_builds_one_hermite_form(monkeypatch):
    calls = []

    def counting_hermite_normal_form(a):
        calls.append(a)
        return hermite_normal_form(a)

    monkeypatch.setattr(abelian, "hermite_normal_form", counting_hermite_normal_form)
    g = AbelianPresentation(("x1*x2", "x2^2"), [[4, 0], [3, 4]])
    assert g.is_finite()
    assert len(list(g.elements())) == 16
    assert g.canonical_coords((5, 9)) == g.canonical_coords((3, 1))
    assert g.element_order((1, 0)) == 4
    assert len(calls) == 1
    # a classify sweep builds the CH^1 and CH^2 groups, one form each
    calls.clear()
    classify_all(ComplementModel(AmbientSpace((1, 3)), (3, 4)), PushforwardAssumption.naive())
    assert len(calls) == 2


def test_box_enumeration_is_lazy():
    # a box with a 10^12 bound has too many cosets to list, and its first
    # ones still come at once, in the search's order: the first five cosets
    # lie in levels 0 to 4, which a bound of 6 in its place leaves as they
    # are, also where the huge bound is the one moving generator
    for bounds, small in (
        ((10 ** 12, 2), (6, 2)),
        ((2, 10 ** 12, 3), (2, 6, 3)),
        ((10 ** 12,), (6,)),
        ((1, 10 ** 12), (1, 6)),
        ((10 ** 12, 1, 1), (6, 1, 1)),
    ):
        g = AbelianPresentation([f"g{i}" for i in range(len(bounds))], _box(bounds))
        first = list(itertools.islice(g.elements(), 5))
        assert first == forward_bfs_cosets(_box(small))[:5], bounds


def test_group_laws_random():
    rng = random.Random(41)
    g = AbelianPresentation(("a", "b", "c"), [[2, 0, 0], [0, 6, 3], [1, 1, 1]])
    for _ in range(60):
        x = tuple(rng.randint(-9, 9) for _ in range(3))
        y = tuple(rng.randint(-9, 9) for _ in range(3))
        x_plus_y = g.canonical_coords(tuple(a + b for a, b in zip(x, y)))
        assert not any(g.canonical_coords(tuple(a - a for a in x)))
        if not any(g.canonical_coords(x)) and not any(g.canonical_coords(y)):
            assert not any(x_plus_y)
        assert x_plus_y == g.canonical_coords(tuple(b + a for a, b in zip(x, y)))
        # the sum of cosets does not depend on the representatives added
        reps = zip(g.canonical_coords(x), g.canonical_coords(y))
        assert x_plus_y == g.canonical_coords(tuple(a + b for a, b in reps))


def test_presentation_invariance():
    rng = random.Random(43)
    base = [[4, 0], [3, 4]]
    g = AbelianPresentation(("u", "v"), base)
    for _ in range(25):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        extra = [a * r1 + b * r2 for r1, r2 in zip(*base)]
        g2 = AbelianPresentation(("u", "v"), base + [extra])
        assert g2.invariant_factors() == g.invariant_factors()


def test_order_divides_exponent():
    rng = random.Random(47)
    g = AbelianPresentation(("a", "b"), [[6, 0], [0, 4]])
    exponent = g.invariant_factors()[-1]
    for _ in range(40):
        e = (rng.randint(-20, 20), rng.randint(-20, 20))
        assert exponent % g.element_order(e) == 0


def test_cokernel_invariants_match_bfs_enumeration():
    rng = random.Random(53)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        det = cofactor_det(rows)
        if det == 0 or abs(det) > 400:
            continue
        g = AbelianPresentation(tuple(f"g{i}" for i in range(n)), rows)
        factors = g.invariant_factors()
        cosets = bfs_cosets(rows)
        assert len(cosets) == abs(det) == math.prod(factors)
        # m-torsion counts determine the factors; check every divisor of the exponent
        exponent = factors[-1] if factors else 1
        for m in range(1, exponent + 1):
            if exponent % m:
                continue
            expected = math.prod(math.gcd(m, f) for f in factors)
            assert torsion_count(cosets, rows, m) == expected
        checked += 1


def test_element_equality_and_hash():
    g = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    assert g.canonical_coords((4, 5)) == g.canonical_coords((1, 1))
    # the stored box form and Smith diagonal take no part in equality
    fresh = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    g.is_finite()
    g.invariant_factors()
    assert fresh._hnf is None and fresh._diagonal is None
    assert g._hnf is not None and g._diagonal is not None
    assert fresh == g and hash(fresh) == hash(g)
    assert g != AbelianPresentation(("x", "z"), [[3, 0], [0, 4]])
    assert g != AbelianPresentation(("x", "y"), [[3, 0], [0, 8]])


def test_ambient_equality_ignores_stored_bases():
    # an ambient stores each monomial basis on first use; like a
    # presentation's normal forms, the stored bases take no part in equality,
    # hashing or repr
    used = AmbientSpace((1, 3))
    fresh = AmbientSpace((1, 3))
    basis = used.monomial_basis(2)
    assert used.monomial_basis(2) is basis
    assert fresh._bases == {} and used._bases == {2: basis}
    assert fresh == used and hash(fresh) == hash(used)
    assert repr(fresh) == repr(used) == "AmbientSpace(factor_dims=(1, 3))"
    assert used != AmbientSpace((3, 1))


FROZEN_VALUES = [
    (IntegerMatrix([[1, 2], [3, 4]]), ("rows", "cols", "entries")),
    (ChowClass(AmbientSpace((1, 3)), 2, {(1, 1): 3}), ("ambient", "degree", "_items")),
    (AbelianPresentation(("x",), [[2]]), ("generator_names", "relations", "_diagonal", "_hnf")),
    (AmbientSpace((1, 3)), ("factor_dims", "_bases")),
]


@pytest.mark.parametrize("value, names", FROZEN_VALUES, ids=[type(v).__name__ for v, _ in FROZEN_VALUES])
def test_value_types_are_frozen(value, names):
    assert dataclasses.is_dataclass(value)
    assert tuple(f.name for f in dataclasses.fields(value)) == names
    before = [getattr(value, name) for name in names]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in names] == before
    # a name that is not a field is refused the same way
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del value.extra
    assert not hasattr(value, "extra")


def _stored_forms(g: AbelianPresentation) -> AbelianPresentation:
    g.is_finite()
    g.invariant_factors()
    return g


def _stored_bases(ambient: AmbientSpace) -> AmbientSpace:
    for degree in range(ambient.total_dim + 1):
        ambient.monomial_basis(degree)
    return ambient


ROUND_TRIP_VALUES = {
    "IntegerMatrix": lambda: IntegerMatrix([[1, 2], [3, 4]]),
    "ChowClass": lambda: ChowClass(AmbientSpace((1, 3)), 2, {(1, 1): 3, (0, 2): -1}),
    "AbelianPresentation": lambda: AbelianPresentation(("x", "y"), [[3, 0], [0, 4]]),
    "AbelianPresentation-stored": lambda: _stored_forms(AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])),
    "AmbientSpace": lambda: AmbientSpace((1, 3)),
    "AmbientSpace-stored": lambda: _stored_bases(AmbientSpace((1, 3))),
}


@pytest.mark.parametrize("make", ROUND_TRIP_VALUES.values(), ids=ROUND_TRIP_VALUES.keys())
def test_value_types_round_trip_through_copy_and_pickle(make):
    value = make()
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


def test_from_json():
    g = AbelianPresentation.from_json(
        {"generators": ["x", "y"], "relations": [["3", "0"], ["0", "4"]]}
    )
    assert g.invariant_factors() == (12,)


def test_bezout_minimal_m():
    assert bezout(3, 4) == (1, -1, 1)
    assert bezout(2, 2) == (2, 0, 1)
    assert bezout(1, 2) == (1, 1, 0)  # tie between 1 and -1 goes positive
    rng = random.Random(59)
    for _ in range(100):
        d1, d2 = rng.randint(1, 60), rng.randint(1, 60)
        g, m, n = bezout(d1, d2)
        assert m * d1 + n * d2 == g == math.gcd(d1, d2)
        step = d2 // g
        # any other valid m differs by a multiple of step and is no closer to 0
        assert all(abs(m) <= abs(m + k * step) for k in (-2, -1, 1, 2))
    with pytest.raises(ValueError):
        bezout(0, 4)


def test_repr_gives_the_constructor_arguments():
    g = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    assert repr(g) == "AbelianPresentation(('x', 'y'), [[3, 0], [0, 4]])"


def test_relation_width_validation():
    with pytest.raises(ValueError):
        AbelianPresentation(("x",), [[1, 2]])
    with pytest.raises(ValueError, match="^relation width 2 != number of generators 1$"):
        AbelianPresentation(("x",), IntegerMatrix([[1, 2]]))
    # a coordinate vector must have one entry per generator
    g = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    for wrong in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            g.canonical_coords(wrong)
        with pytest.raises(ValueError):
            g.element_order(wrong)
