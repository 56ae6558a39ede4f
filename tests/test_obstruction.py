import itertools
import math
import random

import pytest

from chowobstruct import chow, complement, obstruction
from chowobstruct.abelian import InfiniteGroupError
from chowobstruct.chow import AmbientSpace, ChowClass, cup, parse_class, reduce_mod2
from chowobstruct.complement import ComplementModel, PushforwardAssumption, complement_group
from chowobstruct.intlinalg import IntegerMatrix, _gf2_mask, _gf2_span, hermite_normal_form, hermite_reduce
from chowobstruct.obstruction import (
    ChernPair,
    DimensionUnsupportedError,
    Verdict,
    classify_all,
    decide,
    sq2_descends,
    theta,
)

from oracles import gf2_theta, theta_verdict
from test_classify_stream import EVEN_DEGREE_MOD2, SWEEPS

P1xP3 = AmbientSpace((1, 3))
P4 = AmbientSpace((4,))
NAIVE = PushforwardAssumption.naive()
EVEN = PushforwardAssumption.even_degree()
NORI = PushforwardAssumption.nori()
ASSUMPTIONS = {"naive": NAIVE, "nori": NORI, "even-degree": EVEN}


def pair_on(ambient, c1_text, c2_text):
    return ChernPair(
        parse_class(ambient, c1_text, degree=1),
        parse_class(ambient, c2_text, degree=2),
    )


def test_theta_headline_pair():
    assert theta(pair_on(P1xP3, "0", "x1*x2")) == parse_class(P1xP3, "x1*x2^2")


def test_theta_on_p4():
    for m in range(4):
        for a in range(4):
            th = theta(pair_on(P4, f"{m}*x1", f"{a}*x1^2"))
            expected = ChowClass(P4, 3, {(3,): a * m % 2})
            assert th == reduce_mod2(expected)


def test_theta_vanishes_on_zero_c2():
    assert theta(pair_on(P1xP3, "x1 + x2", "0")).is_zero()


def test_theta_bilinear_identity_in_c1():
    rng = random.Random(103)
    basis1 = P1xP3.monomial_basis(1)
    basis2 = P1xP3.monomial_basis(2)
    for _ in range(50):
        c1 = ChowClass(P1xP3, 1, {e: rng.randint(0, 3) for e in basis1})
        c1p = ChowClass(P1xP3, 1, {e: rng.randint(0, 3) for e in basis1})
        c2 = ChowClass(P1xP3, 2, {e: rng.randint(0, 3) for e in basis2})
        zero1 = ChowClass(P1xP3, 1, {})
        lhs = reduce_mod2(theta(ChernPair(c1 + c1p, c2)) + theta(ChernPair(zero1, c2)))
        rhs = reduce_mod2(theta(ChernPair(c1, c2)) + theta(ChernPair(c1p, c2)))
        assert lhs == rhs


def test_decide_headline_not_algebraizable():
    model = ComplementModel(P1xP3, (3, 4))
    report = decide(model, pair_on(P1xP3, "0", "x1*x2"), EVEN)
    assert report.verdict == Verdict.NOT_ALGEBRAIZABLE
    assert report.theta_quotient.invariant_factors() == (2,)
    assert any(report.theta_image)
    assert report.justification["certificates"]["assumption"]["status"] == "ASSUMED_CONTAINS"


def test_decide_trivial_pair_algebraizable():
    model = ComplementModel(P1xP3, (3, 4))
    report = decide(model, pair_on(P1xP3, "0", "0"), EVEN)
    assert report.verdict == Verdict.ALGEBRAIZABLE
    assert report.theta_on_y.is_zero()


def test_decide_totaro_even_first_chern_class():
    model = ComplementModel(P4, (48,))
    for a in range(4):
        report = decide(model, pair_on(P4, "2*x1", f"{a}*x1^2"), NAIVE)
        assert report.verdict == Verdict.ALGEBRAIZABLE


def test_decide_totaro_odd_odd_not_algebraizable():
    model = ComplementModel(P4, (48,))
    report = decide(model, pair_on(P4, "x1", "x1^2"), EVEN)
    assert report.verdict == Verdict.NOT_ALGEBRAIZABLE
    report2 = decide(model, pair_on(P4, "3*x1", "5*x1^2"), EVEN)
    assert report2.verdict == Verdict.NOT_ALGEBRAIZABLE


def test_decide_odd_degree_always_algebraizable():
    # odd-order degree-3 quotient dies mod 2, so theta always vanishes there
    model = ComplementModel(P4, (125,))
    for m in range(3):
        for a in range(3):
            report = decide(model, pair_on(P4, f"{m}*x1", f"{a}*x1^2"), NAIVE)
            assert report.verdict == Verdict.ALGEBRAIZABLE


def test_decide_even_degree_without_certificate_is_undetermined():
    model = ComplementModel(P4, (250,))
    report = decide(model, pair_on(P4, "x1", "x1^2"), NAIVE)
    assert report.verdict == Verdict.UNDETERMINED
    assert not report.justification["naive_theta_zero"]


def test_decide_nori_upgrades_both_ways():
    model = ComplementModel(P4, (250,))
    assert decide(model, pair_on(P4, "x1", "x1^2"), NORI).verdict == Verdict.NOT_ALGEBRAIZABLE
    assert decide(model, pair_on(P4, "2*x1", "x1^2"), NORI).verdict == Verdict.ALGEBRAIZABLE


def test_decide_custom_lower_bound_can_certify_algebraizable():
    # a user-vouched subgroup inside the pushforward image that is larger than
    # the divisor multiples can settle a pair the naive quotient cannot
    model = ComplementModel(P1xP3, (3, 4))
    naive_rows = complement_group(model, 3, NAIVE).relations.entries
    gens = tuple(ChowClass.from_coords(P1xP3, 3, row) for row in naive_rows)
    gens = gens + (parse_class(P1xP3, "x2^3"),)
    custom = PushforwardAssumption.custom(gens, "contained_in_image", 3)
    pair = pair_on(P1xP3, "x2", "x2^2")  # theta = x2^3
    assert theta(pair) == parse_class(P1xP3, "x2^3")
    undecided = decide(model, pair, NAIVE)
    assert undecided.verdict == Verdict.UNDETERMINED
    report = decide(model, pair, custom)
    assert report.verdict == Verdict.ALGEBRAIZABLE
    assert "inside the pushforward image" in report.justification["verdict_basis"]


@pytest.mark.parametrize(
    "assumption, spans", [(NAIVE, 1), (NORI, 1), (EVEN, 2)], ids=["naive", "nori", "even-degree"]
)
def test_decide_reduces_a_shared_group_mod2_once(monkeypatch, assumption, spans):
    # decide() builds only the assumption's degree-3 group and eliminates its
    # relations mod 2 once, for the verdict rule and the reported quotient
    # alike; under even-degree the naive span comes from the relation rows
    # with no group built, which is the second elimination
    calls, built = [], []
    gf2_span = obstruction._gf2_span

    def counting_gf2_span(rows):
        calls.append(rows)
        return gf2_span(rows)

    def counting_complement_group(*args):
        built.append(args)
        return complement_group(*args)

    model = ComplementModel(P1xP3, (3, 4))
    pair = pair_on(P1xP3, "0", "x1*x2")
    with monkeypatch.context() as m:
        m.setattr(obstruction, "_gf2_span", counting_gf2_span)
        m.setattr(obstruction, "complement_group", counting_complement_group)
        report = decide(model, pair, assumption)
    assert len(calls) == spans
    assert len(built) == 1
    # the image still lies in the reduction of the assumption's own group,
    # with the Smith diagonal of its mod-2 reduction
    group = complement_group(model, 3, assumption)
    expected = group._mod2_quotient(len(_gf2_span(group.relations.entries)))
    assert report.theta_quotient == expected
    assert report.theta_quotient.invariant_factors() == expected.invariant_factors()


def test_each_decide_report_owns_its_justification():
    # a caller editing one report's justification must not reach the next
    # report's on the same model
    model = ComplementModel(P1xP3, (3, 4))
    first = decide(model, pair_on(P1xP3, "0", "x1*x2"), EVEN)
    first.justification["certificates"]["naive"]["status"] = "edited"
    second = decide(model, pair_on(P1xP3, "0", "x1*x2"), EVEN)
    assert second.justification["certificates"]["naive"]["status"] == "UPPER_BOUND_ONLY"
    assert second.justification is not first.justification


def test_decide_rejects_foreign_pair():
    model = ComplementModel(P1xP3, (3, 4))
    from chowobstruct.chow import AmbientMismatchError

    with pytest.raises(AmbientMismatchError):
        decide(model, pair_on(AmbientSpace((2, 2)), "0", "0"), NAIVE)
    with pytest.raises(AmbientMismatchError, match="^c1 and c2 live in different ambient spaces$"):
        ChernPair(parse_class(P1xP3, "x1"), parse_class(AmbientSpace((2, 2)), "x1^2"))


def test_decide_soundness_directions():
    # NOT_ALGEBRAIZABLE only out of a containing quotient, ALGEBRAIZABLE only
    # out of a lower-bound quotient
    rng = random.Random(107)
    models = [
        (ComplementModel(P1xP3, (3, 4)), EVEN),
        (ComplementModel(P4, (48,)), EVEN),
        (ComplementModel(P4, (250,)), NAIVE),
    ]
    for model, assumption in models:
        basis1 = model.ambient.monomial_basis(1)
        basis2 = model.ambient.monomial_basis(2)
        for _ in range(25):
            c1 = ChowClass(model.ambient, 1, {e: rng.randint(0, 5) for e in basis1})
            c2 = ChowClass(model.ambient, 2, {e: rng.randint(0, 5) for e in basis2})
            report = decide(model, ChernPair(c1, c2), assumption)
            basis = report.justification["verdict_basis"]
            if report.verdict == Verdict.NOT_ALGEBRAIZABLE:
                assert "contain the pushforward image" in basis
            elif report.verdict == Verdict.ALGEBRAIZABLE:
                assert "lower bound" in basis or "inside the pushforward image" in basis


def test_decide_lift_independence_naive():
    rng = random.Random(109)
    model = ComplementModel(P1xP3, (3, 4))
    rel1 = complement_group(model, 1, NAIVE).relations.entries
    rel2 = complement_group(model, 2, NAIVE).relations.entries
    base = decide(model, pair_on(P1xP3, "0", "x1*x2"), NAIVE)
    for _ in range(60):
        shift1 = [sum(rng.randint(-2, 2) * r[i] for r in rel1) for i in range(2)]
        shift2 = [sum(rng.randint(-2, 2) * r[i] for r in rel2) for i in range(2)]
        c1 = ChowClass.from_coords(P1xP3, 1, shift1)
        c2 = ChowClass.from_coords(P1xP3, 2, [1 + shift2[0], shift2[1]])
        report = decide(model, ChernPair(c1, c2), NAIVE)
        assert report.verdict == base.verdict
        assert report.theta_image == base.theta_image


def test_decide_lift_independence_totaro_even_degree():
    rng = random.Random(113)
    model = ComplementModel(P4, (48,))
    base = decide(model, pair_on(P4, "x1", "x1^2"), EVEN)
    for _ in range(40):
        c1 = parse_class(P4, f"{1 + 48 * rng.randint(-2, 2)}*x1", degree=1)
        c2 = parse_class(P4, f"{1 + 48 * rng.randint(-2, 2)}*x1^2", degree=2)
        report = decide(model, ChernPair(c1, c2), EVEN)
        assert report.verdict == base.verdict
        assert report.theta_image == base.theta_image


def test_sq2_descends_on_models():
    # every ambient of total dimension 4, every degree from 1 to 3 in each factor
    rng = random.Random(127)
    for dims in ((4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)):
        ambient = AmbientSpace(dims)
        for degrees in itertools.product(range(1, 4), repeat=len(dims)):
            model = ComplementModel(ambient, degrees)
            assert sq2_descends(model), (dims, degrees)
            # the reported theta image is theta reduced against the
            # column-order Hermite form of the degree-3 rows stacked on 2*I
            rows = complement_group(model, 3, NAIVE).relations.to_lists()
            n = len(ambient.monomial_basis(3))
            twos = [[2 * int(i == j) for j in range(n)] for i in range(n)]
            h = hermite_normal_form(IntegerMatrix(rows + twos, cols=n))
            # the c1 side: theta moves by z*c2, so lifting c1 by a multiple of z changes nothing
            z = model.z_class.coords()
            for _ in range(4):
                c1 = [rng.randint(-3, 3) for _ in z]
                c2 = ChowClass.from_coords(
                    ambient, 2, [rng.randint(-3, 3) for _ in ambient.monomial_basis(2)]
                )
                k = rng.choice((-2, -1, 1, 2))
                lift = [a + k * b for a, b in zip(c1, z)]
                base = decide(model, ChernPair(ChowClass.from_coords(ambient, 1, c1), c2), NAIVE)
                report = decide(model, ChernPair(ChowClass.from_coords(ambient, 1, lift), c2), NAIVE)
                assert report.verdict == base.verdict, (dims, degrees, c1, k)
                assert report.theta_image == base.theta_image
                assert report.theta_image == hermite_reduce(h, report.theta_on_y.coords()), (dims, degrees, c1)


def test_dimension_guard():
    with pytest.raises(DimensionUnsupportedError):
        decide(ComplementModel(AmbientSpace((3,)), (2,)), pair_on(AmbientSpace((3,)), "0", "0"), NAIVE)
    with pytest.raises(DimensionUnsupportedError):
        decide(
            ComplementModel(AmbientSpace((1, 1)), (1, 1)),
            pair_on(AmbientSpace((1, 1)), "0", "0"),
            NAIVE,
        )


def test_pair_validation():
    with pytest.raises(ValueError):
        ChernPair(parse_class(P1xP3, "x1*x2"), parse_class(P1xP3, "x1*x2"))


def test_classify_headline_table():
    model = ComplementModel(P1xP3, (3, 4))
    rows = classify_all(model, EVEN)
    assert len(rows) == 192  # 12 * 16
    index = {(r.c1, r.c2): r.verdict for r in rows}
    assert index[("0", "x1*x2")] == Verdict.NOT_ALGEBRAIZABLE
    assert index[("0", "0")] == Verdict.ALGEBRAIZABLE


def test_classify_row_count_matches_factors():
    model = ComplementModel(P4, (6,))
    rows = classify_all(model, NAIVE)
    g1 = math.prod(complement_group(model, 1, NAIVE).invariant_factors())
    g2 = math.prod(complement_group(model, 2, NAIVE).invariant_factors())
    assert len(rows) == g1 * g2 == 36


def test_classify_totaro_parity_pattern():
    model = ComplementModel(P4, (48,))
    rows = classify_all(model, EVEN)
    assert len(rows) == 48 * 48
    for row in rows:
        m = parse_class(P4, row.c1, degree=1).coeffs.get((1,), 0)
        a = parse_class(P4, row.c2, degree=2).coeffs.get((2,), 0)
        if m % 2 and a % 2:
            assert row.verdict == Verdict.NOT_ALGEBRAIZABLE
        else:
            assert row.verdict == Verdict.ALGEBRAIZABLE


def test_classify_infinite_group_guard():
    model = ComplementModel(P1xP3, (0, 4))
    with pytest.raises(InfiniteGroupError):
        classify_all(model, NAIVE)


def test_classify_row_order():
    # every label is the str() of its coset's lift, the reference rendering
    for dims, degrees, assumption in SWEEPS:
        ambient = AmbientSpace(dims)
        model = ComplementModel(ambient, degrees)
        rows = classify_all(model, ASSUMPTIONS[assumption])
        g1 = complement_group(model, 1, NAIVE)
        g2 = complement_group(model, 2, NAIVE)
        labels1 = [str(ChowClass.from_coords(ambient, 1, c)) for c in g1.elements()]
        labels2 = [str(ChowClass.from_coords(ambient, 2, c)) for c in g2.elements()]
        assert [(r.c1, r.c2) for r in rows] == [(a, b) for a in labels1 for b in labels2], (
            dims, degrees, assumption)
        assert (rows[0].c1, rows[0].c2) == ("0", "0")


def test_classify_lifts_are_smallest_representatives():
    model = ComplementModel(P1xP3, (3, 4))
    rows = classify_all(model, EVEN)
    labels = {r.c2 for r in rows}
    assert "x1*x2" in labels and "x2^2" in labels and "0" in labels



@pytest.mark.parametrize("assumption", [NAIVE, NORI, EVEN], ids=["naive", "nori", "even-degree"])
def test_classify_builds_each_group_once(monkeypatch, assumption):
    # CH^1 and CH^2 for the cosets, once per sweep; the verdict table reads
    # the degree-3 relation rows mod 2 and needs no group
    built = []

    def counting_complement_group(model, j, assumption=None):
        built.append((j, assumption))
        return complement_group(model, j, assumption)

    monkeypatch.setattr(obstruction, "complement_group", counting_complement_group)
    for model in (ComplementModel(P4, (6,)), ComplementModel(P1xP3, (2, 4))):
        built.clear()
        classify_all(model, assumption)
        assert sorted(j for j, _ in built) == [1, 2], model
        assert len(set(built)) == len(built), model


@pytest.mark.parametrize(
    "assumption, rows", [(NAIVE, [NAIVE]), (NORI, [NORI]), (EVEN, [EVEN, NAIVE])], ids=["naive", "nori", "even-degree"]
)
def test_decide_computes_each_degree_3_row_set_once(monkeypatch, assumption, rows):
    # the presentation decide() reports and its verdict rule share the
    # assumption's rows; only even-degree needs the naive rows as well
    calls = []
    relation_rows = complement._relation_rows

    def counting_relation_rows(model, j, assumption):
        calls.append((j, assumption))
        return relation_rows(model, j, assumption)

    monkeypatch.setattr(complement, "_relation_rows", counting_relation_rows)
    monkeypatch.setattr(obstruction, "_relation_rows", counting_relation_rows)
    for model, pair in ((ComplementModel(P1xP3, (3, 4)), pair_on(P1xP3, "0", "x1*x2")),
                        (ComplementModel(P4, (6,)), pair_on(P4, "x1", "x1^2"))):
        calls.clear()
        decide(model, pair, assumption)
        assert calls == [(3, a) for a in rows], model


def _sweep_against_decide(monkeypatch, model, assumption):
    """Run classify_all with calls to theta, sq2 and cup counted, check every
    row against a direct decide() on its own lift, and return those three
    counts for classify_all."""
    calls = {"theta": 0, "sq2": 0, "cup": 0}

    def counting(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    with monkeypatch.context() as m:
        m.setattr(obstruction, "theta", counting("theta", obstruction.theta))
        m.setattr(obstruction, "sq2", counting("sq2", obstruction.sq2))
        m.setattr(obstruction, "cup", counting("cup", obstruction.cup))
        rows = classify_all(model, assumption)
    ambient = model.ambient
    for row in rows:
        pair = ChernPair(
            parse_class(ambient, row.c1, degree=1), parse_class(ambient, row.c2, degree=2)
        )
        assert decide(model, pair, assumption).verdict == row.verdict, (model, row)
    return calls["theta"], calls["sq2"], calls["cup"]


@pytest.mark.parametrize("assumption", [NAIVE, EVEN, NORI], ids=lambda a: a.label())
def test_classify_p4_matches_decide_on_every_row(monkeypatch, assumption):
    # theta is bilinear mod 2, so the sweep reads it off Sq^2(x1^2) and
    # x1*x1^2, the latter from the divisor columns of x1, and never evaluates
    # theta on a lift or calls cup
    for d in range(1, 13):
        calls = _sweep_against_decide(monkeypatch, ComplementModel(P4, (d,)), assumption)
        assert calls == (0, 1, 0), (d, calls)


@pytest.mark.parametrize("assumption", [NAIVE, NORI, EVEN], ids=lambda a: a.label())
def test_classify_p1xp3_matches_decide_on_every_row(monkeypatch, assumption):
    # CH^1 and CH^2 of P^1 x P^3 have ranks 2 and 2: Sq^2 of 2 monomials and
    # 2*2 products, read off divisor columns with no cup
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            model = ComplementModel(P1xP3, (d1, d2))
            calls = _sweep_against_decide(monkeypatch, model, assumption)
            assert calls == (0, 2, 0), (d1, d2, calls)


# The parity table on every ambient of total dimension 4, with every parity
# pattern of the multidegree and a few more degrees where the table is small.
# classify raises InfiniteGroupError on the last three ambients; the table
# does not need finite groups.  even-degree applies only on P^4 and P^1 x P^3.
_TABLE_GRIDS = {
    (4,): [(d,) for d in (1, 2, 3, 4, 8, 48)],
    (1, 3): list(itertools.product(range(1, 5), repeat=2)),
    (2, 2): list(itertools.product(range(1, 4), repeat=2)),
    (1, 1, 2): list(itertools.product((1, 2), repeat=3)),
    (1, 1, 1, 1): list(itertools.product((1, 2), repeat=4)),
}
# A custom degree-3 subgroup in each direction where even-degree applies:
# x1^3 and x2^3 lie outside the divisor multiples mod 2 for some degrees, so
# the inside direction certifies pairs that naive leaves undetermined.
_TABLE_CUSTOM = {
    (4,): {"contained_in_image": ("x1^3",), "contains_image": ("2*x1^3",)},
    (1, 3): {"contained_in_image": ("x2^3",), "contains_image": ("x1*x2^2",)},
}


@pytest.mark.parametrize("dims", list(_TABLE_GRIDS), ids=lambda dims: "x".join(f"P{n}" for n in dims))
def test_parity_table_matches_decide_and_the_theta_oracle(dims):
    # every one of the 2^(b1 + b2) parity pairs, against decide()'s verdict
    # rule on theta of a lift with seeded odd coefficients -1, 1 or 3 (against
    # decide() itself under a custom assumption) and against the theta
    # oracle, which runs once per distinct theta of the total square over GF(2)
    ambient = AmbientSpace(dims)
    basis1, basis2 = ambient.monomial_basis(1), ambient.monomial_basis(2)
    rng = random.Random(f"table-{dims}")
    pairs = []
    for p1, p2 in itertools.product(itertools.product((0, 1), repeat=len(basis1)),
                                    itertools.product((0, 1), repeat=len(basis2))):
        lift = ChernPair(ChowClass.from_coords(ambient, 1, [p * rng.choice((-1, 1, 3)) for p in p1]),
                         ChowClass.from_coords(ambient, 2, [p * rng.choice((-1, 1, 3)) for p in p2]))
        c1 = {e for e, p in zip(basis1, p1) if p}
        c2 = {e for e, p in zip(basis2, p2) if p}
        pairs.append((p1, p2, lift, (c1, c2), frozenset(gf2_theta(dims, c1, c2))))
    assumptions = [(name, ASSUMPTIONS[name], None) for name in ("naive", "nori")]
    if dims in EVEN_DEGREE_MOD2:
        assumptions.append(("even-degree", EVEN, EVEN_DEGREE_MOD2[dims]))
    for direction, texts in _TABLE_CUSTOM.get(dims, {}).items():
        gens = [parse_class(ambient, text) for text in texts]
        rows = [{e for e, c in zip(ambient.monomial_basis(3), g.coords()) if c % 2} for g in gens]
        assumptions.append((direction, PushforwardAssumption.custom(gens, direction, 3), rows))
    for degrees in _TABLE_GRIDS[dims]:
        model = ComplementModel(ambient, degrees)
        for name, assumption, rows in assumptions:
            table = obstruction._parity_verdicts(model, assumption)
            assert [len(row) for row in table] == [2 ** len(basis2)] * 2 ** len(basis1), (dims, degrees, name)
            _, rule = obstruction._verdict_rule(model, assumption, complement._relation_rows(model, 3, assumption))
            oracle = {}
            for p1, p2, lift, gf2, th in pairs:
                if th not in oracle:
                    oracle[th] = theta_verdict(dims, degrees, *gf2, assumption.direction.value, rows)
                verdict = table[_gf2_mask(p1)][_gf2_mask(p2)]
                if name in ASSUMPTIONS:
                    expected = rule(_gf2_mask(theta(lift).coords()))[0]
                else:
                    expected = decide(model, lift, assumption).verdict
                assert verdict == expected, (dims, degrees, name, p1, p2)
                assert verdict.value == oracle[th], (dims, degrees, name, p1, p2)


# Twisting a rank-2 bundle by a line bundle L, or dualizing it, keeps it
# algebraic or not.  Its Chern classes move to (c1 + 2l, c2 + c1*l + l^2) and to
# (-c1, c2) (Fulton, Intersection Theory, Example 3.2.2), so verdicts must not.


def test_theta_vanishes_on_the_twist_term():
    # Sq^2 squares a divisor and kills l^2 mod 2, so by the Cartan formula
    # Sq^2(c1*l + l^2) = c1^2*l + c1*l^2 = c1*(c1*l + l^2): theta(c1, c1*l + l^2)
    # is 0 for every parity pair (c1, l), checked on sq2 and cup themselves
    checked = 0
    for dims in _TABLE_GRIDS:
        ambient = AmbientSpace(dims)
        parities = list(itertools.product((0, 1), repeat=len(ambient.monomial_basis(1))))
        for p1, pl in itertools.product(parities, repeat=2):
            c1 = ChowClass.from_coords(ambient, 1, p1)
            l = ChowClass.from_coords(ambient, 1, pl)
            assert theta(ChernPair(c1, cup(c1, l) + cup(l, l))).is_zero(), (dims, p1, pl)
            checked += 1
    assert checked == 356


@pytest.mark.parametrize("dims", list(_TABLE_GRIDS), ids=lambda dims: "x".join(f"P{n}" for n in dims))
def test_decide_is_constant_under_twist_and_dual(dims):
    ambient = AmbientSpace(dims)
    b1, b2 = len(ambient.monomial_basis(1)), len(ambient.monomial_basis(2))
    rng = random.Random(f"twist-{dims}")

    def lift(size):
        return [rng.randint(-5, 5) for _ in range(size)]

    names = ["naive", "nori"] + (["even-degree"] if dims in EVEN_DEGREE_MOD2 else [])
    seen = set()
    for degrees in _TABLE_GRIDS[dims]:
        model = ComplementModel(ambient, degrees)
        for name in names:
            for _ in range(4):
                c1, l = lift(b1), ChowClass.from_coords(ambient, 1, lift(b1))
                c2 = ChowClass.from_coords(ambient, 2, lift(b2))
                pair = ChernPair(ChowClass.from_coords(ambient, 1, c1), c2)
                twist = ChernPair(
                    ChowClass.from_coords(ambient, 1, [x + 2 * y for x, y in zip(c1, l.coords())]),
                    c2 + cup(pair.c1, l) + cup(l, l),
                )
                dual = ChernPair(ChowClass.from_coords(ambient, 1, [-x for x in c1]), c2)
                verdicts = {decide(model, p, ASSUMPTIONS[name]).verdict for p in (pair, twist, dual)}
                assert len(verdicts) == 1, (dims, degrees, name, c1, c2.coords(), l.coords())
                seen |= verdicts
    assert len(seen) > 1


@pytest.mark.parametrize(
    "assumption, reductions", [(NAIVE, 1), (NORI, 1), (EVEN, 2)], ids=["naive", "nori", "even-degree"]
)
def test_parity_table_reduces_theta_once_per_distinct_quotient(monkeypatch, assumption, reductions):
    # the table runs the verdict rule once per degree-3 mod-2 class; naive and
    # nori read theta in one degree-3 GF(2) span, so the rule reduces it once,
    # and even-degree reads it in its own and the naive one
    calls = []
    gf2_reduce = obstruction._gf2_reduce

    def counting_gf2_reduce(span, mask):
        calls.append(mask)
        return gf2_reduce(span, mask)

    for model in (ComplementModel(P4, (48,)), ComplementModel(P1xP3, (3, 4))):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(obstruction, "_gf2_reduce", counting_gf2_reduce)
            obstruction._parity_verdicts(model, assumption)
        assert len(calls) == reductions * 2 ** len(model.ambient.monomial_basis(3)), model


# One model per ambient of total dimension 4.  The sweep raises
# InfiniteGroupError at its first next() on the last three, after its groups
# of degrees 1 and 2.
_BASIS_MODELS = {(4,): (6,), (1, 3): (3, 4), (2, 2): (2, 2), (1, 1, 2): (1, 2, 2), (1, 1, 1, 1): (2, 2, 2, 2)}


@pytest.mark.parametrize("dims", list(_BASIS_MODELS), ids=lambda dims: "x".join(f"P{n}" for n in dims))
def test_each_basis_is_generated_once_per_ambient(monkeypatch, dims):
    # decide() and the sweep's setup up to its first row read the bases of
    # degrees 1, 2 and 3 many times over; the ambient generates each once
    generated = []
    box_walk = chow._box_walk

    def counting_box_walk(bounds, totals):
        totals = tuple(totals)
        generated.extend((tuple(bounds), total) for total in totals)
        return box_walk(bounds, totals)

    monkeypatch.setattr(chow, "_box_walk", counting_box_walk)
    assumptions = [NAIVE, NORI] + ([EVEN] if dims in EVEN_DEGREE_MOD2 else [])
    for assumption in assumptions:
        generated.clear()
        ambient = AmbientSpace(dims)
        model = ComplementModel(ambient, _BASIS_MODELS[dims])
        ones1 = (1,) * len(ambient.monomial_basis(1))
        ones2 = (1,) * len(ambient.monomial_basis(2))
        pair = ChernPair(ChowClass.from_coords(ambient, 1, ones1), ChowClass.from_coords(ambient, 2, ones2))
        decide(model, pair, assumption)
        try:
            next(obstruction._sweep(model, assumption, list))
        except InfiniteGroupError:
            assert dims not in EVEN_DEGREE_MOD2
        assert sorted({total for _, total in generated}) == [1, 2, 3], (assumption.label(), generated)
        assert len(set(generated)) == len(generated), (assumption.label(), generated)


# The lift-flip table.  Item-1 grids of the ROADMAP for P^4 and P^1 x P^3, with
# every parity pair of lifts; every multidegree with components up to 3 on
# P^2 x P^2, where both ranks are small, and every parity pattern of the
# multidegree on the other two ambients, each with seeded parity pairs.  Only
# naive and nori apply off P^4 and P^1 x P^3.  The seeded pairs find the same
# flipping models there as all 128 and 1024 pairs do.
_FLIP_GRIDS = {
    (4,): (range(1, 13), None),
    (1, 3): (range(1, 7), None),
    (2, 2): (range(1, 4), None),
    (1, 1, 2): (range(1, 3), 16),
    (1, 1, 1, 1): (range(1, 3), 8),
}
LIFTS = ("c1 + z", "c1 + relation", "c2 + relation")
# The number of models on which a lift flips some verdict, by assumption and
# lift.  Under even-degree every lift flips exactly on the models whose
# subgroup misses the divisor multiples mod 2 (not every degree even): c1 + z
# adds z*c2 to theta, which that subgroup does not kill.  Item 1 of the ROADMAP
# would make those counts 0.  On (P^1)^4 and P^1 x P^1 x P^2 a degree-1
# relation row d_i*x_i flips naive and nori verdicts too: for two factors or
# more it is not zero in CH^1 of the complement, which is item 4 of the
# ROADMAP.  Every count not listed is 0.
_FLIPS = {
    **{("even-degree", (4,), lift): 6 for lift in LIFTS},
    **{("even-degree", (1, 3), lift): 27 for lift in LIFTS},
    ("naive", (1, 1, 2), "c1 + relation"): 1,
    ("nori", (1, 1, 2), "c1 + relation"): 1,
    ("naive", (1, 1, 1, 1), "c1 + relation"): 11,
    ("nori", (1, 1, 1, 1), "c1 + relation"): 11,
}


def _flipping_lifts(model, assumption, pairs):
    """The lifts among c1 + z, c1 + a degree-1 relation row and c2 + a degree-2
    relation row that change the verdict decide() gives on one of the pairs,
    read from decide()'s verdict rule on theta of the lift."""
    ambient = model.ambient
    _, rule = obstruction._verdict_rule(model, assumption, complement._relation_rows(model, 3, assumption))

    def verdict(c1, c2):
        pair = ChernPair(ChowClass.from_coords(ambient, 1, c1), ChowClass.from_coords(ambient, 2, c2))
        return rule(_gf2_mask(theta(pair).coords()))[0]

    def plus(a, b):
        return [x + y for x, y in zip(a, b)]

    shifts = dict(zip(LIFTS, (
        [model.z_class.coords()],
        complement_group(model, 1, NAIVE).relations.entries,
        complement_group(model, 2, NAIVE).relations.entries,
    )))
    flipped = set()
    for c1, c2 in pairs:
        base = verdict(c1, c2)
        for lift in set(LIFTS) - flipped:
            side = 2 if lift.startswith("c2") else 1
            if any(
                verdict(plus(c1, s) if side == 1 else c1, plus(c2, s) if side == 2 else c2) != base
                for s in shifts[lift]
            ):
                flipped.add(lift)
    return flipped


@pytest.mark.parametrize("dims", list(_FLIP_GRIDS), ids=lambda dims: "x".join(f"P{n}" for n in dims))
def test_lift_flip_table(dims):
    ambient = AmbientSpace(dims)
    degree_range, sample = _FLIP_GRIDS[dims]
    pairs = list(itertools.product(
        itertools.product((0, 1), repeat=len(ambient.monomial_basis(1))),
        itertools.product((0, 1), repeat=len(ambient.monomial_basis(2))),
    ))
    if sample is not None:
        pairs = random.Random(f"flips-{dims}").sample(pairs, sample)
    got = {}
    for name, assumption in ASSUMPTIONS.items():
        if name == "even-degree" and dims not in ((4,), (1, 3)):
            continue
        for degrees in itertools.product(degree_range, repeat=len(dims)):
            for lift in _flipping_lifts(ComplementModel(ambient, degrees), assumption, pairs):
                got[name, dims, lift] = got.get((name, dims, lift), 0) + 1
                if name == "even-degree":
                    assert any(d % 2 for d in degrees), degrees
    assert got == {key: count for key, count in _FLIPS.items() if key[1] == dims}
