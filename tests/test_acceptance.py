"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and timings.  Every tolerance here is exact: all arithmetic is integer
arithmetic, so comparisons are equalities, and the two stated runtime budgets
are asserted as wall-clock bounds.
"""

import math
import random
import time

from chowobstruct.chow import AmbientSpace, ChowClass, cup, parse_class, reduce_mod2
from chowobstruct.complement import (
    ComplementModel,
    PushforwardAssumption,
    closed_form_check,
    complement_group,
)
from chowobstruct.intlinalg import IntegerMatrix, smith_normal_form
from chowobstruct.obstruction import (
    ChernPair,
    Verdict,
    classify_all,
    decide,
    sq2_descends,
)
from chowobstruct.steenrod import sq2

from oracles import bfs_cosets, cofactor_det, torsion_count

P1xP3 = AmbientSpace((1, 3))
P4 = AmbientSpace((4,))
NAIVE = PushforwardAssumption.naive()
EVEN = PushforwardAssumption.even_degree()

SWEEP = [(d1, d2) for d1 in range(1, 13) for d2 in range(1, 13)]


def report(num: int, description: str, run):
    try:
        run()
    except Exception:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


def test_criterion_1_closed_form_sweep():
    def run():
        start = time.perf_counter()
        for d1, d2 in SWEEP:
            model = ComplementModel(P1xP3, (d1, d2))
            g = math.gcd(d1, d2)
            ch1 = complement_group(model, 1, NAIVE).invariant_factors()
            ch2 = complement_group(model, 2, NAIVE).invariant_factors()
            assert ch1 == tuple(f for f in (g, math.lcm(d1, d2)) if f != 1)
            assert ch2 == tuple(f for f in (g, d2 * d2 // g) if f != 1)
            assert closed_form_check(d1, d2).ok
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"

    report(1, "degree-1/2 invariant factors match closed forms on the 12x12 sweep", run)


def test_criterion_2_snf_identity_sweep():
    def run():
        for d1, d2 in SWEEP:
            g = math.gcd(d1, d2)
            mat = IntegerMatrix([[d2, d1], [0, d2]])
            dec = smith_normal_form(mat)
            assert dec.diagonal == (g, d2 * d2 // g)
            assert dec.u @ mat @ dec.v == dec.s

    report(2, "smith form of [[d2,d1],[0,d2]] is diag(g, d2^2/g) with exact u*a*v = s", run)


def test_criterion_3_cartan_computations():
    def run():
        assert sq2(parse_class(P1xP3, "x1*x2")) == parse_class(P1xP3, "x1*x2^2")
        assert sq2(parse_class(P4, "x1^2")).is_zero()

    report(3, "sq2(x1*x2) = x1*x2^2 on P1xP3 and sq2(x1^2) = 0 on P4, exactly", run)


def test_criterion_4_headline_example():
    def run():
        start = time.perf_counter()
        model = ComplementModel(P1xP3, (3, 4))
        pair = ChernPair(
            parse_class(P1xP3, "0", degree=1), parse_class(P1xP3, "x1*x2", degree=2)
        )
        verdict = decide(model, pair, EVEN)
        assert verdict.verdict == Verdict.NOT_ALGEBRAIZABLE
        assert verdict.theta_quotient.invariant_factors() == (2,)
        assert any(verdict.theta_image)

        trivial = ChernPair(
            parse_class(P1xP3, "0", degree=1), parse_class(P1xP3, "0", degree=2)
        )
        assert decide(model, trivial, EVEN).verdict == Verdict.ALGEBRAIZABLE
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    report(4, "bidegree (3,4) pair (0, x1*x2) is NOT_ALGEBRAIZABLE, pair (0,0) is", run)


def test_criterion_5_totaro_degree_48_family():
    def run():
        model = ComplementModel(P4, (48,))
        rows = classify_all(model, EVEN)
        assert len(rows) == 48 * 48
        for row in rows:
            m = parse_class(P4, row.c1, degree=1).coeffs.get((1,), 0)
            a = parse_class(P4, row.c2, degree=2).coeffs.get((2,), 0)
            if m % 2 == 1 and a % 2 == 1:
                assert row.verdict == Verdict.NOT_ALGEBRAIZABLE
            else:
                assert row.verdict == Verdict.ALGEBRAIZABLE
                assert m % 2 == 0 or a % 2 == 0

    report(5, "degree-48 sweep: exactly the odd-odd pairs fail, even-m pairs pass", run)


def test_criterion_6_trento_family():
    def run():
        odd_model = ComplementModel(P4, (125,))
        rows = classify_all(odd_model, NAIVE)
        assert len(rows) == 125 * 125
        assert {row.verdict for row in rows} == {Verdict.ALGEBRAIZABLE}

        even_model = ComplementModel(P4, (250,))
        for m in range(0, 6):
            for a in range(0, 6):
                pair = ChernPair(
                    parse_class(P4, f"{m}*x1", degree=1),
                    parse_class(P4, f"{a}*x1^2", degree=2),
                )
                result = decide(even_model, pair, NAIVE)
                assert result.verdict != Verdict.NOT_ALGEBRAIZABLE
                if m % 2 == 1 and a % 2 == 1:
                    assert not result.justification["naive_theta_zero"]
                    assert result.verdict == Verdict.UNDETERMINED
                else:
                    assert result.verdict == Verdict.ALGEBRAIZABLE

    report(6, "odd degree 125 is all ALGEBRAIZABLE; even 250 stays UNDETERMINED", run)


def test_criterion_7_property_suites():
    def run():
        rng = random.Random(2024)
        # 1000 random smith forms: exact factorization, unimodularity, chain
        for _ in range(1000):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            mat = IntegerMatrix(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            )
            dec = smith_normal_form(mat)
            assert dec.u @ mat @ dec.v == dec.s
            assert abs(cofactor_det(dec.u.to_lists())) == 1
            assert abs(cofactor_det(dec.v.to_lists())) == 1
            diag = dec.diagonal
            nonzero = [d for d in diag if d]
            assert diag[: len(nonzero)] == tuple(nonzero)
            assert all(d >= 0 for d in diag)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0

        # cokernel invariants against breadth-first coset enumeration
        checked = 0
        while checked < 60:
            n = rng.randint(1, 3)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            det = cofactor_det(rows)
            if det == 0 or abs(det) > 1000:
                continue
            from chowobstruct.abelian import AbelianPresentation

            group = AbelianPresentation(tuple(f"g{i}" for i in range(n)), rows)
            factors = group.invariant_factors()
            cosets = bfs_cosets(rows)
            assert len(cosets) == abs(det) == math.prod(factors)
            exponent = factors[-1] if factors else 1
            for k in sorted({1, 2, exponent} | set(factors)):
                expected = math.prod(math.gcd(k, f) for f in factors)
                assert torsion_count(cosets, rows, k) == expected
            checked += 1

        # 500 random pairs: additivity and the cartan product rule
        for _ in range(500):
            ambient = rng.choice([P1xP3, P4, AmbientSpace((2, 2))])
            da, db = rng.randint(0, 2), rng.randint(0, 2)
            a = ChowClass(
                ambient, da, {e: rng.randint(0, 1) for e in ambient.monomial_basis(da)}
            )
            b = ChowClass(
                ambient, db, {e: rng.randint(0, 1) for e in ambient.monomial_basis(db)}
            )
            assert sq2(cup(a, b)) == reduce_mod2(cup(sq2(a), b) + cup(a, sq2(b)))
            if da == db:
                assert sq2(reduce_mod2(a + b)) == reduce_mod2(sq2(a) + sq2(b))

        # 200 random lift perturbations leave decide unchanged
        model34 = ComplementModel(P1xP3, (3, 4))
        rel1 = complement_group(model34, 1, NAIVE).relations.entries
        rel2 = complement_group(model34, 2, NAIVE).relations.entries
        base34 = decide(
            model34,
            ChernPair(
                parse_class(P1xP3, "x2", degree=1), parse_class(P1xP3, "x1*x2", degree=2)
            ),
            NAIVE,
        )
        for _ in range(100):
            s1 = [sum(rng.randint(-2, 2) * r[i] for r in rel1) for i in range(2)]
            s2 = [sum(rng.randint(-2, 2) * r[i] for r in rel2) for i in range(2)]
            perturbed = ChernPair(
                ChowClass.from_coords(P1xP3, 1, [s1[0], 1 + s1[1]]),
                ChowClass.from_coords(P1xP3, 2, [1 + s2[0], s2[1]]),
            )
            result = decide(model34, perturbed, NAIVE)
            assert result.verdict == base34.verdict
            assert result.theta_image == base34.theta_image

        model48 = ComplementModel(P4, (48,))
        base48 = decide(
            model48,
            ChernPair(parse_class(P4, "x1", degree=1), parse_class(P4, "x1^2", degree=2)),
            EVEN,
        )
        for _ in range(100):
            c1 = ChowClass.from_coords(P4, 1, [1 + 48 * rng.randint(-3, 3)])
            c2 = ChowClass.from_coords(P4, 2, [1 + 48 * rng.randint(-3, 3)])
            result = decide(model48, ChernPair(c1, c2), EVEN)
            assert result.verdict == base48.verdict
            assert result.theta_image == base48.theta_image

    report(7, "1000 smith forms, coset brute force, 500 cartan pairs, 200 lifts: clean", run)


def test_criterion_8_squaring_descends_on_sweep():
    def run():
        for d1, d2 in SWEEP:
            assert sq2_descends(ComplementModel(P1xP3, (d1, d2)))

    report(8, "sq2 maps degree-2 divisor relations into degree-3 ones on the sweep", run)
