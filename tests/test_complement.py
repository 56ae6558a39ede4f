import math
import random

import pytest

from chowobstruct.chow import AmbientSpace, ChowClass, parse_class
from chowobstruct.complement import (
    ComplementModel,
    Direction,
    InapplicableAssumptionError,
    PushforwardAssumption,
    Status,
    closed_form_check,
    complement_group,
)

P1xP3 = AmbientSpace((1, 3))
P4 = AmbientSpace((4,))
NAIVE = PushforwardAssumption.naive()
EVEN = PushforwardAssumption.even_degree()
NORI = PushforwardAssumption.nori()


def model34():
    return ComplementModel(P1xP3, (3, 4))


def test_degree1_group():
    group, cert = complement_group(model34(), 1, NAIVE)
    # Z/3 + Z/4 in canonical form
    assert group.invariant_factors() == (12,)
    assert cert.status == Status.EXACT
    # x1 and x2 generate summands of orders 3 and 4
    assert group.element((1, 0)).order() == 3
    assert group.element((0, 1)).order() == 4


def test_degree2_group():
    group, cert = complement_group(model34(), 2, NAIVE)
    assert group.invariant_factors() == (16,)
    assert cert.status == Status.EXACT
    assert group.relations.to_lists() == [[4, 0], [3, 4]]


def test_degree3_witness_quotient():
    group, cert = complement_group(model34(), 3, EVEN)
    assert group.invariant_factors() == (2,)
    assert cert.status == Status.ASSUMED_CONTAINS
    assert group.generator_names == ("x1*x2^2", "x2^3")


def test_degree0_group():
    group, cert = complement_group(model34(), 0, NAIVE)
    assert group.invariant_factors() == (0,)
    assert cert.status == Status.EXACT


def test_restrict_xi_tau_has_order_four():
    group, _ = complement_group(model34(), 2, NAIVE)
    e = group.element(parse_class(P1xP3, "x1*x2").coords())
    # brute force against the presentation <x1*x2, x2^2 | (4,0), (3,4)>
    brute = next(k for k in range(1, 17) if (k * e).is_zero())
    assert brute == 4
    assert e.order() == 4
    assert not e.is_zero()


def test_restrict_hypersurface_class_is_zero():
    group, _ = complement_group(model34(), 1, NAIVE)
    e = group.element(parse_class(P1xP3, "3*x1 + 4*x2").coords())
    assert e.is_zero()


def test_restrict_xi_tau_squared_survives_witness():
    group, _ = complement_group(model34(), 3, EVEN)
    e = group.element(parse_class(P1xP3, "x1*x2^2").coords())
    assert not e.is_zero()
    assert e.order() == 2


def test_restrict_is_additive():
    rng = random.Random(97)
    model = model34()
    for j in (1, 2, 3):
        basis = P1xP3.monomial_basis(j)
        group, _ = complement_group(model, j)
        for _ in range(20):
            a = ChowClass(P1xP3, j, {e: rng.randint(-5, 5) for e in basis})
            b = ChowClass(P1xP3, j, {e: rng.randint(-5, 5) for e in basis})
            assert group.element((a + b).coords()) == group.element(a.coords()) + group.element(b.coords())


def test_closed_form_34():
    report = closed_form_check(3, 4)
    assert report.ok
    assert (report.g, report.m, report.n) == (1, -1, 1)
    assert report.ch1_factors == (12,)
    assert report.ch2_factors == (16,)
    assert report.xi_tau_image == (1, 4)
    # the reported image has the order of x1*x2 in the degree-2 quotient
    group, _ = complement_group(model34(), 2, NAIVE)
    assert group.element(parse_class(P1xP3, "x1*x2").coords()).order() == 4


def test_closed_form_22():
    report = closed_form_check(2, 2)
    assert report.ok
    assert report.g == 2
    assert report.ch2_factors == (2, 2)
    assert report.xi_tau_image == (1, 0)


def test_closed_form_equal_degrees():
    for d in (1, 2, 5, 9):
        report = closed_form_check(d, d)
        assert report.ok
        expected = (d, d) if d > 1 else ()
        assert report.ch1_factors == expected


def test_closed_form_sweep_small():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            assert closed_form_check(d1, d2).ok


def test_p4_family_quotients():
    for d in (5, 48, 125):
        model = ComplementModel(P4, (d,))
        for j in (1, 2, 3):
            group, _ = complement_group(model, j, NAIVE)
            assert group.invariant_factors() == (d,)
            # generated by the image of x1^j
            assert group.element((1,)).order() == d


def test_monotonicity_of_quotients():
    # enlarging the subgroup can only kill more elements
    rng = random.Random(101)
    model = model34()
    for j in (2, 3):
        naive_group, _ = complement_group(model, j, NAIVE)
        basis = P1xP3.monomial_basis(j)
        extra = ChowClass(P1xP3, j, {e: rng.randint(-3, 3) for e in basis})
        bigger_rows = [
            ChowClass.from_coords(P1xP3, j, row) for row in naive_group.relations.entries
        ] + [extra]
        custom = PushforwardAssumption.custom(bigger_rows, Direction.CONTAINS_IMAGE, j)
        big_group, _ = complement_group(model, j, custom)
        for _ in range(30):
            coords = tuple(rng.randint(-6, 6) for _ in basis)
            if naive_group.element(coords).is_zero():
                assert big_group.element(coords).is_zero()


def test_nori_certificates():
    group, cert = complement_group(model34(), 3, NORI)
    naive_group, _ = complement_group(model34(), 3, NAIVE)
    assert group.relations == naive_group.relations
    assert cert.status == Status.ASSUMED_EXACT
    _, cert2 = complement_group(model34(), 2, NORI)
    assert cert2.status == Status.EXACT


def test_not_ample_flagged():
    model = ComplementModel(P1xP3, (0, 4))
    group, cert = complement_group(model, 1, NAIVE)
    assert cert.status == Status.UPPER_BOUND_ONLY
    assert "ample" in cert.note
    assert group.invariant_factors() == (4, 0)
    with pytest.raises(ValueError):
        ComplementModel(P1xP3, (-1, 4))
    with pytest.raises(ValueError):
        ComplementModel(P1xP3, (3,))


def test_inapplicable_assumptions():
    with pytest.raises(InapplicableAssumptionError):
        complement_group(model34(), 2, EVEN)
    with pytest.raises(InapplicableAssumptionError):
        complement_group(ComplementModel(AmbientSpace((2, 2)), (2, 2)), 3, EVEN)


def test_even_degree_preset_p4():
    model = ComplementModel(P4, (48,))
    group, cert = complement_group(model, 3, EVEN)
    assert group.invariant_factors() == (2,)
    assert cert.status == Status.ASSUMED_CONTAINS


def test_custom_assumption_directions():
    gens = (parse_class(P1xP3, "2*x1*x2^2"),)
    contains = PushforwardAssumption.custom(gens, "contains_image", 3)
    contained = PushforwardAssumption.custom(gens, "contained_in_image", 3)
    _, cert_a = complement_group(model34(), 3, contains)
    _, cert_b = complement_group(model34(), 3, contained)
    assert cert_a.status == Status.ASSUMED_CONTAINS
    assert cert_b.status == Status.UPPER_BOUND_ONLY
    with pytest.raises(InapplicableAssumptionError):
        complement_group(model34(), 2, contains)


def test_naive_degree1_matches_componentwise_closed_form():
    # degree-1 factors agree with merging Z/d1 + Z/d2 into chain form
    for d1 in range(1, 8):
        for d2 in range(1, 8):
            model = ComplementModel(P1xP3, (d1, d2))
            group, _ = complement_group(model, 1, NAIVE)
            expected = tuple(
                f for f in (math.gcd(d1, d2), math.lcm(d1, d2)) if f != 1
            )
            assert group.invariant_factors() == expected
