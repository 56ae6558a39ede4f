import math
import random

import pytest

from chowobstruct.abelian import (
    AbelianPresentation,
    InfiniteGroupError,
    bezout,
)
from chowobstruct.intlinalg import IntegerMatrix

from oracles import bfs_cosets, cofactor_det, frac_membership, torsion_count


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


def test_is_zero():
    g = AbelianPresentation(("x1*x2", "x2^2"), [[4, 0], [3, 4]])
    assert g.element((4, 0)).is_zero()
    assert not g.element((1, 0)).is_zero()
    assert g.element((0, 0)).is_zero()
    assert g.element((0,) * g.ngens).is_zero()


def test_element_order_brute_force():
    g = AbelianPresentation(("x1*x2", "x2^2"), [[4, 0], [3, 4]])
    e = g.element((1, 0))
    brute = next(k for k in range(1, 17) if g.element((k, 0)).is_zero())
    assert brute == 4
    assert e.order() == 4
    assert g.element((0,) * g.ngens).order() == 1
    free = AbelianPresentation(("x",), IntegerMatrix([], cols=1))
    assert free.element((1,)).order() == 0


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
            assert g.element(c).order() == least
        checked += 1


def test_element_order_free_generator_between_torsion():
    # Z/3 + Z: the relation 2a + b leaves a and b of infinite order
    g = AbelianPresentation(("a", "b", "c"), [[2, 1, 0], [0, 0, 3]])
    assert g.element((1, 0, 0)).order() == 0
    assert g.element((0, 1, 0)).order() == 0
    assert g.element((0, 0, 1)).order() == 3
    assert g.element((2, 1, 0)).order() == 1
    assert g.element((4, 2, 2)).order() == 3


def test_element_order_rank_deficient_rectangular():
    # the three relations span only (2, 4, 6): Z^3 / Z(2, 4, 6) = Z/2 + Z^2
    g = AbelianPresentation(("a", "b", "c"), [[2, 4, 6], [4, 8, 12], [-2, -4, -6]])
    assert g.invariant_factors() == (2, 0, 0)
    assert g.element((1, 2, 3)).order() == 2
    assert g.element((3, 6, 9)).order() == 2
    assert g.element((2, 4, 6)).order() == 1
    assert g.element((1, 0, 0)).order() == 0
    assert g.element((1, 2, 4)).order() == 0


def test_tensor_mod2():
    g = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    assert g.tensor_mod2().invariant_factors() == (2,)
    free2 = AbelianPresentation(("a", "b"), IntegerMatrix([], cols=2))
    assert free2.tensor_mod2().invariant_factors() == (2, 2)
    trivial = AbelianPresentation((), IntegerMatrix([], cols=0))
    assert trivial.tensor_mod2().invariant_factors() == ()


def test_enumerate_counts():
    g = AbelianPresentation(("x", "y"), [[3, 0], [0, 4]])
    elements = list(g.elements())
    assert len(elements) == 12
    assert len({e.canonical() for e in elements}) == 12
    assert elements[0].is_zero()

    trivial = AbelianPresentation((), IntegerMatrix([], cols=0))
    assert len(list(trivial.elements())) == 1

    free = AbelianPresentation(("x",), IntegerMatrix([], cols=1))
    with pytest.raises(InfiniteGroupError):
        list(free.elements())


def test_enumerate_smallest_representatives_first():
    # breadth-first search labels each coset by a smallest nonnegative sum
    g = AbelianPresentation(("x1*x2", "x2^2"), [[4, 0], [3, 4]])
    reps = [e.coords for e in g.elements()]
    assert reps[0] == (0, 0)
    assert (1, 0) in reps
    assert len(reps) == 16
    single = AbelianPresentation(("x",), [[5]])
    assert [e.coords for e in single.elements()] == [(0,), (1,), (2,), (3,), (4,)]


def test_group_laws_random():
    rng = random.Random(41)
    g = AbelianPresentation(("a", "b", "c"), [[2, 0, 0], [0, 6, 3], [1, 1, 1]])
    for _ in range(60):
        x = tuple(rng.randint(-9, 9) for _ in range(3))
        y = tuple(rng.randint(-9, 9) for _ in range(3))
        x_plus_y = g.element(tuple(a + b for a, b in zip(x, y)))
        assert g.element(tuple(a - a for a in x)).is_zero()
        if g.element(x).is_zero() and g.element(y).is_zero():
            assert x_plus_y.is_zero()
        assert x_plus_y.canonical() == g.element(tuple(b + a for a, b in zip(x, y))).canonical()
        # the sum of cosets does not depend on the representatives added
        reps = zip(g.element(x).canonical(), g.element(y).canonical())
        assert x_plus_y == g.element(tuple(a + b for a, b in reps))


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
        e = g.element((rng.randint(-20, 20), rng.randint(-20, 20)))
        assert exponent % e.order() == 0


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
    assert g.element((4, 5)) == g.element((1, 1))
    assert hash(g.element((4, 5))) == hash(g.element((1, 1)))
    other = AbelianPresentation(("x", "y"), [[3, 0], [0, 5]])
    assert g.element((1, 1)) != other.element((1, 1))


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


def test_relation_width_validation():
    with pytest.raises(ValueError):
        AbelianPresentation(("x",), [[1, 2]])
