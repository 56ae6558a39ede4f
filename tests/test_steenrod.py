import random

from chowobstruct.chow import AmbientSpace, ChowClass, cup, parse_class, reduce_mod2
from chowobstruct.obstruction import ChernPair, theta
from chowobstruct.steenrod import sq2

P1xP3 = AmbientSpace((1, 3))
P4 = AmbientSpace((4,))


def random_class(rng, ambient, degree, low=0, high=1):
    basis = ambient.monomial_basis(degree)
    return ChowClass(ambient, degree, {e: rng.randint(low, high) for e in basis})


def test_sq2_of_xi_tau():
    # the x1^2*x2 term truncates, leaving x1*x2^2
    assert sq2(ChowClass.monomial(P1xP3, (1, 1))) == parse_class(P1xP3, "x1*x2^2")


def test_sq2_of_xi_squared_in_p4():
    # even exponent contributes an even coefficient, zero mod 2
    assert sq2(ChowClass.monomial(P4, (2,))).is_zero()


def test_sq2_of_unit():
    out = sq2(ChowClass.monomial(P1xP3, (0, 0)))
    assert out.is_zero() and out.degree == 1


def test_sq2_additive_extension():
    c = parse_class(P1xP3, "x1*x2 + x2^2")
    assert sq2(c) == parse_class(P1xP3, "x1*x2^2")
    assert sq2(ChowClass(P1xP3, 2, {})).is_zero()


def test_sq2_kills_multiples_of_xi_squared_in_p4():
    for a in range(1, 6):
        assert sq2(ChowClass.monomial(P4, (2,), a)).is_zero()


def test_sq2_degree_shift():
    rng = random.Random(73)
    for degree in range(0, 4):
        c = random_class(rng, P1xP3, degree)
        assert sq2(c).degree == degree + 1


def test_sq2_squares_degree_one_monomials():
    for ambient in (P1xP3, P4, AmbientSpace((2, 2))):
        for e in ambient.monomial_basis(1):
            u = ChowClass.monomial(ambient, e)
            assert sq2(u) == reduce_mod2(cup(u, u))


def test_sq2_additivity_random():
    rng = random.Random(79)
    for _ in range(120):
        degree = rng.randint(0, 3)
        a = random_class(rng, P1xP3, degree)
        b = random_class(rng, P1xP3, degree)
        assert sq2(reduce_mod2(a + b)) == reduce_mod2(sq2(a) + sq2(b))


def test_sq2_cartan_rule_random():
    rng = random.Random(83)
    for ambient in (P1xP3, P4, AmbientSpace((2, 2))):
        for _ in range(60):
            da = rng.randint(0, 2)
            db = rng.randint(0, 2)
            a = random_class(rng, ambient, da)
            b = random_class(rng, ambient, db)
            left = sq2(cup(a, b))
            right = reduce_mod2(cup(sq2(a), b) + cup(a, sq2(b)))
            assert left == right


# Every ambient of total dimension 4, where theta is defined.
DIMENSION_4 = tuple(
    AmbientSpace(dims) for dims in ((4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1))
)


def test_sq2_and_theta_read_integer_input_mod2():
    rng = random.Random(97)
    for ambient in DIMENSION_4:
        for _ in range(40):
            c = random_class(rng, ambient, rng.randint(0, 3), -5, 5)
            out = sq2(c)
            assert out == sq2(reduce_mod2(c))
            assert all(coeff == 1 for _, coeff in out.items())

            c1 = random_class(rng, ambient, 1, -5, 5)
            c2 = random_class(rng, ambient, 2, -5, 5)
            th = theta(ChernPair(c1, c2))
            assert th == theta(ChernPair(reduce_mod2(c1), reduce_mod2(c2)))
            assert all(coeff == 1 for _, coeff in th.items())
