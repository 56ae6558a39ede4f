import random

from chowobstruct.chow import AmbientSpace, ChowClass, _divisor_columns, cup, parse_class, reduce_mod2
from chowobstruct.intlinalg import _gf2_mask
from chowobstruct.obstruction import ChernPair, theta
from chowobstruct.steenrod import sq2

from oracles import gf2_theta

P1xP3 = AmbientSpace((1, 3))
P4 = AmbientSpace((4,))


def random_class(rng, ambient, degree, low=0, high=1):
    basis = ambient.monomial_basis(degree)
    return ChowClass(ambient, degree, {e: rng.randint(low, high) for e in basis})


def test_sq2_of_xi_tau():
    # the x1^2*x2 term truncates, leaving x1*x2^2
    assert sq2(ChowClass(P1xP3, 2, {(1, 1): 1})) == parse_class(P1xP3, "x1*x2^2")


def test_sq2_of_xi_squared_in_p4():
    # even exponent contributes an even coefficient, zero mod 2
    assert sq2(ChowClass(P4, 2, {(2,): 1})).is_zero()


def test_sq2_of_unit():
    out = sq2(ChowClass(P1xP3, 0, {(0, 0): 1}))
    assert out.is_zero() and out.degree == 1


def test_sq2_additive_extension():
    c = parse_class(P1xP3, "x1*x2 + x2^2")
    assert sq2(c) == parse_class(P1xP3, "x1*x2^2")
    assert sq2(ChowClass(P1xP3, 2, {})).is_zero()


def test_sq2_kills_multiples_of_xi_squared_in_p4():
    for a in range(1, 6):
        assert sq2(ChowClass(P4, 2, {(2,): a})).is_zero()


def test_sq2_degree_shift():
    rng = random.Random(73)
    for degree in range(0, 4):
        c = random_class(rng, P1xP3, degree)
        assert sq2(c).degree == degree + 1


def test_sq2_squares_degree_one_monomials():
    for ambient in (P1xP3, P4, AmbientSpace((2, 2))):
        for e in ambient.monomial_basis(1):
            u = ChowClass(ambient, 1, {e: 1})
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


# theta's ambients: every one of total dimension 4, then P^1 x P^2, where
# degree 3 is the top degree and most products x_i*m truncate, and P^3 x P^3,
# where none does.
THETA_AMBIENTS = DIMENSION_4 + (AmbientSpace((1, 2)), AmbientSpace((3, 3)))


def gf2_set(c):
    return {e for e, coeff in c.items() if coeff % 2}


def test_one_pass_theta_matches_the_slow_path_and_the_oracle():
    # theta sums (c1 + w(m))*m over the odd terms m of c2 in one pass; the
    # slow path builds Sq^2(c2), c1*c2, their sum and its reduction mod 2,
    # and the oracle squares c2 as a ring homomorphism, with no package code
    rng = random.Random(151)
    seen = set()
    for ambient in THETA_AMBIENTS:
        for _ in range(40):
            c1 = random_class(rng, ambient, 1, -6, 6)
            c2 = random_class(rng, ambient, 2, -6, 6)
            seen.update(coeff for c in (c1, c2) for _, coeff in c.items())
            th = theta(ChernPair(c1, c2))
            assert th == reduce_mod2(sq2(c2) + cup(c1, c2)), (ambient, c1, c2)
            assert th.degree == 3
            assert gf2_set(th) == gf2_theta(ambient.factor_dims, gf2_set(c1), gf2_set(c2)), (ambient, c1, c2)
    # zero coefficients are dropped on construction; every other one occurs
    assert seen == set(range(-6, 7)) - {0}


def test_squares_are_xors_of_the_divisor_products():
    # Sq^2(m) = w(m)*m: on every degree-2 basis monomial m, the XOR of the
    # masks of x_i*m over the i with m[i] odd, each read off the divisor
    # columns of x_i's unit weight vector as the parity table reads them, is
    # Sq^2(m)
    for ambient in THETA_AMBIENTS:
        basis1 = ambient.monomial_basis(1)
        products = [[_gf2_mask(col) for col in _divisor_columns(ambient, e, 3)] for e in basis1]
        for j, m in enumerate(ambient.monomial_basis(2)):
            square = 0
            for i, a in enumerate(m):
                if a % 2:
                    square ^= products[i][j]
            monomial = ChowClass(ambient, 2, {m: 1})
            assert square == _gf2_mask(sq2(monomial).coords()), (ambient, m)
            w = ChowClass(ambient, 1, {e: a % 2 for e, a in zip(basis1, m)})
            assert sq2(monomial) == reduce_mod2(cup(w, monomial)), (ambient, m)
