import itertools
import random

import pytest

from chowobstruct.chow import (
    AmbientMismatchError,
    AmbientSpace,
    ChowClass,
    _divisor_columns,
    cup,
    parse_class,
    reduce_mod2,
)
from chowobstruct.complement import ComplementModel
from chowobstruct.intlinalg import IntegerMatrix
from chowobstruct.steenrod import sq2

P1xP3 = AmbientSpace((1, 3))
P4 = AmbientSpace((4,))


def random_class(rng, ambient, degree):
    basis = ambient.monomial_basis(degree)
    return ChowClass(ambient, degree, {e: rng.randint(-4, 4) for e in basis})


def test_monomial_basis_degree2():
    # x1*x2 before x2^2: powers of the first factor sort first
    assert P1xP3.monomial_basis(2) == ((1, 1), (0, 2))


def test_monomial_basis_degree0_and_top():
    assert P1xP3.monomial_basis(0) == ((0, 0),)
    assert P4.monomial_basis(3) == ((3,),)
    assert P1xP3.monomial_basis(5) == ()
    assert P1xP3.monomial_basis(4) == ((1, 3),)


def test_monomial_basis_equals_the_filtered_product():
    for k in range(1, 5):
        for dims in itertools.product(range(1, 4), repeat=k):
            ambient = AmbientSpace(dims)
            product = list(itertools.product(*(range(n + 1) for n in dims)))
            for degree in range(-1, ambient.total_dim + 2):
                expected = sorted((e for e in product if sum(e) == degree), reverse=True)
                assert ambient.monomial_basis(degree) == tuple(expected), (dims, degree)


def test_cup_monomials():
    xi = ChowClass(P1xP3, 1, {(1, 0): 1})
    tau = ChowClass(P1xP3, 1, {(0, 1): 1})
    assert cup(xi, tau) == ChowClass(P1xP3, 2, {(1, 1): 1})
    # x1^2 = 0 in P^1 x P^3
    assert cup(xi, ChowClass(P1xP3, 2, {(1, 1): 1})).is_zero()


def test_cup_divisor():
    z = parse_class(P1xP3, "3*x1 + 4*x2")
    tau = parse_class(P1xP3, "x2")
    assert cup(z, tau) == parse_class(P1xP3, "3*x1*x2 + 4*x2^2")


def test_divisor_matrix_bezout_shape():
    # z = 3*x1 + 4*x2: z * x1 = 4*x1*x2 and z * x2 = 3*x1*x2 + 4*x2^2
    assert _divisor_columns(P1xP3, (3, 4), 2) == ((4, 0), (3, 4))
    assert _divisor_columns(P1xP3, (3, 4), 1) == ((3, 4),)
    assert _divisor_columns(P1xP3, (0, 0), 2) == ((0, 0), (0, 0))


def test_divisor_matrix_agrees_with_cup():
    rng = random.Random(61)
    for ambient in (P1xP3, P4, AmbientSpace((2, 2))):
        w = random_class(rng, ambient, 1).coords()
        z = ChowClass.from_coords(ambient, 1, w)
        for j in range(1, ambient.total_dim + 1):
            columns = _divisor_columns(ambient, w, j)
            mat = IntegerMatrix(zip(*columns), cols=len(columns))
            for _ in range(5):
                alpha = random_class(rng, ambient, j - 1)
                col = IntegerMatrix([[c] for c in alpha.coords()], cols=1)
                assert tuple(r[0] for r in (mat @ col).entries) == cup(z, alpha).coords()


def test_divisor_matrix_matches_cup_columns():
    # the slow path: one cup product per degree-(j-1) basis monomial, on
    # every ambient with at most 4 factors and total dimension at most 6, in
    # every degree from 0 to two past the top; each term c*x_i of z bumps
    # one exponent of m.  z's weight vector runs over seeded ones and over
    # multidegrees with zero components, z = 0 among them
    rng = random.Random(83)
    ambients = [
        AmbientSpace(dims)
        for k in range(1, 5)
        for dims in itertools.product(range(1, 7), repeat=k)
        if sum(dims) <= 6
    ]
    assert len(ambients) == 56
    for ambient in ambients:
        k = ambient.k
        basis = ambient.monomial_basis(1)
        multidegrees = {(0,) * k, tuple(range(k)), tuple((3 * i + 2) % 5 for i in range(k))}
        weights = [tuple(rng.randint(-6, 6) for _ in basis) for _ in range(20)]
        weights += [ComplementModel(ambient, degrees).multidegree for degrees in multidegrees]
        for w in weights:
            z = ChowClass.from_coords(ambient, 1, w)
            for j in range(ambient.total_dim + 3):
                columns = [
                    cup(z, ChowClass(ambient, j - 1, {m: 1})).coords() for m in ambient.monomial_basis(j - 1)
                ]
                assert _divisor_columns(ambient, w, j) == tuple(columns), (ambient, w, j)


def test_cup_ring_laws():
    rng = random.Random(67)
    for _ in range(40):
        da = rng.randint(0, 3)
        db = rng.randint(0, 3)
        dc = rng.randint(0, 2)
        a = random_class(rng, P1xP3, da)
        b = random_class(rng, P1xP3, db)
        c = random_class(rng, P1xP3, dc)
        assert cup(a, b) == cup(b, a)
        assert cup(cup(a, b), c) == cup(a, cup(b, c))
        b2 = random_class(rng, P1xP3, db)
        assert cup(a, b + b2) == cup(a, b) + cup(a, b2)
    unit = ChowClass(P1xP3, 0, {(0, 0): 1})
    x = random_class(random.Random(1), P1xP3, 2)
    assert cup(unit, x) == x


def test_cup_vanishes_beyond_total_dimension():
    rng = random.Random(71)
    for _ in range(20):
        a = random_class(rng, P1xP3, 3)
        b = random_class(rng, P1xP3, 2)
        assert cup(a, b).is_zero()


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        cup(ChowClass(P1xP3, 1, {(1, 0): 1}), ChowClass(P4, 1, {(1,): 1}))


def test_parse_and_str_roundtrip():
    for text in ("3*x1 + 4*x2", "x1*x2^2", "0", "x2^3", "2*x1*x2^2 + x2^3"):
        c = parse_class(P1xP3, text)
        assert parse_class(P1xP3, str(c)) == c


def test_parse_aliases():
    assert parse_class(P1xP3, "ξ*τ") == ChowClass(P1xP3, 2, {(1, 1): 1})
    assert parse_class(P1xP3, "xi*tau") == ChowClass(P1xP3, 2, {(1, 1): 1})
    assert parse_class(P1xP3, "3*xi + 4*tau") == parse_class(P1xP3, "3*x1 + 4*x2")


def test_parse_truncated_monomials_vanish():
    c = parse_class(P1xP3, "x1^2")
    assert c.is_zero() and c.degree == 2


def test_parse_signs_and_degree_checks():
    c = parse_class(P1xP3, "x1*x2 - 2*x2^2")
    assert c.coeffs.get((0, 2), 0) == -2
    with pytest.raises(ValueError):
        parse_class(P1xP3, "x1 + x1*x2")
    with pytest.raises(ValueError):
        parse_class(P1xP3, "x1", degree=2)
    with pytest.raises(ValueError):
        parse_class(P1xP3, "x3")
    zero2 = parse_class(P1xP3, "0", degree=2)
    assert zero2.is_zero() and zero2.degree == 2
    # a sign after a sign flips it, and the blank between them is skipped
    assert parse_class(P1xP3, "x1 - - x2") == parse_class(P1xP3, "x1 + x2")


# (ambient, literal, degree argument, outcome): the class as (degree,
# coefficients), or the exact ValueError message.  The literal is read left to
# right and its first error is the one reported; degrees are checked after.
_PARSE_OUTCOMES = (
    (P1xP3, "x1 + y + +", None, "cannot parse factor 'y'"),
    (P1xP3, "x1 + x2^2 + y", None, "cannot parse factor 'y'"),
    (P1xP3, "x1 - + x2", None, "misplaced sign in 'x1 - + x2'"),
    (P1xP3, "-x1*x2 + +x2^2", None, "misplaced sign in '-x1*x2 + +x2^2'"),
    (P1xP3, "+", None, "misplaced sign in '+'"),
    (P1xP3, "- - x1", None, (1, {(1, 0): 1})),
    (P1xP3, "x1 + - x2", None, (1, {(1, 0): 1, (0, 1): -1})),
    (P1xP3, "x1 - - x2", None, (1, {(1, 0): 1, (0, 1): 1})),
    (P1xP3, "x1 + -", None, "trailing sign in 'x1 + -'"),
    (P1xP3, "x1 -", None, "trailing sign in 'x1 -'"),
    (P1xP3, "-", None, "trailing sign in '-'"),
    (P1xP3, "  \t", None, "empty class literal"),
    (P1xP3, "0*x1 + x1*x2", None, "mixed degrees [1, 2] in '0*x1 + x1*x2'"),
    (P4, "x1^5 + x1^4", None, "mixed degrees [4, 5] in 'x1^5 + x1^4'"),
    (P1xP3, "0*x1", None, (1, {})),
    (P1xP3, "0*x1", 2, "class '0*x1' has degree [1], expected 2"),
    (P1xP3, "x1", 2, "class 'x1' has degree [1], expected 2"),
    (P1xP3, "x1^2 + x1*x2", None, (2, {(1, 1): 1})),
    (P1xP3, "x1*x1", None, (2, {})),
    (P4, "τ", None, "x2 is not a factor of P^4"),
    (P1xP3, "x0", None, "x0 is not a factor of P^1 x P^3"),
    (P1xP3, "ξ*ξ*y", None, "cannot parse factor 'y'"),
    (P1xP3, "xi*tau^2 + 2*ξ*τ^2", None, (3, {(1, 2): 3})),
    (P1xP3, "3*x1**x2", None, "empty factor in term '3*x1**x2'"),
    (P1xP3, "2*3*x2 - x1", None, (1, {(1, 0): -1, (0, 1): 6})),
    (P1xP3, "x1 + 2 * x1", None, (1, {(1, 0): 3})),
    (P4, "²*x1", None, "invalid literal for int() with base 10: '²'"),
    (P1xP3, "x1 - x1", None, (1, {})),
    (P1xP3, "3", None, (0, {(0, 0): 3})),
    (P1xP3, "0", 2, (2, {})),
    (P4, "0", -1, "degree must be nonnegative"),
)


@pytest.mark.parametrize("ambient, text, degree, outcome", _PARSE_OUTCOMES,
                         ids=[f"{a}:{t!r}:{d}" for a, t, d, _ in _PARSE_OUTCOMES])
def test_parse_class_outcomes(ambient, text, degree, outcome):
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as exc:
            parse_class(ambient, text, degree)
        assert str(exc.value) == outcome
    else:
        assert parse_class(ambient, text, degree) == ChowClass(ambient, *outcome)


def test_checked_construction_sums_each_monomial():
    # the exponents ("1", "0") and (1, 0) name one monomial, which keeps one item
    three = ChowClass(P1xP3, 1, {(1, 0): 3})
    c = ChowClass(P1xP3, 1, {("1", "0"): 1, (1, 0): 2})
    assert c == three and str(c) == "3*x1"
    assert cup(c, parse_class(P1xP3, "x2")) == parse_class(P1xP3, "3*x1*x2")
    assert ChowClass(P1xP3, 1, {("1", "0"): 1, (1, 0): -1}) == ChowClass(P1xP3, 1, {})
    # a zero coefficient on a monomial that is not valid here is skipped
    assert ChowClass(P1xP3, 1, {(5, 0): 0, (1, 0): 3}) == three


def test_repr_names_ambient_degree_and_terms():
    assert repr(parse_class(P1xP3, "3*x1 - x2")) == "ChowClass(P^1 x P^3, deg 1, 3*x1 - x2)"


def test_reduce_mod2():
    c = parse_class(P1xP3, "3*x1 + 4*x2")
    assert reduce_mod2(c) == parse_class(P1xP3, "x1")


def test_class_validation():
    # public constructors and parsed input keep their checks; the package's
    # own results skip them
    for call in (
        lambda: ChowClass(P1xP3, 2, {(2, 0): 1}),  # past a truncation bound
        lambda: ChowClass(P1xP3, 4, {(0, 4): 1}),  # past the second factor's bound
        lambda: ChowClass(P1xP3, 2, {(-1, 3): 1}),  # a negative exponent
        lambda: ChowClass(P1xP3, 2, {(1, 0): 1}),  # wrong degree
        lambda: ChowClass(P1xP3, 2, {(1, 0, 1): 1}),  # wrong number of factors
        lambda: ChowClass(P4, -1, {}),
        lambda: ChowClass(P4, 5, {(5,): 1}),
        lambda: ChowClass.from_coords(P1xP3, 2, (1, 2, 3)),
        lambda: ChowClass.from_coords(P4, 1, ()),
        lambda: ChowClass.from_coords(P4, -1, ()),
        lambda: parse_class(P1xP3, "x1", degree=2),
        lambda: parse_class(P1xP3, "x1 + x2^2"),
        lambda: parse_class(P4, "0", degree=-1),
        lambda: parse_class(P4, "x2"),
        lambda: parse_class(P4, "  \t"),  # a blank literal
        lambda: parse_class(P1xP3, "x1") + parse_class(P1xP3, "x2^2"),  # degrees 1 and 2
        lambda: AmbientSpace(()),
        lambda: AmbientSpace((0, 3)),
    ):
        with pytest.raises(ValueError):
            call()
    # an exponent at its factor's bound is valid
    assert ChowClass(P1xP3, 4, {(1, 3): 1}).coeffs == {(1, 3): 1}
    assert [P1xP3.in_bounds(e) for e in ((1, 3), (0, 0), (2, 0), (0, 4), (-1, 3), (1, -1))] == [
        True, True, False, False, False, False]


def _checked(c):
    """c rebuilt through the public constructor, which validates every monomial."""
    return ChowClass(c.ambient, c.degree, c.coeffs)


def test_internal_results_equal_checked_construction():
    # equality compares the stored items, so this also checks that no zero
    # coefficient is kept and that the items are in descending order
    rng = random.Random(137)
    for dims in ((4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)):
        ambient = AmbientSpace(dims)
        for _ in range(15):
            by_degree = {
                j: ChowClass.from_coords(
                    ambient, j, [rng.choice((0, 0, rng.randint(-6, 6))) for _ in ambient.monomial_basis(j)]
                )
                for j in range(5)
            }
            a, b, c = by_degree[1], by_degree[2], random_class(rng, ambient, 2)
            results = [
                *by_degree.values(),
                cup(a, b), cup(b, c), cup(by_degree[0], by_degree[4]), cup(by_degree[3], a),
                sq2(a), sq2(b), sq2(by_degree[3]),
                reduce_mod2(b), reduce_mod2(cup(a, c)),
                b + c, b + ChowClass(ambient, 2, {e: -x for e, x in b.items()}),
                parse_class(ambient, str(b)), parse_class(ambient, str(a), degree=1),
                parse_class(ambient, "0", degree=3), parse_class(ambient, "x1 - x1 + 2*x1", degree=1),
            ]
            for result in results:
                assert result == _checked(result), (dims, result)
                assert hash(result) == hash(_checked(result))

