import itertools
import random

import pytest

from chowobstruct.chow import (
    AmbientMismatchError,
    AmbientSpace,
    ChowClass,
    _divisor_columns,
    class_str,
    cup,
    parse_class,
    reduce_mod2,
)
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
    xi = ChowClass.monomial(P1xP3, (1, 0))
    tau = ChowClass.monomial(P1xP3, (0, 1))
    assert cup(xi, tau) == ChowClass.monomial(P1xP3, (1, 1))
    # x1^2 = 0 in P^1 x P^3
    assert cup(xi, ChowClass.monomial(P1xP3, (1, 1))).is_zero()


def test_cup_divisor():
    z = parse_class(P1xP3, "3*x1 + 4*x2")
    tau = parse_class(P1xP3, "x2")
    assert cup(z, tau) == parse_class(P1xP3, "3*x1*x2 + 4*x2^2")


def test_divisor_matrix_bezout_shape():
    z = parse_class(P1xP3, "3*x1 + 4*x2")
    # z * x1 = 4*x1*x2 and z * x2 = 3*x1*x2 + 4*x2^2
    assert _divisor_columns(P1xP3, z, 2) == ((4, 0), (3, 4))
    assert _divisor_columns(P1xP3, z, 1) == ((3, 4),)
    zero = ChowClass(P1xP3, 1, {})
    assert _divisor_columns(P1xP3, zero, 2) == ((0, 0), (0, 0))


def test_divisor_matrix_agrees_with_cup():
    rng = random.Random(61)
    for ambient in (P1xP3, P4, AmbientSpace((2, 2))):
        z = random_class(rng, ambient, 1)
        for j in range(1, ambient.total_dim + 1):
            columns = _divisor_columns(ambient, z, j)
            mat = IntegerMatrix(zip(*columns), cols=len(columns))
            for _ in range(5):
                alpha = random_class(rng, ambient, j - 1)
                col = IntegerMatrix([[c] for c in alpha.coords()], cols=1)
                assert tuple(r[0] for r in (mat @ col).entries) == cup(z, alpha).coords()


def test_divisor_matrix_matches_cup_columns():
    # the slow path: one cup product per degree-(j-1) basis monomial
    rng = random.Random(83)
    ambients = [AmbientSpace(d) for d in ((4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1), (1, 1, 1), (5,))]
    for ambient in ambients:
        basis = ambient.monomial_basis(1)
        for _ in range(20):
            z = ChowClass(ambient, 1, {e: rng.randint(-6, 6) for e in basis})
            for j in range(1, ambient.total_dim + 3):
                columns = [
                    cup(z, ChowClass.monomial(ambient, m)).coords() for m in ambient.monomial_basis(j - 1)
                ]
                assert _divisor_columns(ambient, z, j) == tuple(columns), (ambient, z, j)


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
    unit = ChowClass.monomial(P1xP3, (0, 0))
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
        cup(ChowClass.monomial(P1xP3, (1, 0)), ChowClass.monomial(P4, (1,)))


def test_parse_and_str_roundtrip():
    for text in ("3*x1 + 4*x2", "x1*x2^2", "0", "x2^3", "2*x1*x2^2 + x2^3"):
        c = parse_class(P1xP3, text)
        assert parse_class(P1xP3, class_str(c)) == c


def test_parse_aliases():
    assert parse_class(P1xP3, "ξ*τ") == ChowClass.monomial(P1xP3, (1, 1))
    assert parse_class(P1xP3, "xi*tau") == ChowClass.monomial(P1xP3, (1, 1))
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
        lambda: ChowClass.monomial(P4, (5,)),
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
                parse_class(ambient, class_str(b)), parse_class(ambient, class_str(a), degree=1),
                parse_class(ambient, "0", degree=3), parse_class(ambient, "x1 - x1 + 2*x1", degree=1),
            ]
            for result in results:
                assert result == _checked(result), (dims, result)
                assert hash(result) == hash(_checked(result))

