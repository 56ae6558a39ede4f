import itertools
import math
import random

import pytest

from chowobstruct import complement
from chowobstruct.abelian import AbelianPresentation
from chowobstruct.chow import AmbientSpace, ChowClass, parse_class
from chowobstruct.complement import (
    ComplementModel,
    Direction,
    InapplicableAssumptionError,
    PushforwardAssumption,
    Status,
    certificate,
    closed_form_check,
    complement_group,
)
from chowobstruct.intlinalg import _gf2_span

from oracles import mod2_span_contains, prime_powers, wilson_diagonal

P1xP3 = AmbientSpace((1, 3))
P4 = AmbientSpace((4,))
NAIVE = PushforwardAssumption.naive()
EVEN = PushforwardAssumption.even_degree()
NORI = PushforwardAssumption.nori()


def model34():
    return ComplementModel(P1xP3, (3, 4))


def test_degree1_group():
    group = complement_group(model34(), 1, NAIVE)
    cert = certificate(model34(), 1, NAIVE)
    # Z/3 + Z/4 in canonical form
    assert group.invariant_factors() == (12,)
    assert cert.status == Status.EXACT
    # x1 and x2 generate summands of orders 3 and 4
    assert group.element_order((1, 0)) == 3
    assert group.element_order((0, 1)) == 4


def test_degree2_group():
    group = complement_group(model34(), 2, NAIVE)
    cert = certificate(model34(), 2, NAIVE)
    assert group.invariant_factors() == (16,)
    assert cert.status == Status.EXACT
    assert group.relations.to_lists() == [[4, 0], [3, 4]]


def test_degree3_witness_quotient():
    group = complement_group(model34(), 3, EVEN)
    cert = certificate(model34(), 3, EVEN)
    assert group.invariant_factors() == (2,)
    assert cert.status == Status.ASSUMED_CONTAINS
    assert group.generator_names == ("x1*x2^2", "x2^3")


def test_degree0_group():
    group = complement_group(model34(), 0, NAIVE)
    cert = certificate(model34(), 0, NAIVE)
    assert group.invariant_factors() == (0,)
    assert cert.status == Status.EXACT
    # one factor or several, degree 0 has no divisor-multiple relation
    for dims, degree in [((4,), (5,)), ((1, 3), (2, 3)), ((2, 2), (3, 1)),
                         ((1, 1, 2), (1, 2, 3)), ((1, 1, 1, 1), (1, 2, 1, 3))]:
        model = ComplementModel(AmbientSpace(dims), degree)
        group = complement_group(model, 0, NAIVE)
        assert group.relations.rows == 0, dims
        assert group.describe() == "Z", dims
        assert certificate(model, 0, NAIVE).status == Status.EXACT, dims


def test_restrict_xi_tau_has_order_four():
    group = complement_group(model34(), 2, NAIVE)
    e = parse_class(P1xP3, "x1*x2").coords()
    # brute force against the presentation <x1*x2, x2^2 | (4,0), (3,4)>
    brute = next(k for k in range(1, 17) if not any(group.canonical_coords((k, 0))))
    assert brute == 4
    assert group.element_order(e) == 4
    assert any(group.canonical_coords(e))


def test_restrict_hypersurface_class_is_zero():
    group = complement_group(model34(), 1, NAIVE)
    assert not any(group.canonical_coords(parse_class(P1xP3, "3*x1 + 4*x2").coords()))


def test_restrict_xi_tau_squared_survives_witness():
    group = complement_group(model34(), 3, EVEN)
    e = parse_class(P1xP3, "x1*x2^2").coords()
    assert any(group.canonical_coords(e))
    assert group.element_order(e) == 2


def test_restrict_is_additive():
    rng = random.Random(97)
    model = model34()
    for j in (1, 2, 3):
        basis = P1xP3.monomial_basis(j)
        group = complement_group(model, j, NAIVE)
        for _ in range(20):
            a = ChowClass(P1xP3, j, {e: rng.randint(-5, 5) for e in basis})
            b = ChowClass(P1xP3, j, {e: rng.randint(-5, 5) for e in basis})
            coord_sum = tuple(x + y for x, y in zip(a.coords(), b.coords()))
            assert group.canonical_coords((a + b).coords()) == group.canonical_coords(coord_sum)


def test_closed_form_34():
    report = closed_form_check(3, 4)
    assert report.ok
    assert (report.g, report.m, report.n) == (1, -1, 1)
    assert report.ch1_factors == (12,)
    assert report.ch2_factors == (16,)
    assert report.xi_tau_image == (1, 4)
    # the reported image has the order of x1*x2 in the degree-2 quotient
    group = complement_group(model34(), 2, NAIVE)
    assert group.element_order(parse_class(P1xP3, "x1*x2").coords()) == 4


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


def test_closed_form_xi_tau_image_has_the_order_of_x1x2():
    # the reported image, read in Z/g + Z/(d2^2/g), has the order that the
    # computed degree-2 group gives x1*x2
    x1x2 = parse_class(P1xP3, "x1*x2").coords()
    for d1 in range(1, 13):
        for d2 in range(1, 13):
            report = closed_form_check(d1, d2)
            a, b = report.xi_tau_image
            g, big = report.g, d2 * d2 // report.g
            order = math.lcm(g // math.gcd(g, a), big // math.gcd(big, b))
            group = complement_group(ComplementModel(P1xP3, (d1, d2)), 2, NAIVE)
            assert group.element_order(x1x2) == order, (d1, d2)


def test_wilson_diagonal_and_projective_space_closed_forms():
    # (P^1)^n with every d_i = 1: the degree-j relation matrix is the
    # inclusion matrix of (j-1)-subsets in j-subsets, whose diagonal form
    # Wilson gives in closed form.  (10, 5) is left out: its elimination
    # takes about 95 s until the Smith elimination keeps its entries small.
    cases = [(n, j) for n in range(2, 11) for j in range(2, n + 1) if j - 1 <= n - j]
    cases.remove((10, 5))
    assert len(cases) == 19
    for n, j in cases:
        factors = complement_group(ComplementModel(AmbientSpace((1,) * n), (1,) * n), j, NAIVE).invariant_factors()
        diagonal, free_rank = wilson_diagonal(n, j)
        assert prime_powers([f for f in factors if f]) == prime_powers(diagonal), (n, j)
        assert factors.count(0) == free_rank, (n, j)
    # on P^n the hyperplane class generates every degree, so each quotient is Z/d
    for n in range(1, 7):
        for d in range(1, 13):
            model = ComplementModel(AmbientSpace((n,)), (d,))
            for j in range(1, n + 1):
                assert complement_group(model, j, NAIVE).invariant_factors() == ((d,) if d > 1 else ()), (n, d, j)


def test_p4_family_quotients():
    for d in (5, 48, 125):
        model = ComplementModel(P4, (d,))
        for j in (1, 2, 3):
            group = complement_group(model, j, NAIVE)
            assert group.invariant_factors() == (d,)
            # generated by the image of x1^j
            assert group.element_order((1,)) == d


def test_monotonicity_of_quotients():
    # enlarging the subgroup can only kill more elements
    rng = random.Random(101)
    model = model34()
    for j in (2, 3):
        naive_group = complement_group(model, j, NAIVE)
        basis = P1xP3.monomial_basis(j)
        extra = ChowClass(P1xP3, j, {e: rng.randint(-3, 3) for e in basis})
        bigger_rows = [
            ChowClass.from_coords(P1xP3, j, row) for row in naive_group.relations.entries
        ] + [extra]
        custom = PushforwardAssumption.custom(P1xP3, bigger_rows, Direction.CONTAINS_IMAGE, j)
        big_group = complement_group(model, j, custom)
        for _ in range(30):
            coords = tuple(rng.randint(-6, 6) for _ in basis)
            if not any(naive_group.canonical_coords(coords)):
                assert not any(big_group.canonical_coords(coords))


def test_nori_certificates():
    group = complement_group(model34(), 3, NORI)
    cert = certificate(model34(), 3, NORI)
    naive_group = complement_group(model34(), 3, NAIVE)
    assert group.relations == naive_group.relations
    assert cert.status == Status.ASSUMED_EXACT
    cert2 = certificate(model34(), 2, NORI)
    assert cert2.status == Status.EXACT


def test_not_ample_flagged():
    model = ComplementModel(P1xP3, (0, 4))
    group = complement_group(model, 1, NAIVE)
    cert = certificate(model, 1, NAIVE)
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
    group = complement_group(model, 3, EVEN)
    cert = certificate(model, 3, EVEN)
    assert group.invariant_factors() == (2,)
    assert cert.status == Status.ASSUMED_CONTAINS


def test_even_degree_rows_are_read_without_parsing(monkeypatch):
    # the even-degree generators are constant literals, read into the
    # degree-3 basis once, at import; a call parses none of them
    generators = {(1, 3): ("2*x1*x2^2", "x2^3"), (4,): ("2*x1^3",)}
    parsed = []
    with monkeypatch.context() as m:
        m.setattr(complement, "parse_class", lambda *args: parsed.append(args))
        rows = {
            dims: complement._relation_rows(ComplementModel(AmbientSpace(dims), (2,) * len(dims)), 3, EVEN)
            for dims, _ in EVEN.rows
        }
    assert parsed == []
    assert set(rows) == set(generators)
    for dims, gens in generators.items():
        assert rows[dims] == tuple(parse_class(AmbientSpace(dims), g).coords() for g in gens), dims


def test_custom_assumption_directions():
    gens = (parse_class(P1xP3, "2*x1*x2^2"),)
    contains = PushforwardAssumption.custom(P1xP3, gens, "contains_image", 3)
    contained = PushforwardAssumption.custom(P1xP3, gens, "contained_in_image", 3)
    cert_a = certificate(model34(), 3, contains)
    cert_b = certificate(model34(), 3, contained)
    assert cert_a.status == Status.ASSUMED_CONTAINS
    assert cert_b.status == Status.UPPER_BOUND_ONLY
    with pytest.raises(InapplicableAssumptionError):
        complement_group(model34(), 2, contains)
    with pytest.raises(ValueError, match="^custom subgroups declare contains_image or contained_in_image$"):
        PushforwardAssumption.custom(P1xP3, gens, "equals_image", 3)


def test_naive_degree1_matches_componentwise_closed_form():
    # degree-1 factors agree with merging Z/d1 + Z/d2 into chain form
    for d1 in range(1, 8):
        for d2 in range(1, 8):
            model = ComplementModel(P1xP3, (d1, d2))
            group = complement_group(model, 1, NAIVE)
            expected = tuple(
                f for f in (math.gcd(d1, d2), math.lcm(d1, d2)) if f != 1
            )
            assert group.invariant_factors() == expected


# Applicability and certificate of every assumption on the five ambients of
# total dimension 4, in degrees j = 0..5, recorded while applicability was
# still a method of PushforwardAssumption.  One token per degree: the status
# (E EXACT, U UPPER_BOUND_ONLY, A ASSUMED_EXACT, C ASSUMED_CONTAINS), prefixed
# with "-" where complement_group raises InapplicableAssumptionError.
_DIM4_MODELS = {(4,): (48,), (1, 3): (3, 4), (2, 2): (2, 3), (1, 1, 2): (1, 2, 3), (1, 1, 1, 1): (1, 1, 1, 1)}
_APPLICABILITY = {
    ("naive", (4,)): "E E E U U U",
    ("naive", (1, 3)): "E E E U U U",
    ("naive", (2, 2)): "E E E U U U",
    ("naive", (1, 1, 2)): "E E E U U U",
    ("naive", (1, 1, 1, 1)): "E E E U U U",
    ("nori", (4,)): "E E E A A A",
    ("nori", (1, 3)): "E E E A A A",
    ("nori", (2, 2)): "E E E A A A",
    ("nori", (1, 1, 2)): "E E E A A A",
    ("nori", (1, 1, 1, 1)): "E E E A A A",
    ("even-degree", (4,)): "-C -C -C C -C -C",
    ("even-degree", (1, 3)): "-C -C -C C -C -C",
    ("even-degree", (2, 2)): "-C -C -C -C -C -C",
    ("even-degree", (1, 1, 2)): "-C -C -C -C -C -C",
    ("even-degree", (1, 1, 1, 1)): "-C -C -C -C -C -C",
    ("contains", (4,)): "-C -C -C C -C -C",
    ("contains", (1, 3)): "-C -C -C C -C -C",
    ("contains", (2, 2)): "-C -C -C C -C -C",
    ("contains", (1, 1, 2)): "-C -C -C C -C -C",
    ("contains", (1, 1, 1, 1)): "-C -C -C C -C -C",
    ("contained", (4,)): "-U -U -U U -U -U",
    ("contained", (1, 3)): "-U -U -U U -U -U",
    ("contained", (2, 2)): "-U -U -U U -U -U",
    ("contained", (1, 1, 2)): "-U -U -U U -U -U",
    ("contained", (1, 1, 1, 1)): "-U -U -U U -U -U",
    ("empty", (4,)): "-C -C -C C -C -C",
    ("empty", (1, 3)): "-C -C -C C -C -C",
    ("empty", (2, 2)): "-C -C -C C -C -C",
    ("empty", (1, 1, 2)): "-C -C -C C -C -C",
    ("empty", (1, 1, 1, 1)): "-C -C -C C -C -C",
    ("mismatch", (4,)): "-C -C -C -C -C -C",
    ("mismatch", (1, 3)): "-C -C -C -C -C -C",
    ("mismatch", (2, 2)): "-C -C -C -C -C -C",
    ("mismatch", (1, 1, 2)): "-C -C -C -C -C -C",
    ("mismatch", (1, 1, 1, 1)): "-C -C -C -C -C -C",
}
# The same table on one multidegree per ambient with a zero component, so
# that the hypersurface class is not ample and no certificate is EXACT:
# naive is UPPER_BOUND_ONLY and nori ASSUMED_EXACT in every degree, and each
# certificate carries the note.
_NON_AMPLE_MODELS = {(4,): (0,), (1, 3): (0, 4), (2, 2): (2, 0), (1, 1, 2): (1, 0, 3), (1, 1, 1, 1): (1, 1, 0, 1)}
_NON_AMPLE_APPLICABILITY = {
    ("naive", (4,)): "U U U U U U",
    ("naive", (1, 3)): "U U U U U U",
    ("naive", (2, 2)): "U U U U U U",
    ("naive", (1, 1, 2)): "U U U U U U",
    ("naive", (1, 1, 1, 1)): "U U U U U U",
    ("nori", (4,)): "A A A A A A",
    ("nori", (1, 3)): "A A A A A A",
    ("nori", (2, 2)): "A A A A A A",
    ("nori", (1, 1, 2)): "A A A A A A",
    ("nori", (1, 1, 1, 1)): "A A A A A A",
    ("even-degree", (4,)): "-C -C -C C -C -C",
    ("even-degree", (1, 3)): "-C -C -C C -C -C",
    ("even-degree", (2, 2)): "-C -C -C -C -C -C",
    ("even-degree", (1, 1, 2)): "-C -C -C -C -C -C",
    ("even-degree", (1, 1, 1, 1)): "-C -C -C -C -C -C",
    ("contains", (4,)): "-C -C -C C -C -C",
    ("contains", (1, 3)): "-C -C -C C -C -C",
    ("contains", (2, 2)): "-C -C -C C -C -C",
    ("contains", (1, 1, 2)): "-C -C -C C -C -C",
    ("contains", (1, 1, 1, 1)): "-C -C -C C -C -C",
    ("contained", (4,)): "-U -U -U U -U -U",
    ("contained", (1, 3)): "-U -U -U U -U -U",
    ("contained", (2, 2)): "-U -U -U U -U -U",
    ("contained", (1, 1, 2)): "-U -U -U U -U -U",
    ("contained", (1, 1, 1, 1)): "-U -U -U U -U -U",
    ("empty", (4,)): "-C -C -C C -C -C",
    ("empty", (1, 3)): "-C -C -C C -C -C",
    ("empty", (2, 2)): "-C -C -C C -C -C",
    ("empty", (1, 1, 2)): "-C -C -C C -C -C",
    ("empty", (1, 1, 1, 1)): "-C -C -C C -C -C",
    ("mismatch", (4,)): "-C -C -C -C -C -C",
    ("mismatch", (1, 3)): "-C -C -C -C -C -C",
    ("mismatch", (2, 2)): "-C -C -C -C -C -C",
    ("mismatch", (1, 1, 2)): "-C -C -C -C -C -C",
    ("mismatch", (1, 1, 1, 1)): "-C -C -C -C -C -C",
}
_STATUS_TOKENS = {Status.EXACT: "E", Status.UPPER_BOUND_ONLY: "U", Status.ASSUMED_EXACT: "A", Status.ASSUMED_CONTAINS: "C"}


def _dim4_assumptions(ambient):
    # custom subgroups generated by twice the first degree-3 monomial; "empty"
    # has no generators, "mismatch" declares degree 2 for degree-3 generators
    basis3 = ambient.monomial_basis(3)
    gens = (ChowClass.from_coords(ambient, 3, (2,) + (0,) * (len(basis3) - 1)),)
    return {
        "naive": NAIVE,
        "nori": NORI,
        "even-degree": EVEN,
        "contains": PushforwardAssumption.custom(ambient, gens, Direction.CONTAINS_IMAGE, 3),
        "contained": PushforwardAssumption.custom(ambient, gens, Direction.CONTAINED_IN_IMAGE, 3),
        "empty": PushforwardAssumption.custom(ambient, (), Direction.CONTAINS_IMAGE, 3),
        "mismatch": PushforwardAssumption.custom(ambient, gens, Direction.CONTAINS_IMAGE, 2),
    }


def _applicability(models):
    got = {}
    for dims, degrees in models.items():
        model = ComplementModel(AmbientSpace(dims), degrees)
        for name, assumption in _dim4_assumptions(model.ambient).items():
            tokens = []
            for j in range(6):
                try:
                    complement_group(model, j, assumption)
                    mark = ""
                except InapplicableAssumptionError:
                    mark = "-"
                cert = certificate(model, j, assumption)
                assert bool(cert.note) != model.is_ample, (name, dims, j)
                tokens.append(mark + _STATUS_TOKENS[cert.status])
            got[name, dims] = " ".join(tokens)
            if name == "empty":
                # no relations in degree 3: the free group on the degree-3 monomials
                group = complement_group(model, 3, assumption)
                assert group.invariant_factors() == (0,) * len(model.ambient.monomial_basis(3))
    return got


def test_applicability_and_certificate_table():
    assert _applicability(_DIM4_MODELS) == _APPLICABILITY


def test_applicability_and_certificate_table_off_the_ample_case():
    assert _applicability(_NON_AMPLE_MODELS) == _NON_AMPLE_APPLICABILITY


# degrees swept per ambient, and for each containing assumption the number of
# those models whose degree-3 mod-2 quotient kills every divisor-multiple
# relation z*m, i.e. contains S_3 = z*CH^2(Y) mod 2 (None: does not apply)
_S3_DEGREES = {(4,): range(1, 13), (1, 3): range(1, 7), (2, 2): range(1, 4), (1, 1, 2): range(1, 4),
               (1, 1, 1, 1): range(1, 4)}
_S3_CONTAINED = {
    ("naive", (4,)): 12, ("naive", (1, 3)): 36, ("naive", (2, 2)): 9, ("naive", (1, 1, 2)): 27,
    ("naive", (1, 1, 1, 1)): 81,
    ("nori", (4,)): 12, ("nori", (1, 3)): 36, ("nori", (2, 2)): 9, ("nori", (1, 1, 2)): 27,
    ("nori", (1, 1, 1, 1)): 81,
    ("even-degree", (4,)): 6, ("even-degree", (1, 3)): 9, ("even-degree", (2, 2)): None,
    ("even-degree", (1, 1, 2)): None, ("even-degree", (1, 1, 1, 1)): None,
    ("contains", (4,)): 6, ("contains", (1, 3)): 9, ("contains", (2, 2)): 1, ("contains", (1, 1, 2)): 1,
    ("contains", (1, 1, 1, 1)): 1,
    ("empty", (4,)): 6, ("empty", (1, 3)): 9, ("empty", (2, 2)): 1, ("empty", (1, 1, 2)): 1,
    ("empty", (1, 1, 1, 1)): 1,
    # the custom files of the CLI tests
    ("file 2*x1*x2^2, x2^3", (1, 3)): 9, ("file x2^3", (1, 3)): 9, ("file 2*x1^2", (4,)): None,
}


def _containing_assumptions(ambient):
    found = {name: a for name, a in _dim4_assumptions(ambient).items()
             if name not in ("contained", "mismatch")}
    files = {(1, 3): (["2*x1*x2^2", "x2^3"], ["x2^3"]), (4,): (["2*x1^2"],)}
    for gens in files.get(ambient.factor_dims, ()):
        classes = [parse_class(ambient, g) for g in gens]
        found["file " + ", ".join(gens)] = PushforwardAssumption.custom(
            ambient, classes, Direction.CONTAINS_IMAGE, classes[0].degree)
    return found


def test_containing_assumptions_contain_divisor_multiples_mod2():
    # a subgroup containing the pushforward image contains S_3 (projection
    # formula); off the all-even multidegrees only the divisor-multiple
    # presentations do
    got = {}
    for dims, degree_range in _S3_DEGREES.items():
        ambient = AmbientSpace(dims)
        for name, assumption in _containing_assumptions(ambient).items():
            count = 0
            for degrees in itertools.product(degree_range, repeat=len(dims)):
                model = ComplementModel(ambient, degrees)
                naive_rows = complement_group(model, 3, NAIVE).relations.entries
                try:
                    group = complement_group(model, 3, assumption)
                except InapplicableAssumptionError:
                    count = None
                    break
                holds = mod2_span_contains(group.relations.entries, naive_rows)
                rows = group.relations.entries
                quotient = AbelianPresentation._mod2_quotient(group.generator_names, rows, len(_gf2_span(rows)))
                assert holds == all(not any(quotient.canonical_coords(row)) for row in naive_rows), (name, degrees)
                assert holds == (name in ("naive", "nori") or all(d % 2 == 0 for d in degrees))
                count += holds
            got[name, dims] = count
    assert got == _S3_CONTAINED
