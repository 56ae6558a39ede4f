import random
import re
import time

import pytest

from chowobstruct.chow import AmbientSpace
from chowobstruct.complement import ComplementModel, PushforwardAssumption, complement_group
from chowobstruct.intlinalg import (
    IntegerMatrix,
    hermite_normal_form,
    hermite_reduce,
    smith_diagonal,
    smith_normal_form,
)

from oracles import (
    cofactor_det,
    frac_membership,
    independent_rows_membership,
    reference_hermite_normal_form,
    reference_smith_normal_form,
    reference_snf_diagonal,
)


def check_snf(mat: IntegerMatrix):
    dec = smith_normal_form(mat)
    assert dec.u @ mat @ dec.v == dec.s
    assert abs(cofactor_det(dec.u.to_lists())) == 1
    assert abs(cofactor_det(dec.v.to_lists())) == 1
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    # zeros trail, nonzero prefix forms a divisor chain, off-diagonal is zero
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == tuple(nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            if i != j:
                assert dec.s.entries[i][j] == 0
    return dec


def random_matrix(rng, max_dim=6, max_entry=20):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntegerMatrix(
        [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)]
    )


def test_snf_triangular_bezout_instance():
    # gcd(3, 4) = 1, determinant 16, so the chain is (1, 16)
    dec = check_snf(IntegerMatrix([[4, 3], [0, 4]]))
    assert dec.diagonal == (1, 16)


def test_snf_identity():
    mat = IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    dec = check_snf(mat)
    assert dec.s == mat


def test_snf_hand_reduced_instance():
    # oracle: gcd of entries is 2, |det| = |2*8 - 4*6| = 8, so diagonal (2, 4)
    mat = IntegerMatrix([[2, 4], [6, 8]])
    assert cofactor_det(mat.to_lists()) == -8
    dec = check_snf(mat)
    assert dec.diagonal == (2, 4)


def test_snf_empty_and_degenerate():
    for mat in [
        IntegerMatrix([], cols=0),
        IntegerMatrix([], cols=3),
        IntegerMatrix([[], [], []], cols=0),
        IntegerMatrix([[0, 0], [0, 0]]),
        IntegerMatrix([[-5]]),
    ]:
        check_snf(mat)
    assert smith_normal_form(IntegerMatrix([[-5]])).diagonal == (5,)
    assert smith_normal_form(IntegerMatrix([[0, 0], [0, 0]])).diagonal == (0, 0)


def test_snf_random_sweep():
    rng = random.Random(7)
    for _ in range(200):
        mat = random_matrix(rng)
        dec = check_snf(mat)
        # transposing swaps the reduction path but not the invariant factors
        transposed = IntegerMatrix(zip(*mat.entries), cols=mat.rows)
        assert smith_normal_form(transposed).diagonal == dec.diagonal


def test_snf_diagonal_matches_determinantal_divisors():
    rng = random.Random(19)
    empty = [IntegerMatrix([], cols=n) for n in range(4)] + [
        IntegerMatrix([[]] * m, cols=0) for m in range(1, 4)
    ]
    for mat in empty + [random_matrix(rng, max_dim=4) for _ in range(120)]:
        reference = reference_snf_diagonal(mat.to_lists())
        assert list(smith_normal_form(mat).diagonal) == reference
        # the transform-free elimination makes the same choices
        assert smith_diagonal(mat) == smith_normal_form(mat).diagonal == tuple(reference)


def test_snf_diagonal_product_matches_determinant():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 5)
        mat = IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        det = cofactor_det(mat.to_lists())
        if det == 0:
            continue
        diag = smith_normal_form(mat).diagonal
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(det)
        checked += 1


def seeded_matrix(label: str, m: int, n: int, bound: int) -> list[list[int]]:
    rng = random.Random(label)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def reference_inputs():
    rng = random.Random(25)
    for k in range(3000):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        bound = (1, 2, 3, 99, 10**6)[k % 5]
        yield [
            [0 if rng.random() < 0.3 else rng.randint(-bound, bound) for _ in range(n)]
            for _ in range(m)
        ], n
    # diagonals that are not divisor chains: only the carrier step fixes them
    for diag in ((2, 3), (4, 6, 10), (6, 4), (9, 6, 4, 15), (2, 2, 3)):
        yield [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)], len(diag)
    yield [[2, 0, 0], [0, 3, 0]], 3
    yield [[2, 0], [0, 3], [0, 0]], 2
    # the fixed normal-forms inputs of the benchmark, up to 24 x 24
    for label, n in (("snf-16-a", 16), ("snf-20-a", 20), ("snf-20-b", 20), ("group-20-a", 20), ("group-24-d", 24)):
        yield seeded_matrix(label, n, n, 99), n


def test_snf_matches_the_reference_elimination():
    # the fused 2x2 row steps and the column-held v reproduce the one-step
    # elimination's u, s and v entry for entry, not just its diagonal
    for rows, n in reference_inputs():
        mat = IntegerMatrix(rows, cols=n)
        u, s, v = reference_smith_normal_form(rows, n)
        dec = smith_normal_form(mat)
        assert (dec.u.entries, dec.s.entries, dec.v.entries) == (u, s, v)
        assert (dec.u.rows, dec.u.cols, dec.s.cols, dec.v.rows, dec.v.cols) == (len(rows), len(rows), n, n, n)
        assert smith_diagonal(mat) == dec.diagonal


def check_same_row_lattice(mat: IntegerMatrix, h: IntegerMatrix):
    """h spans the row lattice of mat: it contains every row of mat, and the two
    lattices have the same rank and the same last determinantal divisor, so the
    index of one in the other is 1."""
    for row in mat.entries:
        assert not any(hermite_reduce(h, row))
    assert reference_snf_diagonal(mat.to_lists()) == reference_snf_diagonal(h.to_lists())


def test_hnf_already_in_form():
    mat = IntegerMatrix([[2, 0], [0, 3]])
    h = hermite_normal_form(mat)
    assert h == mat
    check_same_row_lattice(mat, h)


def test_hnf_row_swap():
    mat = IntegerMatrix([[0, 1], [1, 0]])
    h = hermite_normal_form(mat)
    assert h == IntegerMatrix([[1, 0], [0, 1]])
    check_same_row_lattice(mat, h)


def test_hnf_preserves_determinant_size():
    mat = IntegerMatrix([[4, 3], [0, 4]])
    h = hermite_normal_form(mat)
    check_same_row_lattice(mat, h)
    assert abs(cofactor_det(h.to_lists())) == 16


def test_hnf_shape_random():
    rng = random.Random(23)
    for _ in range(150):
        mat = random_matrix(rng, max_dim=5, max_entry=12)
        h = hermite_normal_form(mat)
        check_same_row_lattice(mat, h)
        pivots = []
        for row in h.entries:
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            pivots.append(nz[0])
            assert row[nz[0]] > 0
        assert pivots == sorted(pivots) and len(pivots) == len(set(pivots))
        for r, pj in enumerate(pivots):
            for i in range(r):
                assert 0 <= h.entries[i][pj] < h.entries[r][pj]


def hnf_reference_inputs():
    rng = random.Random(27)
    for k in range(3000):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        bound = (1, 2, 3, 99, 10**6)[k % 5]
        yield [
            [0 if rng.random() < 0.3 else rng.randint(-bound, bound) for _ in range(n)]
            for _ in range(m)
        ], n
    # zero matrices, no rows or no columns, more rows than columns
    for m, n in ((0, 0), (0, 4), (4, 0), (3, 3), (5, 2)):
        yield [[0] * n for _ in range(m)], n
    yield [[3, 5], [6, 10], [-9, -15], [1, 0], [0, 7]], 2
    # rank-deficient: repeated rows, a multiple of a sum, a zero column
    yield [[2, 4, 6], [2, 4, 6], [1, 2, 3]], 3
    yield [[1, 2, 0, 3], [4, 5, 0, 6], [10, 14, 0, 18]], 4
    yield [[0, 6, -4], [0, 9, -6], [0, -3, 2], [0, 0, 0]], 3


def test_hnf_matches_the_reference_elimination():
    # the floor-division pivot loop gives the xgcd loop's form entry for entry
    for rows, n in hnf_reference_inputs():
        h = hermite_normal_form(IntegerMatrix(rows, cols=n))
        assert h.entries == reference_hermite_normal_form(rows), rows
        assert (h.rows, h.cols) == (len(rows), n)


def test_hnf_keeps_large_relation_matrices_fast():
    # entries never pass through Bezout coefficients, so a dense 40 x 40 and the
    # 210 x 252 relations of ten P^1 factors in degree 5 each take well under
    # a second; the xgcd loop needed over ten seconds on the first and did not
    # finish the second within a minute
    dense = IntegerMatrix(seeded_matrix("hnf-40", 40, 40, 99))
    group = complement_group(
        ComplementModel(AmbientSpace((1,) * 10), (1,) * 10), 5, PushforwardAssumption.naive()
    )
    assert (group.relations.rows, group.relations.cols) == (210, 252)
    for mat in (dense, group.relations):
        start = time.perf_counter()
        hermite_normal_form(mat)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{mat.rows}x{mat.cols} took {elapsed:.2f}s"
    assert not group.is_finite()


def test_lattice_contains_examples():
    # a vector lies in the row lattice exactly when it reduces to zero
    even = hermite_normal_form(IntegerMatrix([[2, 0], [0, 2]]))
    assert not any(hermite_reduce(even, (2, -4)))
    assert any(hermite_reduce(even, (1, 0)))
    basis = hermite_normal_form(IntegerMatrix([[4, 0], [3, 4]]))
    # 4*(3,4) - 3*(4,0) = (0,16)
    assert tuple(4 * b - 3 * a for a, b in zip((4, 0), (3, 4))) == (0, 16)
    assert not any(hermite_reduce(basis, (0, 16)))
    assert any(hermite_reduce(basis, (0, 8)))


def test_lattice_contains_matches_rational_oracle():
    rng = random.Random(31)
    checked = 0
    while checked < 80:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = cofactor_det(rows)
        if det == 0 or abs(det) > 1000:
            continue
        h = hermite_normal_form(IntegerMatrix(rows))
        for _ in range(10):
            v = [rng.randint(-30, 30) for _ in range(n)]
            assert (not any(hermite_reduce(h, v))) == frac_membership(rows, v)
        checked += 1


def test_hermite_reduce_is_canonical():
    rng = random.Random(37)
    basis = IntegerMatrix([[4, 0], [3, 4]])
    h = hermite_normal_form(basis)
    for _ in range(50):
        v = [rng.randint(-20, 20), rng.randint(-20, 20)]
        shifted = [
            v[0] + rng.randint(-3, 3) * 4 + rng.randint(-3, 3) * 3,
            v[1] + rng.randint(-3, 3) * 4,
        ]
        # same coset iff same reduced form
        same = not any(hermite_reduce(h, [a - b for a, b in zip(v, shifted)]))
        assert (hermite_reduce(h, v) == hermite_reduce(h, shifted)) == same


def random_hermite_basis(rng, n, rank, max_pivot=4):
    """Rows of a Hermite form built by hand: `rank` pivots in sorted random
    columns, so the pivots may skip columns, each entry above a pivot in
    [0, pivot) and the other entries right of a pivot in [-5, 5]."""
    pivot_cols = sorted(rng.sample(range(n), rank))
    rows = []
    for i, pj in enumerate(pivot_cols):
        row = [0] * pj + [rng.randint(1, max_pivot)] + [rng.randint(-5, 5) for _ in range(pj + 1, n)]
        rows.append(row)
        for upper in rows[:i]:
            upper[pj] %= row[pj]
    return rows


def pivot_walk_inputs(rng, count):
    """(Hermite form, independent rows spanning its lattice) pairs: hand-built
    forms with pivot gaps and trailing zero rows, and the forms
    hermite_normal_form gives for rank-deficient rectangular matrices whose
    rows are those independent rows and integer combinations of them."""
    cases = []
    for _ in range(count):
        n = rng.randint(1, 6)
        rank = rng.randint(0, min(n, 4))
        basis = random_hermite_basis(rng, n, rank)
        zeros = [[0] * n for _ in range(rng.randint(0, 2))]
        h = IntegerMatrix(basis + zeros, cols=n)
        # the hand-built rows are already in Hermite form
        assert hermite_normal_form(h) == h
        cases.append((h, basis))
        combos = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            combos.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)])
        rows = basis + combos
        rng.shuffle(rows)
        cases.append((hermite_normal_form(IntegerMatrix(rows, cols=n)), basis))
    return cases


def pivots(h: IntegerMatrix) -> list[tuple[int, int]]:
    """(column, value) of the first nonzero entry of each nonzero row."""
    return [next((j, x) for j, x in enumerate(row) if x) for row in h.entries if any(row)]


def test_hermite_reduce_with_pivot_gaps_and_zero_rows():
    rng = random.Random(43)
    for h, basis in pivot_walk_inputs(rng, 60):
        for _ in range(6):
            v = [rng.randint(-25, 25) for _ in range(h.cols)]
            w = hermite_reduce(h, v)
            assert independent_rows_membership(basis, [a - b for a, b in zip(v, w)]), (h, v)
            assert all(0 <= w[j] < p for j, p in pivots(h)), (h, v, w)


def test_vector_length_validation():
    h = hermite_normal_form(IntegerMatrix([[2, 0], [0, 2]]))
    with pytest.raises(ValueError):
        hermite_reduce(h, (1, 2, 3))


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="^cannot multiply 1x2 by 1x2$"):
        IntegerMatrix([[1, 2]]) @ IntegerMatrix([[3, 4]])
    assert repr(IntegerMatrix([[1, -2], [3, 4]])) == "IntegerMatrix([[1, -2], [3, 4]])"
    with pytest.raises(ValueError):
        IntegerMatrix([[1.5]])
    assert IntegerMatrix([["12", "-3"]]).entries == ((12, -3),)
    # a string is read only as ASCII digits with an optional leading "-"
    for bad in (" 1_2 ", "٣", "+5", "1_000", " 7", "7\n", "-", "--5", "", "0x10", "²"):
        with pytest.raises(ValueError, match=rf"^matrix entry {re.escape(repr(bad))} is not an integer$"):
            IntegerMatrix([[1, bad]])
    with pytest.raises(ValueError, match="5000 digits"):
        IntegerMatrix([["9" * 5000]])
    # a row that is not all plain ints is read entry by entry
    mixed = IntegerMatrix([[7, "8"], [1, 2]])
    assert mixed.entries == ((7, 8), (1, 2))
    assert all(type(x) is int for row in mixed.entries for x in row)
    for bad, text in ((True, "True"), (2.5, "2.5")):
        with pytest.raises(ValueError, match=rf"^matrix entry {text} is not an integer$"):
            IntegerMatrix([[1, 2, 3], [4, bad, 6]])
    # the first bad entry of a row is the one reported
    with pytest.raises(ValueError, match=r"^matrix entry 2\.5 is not an integer$"):
        IntegerMatrix([[1, 2.5, True]])
    assert IntegerMatrix(((1, 2), (3, 4))).entries == ((1, 2), (3, 4))
    assert IntegerMatrix((x, -x) for x in range(3)).entries == ((0, 0), (1, -1), (2, -2))
    assert IntegerMatrix([(x for x in (5, 6)), iter(["7", 8])]).entries == ((5, 6), (7, 8))
    empty_rows = IntegerMatrix([[], ()])
    assert (empty_rows.rows, empty_rows.cols, empty_rows.entries) == (2, 0, ((), ()))
