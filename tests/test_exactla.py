import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periplectic import kernels
from periplectic.affine import DahaElement, PdElement, normalize, to_daha
from periplectic.brauer import ADElement, jm_element
from periplectic.exactla import (Echelon, NotInSpan, SparseMatrix,
                                 SparseVector, mat_mul, rank, solve_in_span)
from periplectic.tensoraction import S, Y

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def dense(rows):
    m = len(rows)
    n = len(rows[0]) if rows else 0
    return SparseMatrix(m, n, {(i, j): Fraction(v)
                               for i, row in enumerate(rows)
                               for j, v in enumerate(row) if v})


def dense_mul(a, b):
    """Schoolbook oracle, independent of the sparse path."""
    A, B = a.to_dense(), b.to_dense()
    return [[sum(A[i][k] * B[k][j] for k in range(a.ncols))
             for j in range(b.ncols)] for i in range(a.nrows)]


def dense_rank(mat):
    """Plain Gaussian elimination over Fraction, the dumb way."""
    rows = [list(map(Fraction, r)) for r in mat.to_dense()]
    rk = 0
    for col in range(mat.ncols):
        piv = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = 1 / rows[rk][col]
        rows[rk] = [inv * v for v in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                c = rows[r][col]
                rows[r] = [v - c * w for v, w in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def integer_rows(rows):
    """Each row times the lcm of its denominators, which keeps the rank."""
    out = []
    for row in rows:
        row = [Fraction(v) for v in row]
        lcm = math.lcm(*(v.denominator for v in row))
        out.append([int(v * lcm) for v in row])
    return out


def test_mat_mul_identity():
    eye = SparseMatrix.identity(3)
    assert mat_mul(eye, eye) == eye


def test_mat_mul_zero_annihilates():
    a = dense([[1, 2], [3, Fraction(1, 2)]])
    z = SparseMatrix(2, 2)
    assert mat_mul(a, z) == z
    assert mat_mul(z, a) == z


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(SparseMatrix(2, 3), SparseMatrix(2, 3))


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4),
       st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_mat_mul_matches_schoolbook(arows, brows):
    a, b = dense(arows), dense(brows)
    assert mat_mul(a, b).to_dense() == dense_mul(a, b)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_mat_mul_associative(ar, br, cr):
    a, b, c = dense(ar), dense(br), dense(cr)
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_rank_zero_matrix():
    assert rank(SparseMatrix(4, 6)) == 0


def test_rank_identity():
    assert rank(SparseMatrix.identity(5)) == 5


def test_rank_stacked_copies_of_one_row():
    row = {(i, 0): Fraction(2) for i in range(7)}
    row.update({(i, 2): Fraction(-1, 3) for i in range(7)})
    assert rank(SparseMatrix(7, 3, row)) == 1


@given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=8),
                min_size=1, max_size=8).filter(
                    lambda rs: len({len(r) for r in rs}) == 1))
@settings(max_examples=60, deadline=None)
def test_rank_matches_dense_elimination(rows):
    m = dense(rows)
    assert rank(m) == dense_rank(m)


@given(st.integers(1, 6).flatmap(lambda w: st.lists(
           st.lists(rationals, min_size=w, max_size=w), min_size=1, max_size=6)),
       st.lists(rationals, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_sparse_rank_matches_bareiss(rows, weights):
    # the last row is a combination of the others, so ranks fall short too
    rows.append([sum(w * r[j] for w, r in zip(weights, rows))
                 for j in range(len(rows[0]))])
    m = dense(rows)
    sparse = rank(m)
    assert sparse == kernels.bareiss_rank(integer_rows(rows), m.ncols)


def test_solve_in_span_standard_basis():
    e1 = SparseVector(2, {0: Fraction(1)})
    e2 = SparseVector(2, {1: Fraction(1)})
    target = SparseVector(2, {0: Fraction(3), 1: Fraction(-1, 2)})
    assert solve_in_span([e1, e2], target) == [Fraction(3), Fraction(-1, 2)]


def test_solve_in_span_not_in_span():
    e1 = SparseVector(2, {0: Fraction(1)})
    with pytest.raises(NotInSpan):
        solve_in_span([e1], SparseVector(2, {1: Fraction(1)}))


def test_solve_square_of_crossing_lands_on_identity():
    # the three 2-strand diagram images at n=3 are independent, so the
    # coefficients of a squared crossing are pinned to the identity slot
    from periplectic.brauer import BrauerDiagram, enumerate_diagrams, psi_image, ADElement

    def flat(op):
        dim = op.spec.dim
        return SparseVector(dim * dim,
                            {i * dim + j: v
                             for (i, j), v in op.matrix.entries.items()})

    diagrams = sorted(enumerate_diagrams(2),
                      key=lambda g: g != BrauerDiagram.identity(2))
    assert diagrams[0] == BrauerDiagram.identity(2)
    basis = [flat(psi_image(ADElement.from_diagram(g), 3)) for g in diagrams]
    s1 = psi_image(ADElement.from_diagram(BrauerDiagram.s_generator(2, 1)), 3)
    coeffs = solve_in_span(basis, flat(s1.compose(s1)))
    assert coeffs == [Fraction(1), Fraction(0), Fraction(0)]


@given(st.lists(st.lists(rationals, min_size=5, max_size=5), min_size=1, max_size=4),
       st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_solve_then_recombine(rows, weights):
    basis = [SparseVector(5, {j: v for j, v in enumerate(r) if v}) for r in rows]
    target = SparseVector(5)
    for w, v in zip(weights, basis):
        target = target.add(v, w)
    coeffs = solve_in_span(basis, target)
    back = SparseVector(5)
    for c, v in zip(coeffs, basis):
        back = back.add(v, c)
    assert back == target


def test_no_stored_zeros():
    v = SparseVector(3, {0: Fraction(0), 1: Fraction(2)})
    assert 0 not in v.entries
    m = SparseMatrix(2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(1)})
    assert (0, 0) not in m.entries


def test_reduce_against_detects_membership():
    pivots = {0: {0: Fraction(1), 2: Fraction(2)}}
    inside = {0: Fraction(3), 2: Fraction(6)}
    assert kernels.reduce_against(pivots, inside) == {}
    outside = {1: Fraction(1)}
    assert kernels.reduce_against(pivots, outside) == outside
    fill_in = {0: Fraction(3), 1: Fraction(1)}
    assert kernels.reduce_against(pivots, fill_in) == {1: Fraction(1),
                                                       2: Fraction(-6)}


def test_echelon_add_and_solve():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {1: Fraction(1), 2: Fraction(-1, 3)},
            {0: Fraction(2), 1: Fraction(5), 2: Fraction(-1, 3)}]  # 2 r0 + r1
    echelon = Echelon(3)
    assert [echelon.add(r, i) for i, r in enumerate(rows)] == [True, True,
                                                              False]
    assert sorted(echelon.pivots) == [0, 1]
    target = {0: Fraction(3), 1: Fraction(7), 2: Fraction(-1, 3)}
    combo = echelon.solve(target)
    back = {}
    for i, c in combo.items():
        kernels.combine_scaled(back, rows[i], c)
    assert back == target
    with pytest.raises(NotInSpan):
        echelon.solve({2: Fraction(1)})


# element combinations ------------------------------------------------------

ELEMENTS = {
    "ADElement": lambda: jm_element(2, 2),
    "PdElement": lambda: normalize([S(1), Y(1)], 2),
    "DahaElement": lambda: to_daha([Y(1), S(1)], 2),
}


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
def test_element_types_share_one_combination(kind):
    x = ELEMENTS[kind]()
    assert len(x.terms) >= 2
    for other in (ADElement, PdElement, DahaElement):
        assert (type(x).zero(2) == other.zero(2)) == (other is type(x))
    twin = type(x)(x.d, dict(x.terms))
    assert twin == x and hash(twin) == hash(x)
    assert type(x)(x.d, x.terms) == x
    with pytest.raises(ValueError):
        x.add(type(x).zero(x.d + 1))
    assert x.scaled(0).is_zero()
    assert x.add(x, -1).is_zero()
    assert x.scaled(Fraction(1, 2)).add(x, Fraction(1, 2)) == x
