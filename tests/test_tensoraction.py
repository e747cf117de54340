import random
from fractions import Fraction

import pytest

from periplectic import tensoraction
from periplectic.exactla import SparseMatrix
from periplectic.superalgebra import pn_basis_with_duals
from periplectic.tensoraction import (E, EndoOperator, S, TensorSpaceSpec, Y,
                                      apply_word_to_vector, check_equivariance,
                                      check_word, commutant_dimension,
                                      evaluate_word, evaluate_word_sum,
                                      g_action, op_casimir,
                                      op_epsilon, op_omega, op_s, op_y)


def vv(n):
    return TensorSpaceSpec(n, 0, 2)


def basis_vec(spec, digits):
    return {spec.rank(list(digits)): Fraction(1)}


# swap on V (x) V, n=1: e1 (x) e1bar has sign (+1)^(0*1)

def test_swap_mixed_parities_n1():
    spec = vv(1)
    out = op_s(1, spec).apply_dict(basis_vec(spec, (0, 1)))
    assert out == {spec.rank([1, 0]): Fraction(1)}


def test_swap_two_odd_vectors_picks_up_sign():
    spec = vv(1)
    out = op_s(1, spec).apply_dict(basis_vec(spec, (1, 1)))
    assert out == {spec.rank([1, 1]): Fraction(-1)}


@pytest.mark.parametrize("a", [1, 2])
def test_swap_squares_to_identity(a):
    spec = TensorSpaceSpec(2, 0, 3)
    s = op_s(a, spec)
    assert s.compose(s) == EndoOperator.identity(spec)


def expected_epsilon(n):
    """The two-slot bend operator written out from its defining display:
    zero unless the input digits are mutually barred, and then the output is
    sum_i (-1)^{|e_i|} e_i (x) e_ibar."""
    spec = vv(n)
    ent = {}
    for a in range(2 * n):
        for b in range(2 * n):
            if (a + n) % (2 * n) != b:
                continue
            col = spec.rank([a, b])
            for i in range(2 * n):
                sign = Fraction(-1 if i >= n else 1)
                ent[(spec.rank([i, (i + n) % (2 * n)]), col)] = sign
    return EndoOperator(spec, SparseMatrix(spec.dim, spec.dim, ent))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_epsilon_matches_displayed_formula_entrywise(n):
    assert op_epsilon(1, vv(n)) == expected_epsilon(n)


def test_epsilon_on_mutually_barred_input_n1():
    spec = vv(1)
    out = op_epsilon(1, spec).apply_dict(basis_vec(spec, (0, 1)))
    assert out == {spec.rank([0, 1]): Fraction(1), spec.rank([1, 0]): Fraction(-1)}


def test_epsilon_kills_non_barred_input_n1():
    spec = vv(1)
    assert op_epsilon(1, spec).apply_dict(basis_vec(spec, (0, 0))) == {}


def test_epsilon_squares_to_zero():
    spec = vv(2)
    ep = op_epsilon(1, spec)
    assert ep.compose(ep).is_zero()


# Casimir across the V|V split

@pytest.mark.parametrize("n", [1, 2, 3])
def test_twice_casimir_is_s_plus_epsilon(n):
    spec = vv(n)
    lhs = op_casimir(1, spec).scaled(2)
    assert lhs == op_s(1, spec).add(op_epsilon(1, spec))


def test_casimir_commutes_with_g_action():
    spec = TensorSpaceSpec(2, 1, 1)
    c = op_casimir(1, spec)
    for pair in pn_basis_with_duals(2):
        act = g_action(pair.basis_element, spec)
        assert c.compose(act) == act.compose(c)


def test_casimir_on_trivial_module_side_is_zero():
    spec = TensorSpaceSpec(2, 0, 1)
    assert op_casimir(0, spec).is_zero()


# dot operators

def test_y1_vanishes_on_trivial_coefficients():
    assert op_y(1, TensorSpaceSpec(2, 0, 3)).is_zero()


def test_y_is_sum_of_split_interactions():
    spec = TensorSpaceSpec(2, 1, 2)
    for j in (1, 2):
        total = EndoOperator.zero(spec)
        for k in range(j):
            total = total.add(op_omega(k, j, spec))
        assert op_y(j, spec) == total


def test_dot_operators_commute():
    spec = TensorSpaceSpec(2, 1, 3)
    ys = [op_y(j, spec) for j in (1, 2, 3)]
    for a in ys:
        for b in ys:
            assert a.compose(b) == b.compose(a)


def test_omega_with_trivial_module_is_zero():
    spec = TensorSpaceSpec(2, 0, 3)
    for j in (1, 2, 3):
        assert op_omega(0, j, spec).is_zero()


# word evaluation

def test_word_s1_s1_is_identity():
    spec = vv(2)
    assert evaluate_word([S(1), S(1)], spec) == EndoOperator.identity(spec)


def test_word_pinch_is_zero():
    spec = TensorSpaceSpec(2, 2, 2)
    assert evaluate_word([E(1), Y(1), E(1)], spec).is_zero()


def test_word_dots_commute():
    spec = TensorSpaceSpec(2, 1, 2)
    assert evaluate_word([Y(1), Y(2)], spec) == evaluate_word([Y(2), Y(1)], spec)


def test_word_is_antimultiplicative():
    # concatenation maps to composition in the reverse order
    spec = TensorSpaceSpec(2, 1, 2)
    u = [S(1), Y(1)]
    v = [Y(2), E(1)]
    assert evaluate_word(u + v, spec) == \
        evaluate_word(v, spec).compose(evaluate_word(u, spec))


@pytest.mark.parametrize("n,m,d", [(2, 1, 2), (2, 0, 3)])
def test_apply_word_to_vector_gives_the_columns_of_evaluate_word(n, m, d):
    spec = TensorSpaceSpec(n, m, d)
    letters = ([S(a) for a in range(1, d)] + [E(a) for a in range(1, d)]
               + [Y(j) for j in range(1, d + 1)])
    rng = random.Random(20 + d)
    for _ in range(12):
        word = [rng.choice(letters) for _ in range(rng.randint(0, 5))]
        op = evaluate_word(word, spec)
        columns = {}
        for (i, t), v in op.matrix.entries.items():
            columns.setdefault(t, {})[i] = v
        for t in range(spec.dim):
            got = apply_word_to_vector(word, spec, {t: Fraction(1)})
            assert got == columns.get(t, {}), (word, t)


def test_check_word_rejects_bad_indices():
    with pytest.raises(ValueError):
        check_word([S(2)], 2)
    with pytest.raises(ValueError):
        check_word([Y(3)], 2)
    with pytest.raises(ValueError):
        check_word([E(0)], 2)


# equivariance

def test_generator_images_are_equivariant():
    spec = vv(2)
    assert check_equivariance(op_s(1, spec))
    assert check_equivariance(op_epsilon(1, spec))
    spec2 = TensorSpaceSpec(2, 1, 2)
    assert check_equivariance(op_y(2, spec2))


def test_non_equivariant_operator_detected():
    spec = TensorSpaceSpec(2, 0, 1)
    flip = {}
    for t in range(spec.dim):
        dg = spec.digits(t)
        flip[(spec.rank([(dg[0] + spec.n) % (2 * spec.n)]), t)] = Fraction(1)
    bad = EndoOperator(spec, SparseMatrix(spec.dim, spec.dim, flip))
    assert not check_equivariance(bad)


def test_g_action_is_a_lie_action():
    from periplectic.superalgebra import superbracket
    spec = TensorSpaceSpec(2, 1, 1)
    pairs = pn_basis_with_duals(2)
    for x in (pairs[1], pairs[5]):
        for y in (pairs[4], pairs[7]):
            lhs = g_action(superbracket(x.basis_element, y.basis_element), spec)
            gx = g_action(x.basis_element, spec)
            gy = g_action(y.basis_element, spec)
            sign = -1 if (x.parity and y.parity) else 1
            assert lhs == gx.compose(gy).add(gy.compose(gx), -sign)


def test_g_action_E11_doubles_e1_tensor_e1():
    spec = vv(2)
    pairs = pn_basis_with_duals(2)
    e11 = next(p for p in pairs if p.kind == "E_st" and p.indices == (1, 1))
    out = g_action(e11.basis_element, spec).apply_dict(basis_vec(spec, (0, 0)))
    assert out == {spec.rank([0, 0]): Fraction(2)}


# at n >= d the commutant is spanned by the (2d - 1)!! Brauer diagrams
@pytest.mark.parametrize("n,d,want", [(3, 1, 1), (3, 2, 3), (1, 1, 1),
                                      (3, 3, 15), (4, 3, 15)])
def test_commutant_dimension(n, d, want):
    assert commutant_dimension(TensorSpaceSpec(n, 0, d)) == want


def test_long_words_evaluate_from_a_cold_cache():
    # each letter of a short word is one cached step on its prefix; a
    # thousand letters must not recurse a thousand deep
    spec = TensorSpaceSpec(1, 0, 2)
    for word, want in (([S(1)] * 1000, []), ([S(1)] * 1001, [S(1)])):
        tensoraction._evaluate_raw.cache_clear()
        assert evaluate_word(word, spec) == evaluate_word(want, spec)
        tensoraction._evaluate_raw.cache_clear()
        assert (evaluate_word_sum([(word, 2)], spec)
                == evaluate_word(want, spec).scaled(2))
