"""The commutant and equivariance checks use a small set of p(n) elements.

`pn_generators` gives n + 1 of the 2n^2 basis elements: the raising
E_{s,s+1}, X_11 and Y_12.  With the lowering E_{s+1,s} and the diagonal
E_ss they generate p(n), which the certificate below shows; without the
lowering ones they do not, so the checks rest on complete reducibility
(see `pn_generators`), and the equations of the set are compared with the
all-basis equations they replace, which stay here as the oracle.  So is
the tie pass that `commutant_dimension` runs before its echelon.
"""

from fractions import Fraction

import pytest

from periplectic.exactla import Echelon, SparseMatrix
from periplectic.superalgebra import (pn_basis_with_duals, pn_generators,
                                      superbracket)
from periplectic.tensoraction import (EndoOperator, TensorSpaceSpec,
                                      _commutant_equations, _tie_pairs,
                                      _weight, check_equivariance,
                                      commutant_dimension, g_action,
                                      op_epsilon, op_s, op_y)


def _flat(x):
    n2 = 2 * x.n
    return {i * n2 + j: v for (i, j), v in x.data.entries.items()}


def generated_dimension(elements):
    """dim of the sub-superalgebra generated by homogeneous matrices.

    The span W kept in the echelon holds the elements, and every element
    added to it is bracketed with each of them in turn, so W ends closed
    under ad(x) for every given x; it is then the generated subalgebra,
    which is spanned by iterated brackets of the elements.
    """
    echelon = Echelon()
    frontier = [x for x in elements if echelon.add(_flat(x))]
    rank = len(frontier)
    while frontier:
        new = []
        for y in frontier:
            for x in elements:
                z = superbracket(x, y)
                if echelon.add(_flat(z)):
                    new.append(z)
        rank += len(new)
        frontier = new
    return rank


def _without(pairs, kind, indices):
    kept = [p for p in pairs if (p.kind, p.indices) != (kind, indices)]
    assert len(kept) == len(pairs) - 1
    return kept


def _lowering(n):
    by_key = {(p.kind, p.indices): p for p in pn_basis_with_duals(n)}
    return [by_key[("E_st", (s + 1, s))] for s in range(1, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generators_and_cartan_generate_pn(n):
    gens = [(p.kind, p.indices) for p in pn_generators(n)]
    assert len(gens) == (n + 1 if n >= 2 else 1)
    with_cartan = pn_generators(n, with_cartan=True)
    assert [(p.kind, p.indices) for p in with_cartan] == \
        gens + [("E_st", (s, s)) for s in range(1, n + 1)]
    basis = [p.basis_element for p in pn_basis_with_duals(n)]
    assert all(p.basis_element in basis for p in with_cartan)
    # the oracle set: the n + 1 elements, the E_ss and the lowering E_{s+1,s}
    oracle = with_cartan + _lowering(n)
    elements = [p.basis_element for p in oracle]
    assert generated_dimension(elements) == 2 * n * n
    # X_11 is the only source of g_1, and Y_12 of g_-1
    no_x = _without(oracle, "X_ss", (1, 1))
    assert generated_dimension([p.basis_element for p in no_x]) < 2 * n * n
    if n >= 2:
        no_y = _without(oracle, "Y_st", (1, 2))
        assert generated_dimension([p.basis_element for p in no_y]) < 2 * n * n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_raising_set_and_cartan_generate_a_proper_subalgebra(n):
    # Without the lowering E_{s+1,s} the set does not generate p(n): the
    # commutant and equivariance checks rest on complete reducibility
    elements = [p.basis_element for p in pn_generators(n, with_cartan=True)]
    assert generated_dimension(elements) < 2 * n * n


def all_basis_equations(spec):
    """The commutant equations of every p(n) basis element: the route that
    `_commutant_equations` replaced, kept as its oracle."""
    blocks = {}
    for t in range(spec.dim):
        blocks.setdefault(_weight(spec, t), []).append(t)
    unk = {}
    for ts in blocks.values():
        for t in ts:
            for u in ts:
                unk[(t, u)] = len(unk)
    wt = {t: _weight(spec, t) for t in range(spec.dim)}
    rows = []
    for pair in pn_basis_with_duals(spec.n):
        rho = g_action(pair.basis_element, spec)
        eqs = {}
        for b, col in rho.columns.items():
            for a, v in col.items():
                for t in blocks.get(wt[a], ()):
                    eq = eqs.setdefault((t, b), {})
                    x = unk[(t, a)]
                    eq[x] = eq.get(x, 0) + v
                for u in blocks.get(wt[b], ()):
                    eq = eqs.setdefault((a, u), {})
                    x = unk[(b, u)]
                    eq[x] = eq.get(x, 0) - v
        rows.extend(eqs.values())
    return len(unk), rows


def _rank(rows):
    echelon = Echelon()
    return sum(echelon.add(row) for row in rows)


SPACES = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1),
          (1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
          (1, 3), (2, 3), (3, 3), (1, 4)]


@pytest.mark.parametrize("n,d", SPACES)
def test_generator_equations_have_the_oracle_kernel(n, d):
    # The generators are basis elements, so the new rows are a subset of
    # the oracle's (as sets of rows) and the new kernel contains the
    # oracle's: equal dimensions mean equal kernels.
    spec = TensorSpaceSpec(n, 0, d)
    unknowns, rows = _commutant_equations(spec)
    oracle_unknowns, oracle_rows = all_basis_equations(spec)
    assert unknowns == oracle_unknowns
    as_set = {frozenset(r.items()) for r in oracle_rows}
    assert all(frozenset(r.items()) in as_set for r in rows)
    assert len(rows) < len(oracle_rows)
    kernel = unknowns - _rank(rows)
    assert kernel == unknowns - _rank(oracle_rows) == \
        commutant_dimension(spec)


@pytest.mark.parametrize("n,d", SPACES)
def test_tied_rows_have_the_kernel_of_the_raw_rows(n, d):
    unknowns, rows = _commutant_equations(TensorSpaceSpec(n, 0, d))
    classes, tied = _tie_pairs(unknowns, rows)
    assert classes - _rank(tied) == unknowns - _rank(rows)
    assert len(tied) <= len(rows)
    assert all(tied) and all(0 not in row.values() for row in tied)
    keys = [(len(row), min(row)) for row in tied]
    assert keys == sorted(keys)


def test_ties_store_their_signs():
    # x0 = -x1 and x1 = x2: the row x0 + x2 + x3 reads -x2 + x2 + x3
    rows = [{0: 1, 1: 1}, {1: 1, 2: -1}, {0: 1, 2: 1, 3: 1}]
    assert _tie_pairs(4, rows) == (2, [{3: 1}])
    assert 2 - _rank([{3: 1}]) == 4 - _rank(rows) == 1


def test_a_cycle_of_conflicting_signs_forces_its_class_to_zero():
    # x0 = x1, x1 = x2 and x0 = -x2 give 2 x2 = 0; x3 is free
    rows = [{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: 1}]
    assert _tie_pairs(4, rows) == (2, [{2: 1}])
    assert 2 - _rank([{2: 1}]) == 4 - _rank(rows) == 1


def test_two_terms_of_different_sizes_go_to_the_echelon():
    assert _tie_pairs(2, [{0: 2, 1: -1}]) == (2, [{0: 2, 1: -1}])
    assert _tie_pairs(2, [{0: 0, 1: 0}]) == (2, [])
    # rewritten in the roots when a tie merges one of their unknowns
    assert _tie_pairs(3, [{0: 2, 1: -1}, {1: 1, 2: 1}]) == \
        (2, [{0: 2, 2: 1}])


def commutes_with_every_basis_element(op):
    spec = op.spec
    for pair in pn_basis_with_duals(spec.n):
        rho = g_action(pair.basis_element, spec)
        if op.compose(rho) != rho.compose(op):
            return False
    return True


def _parity_involution(spec):
    """(-1)^(total parity) on each basis vector: it commutes with the even
    part gl(n) and anticommutes with every odd element, X_11 among them."""
    n = spec.n
    cols = {}
    for t in range(spec.dim):
        odd = sum(dg >= n for dg in spec.digits(t))
        cols[t] = [(t, -1 if odd % 2 else 1)]
    return EndoOperator.from_columns(spec, cols)


def _bar_flip(spec):
    flip = {}
    for t in range(spec.dim):
        dg = spec.digits(t)
        flip[(spec.rank([(dg[0] + spec.n) % (2 * spec.n)]), t)] = Fraction(1)
    return EndoOperator(spec, SparseMatrix(spec.dim, spec.dim, flip))


def _operators():
    vv = TensorSpaceSpec(2, 0, 2)
    yield op_s(1, vv), True
    yield op_epsilon(1, vv), True
    yield op_y(2, TensorSpaceSpec(2, 1, 2)), True
    yield _bar_flip(TensorSpaceSpec(2, 0, 1)), False
    for n in (1, 2, 3):
        yield _parity_involution(TensorSpaceSpec(n, 0, 2)), False
    # at n = 1 the action of X_11, the one generator, squares to 0 and so
    # commutes with it, but not with the diagonal E_11
    x11 = pn_basis_with_duals(1)[1]
    assert x11.kind == "X_ss"
    yield g_action(x11.basis_element, TensorSpaceSpec(1, 0, 2)), False


@pytest.mark.parametrize("op,want", list(_operators()))
def test_equivariance_verdict_as_in_the_oracle(op, want):
    assert check_equivariance(op) == commutes_with_every_basis_element(op) \
        == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parity_involution_commutes_with_gl_n_only(n):
    op = _parity_involution(TensorSpaceSpec(n, 0, 2))
    for pair in pn_basis_with_duals(n):
        rho = g_action(pair.basis_element, op.spec)
        commutes = op.compose(rho) == rho.compose(op)
        assert commutes == (pair.parity == 0), pair
