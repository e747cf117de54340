"""The fraction-free integer echelon against the Fraction echelon it
replaced.

`OracleEchelon` and `oracle_reduce_against` are the previous
`exactla.Echelon` and `kernels.reduce_against`: every pivot row is scaled
to coefficient 1, so the reduction runs in Fraction arithmetic.  They stay
here as the oracle for the integer route.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from periplectic import kernels
from periplectic.affine import enumerate_regular, pbw_rank_check, word_expansion
from periplectic.exactla import Echelon, NotInSpan
from periplectic.tensoraction import (TensorSpaceSpec, _commutant_equations,
                                      commutant_dimension, evaluate_word)


def oracle_reduce_against(pivots, row):
    residual = dict(row)
    while residual:
        j = min(residual)
        piv = pivots.get(j)
        if piv is None:
            return residual
        c = -residual[j]
        for k, v in piv.items():
            w = residual.get(k)
            if w is None:
                residual[k] = c * v
            else:
                w = w + c * v
                if w:
                    residual[k] = w
                else:
                    del residual[k]
    return residual


class OracleEchelon:
    def __init__(self, width=0):
        self.width = width
        self.pivots = {}

    def _reduce(self, row):
        residual = oracle_reduce_against(self.pivots, row)
        j = min(residual, default=None)
        if j is not None and 0 < self.width <= j:
            j = None
        return residual, j

    def add(self, row, tag=None):
        if tag is not None:
            row = dict(row)
            row[self.width + tag] = Fraction(1)
        residual, j = self._reduce(row)
        if j is None:
            return False
        inv = Fraction(1) / residual[j]
        self.pivots[j] = {k: inv * v for k, v in residual.items()}
        return True

    def solve(self, row):
        residual, j = self._reduce(row)
        if j is not None:
            raise NotInSpan(f"coordinate {j} unreachable")
        return {k - self.width: -v for k, v in residual.items()}


def oracle_rank(rows):
    echelon = OracleEchelon()
    return sum(echelon.add({k: Fraction(v) for k, v in row.items() if v})
               for row in rows)


def assert_primitive_integer_rows(echelon):
    for j, row in echelon.pivots.items():
        assert min(row) == j
        assert all(type(v) is int and v for v in row.values())
        assert row[j] > 0
        assert math.gcd(*row.values()) == 1


WIDTH = 5
# mostly small integers and zeros, so that rows share pivots and pivots
# other than 1 occur
entries = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-4, max_value=4,
                                 max_denominator=6))
dense_rows = st.lists(entries, min_size=WIDTH, max_size=WIDTH)


def sparse(values):
    return {j: Fraction(v) for j, v in enumerate(values) if v}


@given(st.lists(dense_rows, min_size=1, max_size=6),
       st.lists(st.integers(-2, 2), min_size=6, max_size=6),
       dense_rows, st.booleans())
@settings(max_examples=100, deadline=None)
@example([[2, 0, 0, 0, 0], [3, 0, 0, 0, 0], [0, 2, 1, 0, 0]],
         [1, 1, 0, 0, 0, 0], [0, 4, 2, 0, 0], False)
@example([[Fraction(1, 2), 1, 0, 0, 0], [Fraction(1, 3), 2, 5, 0, 0]],
         [0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0], False)
def test_integer_echelon_matches_the_fraction_oracle(rows, weights, free,
                                                     in_span):
    rows = [sparse(r) for r in rows]
    echelon, oracle = Echelon(WIDTH), OracleEchelon(WIDTH)
    kept = [echelon.add(r, i) for i, r in enumerate(rows)]
    assert kept == [oracle.add(r, i) for i, r in enumerate(rows)]
    assert sorted(echelon.pivots) == sorted(oracle.pivots)
    assert_primitive_integer_rows(echelon)

    if in_span:
        target = {}
        for w, r in zip(weights, rows):
            kernels.combine_scaled(target, r, Fraction(w))
    else:
        target = sparse(free)
    try:
        want = oracle.solve(target)
    except NotInSpan:
        with pytest.raises(NotInSpan):
            echelon.solve(target)
        return
    combo = echelon.solve(target)
    assert combo == want
    assert all(type(c) is Fraction for c in combo.values())
    back = {}
    for i, c in combo.items():
        kernels.combine_scaled(back, rows[i], c)
    assert back == target


def test_reduce_against_keeps_a_multiple_of_the_row():
    # pivot 2 at coordinate 0 clears 3 there as 2 * row - 3 * pivot, and 4
    # as row - 2 * pivot: both factors are divided by gcd(2, c)
    pivots = {0: {0: 2, 1: 1}}
    assert kernels.reduce_against(pivots, {0: 3, 2: 1}) == {1: -3, 2: 2}
    assert kernels.reduce_against(pivots, {0: 4, 2: 1}) == {1: -2, 2: 1}
    assert kernels.reduce_against(pivots, {0: 4, 1: 2}) == {}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutant_equations_rank_as_in_the_oracle(n):
    spec = TensorSpaceSpec(n, 0, 2)
    unknowns, rows = _commutant_equations(spec)
    assert all(type(v) is int for row in rows for v in row.values())
    assert unknowns - oracle_rank(rows) == commutant_dimension(spec) == 3


PBW_WINDOWS = ((1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 2, 4), (1, 2, 5),
               (1, 2, 6), (2, 0, 3), (2, 0, 4), (2, 0, 5), (2, 0, 6))


@pytest.mark.parametrize("d,max_degree,n", PBW_WINDOWS)
def test_pbw_rows_rank_as_in_the_oracle(d, max_degree, n):
    # the rows pbw_rank_check stacks, block by block up to m = max_degree + 1
    words = [word_expansion(u) for u in enumerate_regular(d, max_degree)]
    rows = [dict() for _ in words]
    offset = 0
    for m in range(max_degree + 2):
        spec = TensorSpaceSpec(n, m, d)
        for row, w in zip(rows, words):
            for c, col in evaluate_word(w, spec).columns.items():
                for r, v in col.items():
                    row[offset + r * spec.dim + c] = v
        offset += spec.dim * spec.dim
        echelon = Echelon()
        rank = sum(echelon.add(row) for row in rows)
        assert rank == oracle_rank(rows)
        assert_primitive_integer_rows(echelon)
    assert pbw_rank_check(d, max_degree, n) == (len(words), rank)
