"""Operators keep the exact column tables of the word-image cache.

The oracle is the (row, col)-keyed route that operators used before: every
entry of a word's image rebuilt as a Fraction from `apply_word_to_vector`
on each basis vector, weighted sums taken entry by entry, and the result
held in a `SparseMatrix`.
"""

import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from periplectic.exactla import SparseMatrix
from periplectic.tensoraction import (E, EndoOperator, S, TensorSpaceSpec, Y,
                                      _evaluate_raw, apply_word_to_vector,
                                      evaluate_word, evaluate_word_sum)

SPACES = (TensorSpaceSpec(2, 0, 2), TensorSpaceSpec(2, 1, 2),
          TensorSpaceSpec(3, 1, 2), TensorSpaceSpec(2, 0, 3))

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def letters(d):
    return ([S(a) for a in range(1, d)] + [E(a) for a in range(1, d)]
            + [Y(j) for j in range(1, d + 1)])


@st.composite
def weighted_words(draw):
    spec = draw(st.sampled_from(SPACES))
    word = st.lists(st.sampled_from(letters(spec.d)), max_size=4).map(tuple)
    pairs = draw(st.lists(st.tuples(word, rationals), min_size=1,
                          max_size=3))
    return spec, pairs


def oracle_entries(word, spec):
    """(row, col) -> Fraction entries of the word's image, column by column."""
    ent = {}
    for t in range(spec.dim):
        for i, v in apply_word_to_vector(word, spec, {t: 1}).items():
            ent[(i, t)] = Fraction(v)
    return ent


def oracle_sum(pairs, spec):
    acc = {}
    for word, c in pairs:
        for key, v in oracle_entries(word, spec).items():
            acc[key] = acc.get(key, Fraction(0)) + c * v
    return SparseMatrix(spec.dim, spec.dim, acc)


@given(weighted_words())
@settings(max_examples=60, deadline=None)
def test_word_images_and_sums_match_the_fraction_oracle(case):
    spec, pairs = case
    word = pairs[0][0]
    want = EndoOperator(spec, SparseMatrix(spec.dim, spec.dim,
                                           oracle_entries(word, spec)))
    got = evaluate_word(word, spec)
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.matrix == want.matrix

    want_sum = EndoOperator(spec, oracle_sum(pairs, spec))
    got_sum = evaluate_word_sum(pairs, spec)
    assert got_sum == want_sum
    assert hash(got_sum) == hash(want_sum)
    assert got_sum.matrix == want_sum.matrix
    assert got_sum.is_zero() == (not want_sum.matrix.entries)
    assert all(got_sum.columns.values())
    assert all(v for col in got_sum.columns.values() for v in col.values())


@given(weighted_words())
@settings(max_examples=30, deadline=None)
def test_operations_leave_the_cached_table_unchanged(case):
    spec, pairs = case
    word, c = pairs[0]
    table = _evaluate_raw(word, spec)
    before = copy.deepcopy(table)
    op = evaluate_word(word, spec)
    twin = evaluate_word(word, spec)
    assert op.columns is table and twin.columns is table
    op.add(twin)
    op.add(twin, c)
    twin.add(op, -1)
    op.scaled(c)
    op.compose(twin)
    twin.compose(op)
    op.apply_dict({t: c for t in range(spec.dim)})
    assert op == twin
    op.matrix.entries[(0, 0)] = Fraction(7)   # the view is a copy
    assert evaluate_word_sum(pairs, spec) is not None
    assert _evaluate_raw(word, spec) is table
    assert table == before


def test_operator_built_from_fractions_equals_int_columns():
    spec = TensorSpaceSpec(2, 0, 2)
    op = evaluate_word([S(1), Y(2)], spec)
    assert all(type(v) is int for col in op.columns.values()
               for v in col.values())
    fractions = EndoOperator(spec, SparseMatrix(
        spec.dim, spec.dim,
        {key: Fraction(v) for key, v in op.matrix.entries.items()}))
    assert fractions == op and hash(fractions) == hash(op)
    assert op.add(op, -1) == EndoOperator.zero(spec)
    assert op.scaled(Fraction(1, 2)).add(op, Fraction(1, 2)) == op
    assert op.scaled(0).is_zero()
