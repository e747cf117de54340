"""The rewriting engine against the presentation, with no tensor space.

`affine._append_word` is a right action of generator words on the span of
the regular monomials.  Suppose that for every regular monomial u and every
row lhs = rhs of `verify.relations(d)`, appending lhs to u gives the terms
that appending rhs gives, and that `normalize` takes u's own word back to u.
Then the span is a module over the algebra the table presents, and
`normalize` is the module map x -> 1.x, which the PBW basis makes the true
normal form: Bergman's diamond lemma in module form.  A check over the
monomials of degree <= D proves this only up to degree D.

Timings (2-core host, CPython 3.11, process_time, one run each, from cold
caches): (3, 2), 150 monomials x 38 rows, in 0.1 s and (4, 2), 1,575 x 71,
in 3.1 s, both exhaustive.  (5, 1) has 5,670 monomials x 112 rows; 600 of
them in random order took 8.9 s, and a seeded 150 in enumeration order take
2.7 s, which keeps the file at about 6 s.
"""

import random

import pytest

from periplectic.affine import (_append_word, enumerate_regular, normalize,
                                word_expansion)
from periplectic.kernels import combine_scaled
from periplectic.verify import relations

FIVE_STRAND_SAMPLE = 150


def appended(d, u, side):
    """u times the side's (coefficient, word) sum, through `_append_word`."""
    acc = {}
    for coeff, word in side:
        combine_scaled(acc, _append_word(d, {u: 1}, word), coeff)
    return acc


def check_presentation(d, monomials):
    rows = relations(d)
    for u in monomials:
        assert normalize(word_expansion(u), d).terms == {u: 1}, u
        for name, lhs, rhs in rows:
            assert appended(d, u, lhs) == appended(d, u, rhs), (u, name)


@pytest.mark.parametrize("d,max_degree", [(3, 2), (4, 2)])
def test_every_relation_holds_on_every_monomial(d, max_degree):
    check_presentation(d, enumerate_regular(d, max_degree))


def test_every_relation_holds_on_seeded_monomials_at_five_strands():
    monomials = enumerate_regular(5, 1)
    assert len(monomials) == 5670
    # in enumeration order, so that the monomials of one diagram come
    # together and share the engine's caches
    picked = sorted(random.Random(2101).sample(range(len(monomials)),
                                               FIVE_STRAND_SAMPLE))
    check_presentation(5, [monomials[i] for i in picked])


def test_the_table_has_the_expected_rows():
    assert [len(relations(d)) for d in range(1, 6)] == [0, 13, 38, 71, 112]
