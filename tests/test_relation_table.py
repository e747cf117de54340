"""`verify.relations(d)` is the one spelling of the presentation.

The tensor-space suites, the two quotient suites and the engine certificate
(`test_presentation.py`) all read this table; these tests pin how each
consumer maps its rows to records.
"""

import pytest

from periplectic.affine import pi_m_word
from periplectic.brauer import ADElement
from periplectic.tensoraction import check_word
from periplectic.verify import (_agree_under, appendix_suite, daha_suite,
                                jm_suite, relations, relations_suite)


def names(records):
    return [r["name"] for r in records]


def table_names(d, prefix=""):
    return [prefix + name for name, _lhs, _rhs in relations(d)]


@pytest.mark.parametrize("d", range(1, 7))
def test_rows_are_named_once_and_spell_legal_words(d):
    rows = relations(d)
    assert len({name for name, _l, _r in rows}) == len(rows)
    for _name, lhs, rhs in rows:
        for coeff, word in lhs + rhs:
            assert coeff in (1, -1) and isinstance(word, tuple)
            check_word(word, d)


@pytest.mark.parametrize("d", range(1, 6))
def test_the_pinch_is_a_row_at_every_bend(d):
    pinches = [name for name in table_names(d) if name.startswith("P4.")]
    assert pinches == [f"P4.pinch.y{a}^{k}"
                       for a in range(1, d) for k in range(4)]


@pytest.mark.parametrize("n,m,d", [(2, 0, 2), (2, 1, 3), (3, 0, 3)])
def test_relations_suite_checks_the_table_in_order(n, m, d):
    records = relations_suite(n, m, d)
    assert names(records) == table_names(d)
    assert all(r["pass"] and r["detail"] == "" for r in records)


@pytest.mark.parametrize("n,m,d", [(2, 0, 2), (2, 1, 3)])
def test_appendix_suite_ends_with_the_tables_bend_rows(n, m, d):
    records = appendix_suite(n, m, d)
    bend_rows = [name for name in table_names(d) if name.startswith("P8")]
    assert names(records)[-len(bend_rows):] == bend_rows
    assert [name for name in names(records)
            if name.startswith("P")] == bend_rows
    assert all(r["pass"] for r in records)


@pytest.mark.parametrize("d,checks", [(1, 0), (2, 15), (3, 42)])
def test_daha_suite_is_the_table_plus_its_bend_kills(d, checks):
    records = daha_suite(d)
    kills = [f"daha.bend_kill{part}.e{a}"
             for a in range(1, d) for part in ("", ".word")]
    assert names(records) == table_names(d, "daha.") + kills
    assert len(records) == checks
    assert all(r["pass"] for r in records)


@pytest.mark.parametrize("n,d,checks", [(2, 1, 1), (2, 2, 15), (3, 3, 41)])
def test_jm_suite_is_the_match_plus_the_table_under_pi_0(n, d, checks):
    records = jm_suite(n, d)
    matches = [f"jm.match.y{j}" for j in range(1, d + 1)]
    assert names(records) == matches + table_names(d, "jm.")
    assert len(records) == checks
    assert all(r["pass"] for r in records)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_every_row_holds_under_the_larger_shifts(d, m):
    image = lambda word: pi_m_word(word, d, m)
    for name, lhs, rhs in relations(d):
        assert _agree_under(image, ADElement.zero(m + d), lhs, rhs), name


def test_a_false_row_does_not_agree():
    image = lambda word: pi_m_word(word, 2, 0)
    assert not _agree_under(image, ADElement.zero(2), [(1, ())], [(-1, ())])
