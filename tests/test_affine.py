import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periplectic import affine
from periplectic.affine import (DotDiagram, PdElement, enumerate_regular,
                                is_regular, multiply, normalize,
                                pbw_rank_check, pi_m, pi_m_word, tensor_image,
                                to_daha, word_expansion)
from periplectic.brauer import (ADElement, BrauerDiagram, enumerate_diagrams,
                                jm_element, marked_pair,
                                multiply as ad_multiply)
from periplectic.exactla import Combination
from periplectic.tensoraction import E, S, TensorSpaceSpec, Y, evaluate_word

CROSS2 = BrauerDiagram.s_generator(2, 1)
CUPCAP2 = BrauerDiagram.eps_generator(2, 1)
ID2 = BrauerDiagram.identity(2)


def mono(d, g, top, bottom, coeff=1):
    return PdElement.from_monomial(DotDiagram(d, g, tuple(top), tuple(bottom)),
                                   coeff)


# regularity ----------------------------------------------------------------

def test_dot_on_plain_strand_is_regular():
    assert is_regular(DotDiagram(2, ID2, (1, 0), (0, 0)))


def test_dot_on_cup_right_end_is_not_regular():
    assert not is_regular(DotDiagram(2, CUPCAP2, (0, 1), (0, 0)))


def test_dot_on_cap_right_end_is_regular():
    assert is_regular(DotDiagram(2, CUPCAP2, (0, 0), (0, 1)))


def test_bottom_dot_needs_a_cap():
    assert not is_regular(DotDiagram(2, ID2, (0, 0), (1, 0)))
    assert not is_regular(DotDiagram(2, CUPCAP2, (0, 0), (1, 0)))


def test_element_rejects_irregular_keys():
    bad = DotDiagram(2, CUPCAP2, (0, 1), (0, 0))
    with pytest.raises(ValueError):
        PdElement(2, {bad: Fraction(1)})


def test_an_irregular_monomial_still_raises_when_added():
    # add skips the key check only for an operand of the element's own type
    bad = DotDiagram(2, CUPCAP2, (0, 1), (0, 0))
    with pytest.raises(ValueError, match="not regular"):
        PdElement.one(2).add(Combination(2, {bad: 1}))
    with pytest.raises(ValueError, match="not regular"):
        PdElement(2, {DotDiagram.bare(2): 1, bad: 2})


# enumeration ---------------------------------------------------------------

@pytest.mark.parametrize("max_degree,expect", [(0, 3), (1, 9), (2, 18)])
def test_enumeration_counts_d2(max_degree, expect):
    assert len(enumerate_regular(2, max_degree)) == expect


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_single_strand_enumeration(k):
    out = enumerate_regular(1, k)
    assert len(out) == k + 1
    assert all(u.bottom_dots == (0,) for u in out)


def test_enumeration_deterministic_and_regular():
    a = enumerate_regular(2, 2)
    assert a == enumerate_regular(2, 2)
    assert all(is_regular(u) for u in a)
    assert len(set(a)) == len(a)


# normalization: pinned examples ---------------------------------------------

def test_double_crossing_is_identity():
    assert normalize([S(1), S(1)], 2) == mono(2, ID2, (0, 0), (0, 0))


def test_pinched_dot_vanishes():
    assert normalize([E(1), Y(1), E(1)], 2).is_zero()


def test_dot_then_crossing_is_already_regular():
    # a left dot rides on top of the crossing, so no rewriting is needed
    assert normalize([Y(1), S(1)], 2) == mono(2, CROSS2, (1, 0), (0, 0))


def test_crossing_then_dot_expands_by_the_straightening_rule():
    got = normalize([S(1), Y(1)], 2)
    want = mono(2, CROSS2, (0, 1), (0, 0)) \
        .add(mono(2, ID2, (0, 0), (0, 0)), -1) \
        .add(mono(2, CUPCAP2, (0, 0), (0, 0)))
    assert got == want


def test_dots_commute():
    assert normalize([Y(1), Y(2)], 2) == normalize([Y(2), Y(1)], 2)


def test_bend_right_dot_lands_on_cap():
    # the dot sits on the right end of the cap, which is the one legal spot
    assert normalize([E(1), Y(2)], 2) == mono(2, CUPCAP2, (0, 0), (0, 1))


def test_normalize_empty_word_is_one():
    assert normalize([], 2) == PdElement.one(2)


# soundness against the tensor representations -------------------------------

TOKENS_D2 = [S(1), E(1), Y(1), Y(2)]


def assert_sound(word, spec):
    direct = evaluate_word(word, spec)
    assert tensor_image(normalize(word, spec.d), spec) == direct


def test_soundness_all_length_two_words():
    spec = TensorSpaceSpec(2, 1, 2)
    for a in TOKENS_D2:
        for b in TOKENS_D2:
            assert_sound([a, b], spec)


@given(st.lists(st.sampled_from(TOKENS_D2), max_size=4))
@settings(max_examples=25, deadline=None)
def test_soundness_random_words(word):
    assert_sound(list(word), TensorSpaceSpec(2, 0, 2))


def test_soundness_d3_spot_checks():
    spec = TensorSpaceSpec(2, 1, 3)
    for word in ([S(1), Y(2), E(2)], [E(1), S(2), Y(3)],
                 [Y(1), E(2), E(1), Y(1)], [S(2), S(1), E(2), Y(2)]):
        assert_sound(word, spec)


# normal form stability ------------------------------------------------------

def test_idempotent_on_basis_expansions():
    for u in enumerate_regular(2, 2):
        expanded = word_expansion(u)
        assert normalize(expanded, 2) == PdElement.from_monomial(u)


def test_idempotent_on_d3_sample():
    rng = random.Random(7)
    sample = rng.sample(enumerate_regular(3, 2), 12)
    for u in sample:
        assert normalize(word_expansion(u), 3) == PdElement.from_monomial(u)


@st.composite
def regular_monomials(draw, d):
    """A regular dotted diagram: no top dot on a cup's right end, bottom
    dots only on a cap's right end."""
    g = draw(st.sampled_from(enumerate_diagrams(d)))
    cups = {r for _l, r in g.cups()}
    caps = {r for _l, r in g.caps()}
    dots = st.integers(0, 2)
    top = tuple(0 if k in cups else draw(dots) for k in range(1, d + 1))
    bottom = tuple(draw(dots) if k in caps else 0 for k in range(1, d + 1))
    return DotDiagram(d, g, top, bottom)


@given(st.sampled_from((2, 3)).flatmap(regular_monomials))
@settings(max_examples=60, deadline=None)
def test_idempotent_on_random_regular_monomials(u):
    assert is_regular(u)
    assert normalize(word_expansion(u), u.d) == PdElement.from_monomial(u)


# multiplication -------------------------------------------------------------

def test_multiply_by_identity():
    rng = random.Random(1)
    for u in rng.sample(enumerate_regular(2, 2), 6):
        x = PdElement.from_monomial(u, Fraction(3, 2))
        assert multiply(x, PdElement.one(2)) == x
        assert multiply(PdElement.one(2), x) == x


D3_LETTERS = (S(1), S(2), E(1), E(2), Y(1), Y(2), Y(3))
short_d3_words = st.lists(st.sampled_from(D3_LETTERS), max_size=3)


@given(short_d3_words, short_d3_words, short_d3_words)
@settings(max_examples=25, deadline=None)
def test_multiply_is_associative(u, v, w):
    spec = TensorSpaceSpec(2, 0, 3)
    x, y, z = (normalize(word, 3) for word in (u, v, w))
    left = multiply(multiply(x, y), z)
    assert left == multiply(x, multiply(y, z))
    assert tensor_image(left, spec) == evaluate_word(u + v + w, spec)


def test_dot_monomials_commute():
    a = mono(2, ID2, (2, 0), (0, 0))
    b = mono(2, ID2, (0, 1), (0, 0))
    assert multiply(a, b) == multiply(b, a) == mono(2, ID2, (2, 1), (0, 0))


def test_bend_squared_is_zero():
    x = mono(2, CUPCAP2, (0, 0), (0, 0))
    assert multiply(x, x).is_zero()


def test_degree_filtration():
    rng = random.Random(2)
    basis = enumerate_regular(2, 2)
    for _ in range(15):
        u, v = rng.choice(basis), rng.choice(basis)
        prod = multiply(PdElement.from_monomial(u), PdElement.from_monomial(v))
        if not prod.is_zero():
            assert prod.degree <= u.degree + v.degree


# graded structure at top degree ---------------------------------------------

def _perm_word(perm_word):
    return [S(a) for a in perm_word]


@pytest.mark.parametrize("tau,a,target", [
    # target = exit of the strand entering tau's bottom row at position a
    ((1,), 1, 2), ((1,), 2, 1), ((2,), 1, 1), ((2,), 3, 2),
    ((1, 2), 1, 2), ((1, 2), 3, 1),
])
def test_conjugating_a_dot_relabels_it(tau, a, target):
    word = _perm_word(tau) + [Y(a)] + _perm_word(tuple(reversed(tau)))
    top = normalize(word, 3).top_degree_part()
    want_dots = tuple(1 if k == target else 0 for k in (1, 2, 3))
    assert top == mono(3, BrauerDiagram.identity(3), want_dots, (0, 0, 0))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_marked_pair_pinches_dots_at_top_degree(k):
    word = list(marked_pair(1, 2, 3)) + [Y(1)] * k \
        + list(marked_pair(1, 2, 3))
    got = normalize(word, 3)
    assert got.is_zero() or got.degree < k


def test_marked_pair_annihilates_dot_difference_at_top_degree():
    word = list(marked_pair(1, 2, 2))
    x = normalize(word + [Y(1)], 2).add(normalize(word + [Y(2)], 2), -1)
    assert x.is_zero() or x.degree < 1


# quotient maps ---------------------------------------------------------------

def test_pi0_kills_first_dot():
    assert pi_m(normalize([Y(1)], 2), 0).is_zero()


def test_pi1_sends_first_dot_to_the_shifted_element():
    img = pi_m(normalize([Y(1)], 2), 1)
    assert img == jm_element(2, 3)
    assert len(img.terms) == 2


def test_pi_m_is_a_homomorphism():
    rng = random.Random(4)
    words = [[rng.choice(TOKENS_D2) for _ in range(rng.randint(0, 4))]
             for _ in range(6)]
    for m in (0, 1, 2):
        for u in words[:3]:
            for v in words[3:]:
                lhs = pi_m_word(u + v, 2, m)
                rhs = ad_multiply(pi_m_word(u, 2, m), pi_m_word(v, 2, m))
                assert lhs == rhs


def test_pi_m_matches_direct_substitution():
    rng = random.Random(9)
    for m in (0, 1, 2):
        for _ in range(4):
            word = [rng.choice(TOKENS_D2) for _ in range(rng.randint(1, 4))]
            assert pi_m(normalize(word, 2), m) == pi_m_word(word, 2, m)


# polynomial quotient ----------------------------------------------------------

def test_bends_die_in_the_polynomial_quotient():
    assert to_daha([E(1)], 3).is_zero()
    assert to_daha([S(2), E(1), Y(1)], 3).is_zero()


def test_daha_straightening_rule():
    lhs = to_daha([S(1), Y(1)], 2).add(to_daha([Y(2), S(1)], 2), -1)
    assert lhs == to_daha([], 2).scaled(-1)


def test_daha_dots_commute():
    assert to_daha([Y(1), Y(2)], 3) == to_daha([Y(2), Y(1)], 3)


def test_daha_accepts_elements():
    x = normalize([S(1), Y(1), Y(1)], 2)
    assert to_daha(x) == to_daha([S(1), Y(1), Y(1)], 2)


# spanning-set independence -----------------------------------------------------

@pytest.mark.parametrize("d,max_degree,n,count", [(1, 2, 4, 3), (2, 0, 3, 3)])
def test_pbw_rank_small(d, max_degree, n, count):
    got_count, got_rank = pbw_rank_check(d, max_degree, n)
    assert got_count == count == got_rank


# The longest d = 3 permutation, k dots spread over the strands, then
# s1 s2 s1 s2: before blocked letters were cached, the letter recursion made
# 1,346 / 93,125 / 516,025 calls at k = 6 / 12 / 14, about 2.2 times more
# per added dot.  Cached, the count grows like k^4.  Every letter, y, s or
# e, is one `_letter` call, cached or not.  The walk and letter caches
# outlive a call, so each k starts them empty: a cold walk.
def test_blocked_letters_grow_polynomially_with_the_dots(monkeypatch):
    calls = []
    inner = affine._letter

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(affine, "_letter", counted)
    counts = {}
    for k in (6, 9, 12):
        word = ((S(1), S(2), S(1)) + tuple(Y(i % 3 + 1) for i in range(k))
                + (S(1), S(2), S(1), S(2)))
        calls.clear()
        affine._walk.cache_clear()
        inner.cache_clear()
        # past the normalize cache, so every letter is appended here
        x = affine._normalize_cached.__wrapped__(word, 3)
        counts[k] = len(calls)
        assert x == normalize(word, 3)
    assert counts[9] <= counts[6] * (9 / 6) ** 5
    assert counts[12] <= counts[9] * (12 / 9) ** 5
    assert counts[12] < 20_000
