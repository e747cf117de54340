"""The bend-free quotient read off the normal form, against two oracles.

`affine.to_daha` appends the reversed word one letter at a time in the
affine algebra and drops the terms with a cup after each letter.  Two
earlier routes stay here only as oracles: the separate rewriting engine for
the quotient, which moves each v power past each crossing letter by letter,
and the whole-algebra route, which normalizes the whole reversed word and
keeps its cup-free terms at the end.
"""

import itertools
import random
import time

import pytest

from periplectic.affine import (DahaElement, _bump, normalize, to_daha,
                                word_expansion)
from periplectic.tensoraction import E, S, Y, check_word


def _v_past_s(vexp, a):
    """Rewrite v^K s_a as [(coeff, s_present, K')]: far powers commute, the
    two zone powers swap one at a time, each swap shedding a constant term."""
    t = a + 1 if vexp[a] else (a if vexp[a - 1] else None)
    if t is None:
        return [(1, True, vexp)]
    t2 = a + 1 if t == a else a
    unit = -1 if t == a else 1
    out = []
    for c, flag, k2 in _v_past_s(_bump(vexp, t, -1), a):
        out.append((c, flag, _bump(k2, t2, 1)))
    out.append((unit, False, _bump(vexp, t, -1)))
    return out


def _emit(out, key, coeff):
    val = out.get(key, 0) + coeff
    if val:
        out[key] = val
    elif key in out:
        del out[key]


def _daha_word(word, d):
    check_word(word, d)
    terms = {(tuple(range(1, d + 1)), (0,) * d): 1}
    for tok in word:
        nxt = {}
        if tok.kind == "E":
            return DahaElement.zero(d)
        for (perm, vexp), c in terms.items():
            if tok.kind == "Y":
                key = (perm, _bump(vexp, tok.index))
                _emit(nxt, key, c)
            else:
                a = tok.index
                for c2, flag, k2 in _v_past_s(vexp, a):
                    if flag:
                        swapped = tuple(a + 1 if v == a else (a if v == a + 1 else v)
                                        for v in perm)
                        key = (swapped, k2)
                    else:
                        key = (perm, k2)
                    _emit(nxt, key, c * c2)
        terms = nxt
        if not terms:
            break
    return DahaElement(d, terms)


def _whole_algebra_daha(word, d):
    """The cup-free terms of the whole reversed word's normal form."""
    out = {}
    for u, c in normalize(word[::-1], d).terms.items():
        if u.diagram.is_permutation():
            tau = u.diagram.permutation()
            out[(tuple(sorted(tau, key=tau.get)), u.top_dots)] = c
    return DahaElement(d, out)


def letters(d, bends=True):
    return ([S(a) for a in range(1, d)]
            + ([E(a) for a in range(1, d)] if bends else [])
            + [Y(k) for k in range(1, d + 1)])


@pytest.mark.parametrize("d,longest", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_every_short_word_matches_the_old_engine(d, longest):
    for k in range(longest + 1):
        for word in itertools.product(letters(d), repeat=k):
            assert to_daha(word, d) == _daha_word(list(word), d), word


def test_seeded_long_words_match_the_old_engine():
    rng = random.Random(15002)
    for _ in range(1200):
        d = rng.randint(1, 4)
        word = [rng.choice(letters(d, bends=False))
                for _ in range(rng.randint(0, 10))]
        assert to_daha(word, d) == _daha_word(word, d), (word, d)


def test_normal_forms_match_the_old_engine_term_by_term():
    rng = random.Random(15003)
    for _ in range(300):
        d = rng.randint(2, 4)
        x = normalize([rng.choice(letters(d))
                       for _ in range(rng.randint(0, 8))], d)
        expected = DahaElement.zero(d)
        for u, c in x.terms.items():
            expected = expected.add(_daha_word(word_expansion(u), d), c)
        assert to_daha(x) == expected, x


@pytest.mark.parametrize("word,d", [
    ([S(2)], 2), ([E(2)], 2), ([Y(3)], 2), ([S(0)], 2), ([E(1), S(2)], 2),
    ([Y(0)], 1), ([S(1)], 1),
])
def test_out_of_range_letters_raise(word, d):
    for engine in (to_daha, _daha_word):
        with pytest.raises(ValueError):
            engine(word, d)


def test_seeded_words_match_the_whole_algebra_route():
    rng = random.Random(18001)
    for d in (2, 3, 4):
        for bends in (False, True):
            for _ in range(60):
                word = [rng.choice(letters(d, bends))
                        for _ in range(rng.randint(0, 9))]
                if sum(tok.kind == "Y" for tok in word) > 4:
                    continue
                assert to_daha(word, d) == _whole_algebra_daha(word, d), word


# dots first, then crossings: the reversed word walks every dot through
# them.  The whole-algebra route took 0.17, 20 and 0.35 s on these words
# (2-core host, CPython 3.11, process_time).
MANY_DOTS_THEN_CROSSINGS = [
    ([Y(1)] * 60 + [S(1)], 2),
    ([Y(1)] * 12 + [S(1), S(2), S(3), S(1)], 4),
    ([Y(k) for k in range(1, 5) for _ in range(3)]
     + [S(1), S(2), S(3), S(1)], 4),
]


@pytest.mark.parametrize("word,d", MANY_DOTS_THEN_CROSSINGS)
def test_many_dots_then_crossings_match_the_old_engine_at_once(word, d):
    start = time.process_time()
    image = to_daha(word, d)
    assert time.process_time() - start < 5
    assert image == _daha_word(word, d)


# the second word with 8 dots, not 12, on which the route took 0.35 s
@pytest.mark.parametrize("word,d", [
    MANY_DOTS_THEN_CROSSINGS[0], MANY_DOTS_THEN_CROSSINGS[2],
    ([Y(1)] * 8 + [S(1), S(2), S(3), S(1)], 4)])
def test_many_dots_then_crossings_match_the_whole_algebra_route(word, d):
    assert to_daha(word, d) == _whole_algebra_daha(word, d)
