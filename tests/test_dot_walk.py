"""The cached dot walk against the uncached walk it replaced.

`affine._walk` keeps each walk's output at coefficient 1 in a bounded cache
that outlives the normalize or multiply call which computed it, and each
caller scales it into its own terms.  The walk below is the earlier
version, which walks every correction term again, one dot power at a time;
it is exponential in the number of dots and stays here only as the oracle.
It walks each dot with `old_journey`, the earlier two-branch form of the
engine's `_journey`, so the oracle shares no walk code with the engine.
"""

import random
from fractions import Fraction

from periplectic.affine import (DotDiagram, PdElement, _compose, _journey,
                                multiply, normalize, word_expansion)
from periplectic.brauer import canonical_word as _cw
from periplectic.brauer import enumerate_diagrams
from periplectic.tensoraction import E, S, Y

ALPHABET_D3 = (S(1), S(2), E(1), E(2), Y(1), Y(2), Y(3))
ALPHABET_D4 = (S(1), S(2), S(3), E(1), E(2), E(3), Y(1), Y(2), Y(3), Y(4))


# The oracle keeps dot counts as {position: count} dicts without zeros, a
# format that shares no code with the engine's d-tuples.
def _bump(dots, t, delta=1):
    nxt = dict(dots)
    nxt[t] = nxt.get(t, 0) + delta
    if not nxt[t]:
        del nxt[t]
    return nxt


def _emit(out, key, coeff):
    val = out.get(key, 0) + coeff
    if val:
        out[key] = val
    elif key in out:
        del out[key]


# `affine._journey` as it was before its two directions became one loop.
def old_journey(word, d, pos, idx, moving_up):
    """Walk one dot power along its strand through a letter word.

    The dot sits between word[pos-1] and word[pos] at horizontal position
    idx.  A crossing passes it through (switching index), a cup or cap slides
    it to the other end and turns it around; each such event appends
    lower-degree corrections (sign, replacement word) where the dot is gone
    and at most one letter changed.  Returns (("top"|"bottom", index), corr)
    for the surviving full-degree term.
    """
    corr = []
    steps = 0
    while True:
        steps += 1
        if steps > 4 * (len(word) + 2) * (d + 2):   # pragma: no cover
            raise AssertionError("dot walk failed to terminate")
        if moving_up:
            if pos == 0:
                return ("top", idx), corr
            letter = word[pos - 1]
            b = letter.index
            if idx not in (b, b + 1):
                pos -= 1
            elif letter.kind == "S":
                repl = word[:pos - 1] + (E(b),) + word[pos:]
                drop = word[:pos - 1] + word[pos:]
                corr.append((1, repl))
                corr.append((-1 if idx == b else 1, drop))
                idx = b + 1 if idx == b else b
                pos -= 1
            else:
                corr.append((1 if idx == b else -1, word))
                idx = b + 1 if idx == b else b
                moving_up = False
        else:
            if pos == len(word):
                return ("bottom", idx), corr
            letter = word[pos]
            b = letter.index
            if idx not in (b, b + 1):
                pos += 1
            elif letter.kind == "S":
                repl = word[:pos] + (E(b),) + word[pos + 1:]
                drop = word[:pos] + word[pos + 1:]
                corr.append((-1, repl))
                corr.append((-1 if idx == b else 1, drop))
                idx = b + 1 if idx == b else b
                pos += 1
            else:
                corr.append((-1 if idx == b else 1, word))
                idx = b + 1 if idx == b else b
                moving_up = True


def _tup(dots, d):
    return tuple(dots.get(k, 0) for k in range(1, d + 1))


def _dots(vec):
    return {k: c for k, c in enumerate(vec, start=1) if c}


def old_regularize(d, top, g, bottom, coeff, out):
    if not coeff:
        return
    cap_r = {r for _l, r in g.caps()}
    bad_bottom = sorted(t for t, c in bottom.items() if c and t not in cap_r)
    if bad_bottom:
        t = bad_bottom[0]
        rest = _bump(bottom, t, -1)
        word = _cw(g)
        (side, land), corr = old_journey(word, d, len(word), t, True)
        for sgn, w2 in corr:
            for g2, c2 in _compose(w2, d).terms.items():
                old_regularize(d, top, g2, rest, coeff * sgn * c2, out)
        if side == "top":
            old_regularize(d, _bump(top, land), g, rest, coeff, out)
        else:
            old_regularize(d, top, g, _bump(rest, land), coeff, out)
        return
    cup_r = {r for _l, r in g.cups()}
    bad_top = sorted(k for k, c in top.items() if c and k in cup_r)
    if bad_top:
        k = bad_top[0]
        rest = _bump(top, k, -1)
        word = _cw(g)
        (side, land), corr = old_journey(word, d, 0, k, False)
        for sgn, w2 in corr:
            for g2, c2 in _compose(w2, d).terms.items():
                old_regularize(d, rest, g2, bottom, coeff * sgn * c2, out)
        assert side == "top"
        old_regularize(d, _bump(rest, land), g, bottom, coeff, out)
        return
    _emit(out, DotDiagram(d, g, _tup(top, d), _tup(bottom, d)), coeff)


def old_append_letter(d, top, g, bottom, tok, coeff, out):
    if not coeff:
        return
    a = tok.index
    if tok.kind == "E" and g.partner(-a) == -(a + 1):
        return
    blockers = [t for t in (a + 1, a) if bottom.get(t)]
    if not blockers:
        for g2, c2 in _compose(_cw(g) + (tok,), d).terms.items():
            old_regularize(d, top, g2, bottom, coeff * c2, out)
        return
    t = blockers[0]
    rest = _bump(bottom, t, -1)
    if tok.kind == "S":
        t2 = a + 1 if t == a else a
        unit = Fraction(-1 if t == a else 1)
        tmp = {}
        old_append_letter(d, top, g, rest, tok, Fraction(1), tmp)
        for dd, c in tmp.items():
            old_regularize(d, _dots(dd.top_dots), dd.diagram,
                           _bump(_dots(dd.bottom_dots), t2), coeff * c, out)
        old_append_letter(d, top, g, rest, E(a), -coeff, out)
        old_regularize(d, top, g, rest, unit * coeff, out)
        return
    word = _cw(g)
    (side, land), corr = old_journey(word, d, len(word), t, True)
    for sgn, w2 in corr:
        for g2, c2 in _compose(w2, d).terms.items():
            old_append_letter(d, top, g2, rest, tok, coeff * sgn * c2, out)
    if side == "top":
        old_append_letter(d, _bump(top, land), g, rest, tok, coeff, out)
    else:
        old_append_letter(d, top, g, _bump(rest, land), tok, coeff, out)


def old_append_word(d, terms, word):
    for tok in word:
        nxt = {}
        for dd, c in terms.items():
            top = _dots(dd.top_dots)
            bottom = _dots(dd.bottom_dots)
            if tok.kind == "Y":
                old_regularize(d, top, dd.diagram, _bump(bottom, tok.index),
                               c, nxt)
            else:
                old_append_letter(d, top, dd.diagram, bottom, tok, c, nxt)
        terms = nxt
        if not terms:
            break
    return terms


def old_normalize(word, d):
    return PdElement(d, old_append_word(d, {DotDiagram.bare(d): Fraction(1)},
                                        tuple(word)))


def old_multiply(x, y):
    acc = {}
    for v, cv in y.terms.items():
        for u, cu in x.terms.items():
            for dd, c in old_append_word(x.d, {u: cu * cv},
                                         word_expansion(v)).items():
                _emit(acc, dd, c)
    return PdElement(x.d, acc)


def test_dot_powers_match_the_old_walk():
    for k in range(17):
        word = [S(1)] + [Y(1)] * k
        assert normalize(word, 2) == old_normalize(word, 2), k


def random_word(rng, longest, alphabet=ALPHABET_D3):
    return [rng.choice(alphabet) for _ in range(rng.randint(0, longest))]


def test_random_d3_words_match_the_old_walk():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(300):
        word = random_word(rng, 9)
        mismatches += normalize(word, 3) != old_normalize(word, 3)
    for _ in range(30):
        x = normalize(random_word(rng, 4), 3)
        y = normalize(random_word(rng, 4), 3)
        mismatches += multiply(x, y) != old_multiply(x, y)
    assert mismatches == 0


def test_random_d4_words_match_the_old_walk():
    rng = random.Random(2025)
    words = []
    while len(words) < 100:
        word = random_word(rng, 7, ALPHABET_D4)
        if sum(t.kind == "Y" for t in word) <= 3:
            words.append(word)
    mismatches = sum(normalize(w, 4) != old_normalize(w, 4) for w in words)
    assert mismatches == 0


def test_journey_matches_the_two_branch_walk():
    # every start the engine uses: a bottom dot entering below the word,
    # moving up, and a top dot entering above it, moving down
    starts = 0
    for d in range(1, 5):
        for g in enumerate_diagrams(d):
            word = _cw(g)
            for idx in range(1, d + 1):
                for pos, moving_up in ((len(word), True), (0, False)):
                    assert (_journey(word, d, pos, idx, moving_up)
                            == old_journey(word, d, pos, idx, moving_up))
                    starts += 1
    assert starts == 2 * (1 + 2 * 3 + 3 * 15 + 4 * 105)
