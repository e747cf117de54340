"""`brauer.diagram_record` against the four facts rebuilt from scratch.

The record holds, for each diagram g, the canonical word, the word's sign
at g's witness coordinate and the right ends of g's cups and caps.  Here
the word is rebuilt by a bubble sort that restarts its scan after every
swap, the sign by stacking that word, and the bend ends from `g.cups()`
and `g.caps()`; on four strands or fewer the sign is also read off the
representation at g's witness.
"""

import random

import pytest

from periplectic.brauer import (BrauerDiagram, _stacked, _witnesses,
                                canonical_word, diagram_record,
                                enumerate_diagrams)
from periplectic.tensoraction import E, S


def old_word(g):
    """Marked pairs for the cups in order of left end, matched with the caps
    in the same order, then the bubble sort of the rest."""
    d = g.d
    word, perm = [], {}
    for (a, b), (c, e) in zip(sorted(g.cups()), sorted(g.caps())):
        chain = [S(k) for k in range(a, b - 1)]
        word += chain + [E(b - 1)] + chain[::-1]
        perm[a], perm[b] = c, e
    for t, b in g.strands():
        perm[t] = b
    line = [perm[i] for i in range(1, d + 1)]
    swapped = True
    while swapped:
        swapped = False
        for k in range(d - 1):
            if line[k] > line[k + 1]:
                line[k], line[k + 1] = line[k + 1], line[k]
                word.append(S(k + 1))
                swapped = True
                break
    return tuple(word)


def diagrams():
    for d in range(1, 6):
        yield from enumerate_diagrams(d)
    yield from random.Random(6).sample(enumerate_diagrams(6), 300)


def test_every_record_holds_the_four_facts():
    count = 0
    for g in diagrams():
        record = diagram_record(g)
        word = old_word(g)
        assert record.diagram == g
        assert record.word == word == canonical_word(g)
        assert record.sign == _stacked(word, g.d)[1]
        assert record.cup_ends == {r for _l, r in g.cups()}
        assert record.cap_ends == {r for _l, r in g.caps()}
        # an equal copy gets back the diagram first seen
        copy = BrauerDiagram(g.d, g.matching)
        assert copy is not record.diagram
        assert diagram_record(copy).diagram is record.diagram
        count += 1
    assert count == 1069 + 300
    assert diagram_record.cache_info().maxsize == 2048


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_record_sign_is_the_word_at_the_witness(d):
    for g, _i, _o, value in _witnesses(d):
        assert diagram_record(g).sign == value
