"""`diagram_of_word` runs its word on the witness inputs only; checked here
against the full-image read it replaced.

The oracle builds the word's whole image at n = d (4,096 columns at d = 4)
and reads every diagram's coefficient at its witness coordinate.  The route
under test applies the word to each distinct witness input alone, 10 basis
vectors at d = 4, and must read the same coefficients, builds no image and
raises what the full-image read raised.
"""

import itertools
import random

import pytest

from periplectic import brauer, tensoraction
from periplectic.brauer import _read_diagrams, _witnesses, diagram_of_word
from periplectic.tensoraction import E, S, TensorSpaceSpec, Y, evaluate_word


def full_image_read(word, d):
    """The coefficients of `word` read from its whole image at n = d."""
    return _read_diagrams(d, evaluate_word(word, TensorSpaceSpec(d, 0, d))
                          .columns.get)


def letters(d):
    return ([S(a) for a in range(1, d)] + [E(a) for a in range(1, d)]
            + [Y(j) for j in range(1, d + 1)])


def distinct_inputs(d):
    return {i for _g, i, _o, _v in _witnesses(d)}


# d -> longest word over S, E and Y letters
EXHAUSTIVE = {1: 6, 2: 6, 3: 5, 4: 4}


@pytest.mark.parametrize("d,longest", sorted(EXHAUSTIVE.items()))
def test_route_matches_the_full_image_on_every_word(d, longest):
    alphabet = letters(d)
    mismatches = words = 0
    for k in range(longest + 1):
        # the first letter varies fastest, so each word is one letter
        # prepended to the cached image of the word before
        for reversed_word in itertools.product(alphabet, repeat=k):
            word = reversed_word[::-1]
            words += 1
            mismatches += diagram_of_word(word, d) != full_image_read(word, d)
    assert words == sum(len(alphabet) ** k for k in range(longest + 1))
    assert mismatches == 0
    # the images at (4, 0, 4) hold a few hundred MB; later tests need none
    tensoraction._evaluate_raw.cache_clear()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_the_empty_word_is_the_identity(d):
    one = brauer.ADElement.one(d)
    assert diagram_of_word((), d) == full_image_read((), d) == one
    assert diagram_of_word([], d) == one


LOOPS = [
    (2, (E(1), E(1))),
    (2, (E(1), Y(1), E(1))),
    (3, (E(1), S(2), S(1), E(2), S(1), S(2), E(1))),
    (3, (E(1), E(2), E(1), E(1))),
    (3, (E(2), S(1), S(1), E(2))),
    (4, (E(1), E(3), S(2), E(1), E(3), S(2), E(1))),
    (4, (E(1), E(3), S(2), S(2), E(1), E(3))),
    (4, (S(1), E(2), E(2), S(3))),
    (4, (E(3), Y(3), Y(4), E(3), S(1))),
]


@pytest.mark.parametrize("d,word", LOOPS)
def test_words_that_close_a_loop_resolve_to_zero(d, word):
    if all(tok.kind != "Y" for tok in word):
        assert brauer.stack_word(word, d).is_zero()
    assert diagram_of_word(word, d) == full_image_read(word, d)
    assert diagram_of_word(word, d).is_zero()


def test_route_matches_the_full_image_on_long_words():
    rng = random.Random(2401)
    # S letters three times as often as E letters, so that fewer words
    # close a loop
    pool = letters(4)[:3] * 3 + letters(4)[3:6]
    mismatches = nonzero = 0
    for _ in range(500):
        word = [rng.choice(pool) for _ in range(rng.randint(8, 16))]
        for _ in range(rng.randint(0, 2)):
            word.insert(rng.randint(0, len(word)), Y(rng.randint(1, 4)))
        got = diagram_of_word(word, 4)
        mismatches += got != full_image_read(word, 4)
        nonzero += not got.is_zero()
    assert mismatches == 0
    assert nonzero == 218


# cost, counted -------------------------------------------------------------

@pytest.mark.parametrize("d,count", [(3, 4), (4, 10)])
def test_route_builds_no_image(monkeypatch, d, count):
    _witnesses(d)    # the witnesses' own words run before the count starts
    tensoraction._evaluate_raw.cache_clear()
    apply = tensoraction.apply_word_to_vector
    calls = []

    def counted(word, spec, vec):
        calls.append((word, spec, tuple(vec.items())))
        return apply(word, spec, vec)

    monkeypatch.setattr(tensoraction, "apply_word_to_vector", counted)
    rng = random.Random(2402 + d)
    spec = TensorSpaceSpec(d, 0, d)
    assert len(distinct_inputs(d)) == count
    for _ in range(50):
        word = tuple(rng.choice(letters(d)[:2 * d - 2])
                     for _ in range(rng.randint(0, 7)))
        calls.clear()
        diagram_of_word(word, d)
        assert len(calls) == count
        assert {w for w, _s, _v in calls} == {word}
        assert {s for _w, s, _v in calls} == {spec}
        assert sorted(v for _w, _s, v in calls) == sorted(
            ((i, 1),) for i in distinct_inputs(d))
    assert tensoraction._evaluate_raw.cache_info().currsize == 0


# validation ----------------------------------------------------------------

REFUSED = [
    ((S(4),), 4, "token S(4) out of range for d=4"),
    ((E(0),), 4, "token E(0) out of range for d=4"),
    ((Y(5),), 4, "token Y(5) out of range for d=4"),
    ((S(1),), 5,
     "diagram_of_word evaluates on (2d)^d dimensions; d=5 is above its 4"),
    ((), 0, "bad tensor space spec TensorSpaceSpec(n=0, m=0, d=0)"),
]


@pytest.mark.parametrize("word,d,message", REFUSED)
def test_refusals_come_before_any_generator_table(monkeypatch, word, d,
                                                  message):
    def refuse(*args):
        raise AssertionError("a generator table was built")

    monkeypatch.setattr(tensoraction, "_op_columns_cached", refuse)
    monkeypatch.setattr(brauer, "_witnesses", refuse)
    with pytest.raises(ValueError) as raised:
        diagram_of_word(word, d)
    assert str(raised.value) == message
