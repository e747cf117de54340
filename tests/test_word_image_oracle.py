"""Word images built from the left against the prefix route they replace.

`_evaluate_raw` builds the image of x w by adding the first letter x to the
cached image of w.  The oracle is the route it replaced, copied below: each
word extends its one-shorter prefix by one column application per column.
A second oracle applies the word to each basis vector.  Both must give the
same column tables, from a cold cache and after unrelated words filled it,
and on words past the depth bound.  The sharing the memory saving rests on
is pinned too: an S letter keeps the +1 columns of the rest's image as the
same dicts, and an E letter gives all inputs with one rest one dict.
"""

import random

from hypothesis import given, settings, strategies as st

from periplectic import kernels, tensoraction
from periplectic.tensoraction import (E, S, TensorSpaceSpec, Y,
                                      _op_columns_cached,
                                      apply_word_to_vector, evaluate_word)

_PREFIX_DEPTH = 128


def prefix_raw(word, spec):
    """The prefix-extending `_evaluate_raw` of the parent route, without
    its cache."""
    if not word:
        return {t: {t: 1} for t in range(spec.dim)}
    cut = min(len(word) - 1, _PREFIX_DEPTH)
    out = prefix_raw(word[:cut], spec)
    for tok in word[cut:]:
        cols = _op_columns_cached(spec, tok.kind, tok.index)
        out = {t: image for t, vec in out.items()
               if (image := kernels.apply_columns(cols, vec))}
    return out


def vector_route(word, spec):
    return {t: col for t in range(spec.dim)
            if (col := apply_word_to_vector(word, spec, {t: 1}))}


# n = 1..3, m = 0..3, d = 2..4, up to 1,296 dimensions
SPACES = tuple(TensorSpaceSpec(n, m, d) for n in (1, 2, 3)
               for m in range(4) for d in (2, 3, 4)
               if (2 * n) ** (m + d) <= 1296)
BIG = TensorSpaceSpec(4, 0, 4)


def letters(d, dots=True):
    out = [S(a) for a in range(1, d)] + [E(a) for a in range(1, d)]
    return out + [Y(j) for j in range(1, d + 1)] if dots else out


def assert_both_oracles(word, spec):
    got = evaluate_word(word, spec).columns
    assert got == prefix_raw(word, spec), (spec, word)
    assert got == vector_route(word, spec), (spec, word)


@st.composite
def spaced_words(draw):
    spec = draw(st.sampled_from(SPACES))
    word = draw(st.lists(st.sampled_from(letters(spec.d)), max_size=6))
    return spec, tuple(word)


@given(spaced_words())
@settings(max_examples=150, deadline=None)
def test_images_match_both_oracles(case):
    spec, word = case
    assert_both_oracles(word, spec)


def seeded_words(seed, count, spaces, dots=True, longest=6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        spec = rng.choice(spaces)
        alphabet = letters(spec.d, dots)
        out.append((spec, tuple(rng.choice(alphabet)
                                for _ in range(rng.randint(0, longest)))))
    return out


def test_cold_and_warm_caches_give_the_oracles_images():
    targets = seeded_words(2001, 60, SPACES)
    tensoraction._evaluate_raw.cache_clear()
    for spec, word in targets:
        assert_both_oracles(word, spec)
    for spec, word in seeded_words(2002, 200, SPACES):
        evaluate_word(word, spec)
    for spec, word in targets:
        assert_both_oracles(word, spec)


def test_dotless_words_on_four_strands_at_n_4():
    tensoraction._evaluate_raw.cache_clear()
    words = [w for _, w in seeded_words(2003, 6, (BIG,), dots=False, longest=5)]
    words += [(S(1), S(2), S(3)), (E(2), S(1), S(3), E(2)), (E(1), E(3))]
    for word in words:
        got = evaluate_word(word, BIG).columns
        assert got == prefix_raw(word, BIG), word
    # the vector oracle on the first two words only: it is the slow one
    for word in words[-3:-1]:
        assert evaluate_word(word, BIG).columns == vector_route(word, BIG)


def long_word(rng, spec, length):
    """Mostly S letters, with an E and a Y among the first letters the
    depth bound leaves out; drawn again until the image is nonzero."""
    d = spec.d
    while True:
        word = [S(rng.randint(1, d - 1)) for _ in range(length)]
        lead = length - _PREFIX_DEPTH
        word[rng.randrange(lead)] = Y(rng.randint(1, d))
        word[rng.randrange(lead)] = E(rng.randint(1, d - 1))
        if vector_route(word, spec):
            return tuple(word)


def test_words_past_the_depth_bound_match_both_oracles():
    rng = random.Random(2004)
    for spec, length in ((TensorSpaceSpec(1, 1, 3), 129),
                         (TensorSpaceSpec(1, 1, 3), 131),
                         (TensorSpaceSpec(2, 0, 3), 200),
                         (TensorSpaceSpec(1, 2, 3), 300)):
        word = long_word(rng, spec, length)
        for warm in (False, True):
            if not warm:
                tensoraction._evaluate_raw.cache_clear()
            got = evaluate_word(word, spec).columns
            assert got == prefix_raw(word, spec)
            assert got == vector_route(word, spec)


def test_the_letters_past_the_bound_are_added_last_first():
    # 130 letters leave two letters out of the cached suffix: the order in
    # which they are added shows at once
    spec = TensorSpaceSpec(1, 0, 3)
    word = (S(1), S(2)) + (S(1), S(1)) * 64
    tensoraction._evaluate_raw.cache_clear()
    assert evaluate_word(word, spec).columns == prefix_raw(word, spec)
    assert (evaluate_word(word, spec).columns
            != evaluate_word((S(2), S(1)), spec).columns)


def test_an_s_letter_keeps_the_rests_plus_one_columns():
    spec = TensorSpaceSpec(2, 1, 3)
    rest = (Y(1), S(1))
    image = tensoraction._evaluate_raw((S(2),) + rest, spec)
    rest_image = tensoraction._evaluate_raw(rest, spec)
    table = _op_columns_cached(spec, "S", 2)
    shared = negated = 0
    for t, [(r, sign)] in table.items():
        if r not in rest_image:
            assert t not in image
        elif sign == 1:
            assert image[t] is rest_image[r]
            shared += 1
        else:
            assert image[t] is not rest_image[r]
            assert image[t] == {k: -v for k, v in rest_image[r].items()}
            negated += 1
    assert shared and negated


def test_an_e_letter_shares_one_column_per_rest():
    spec = TensorSpaceSpec(2, 1, 3)
    rest = (S(1), Y(2))
    image = tensoraction._evaluate_raw((E(1),) + rest, spec)
    by_rest = {}
    for t, col in image.items():
        dg = spec.digits(t)
        by_rest.setdefault(dg[:1] + dg[3:], []).append(col)
    assert by_rest
    for cols in by_rest.values():
        assert len(cols) == 2 * spec.n
        assert all(col is cols[0] for col in cols)
