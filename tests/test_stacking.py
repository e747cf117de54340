"""Diagram products by stacking with path signs, checked from outside.

`brauer.stack_word` and `brauer.multiply` evaluate no representation.  Their
oracles here are the witness reads of the faithful image at n = d
(`diagram_of_word`, and the old product through psi images), and, past the
four strands the witness route reaches, the tensor-space images at n = 2.
"""

import itertools
import random
from fractions import Fraction

import pytest

from periplectic import affine, tensoraction
from periplectic.affine import normalize, pi_m, pi_m_word, tensor_image
from periplectic.brauer import (ADElement, BrauerDiagram, _read_diagrams,
                                canonical_length, canonical_word,
                                diagram_of_word, enumerate_diagrams,
                                jm_element, multiply, psi_image, stack_word)
from periplectic.tensoraction import E, S, TensorSpaceSpec, Y, evaluate_word


def se_letters(d):
    return [S(a) for a in range(1, d)] + [E(a) for a in range(1, d)]


# the rule against the witness route -----------------------------------------

@pytest.mark.parametrize("d,longest", [(2, 6), (3, 6), (4, 5)])
def test_stacking_matches_the_witness_route_on_every_word(d, longest):
    mismatches = words = 0
    for k in range(longest + 1):
        for word in itertools.product(se_letters(d), repeat=k):
            words += 1
            mismatches += stack_word(word, d) != diagram_of_word(word, d)
    assert words == sum((2 * d - 2) ** k for k in range(longest + 1))
    assert mismatches == 0


def test_diagram_of_word_stays_on_four_strands():
    with pytest.raises(ValueError, match="above its 4"):
        diagram_of_word((S(1),), 5)


def test_stack_word_refuses_dots():
    with pytest.raises(ValueError, match="S and E letters"):
        stack_word((S(1), Y(1)), 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_canonical_length_counts_the_word_up_to_its_limit(d):
    for g in enumerate_diagrams(d):
        n = len(canonical_word(g))
        assert canonical_length(g, n) == n
        if n:
            assert canonical_length(g, n - 1) > n - 1


# multiply against the psi-image product ------------------------------------

def psi_product(x, y):
    """x*y read at the witnesses of Mat(y) . Mat(x) at n = d."""
    d = x.d
    mx, my = psi_image(x, d), psi_image(y, d)
    return _read_diagrams(d, lambda c: my.apply_dict(mx.columns.get(c, {})))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_multiply_matches_the_psi_product_on_every_pair(d):
    basis = [ADElement.from_diagram(g) for g in enumerate_diagrams(d)]
    assert sum(multiply(x, y) != psi_product(x, y)
               for x in basis for y in basis) == 0


def random_element(rng, d):
    diagrams = enumerate_diagrams(d)
    return ADElement(d, {g: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for g in rng.sample(diagrams, rng.randint(1, 6))})


def test_multiply_matches_the_psi_product_at_four_strands():
    rng = random.Random(1301)
    pairs = [(random_element(rng, 4), random_element(rng, 4))
             for _ in range(25)]
    pairs += [(jm_element(i, 4), jm_element(j, 4))
              for i in range(1, 5) for j in range(1, 5)]
    assert sum(multiply(x, y) != psi_product(x, y) for x, y in pairs) == 0


# past four strands ---------------------------------------------------------

def random_word(rng, d, length, dots):
    word = [rng.choice(se_letters(d)) for _ in range(length)]
    for _ in range(dots):
        word.insert(rng.randint(0, len(word)), Y(rng.randint(1, d)))
    return word


@pytest.mark.parametrize("d,count", [(5, 60), (6, 12)])
def test_normal_forms_past_four_strands_are_sound(d, count):
    rng = random.Random(1300 + d)
    spec = TensorSpaceSpec(2, 0, d)
    mismatches = 0
    for _ in range(count):
        word = random_word(rng, d, rng.randint(1, 6), rng.randint(0, 2))
        mismatches += (tensor_image(normalize(word, d), spec)
                       != evaluate_word(word, spec))
    assert mismatches == 0


def test_shift_images_on_five_strands_match_the_word():
    # psi_2(pi_3(u)) is the image of u on V^(x)3 (x) V^(x)2
    rng = random.Random(1305)
    spec = TensorSpaceSpec(2, 3, 2)
    mismatches = 0
    for _ in range(40):
        word = random_word(rng, 2, rng.randint(0, 3), rng.randint(0, 2))
        image = pi_m(normalize(word, 2), 3)
        assert image == pi_m_word(word, 2, 3)
        mismatches += (psi_image(image, 2).columns
                       != evaluate_word(word, spec).columns)
    assert mismatches == 0


def test_the_engine_reaches_no_tensor_space(monkeypatch):
    affine._compose.cache_clear()
    affine._normalize_cached.cache_clear()
    tensoraction._evaluate_raw.cache_clear()

    def refuse(*args):
        raise AssertionError("the engine built a generator table")

    monkeypatch.setattr(tensoraction, "_op_columns_cached", refuse)
    d = 5
    x = normalize([E(1), Y(2), S(2), E(3), S(4), Y(5)], d)
    y = normalize([S(1), Y(1), E(4), S(3), Y(2), E(2)], d)
    assert not x.is_zero() and not y.is_zero()
    assert not affine.multiply(x, y).is_zero()
    assert not pi_m(x, 1).is_zero()
    g, h = (BrauerDiagram.eps_generator(d, 2),
            BrauerDiagram.s_generator(d, 3))
    assert multiply(ADElement.from_diagram(g), ADElement.from_diagram(h)) \
        == stack_word((E(2), S(3)), d)
    with pytest.raises(AssertionError, match="generator table"):
        evaluate_word([S(1)], TensorSpaceSpec(2, 0, d))
