import random
from fractions import Fraction

import pytest

from periplectic.brauer import (ADElement, BrauerDiagram, canonical_word,
                                diagram_of_word, enumerate_diagrams,
                                jm_element, marked_pair, matching_of_operator,
                                multiply, psi_image)
from periplectic.exactla import rank, solve_in_span
from periplectic.tensoraction import (E, EndoOperator, S, TensorSpaceSpec,
                                      evaluate_word)


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_diagram_count(d):
    diagrams = enumerate_diagrams(d)
    assert len(diagrams) == double_factorial(2 * d - 1)
    assert len(set(diagrams)) == len(diagrams)


def test_enumeration_is_deterministic():
    assert enumerate_diagrams(3) == enumerate_diagrams(3)


def test_every_vertex_matched_once():
    for g in enumerate_diagrams(3):
        seen = [v for pair in g.matching for v in pair]
        assert sorted(seen) == [-3, -2, -1, 1, 2, 3]


# canonical words -----------------------------------------------------------

def test_marked_pair_12_transposition():
    w = marked_pair(1, 2, 2, kind="transposition")
    assert list(w.word) == [S(1)]


def test_marked_pair_12_marked():
    w = marked_pair(1, 2, 2)
    assert list(w.word) == [E(1)]


def test_marked_pair_13_conjugated():
    w = marked_pair(1, 3, 3)
    assert list(w.word) == [S(1), E(2), S(1)]


def test_identity_word_is_empty():
    assert list(canonical_word(BrauerDiagram.identity(3)).word) == []


def test_cupcap_word_is_single_bend():
    g = BrauerDiagram.eps_generator(2, 1)
    assert list(canonical_word(g).word) == [E(1)]


def test_three_cycle_word_is_two_crossings():
    g = BrauerDiagram.from_permutation(3, {1: 2, 2: 3, 3: 1})
    w = canonical_word(g)
    assert len(w.word) == 2 and all(t.kind == "S" for t in w.word)
    # the image under the faithful representation has the right support
    op = evaluate_word(list(w.word), TensorSpaceSpec(3, 0, 3))
    perms = {tuple(op.spec.digits(j)): tuple(op.spec.digits(i))
             for (i, j) in op.matrix.entries}
    src = (0, 1, 2)
    assert perms[src] == (2, 0, 1)


def test_every_word_reproduces_its_diagram():
    for d in (1, 2, 3):
        for g in enumerate_diagrams(d):
            x = diagram_of_word(list(canonical_word(g).word), d)
            assert list(x.terms) == [g]
            assert abs(list(x.terms.values())[0]) == 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matching_of_operator_reads_back_every_diagram(d):
    for n in (d, d + 1):
        spec = TensorSpaceSpec(n, 0, d)
        for g in enumerate_diagrams(d):
            op = evaluate_word(canonical_word(g).word, spec)
            assert matching_of_operator(op, d) == g


# multiplication ------------------------------------------------------------

def s_hat(d, a):
    return ADElement.from_diagram(BrauerDiagram.s_generator(d, a))


def eps_hat(d, a):
    return ADElement.from_diagram(BrauerDiagram.eps_generator(d, a))


def test_s1_squared_is_one():
    assert multiply(s_hat(2, 1), s_hat(2, 1)) == ADElement.one(2)


def test_eps1_squared_is_zero():
    assert multiply(eps_hat(2, 1), eps_hat(2, 1)).is_zero()


def test_absorption_signs():
    assert multiply(eps_hat(2, 1), s_hat(2, 1)) == eps_hat(2, 1).scaled(-1)
    assert multiply(s_hat(2, 1), eps_hat(2, 1)) == eps_hat(2, 1)


def test_loop_products_vanish():
    # a closed loop kills the product: eps*s*eps = (-eps)*eps = 0
    e1 = eps_hat(2, 1)
    assert multiply(multiply(e1, s_hat(2, 1)), e1).is_zero()


def test_adjacent_bend_zigzag():
    # the two-letter zigzags contract with a minus sign
    e1, e2 = eps_hat(3, 1), eps_hat(3, 2)
    assert multiply(multiply(e2, e1), e2) == e2.scaled(-1)
    assert multiply(multiply(e1, e2), e1) == e1.scaled(-1)


def test_multiply_associative_on_random_triples():
    rng = random.Random(3)
    for d in (2, 3):
        basis = [ADElement.from_diagram(g) for g in enumerate_diagrams(d)]
        for _ in range(12):
            x, y, z = (rng.choice(basis) for _ in range(3))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_product_independent_of_representation_size():
    # recompute a batch of products through the larger faithful image
    d = 2
    spec_big = TensorSpaceSpec(d + 1, 0, d)

    def flat(op):
        dim = op.spec.dim
        return {i * dim + j: v for (i, j), v in op.matrix.entries.items()}

    diagrams = enumerate_diagrams(d)
    basis = [flat(psi_image(ADElement.from_diagram(g), d + 1)) for g in diagrams]
    for x in diagrams:
        for y in diagrams:
            xe, ye = ADElement.from_diagram(x), ADElement.from_diagram(y)
            small = multiply(xe, ye)
            mat = psi_image(ye, d + 1).compose(psi_image(xe, d + 1))
            coeffs = solve_in_span(basis, flat(mat))
            big = {g: c for g, c in zip(diagrams, coeffs) if c}
            assert small.terms == big


# faithfulness --------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_psi_images_independent_at_n_equals_d(d):
    diagrams = enumerate_diagrams(d)
    dim = (2 * d) ** d
    rows = {}
    for r, g in enumerate(diagrams):
        op = psi_image(ADElement.from_diagram(g), d)
        for (i, j), v in op.matrix.entries.items():
            rows[(r, i * dim + j)] = v
    from periplectic.exactla import SparseMatrix
    assert rank(SparseMatrix(len(diagrams), dim * dim, rows)) == len(diagrams)


def _psi_by_fold(x, n):
    """The image of x as a sum of canonical-word images, one at a time."""
    spec = TensorSpaceSpec(n, 0, x.d)
    acc = EndoOperator.zero(spec)
    for g, c in x.terms.items():
        acc = acc.add(evaluate_word(canonical_word(g).word, spec), c)
    return acc


@pytest.mark.parametrize("d", [1, 2, 3])
def test_psi_image_matches_the_fold_of_word_images(d):
    rng = random.Random(500 + d)
    diagrams = enumerate_diagrams(d)
    elements = [ADElement.zero(d), jm_element(d, d)]
    for _ in range(6):
        picks = rng.sample(diagrams, rng.randint(1, len(diagrams)))
        elements.append(ADElement(d, {g: Fraction(rng.randint(-6, 6),
                                                  rng.randint(1, 4))
                                      for g in picks}))
    for n in (d, d + 1):
        for x in elements:
            assert psi_image(x, n) == _psi_by_fold(x, n)


# commuting family ----------------------------------------------------------

def test_first_element_is_zero():
    assert jm_element(1, 3).is_zero()


def test_second_element_has_two_terms():
    z2 = jm_element(2, 2)
    assert len(z2.terms) == 2
    assert set(z2.terms.values()) == {Fraction(1)}
    kinds = {g.is_permutation() for g in z2.terms}
    assert kinds == {True, False}


@pytest.mark.parametrize("j", [1, 2, 3])
def test_matches_tensor_dot_operator(j):
    from periplectic.tensoraction import Y, evaluate_word
    lhs = evaluate_word([Y(j)], TensorSpaceSpec(3, 0, 3))
    assert lhs == psi_image(jm_element(j, 3), 3)


@pytest.mark.parametrize("d", [2, 3])
def test_pinched_powers_vanish(d):
    for i in range(1, d):
        eps = eps_hat(d, i)
        power = ADElement.one(d)
        for _k in range(4):
            assert multiply(multiply(eps, power), eps).is_zero()
            power = multiply(power, jm_element(i, d))
