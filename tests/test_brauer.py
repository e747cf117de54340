import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from periplectic.brauer import (ADElement, BrauerDiagram, _read_diagrams,
                                _witnesses, canonical_word, diagram_of_word,
                                diagram_record, enumerate_diagrams,
                                jm_element, marked_pair,
                                matching_of_operator, multiply, psi_image)
from periplectic.exactla import Echelon, mat_mul, rank, solve_in_span
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
    assert list(w) == [S(1)]


def test_marked_pair_12_marked():
    w = marked_pair(1, 2, 2)
    assert list(w) == [E(1)]


def test_marked_pair_13_conjugated():
    w = marked_pair(1, 3, 3)
    assert list(w) == [S(1), E(2), S(1)]


def test_identity_word_is_empty():
    assert list(canonical_word(BrauerDiagram.identity(3))) == []


def test_cupcap_word_is_single_bend():
    g = BrauerDiagram.eps_generator(2, 1)
    assert list(canonical_word(g)) == [E(1)]


def test_three_cycle_word_is_two_crossings():
    g = BrauerDiagram.from_permutation(3, {1: 2, 2: 3, 3: 1})
    w = canonical_word(g)
    assert len(w) == 2 and all(t.kind == "S" for t in w)
    # the image under the faithful representation has the right support
    op = evaluate_word(list(w), TensorSpaceSpec(3, 0, 3))
    perms = {tuple(op.spec.digits(j)): tuple(op.spec.digits(i))
             for (i, j) in op.matrix.entries}
    src = (0, 1, 2)
    assert perms[src] == (2, 0, 1)


def test_every_word_reproduces_its_diagram():
    for d in (1, 2, 3, 4):
        for g in enumerate_diagrams(d):
            x = diagram_of_word(list(canonical_word(g)), d)
            assert x == ADElement.from_diagram(g)


def stack(g, h):
    """The matching of g drawn on top of h, and whether a closed loop formed.

    Pictures only: g's bottom vertex -k is glued to h's top vertex k, and
    each path from an outer vertex is followed through the glued row.
    """
    d = g.d
    nbr = {}
    for diagram, upper, lower in ((g, "T", "M"), (h, "M", "B")):
        ends = [[(upper if v > 0 else lower, abs(v)) for v in pair]
                for pair in diagram.matching]
        for x, y in ends:
            nbr.setdefault(x, []).append(y)
            nbr.setdefault(y, []).append(x)
    pairs, seen = [], set()
    for start in [(row, k) for row in "TB" for k in range(1, d + 1)]:
        if start in seen:
            continue
        prev, cur = start, nbr[start][0]
        while cur[0] == "M":
            seen.add(cur)
            a, b = nbr[cur]
            prev, cur = cur, (b if a == prev else a)
        seen.update((start, cur))
        pairs.append(tuple(k if row == "T" else -k for row, k in (start, cur)))
    loop = len(seen) < 3 * d
    return BrauerDiagram(d, pairs), loop


def stacked_word(word, d):
    letters = {"S": BrauerDiagram.s_generator, "E": BrauerDiagram.eps_generator}
    acc = BrauerDiagram.identity(d)
    for tok in word:
        acc, loop = stack(acc, letters[tok.kind](d, tok.index))
        assert not loop
    return acc


def test_stacking_agrees_with_the_representation():
    g = BrauerDiagram.eps_generator(3, 1)
    assert stack(g, g)[1]
    for w in ([S(1), E(2)], [E(1), S(2), E(1)], [S(2), S(1), S(2)]):
        # the representation also carries a sign, which stacking ignores
        assert list(diagram_of_word(w, 3).terms) == [stacked_word(w, 3)]


@pytest.mark.parametrize("d,sample", [(4, None), (5, None), (6, 300)])
def test_canonical_words_stack_to_their_diagram(d, sample):
    # beyond d = 4, where diagram_of_word refuses the word
    diagrams = enumerate_diagrams(d)
    if sample:
        diagrams = random.Random(d).sample(diagrams, sample)
    for g in diagrams:
        assert stacked_word(canonical_word(g), d) == g
    assert diagram_record.cache_info().maxsize == 2048


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matching_of_operator_reads_back_every_diagram(d):
    for n in (d, d + 1):
        spec = TensorSpaceSpec(n, 0, d)
        for g in enumerate_diagrams(d):
            op = evaluate_word(canonical_word(g), spec)
            assert matching_of_operator(op, d) == g


# witnesses -----------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_each_witness_sees_its_own_diagram_only(d):
    spec = TensorSpaceSpec(d, 0, d)
    witnesses = _witnesses(d)
    assert [w[0] for w in witnesses] == list(enumerate_diagrams(d))
    for h in enumerate_diagrams(d):
        cols = evaluate_word(canonical_word(h), spec).columns
        for g, i, o, value in witnesses:
            seen = cols.get(i, {}).get(o, 0)
            if g == h:
                assert value in (1, -1) and seen == value
            else:
                assert seen == 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_read_diagrams_agrees_with_the_matching_pattern(d):
    spec = TensorSpaceSpec(d, 0, d)
    for g in enumerate_diagrams(d):
        op = evaluate_word(canonical_word(g), spec)
        assert (_read_diagrams(d, op.columns.get)
                == ADElement.from_diagram(matching_of_operator(op, d)))


# the exact solve over all (2d)^(2d) coordinates, kept as the oracle of the
# witness reads

def _flatten(entries, dim):
    return {r * dim + c: v for (r, c), v in entries.items()}


@lru_cache(maxsize=None)
def _span_solver(d):
    """All diagrams on d strands, and an exact echelon over their flattened
    images at n = d in which each image is tagged with its diagram's index."""
    diagrams = enumerate_diagrams(d)
    dim = TensorSpaceSpec(d, 0, d).dim
    echelon = Echelon(dim ** 2)
    for idx, g in enumerate(diagrams):
        image = psi_image(ADElement.from_diagram(g), d)
        assert echelon.add(_flatten(image.matrix.entries, dim), idx)
    return diagrams, echelon


def _solve_diagrams(d, matrix):
    """The ADElement whose image at n = d has this SparseMatrix."""
    diagrams, echelon = _span_solver(d)
    combo = echelon.solve(_flatten(matrix.entries, matrix.nrows))
    return ADElement(d, {diagrams[i]: c for i, c in combo.items()})


WORD_SETS = {2: 4, 3: 4, 4: 3}   # d -> longest S/E word


@pytest.mark.parametrize("d", sorted(WORD_SETS))
def test_words_match_the_span_solve(d):
    letters = [S(a) for a in range(1, d)] + [E(a) for a in range(1, d)]
    spec = TensorSpaceSpec(d, 0, d)
    mismatches = 0
    for k in range(WORD_SETS[d] + 1):
        for word in itertools.product(letters, repeat=k):
            want = _solve_diagrams(d, evaluate_word(word, spec).matrix)
            mismatches += diagram_of_word(list(word), d) != want
    assert mismatches == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_products_match_the_span_solve(d):
    rng = random.Random(40 + d)
    diagrams = enumerate_diagrams(d)
    mismatches = 0
    for _ in range(20):
        x, y = (ADElement(d, {g: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for g in rng.sample(diagrams, rng.randint(1, 3))})
                for _ in range(2))
        product = mat_mul(psi_image(y, d).matrix, psi_image(x, d).matrix)
        mismatches += multiply(x, y) != _solve_diagrams(d, product)
    assert mismatches == 0


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
        acc = acc.add(evaluate_word(canonical_word(g), spec), c)
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
