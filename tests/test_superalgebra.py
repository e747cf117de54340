import random
from fractions import Fraction

import pytest

from periplectic.exactla import solve_in_span
from periplectic.superalgebra import (ParityIndex, SuperMatrix, is_pn_member,
                                      odd_form, pn_basis_with_duals,
                                      superbracket, supertrace)


def e(i, j, val=1):
    """0-based block dict with a single entry at (i-1, j-1)."""
    return {(i - 1, j - 1): Fraction(val)}


def find(pairs, kind, indices):
    hits = [p for p in pairs if p.kind == kind and p.indices == indices]
    assert len(hits) == 1
    return hits[0]


# --- supertrace ------------------------------------------------------------

def test_supertrace_identity_gl11():
    x = SuperMatrix.from_blocks(1, A=e(1, 1), D=e(1, 1), declared_parity=0)
    assert supertrace(x) == 0


def test_supertrace_E11_of_p2():
    pair = find(pn_basis_with_duals(2), "E_st", (1, 1))
    assert supertrace(pair.basis_element) == 2


def test_supertrace_off_diagonal_blocks():
    x = SuperMatrix.from_blocks(2, B=e(1, 2), C=e(2, 1, -3),
                                declared_parity=1)
    assert supertrace(x) == 0


# --- superbracket ----------------------------------------------------------

def test_bracket_of_odd_with_itself_is_twice_square():
    x = find(pn_basis_with_duals(2), "X_st", (1, 2)).basis_element
    assert superbracket(x, x) == x.mul(x).scaled(2)


def test_bracket_E_st_E_tu():
    pairs = pn_basis_with_duals(3)
    a = find(pairs, "E_st", (1, 2)).basis_element
    b = find(pairs, "E_st", (2, 3)).basis_element
    assert superbracket(a, b) == find(pairs, "E_st", (1, 3)).basis_element


def test_bracket_super_antisymmetry():
    rng = random.Random(11)
    pairs = pn_basis_with_duals(2)
    for _ in range(25):
        x = rng.choice(pairs).basis_element
        y = rng.choice(pairs).basis_element
        sign = -1 if (x.declared_parity and y.declared_parity) else 1
        lhs = superbracket(x, y).add(superbracket(y, x), sign)
        assert not lhs.data.entries


def test_bracket_requires_homogeneous():
    x = SuperMatrix.from_blocks(2, A=e(1, 1), B=e(1, 1))
    y = pn_basis_with_duals(2)[0].basis_element
    with pytest.raises(ValueError):
        superbracket(x, y)


# --- basis and duals -------------------------------------------------------

def test_n1_has_two_pairs():
    pairs = pn_basis_with_duals(1)
    assert len(pairs) == 2
    assert {p.kind for p in pairs} == {"E_st", "X_ss"}


def test_n2_pair_census():
    pairs = pn_basis_with_duals(2)
    assert len(pairs) == 8
    census = {}
    for p in pairs:
        census[p.kind] = census.get(p.kind, 0) + 1
    assert census == {"E_st": 4, "X_st": 1, "X_ss": 2, "Y_st": 1}


def test_Y12_pairs_with_its_dual():
    p = find(pn_basis_with_duals(2), "Y_st", (1, 2))
    assert supertrace(p.dual_element.mul(p.basis_element)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_basis_size_is_2n_squared(n):
    assert len(pn_basis_with_duals(n)) == 2 * n * n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_duality_matrix_is_identity(n):
    pairs = pn_basis_with_duals(n)
    for i, pi in enumerate(pairs):
        for j, pj in enumerate(pairs):
            want = 1 if i == j else 0
            assert supertrace(pj.dual_element.mul(pi.basis_element)) == want


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        pn_basis_with_duals(0)


# --- odd form --------------------------------------------------------------

def test_odd_form_values():
    e1 = ParityIndex(2, 1)
    e1bar = ParityIndex(2, 1, barred=True)
    assert odd_form(e1, e1bar) == 1
    assert odd_form(e1, e1) == 0
    assert odd_form(e1bar, e1) == 1
    assert odd_form(e1bar, ParityIndex(2, 2, barred=True)) == 0


def test_parity_index_involution():
    for pos in range(6):
        a = ParityIndex.from_pos(3, pos)
        assert a.bar().bar() == a
        assert a.bar().parity == 1 - a.parity


# --- membership ------------------------------------------------------------

def test_every_basis_element_is_member():
    for n in (1, 2, 3):
        for p in pn_basis_with_duals(n):
            assert is_pn_member(p.basis_element)


def test_X_and_Y_duals_are_not_members():
    for p in pn_basis_with_duals(2):
        if p.kind in ("X_st", "X_ss", "Y_st"):
            assert not is_pn_member(p.dual_element)


def test_zero_is_member():
    assert is_pn_member(SuperMatrix.zero(2))


# --- structure constants ---------------------------------------------------

def test_bracket_closure_and_parity_constraint():
    pairs = pn_basis_with_duals(2)

    def flat(x):
        return {4 * i + j: v for (i, j), v in x.data.entries.items()}

    basis_vecs = [flat(p.basis_element) for p in pairs]
    for pa in pairs:
        for pb in pairs:
            br = superbracket(pa.basis_element, pb.basis_element)
            coeffs = solve_in_span(basis_vecs, flat(br))  # NotInSpan would raise
            for q, c in enumerate(coeffs):
                if c:
                    assert (pa.parity + pb.parity) % 2 == pairs[q].parity


def test_supertrace_form_invariance():
    rng = random.Random(5)
    pairs = pn_basis_with_duals(2)
    for _ in range(30):
        x, y, z = (rng.choice(pairs).basis_element for _ in range(3))
        assert supertrace(superbracket(x, y).mul(z)) == \
            supertrace(x.mul(superbracket(y, z)))
