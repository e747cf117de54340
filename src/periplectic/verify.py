"""Executable verification suites over the exact representations and the
quotients, with the defining relations written once, in `relations`.

Every suite returns a list of {"name", "pass", "detail"} records; a record
compares exact rational matrices, vectors or combinations, never floats.
The CLI sorts records by name before printing, so check names are chosen to
read well in sorted order.
"""

from .affine import (DahaElement, enumerate_regular, pbw_rank_check,
                     pi_m_word, to_daha)
from .brauer import ADElement, jm_element, psi_image
from .superalgebra import pn_basis_with_duals
from .tensoraction import (E, S, TensorSpaceSpec, Y, evaluate_word,
                           evaluate_word_sum, g_action, op_epsilon, op_omega)


def _agree_under(image, zero, lhs, rhs):
    """Whether both sides, lists of (coefficient, word), have one image:
    image maps a word into the algebra whose zero element is zero."""
    diff = zero
    for sign, side in ((1, lhs), (-1, rhs)):
        for coeff, word in side:
            diff = diff.add(image(word), sign * coeff)
    return diff.is_zero()


def _record(out, name, ok, detail=""):
    out.append({"name": name, "pass": bool(ok), "detail": detail})


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def relations(d):
    """The defining relations of the affine algebra on d strands, as rows
    (name, lhs, rhs): each side is a list of (coefficient, word), and each
    word a tuple of tokens.  Every check of the presentation reads this
    table, on the tensor spaces and under the quotient maps alike."""
    rows = []
    eq = lambda name, lhs, rhs: rows.append((name, lhs, rhs))
    w = lambda *word: [(1, word)]
    commute = lambda name, x, y: eq(name, w(x, y), w(y, x))

    for a in range(1, d):
        eq(f"P1.square.s{a}", w(S(a), S(a)), w())
    for a in range(1, d):
        for b in range(a + 2, d):
            commute(f"P2a.far_s.s{a}.s{b}", S(a), S(b))
    for a in range(1, d - 1):
        eq(f"P2b.braid.s{a}",
           w(S(a), S(a + 1), S(a)), w(S(a + 1), S(a), S(a + 1)))
    for a in range(1, d):
        for i in range(1, d + 1):
            if i not in (a, a + 1):
                commute(f"P2c.far_sy.s{a}.y{i}", S(a), Y(i))
    for a in range(1, d):
        eq(f"P3.square.e{a}", w(E(a), E(a)), [])
    for a in range(1, d):
        for k in range(4):
            eq(f"P4.pinch.y{a}^{k}", w(E(a), *[Y(a)] * k, E(a)), [])
    for a in range(1, d):
        for b in range(a + 2, d):
            commute(f"P5a.far_es.e{a}.s{b}", E(a), S(b))
            commute(f"P5a.far_ee.e{a}.e{b}", E(a), E(b))
    for a in range(1, d):
        for i in range(1, d + 1):
            if i not in (a, a + 1):
                commute(f"P5b.far_ey.e{a}.y{i}", E(a), Y(i))
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            commute(f"P5c.commute.y{i}.y{j}", Y(i), Y(j))
    for a in range(1, d):
        eq(f"P6a.abs_left.e{a}", w(E(a), S(a)), [(-1, (E(a),))])
        eq(f"P6a.abs_right.e{a}", w(S(a), E(a)), w(E(a)))
    for c in range(1, d - 1):
        eq(f"P6b.slide1.c{c}",
           w(S(c), E(c + 1), E(c)), [(-1, (S(c + 1), E(c)))])
        eq(f"P6b.slide2.c{c}", w(E(c), E(c + 1), S(c)), w(E(c), S(c + 1)))
        eq(f"P6c.slide1.c{c}",
           w(E(c + 1), E(c), S(c + 1)), [(-1, (E(c + 1), S(c)))])
        eq(f"P6c.slide2.c{c}", w(S(c + 1), E(c), E(c + 1)), w(S(c), E(c + 1)))
        eq(f"P6d.zigzag1.c{c}",
           w(E(c + 1), E(c), E(c + 1)), [(-1, (E(c + 1),))])
        eq(f"P6d.zigzag2.c{c}", w(E(c), E(c + 1), E(c)), [(-1, (E(c),))])
    for a in range(1, d):
        eq(f"P7.cross1.a{a}",
           [(1, (S(a), Y(a))), (-1, (Y(a + 1), S(a)))],
           [(1, (E(a),)), (-1, ())])
        eq(f"P7.cross2.a{a}",
           [(1, (Y(a), S(a))), (-1, (S(a), Y(a + 1)))],
           [(-1, (E(a),)), (-1, ())])
    for a in range(1, d):
        eq(f"P8a.bend_right.a{a}",
           [(1, (E(a), Y(a))), (-1, (E(a), Y(a + 1)))], w(E(a)))
        eq(f"P8b.bend_left.a{a}",
           [(1, (Y(a), E(a))), (-1, (Y(a + 1), E(a)))], [(-1, (E(a),))])
    return rows


def _tensor_records(spec, rows):
    """One record per row: its two sides as exact operators on the tensor
    space, each summed in one pass by `evaluate_word_sum`."""
    side = lambda parts: evaluate_word_sum(
        [(word, coeff) for coeff, word in parts], spec)
    out = []
    for name, lhs, rhs in rows:
        _record(out, name, side(lhs) == side(rhs))
    return out


def relations_suite(n, m, d):
    """All defining relations as exact matrix identities on M (x) V^(x)d."""
    return _tensor_records(TensorSpaceSpec(n, m, d).validate(), relations(d))


# ---------------------------------------------------------------------------
# identities behind the bend relations
# ---------------------------------------------------------------------------

def appendix_suite(n, m, d):
    """The identity lemmas feeding the bend relations, checked exactly."""
    spec = TensorSpaceSpec(n, m, d).validate()
    out = []
    pairs = pn_basis_with_duals(n)

    for i in range(1, d):
        eps = op_epsilon(i, spec)
        p = spec.m + i - 1
        ok1 = ok2 = True
        for pair in pairs:
            der = g_action(pair.basis_element, spec, (p, p + 1))
            if not der.compose(eps).is_zero():
                ok1 = False
            if not eps.compose(der).is_zero():
                ok2 = False
        _record(out, f"A1.derivation_after_bend.i{i}", ok1,
                f"{len(pairs)} basis elements")
        _record(out, f"A2.bend_after_derivation.i{i}", ok2,
                f"{len(pairs)} basis elements")

    for i in range(1, d):
        for k in range(i + 2, d + 1):
            osum = op_omega(i, k, spec).add(op_omega(i + 1, k, spec))
            eps = op_epsilon(i, spec)
            _record(out, f"ComLem1.left.i{i}.k{k}",
                    osum.compose(eps).is_zero())
            _record(out, f"ComLem1.right.i{i}.k{k}",
                    eps.compose(osum).is_zero())

    # identities on V (x) V: D = x (x) 1 - 1 (x) x, for each dual x, kills
    # the coevaluation (the image of the bend) and is killed by the bend
    vspec = TensorSpaceSpec(n, 0, 2)
    base = 2 * n
    epsop = op_epsilon(1, vspec)
    for pair in pairs:
        x = pair.dual_element
        D = g_action(x, vspec, (0,)).scaled(2).add(g_action(x, vspec), -1)
        tag = f"{pair.kind}{pair.indices[0]}_{pair.indices[1]}"
        _record(out, f"VW82.coev.{tag}", D.compose(epsop).is_zero())
        _record(out, f"VW81.bend_kills.{tag}", epsop.compose(D).is_zero(),
                f"{base * base} vector pairs")

    return out + _tensor_records(
        spec, [row for row in relations(d) if row[0].startswith("P8")])


# ---------------------------------------------------------------------------
# commuting family / quotient / independence suites
# ---------------------------------------------------------------------------

def jm_suite(n, d):
    """The dot generators acting on the bare tensor power match the
    combinatorial commuting family, and every defining relation holds in
    the diagram algebra under pi_0 (y_a goes to z_a)."""
    out = []
    spec = TensorSpaceSpec(n, 0, d)
    for j in range(1, d + 1):
        lhs = evaluate_word([Y(j)], spec)
        rhs = psi_image(jm_element(j, d), n)
        _record(out, f"jm.match.y{j}", lhs == rhs)
    image = lambda word: pi_m_word(word, d, 0)
    for name, lhs, rhs in relations(d):
        _record(out, f"jm.{name}",
                _agree_under(image, ADElement.zero(d), lhs, rhs))
    return out


def pbw_suite(d, max_degree, n):
    count, rank = pbw_rank_check(d, max_degree, n)
    listed = len(enumerate_regular(d, max_degree))
    out = []
    _record(out, "pbw.count_matches_enumeration", count == listed,
            f"count={count} enumerated={listed}")
    _record(out, "pbw.rank_equals_count", rank == count,
            f"count={count} rank={rank}")
    return out


def daha_suite(d):
    """Images of the defining relations in the polynomial symmetric-group
    normal form, plus vanishing of every bend."""
    out = []
    image = lambda word: to_daha(word, d)
    for name, lhs, rhs in relations(d):
        _record(out, f"daha.{name}",
                _agree_under(image, DahaElement.zero(d), lhs, rhs))
    for a in range(1, d):
        _record(out, f"daha.bend_kill.e{a}", to_daha([E(a)], d).is_zero())
        word = [S(a), E(a), Y(a), S(a)]
        _record(out, f"daha.bend_kill.word.e{a}", to_daha(word, d).is_zero())
    return out


# suite name -> (suite function, its CLI parameters in call order)
SUITES = {
    "relations": (relations_suite, ("n", "m", "d")),
    "appendix": (appendix_suite, ("n", "m", "d")),
    "jm": (jm_suite, ("n", "d")),
    "pbw": (pbw_suite, ("d", "max_degree", "n")),
    "daha": (daha_suite, ("d",)),
}
