"""Executable verification suites over the exact representations.

Every suite returns a list of {"name", "pass", "detail"} records; a record
compares exact rational matrices or vectors, never floats.  The CLI sorts
records by name before printing, so check names are chosen to read well in
sorted order.
"""

from .affine import DahaElement, pbw_rank_check, enumerate_regular, to_daha
from .brauer import (ADElement, BrauerDiagram, jm_element, psi_image,
                     multiply as diagram_multiply)
from .superalgebra import pn_basis_with_duals
from .tensoraction import (E, S, TensorSpaceSpec, Y, evaluate_word,
                           evaluate_word_sum, g_action, op_epsilon, op_omega)


def _word_sum(spec, parts):
    """Exact operator of sum(coeff * word) on the tensor space."""
    return evaluate_word_sum([(word, coeff) for coeff, word in parts], spec)


def _is_zero_identity(spec, lhs_parts, rhs_parts):
    return _word_sum(spec, lhs_parts) == _word_sum(spec, rhs_parts)


def _record(out, name, ok, detail=""):
    out.append({"name": name, "pass": bool(ok), "detail": detail})


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def relations_suite(n, m, d):
    """All defining relations as exact matrix identities on M (x) V^(x)d."""
    spec = TensorSpaceSpec(n, m, d).validate()
    out = []
    eq = lambda name, lhs, rhs: _record(out, name, _is_zero_identity(spec, lhs, rhs))
    one = [(1, [])]

    for a in range(1, d):
        eq(f"P1.square.s{a}", [(1, [S(a), S(a)])], one)
    for a in range(1, d):
        for b in range(a + 2, d):
            eq(f"P2a.far_s.s{a}.s{b}",
               [(1, [S(a), S(b)])], [(1, [S(b), S(a)])])
    for a in range(1, d - 1):
        eq(f"P2b.braid.s{a}",
           [(1, [S(a), S(a + 1), S(a)])], [(1, [S(a + 1), S(a), S(a + 1)])])
    for a in range(1, d):
        for i in range(1, d + 1):
            if i not in (a, a + 1):
                eq(f"P2c.far_sy.s{a}.y{i}",
                   [(1, [S(a), Y(i)])], [(1, [Y(i), S(a)])])
    for a in range(1, d):
        eq(f"P3.square.e{a}", [(1, [E(a), E(a)])], [])
    if d >= 2:   # a single strand has no bend to pinch
        for k in range(4):
            eq(f"P4.pinch.y1^{k}", [(1, [E(1)] + [Y(1)] * k + [E(1)])], [])
    for a in range(1, d):
        for b in range(a + 2, d):
            eq(f"P5a.far_es.e{a}.s{b}",
               [(1, [E(a), S(b)])], [(1, [S(b), E(a)])])
            eq(f"P5a.far_ee.e{a}.e{b}",
               [(1, [E(a), E(b)])], [(1, [E(b), E(a)])])
    for a in range(1, d):
        for i in range(1, d + 1):
            if i not in (a, a + 1):
                eq(f"P5b.far_ey.e{a}.y{i}",
                   [(1, [E(a), Y(i)])], [(1, [Y(i), E(a)])])
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            eq(f"P5c.commute.y{i}.y{j}",
               [(1, [Y(i), Y(j)])], [(1, [Y(j), Y(i)])])
    for a in range(1, d):
        eq(f"P6a.abs_left.e{a}", [(1, [E(a), S(a)])], [(-1, [E(a)])])
        eq(f"P6a.abs_right.e{a}", [(1, [S(a), E(a)])], [(1, [E(a)])])
    for c in range(1, d - 1):
        eq(f"P6b.slide1.c{c}",
           [(1, [S(c), E(c + 1), E(c)])], [(-1, [S(c + 1), E(c)])])
        eq(f"P6b.slide2.c{c}",
           [(1, [E(c), E(c + 1), S(c)])], [(1, [E(c), S(c + 1)])])
        eq(f"P6c.slide1.c{c}",
           [(1, [E(c + 1), E(c), S(c + 1)])], [(-1, [E(c + 1), S(c)])])
        eq(f"P6c.slide2.c{c}",
           [(1, [S(c + 1), E(c), E(c + 1)])], [(1, [S(c), E(c + 1)])])
        eq(f"P6d.zigzag1.c{c}",
           [(1, [E(c + 1), E(c), E(c + 1)])], [(-1, [E(c + 1)])])
        eq(f"P6d.zigzag2.c{c}",
           [(1, [E(c), E(c + 1), E(c)])], [(-1, [E(c)])])
    for a in range(1, d):
        eq(f"P7.cross1.a{a}",
           [(1, [S(a), Y(a)]), (-1, [Y(a + 1), S(a)])],
           [(1, [E(a)]), (-1, [])])
        eq(f"P7.cross2.a{a}",
           [(1, [Y(a), S(a)]), (-1, [S(a), Y(a + 1)])],
           [(-1, [E(a)]), (-1, [])])
    for a in range(1, d):
        eq(f"P8a.bend_right.a{a}",
           [(1, [E(a), Y(a)]), (-1, [E(a), Y(a + 1)])], [(1, [E(a)])])
        eq(f"P8b.bend_left.a{a}",
           [(1, [Y(a), E(a)]), (-1, [Y(a + 1), E(a)])], [(-1, [E(a)])])
    return out


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

    for rec in relations_suite(n, m, d):
        if rec["name"].startswith("P8"):
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# commuting family / quotient / independence suites
# ---------------------------------------------------------------------------

def jm_suite(n, d):
    """The dot generators acting on the bare tensor power match the
    combinatorial commuting family, and the pinch identities hold."""
    out = []
    spec = TensorSpaceSpec(n, 0, d)
    for j in range(1, d + 1):
        lhs = evaluate_word([Y(j)], spec)
        rhs = psi_image(jm_element(j, d), n)
        _record(out, f"jm.match.y{j}", lhs == rhs)
    for i in range(1, d):
        eps = ADElement.from_diagram(BrauerDiagram.eps_generator(d, i))
        z = jm_element(i, d)
        power = ADElement.one(d)
        for k in range(4):
            prod = diagram_multiply(diagram_multiply(eps, power), eps)
            _record(out, f"jm.pinch.i{i}.k{k}", prod.is_zero())
            power = diagram_multiply(power, z)
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
    one = DahaElement.one(d)
    for a in range(1, d):
        for j in range(1, d + 1):
            if j in (a, a + 1):
                continue
            lhs = to_daha([S(a), Y(j)], d)
            rhs = to_daha([Y(j), S(a)], d)
            _record(out, f"daha.rel1.far.s{a}.v{j}", lhs == rhs)
        lhs = to_daha([S(a), Y(a)], d).add(to_daha([Y(a + 1), S(a)], d), -1)
        _record(out, f"daha.rel2a.s{a}", lhs == one.scaled(-1))
        lhs = to_daha([S(a), Y(a + 1)], d).add(to_daha([Y(a), S(a)], d), -1)
        _record(out, f"daha.rel2b.s{a}", lhs == one)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            lhs = to_daha([Y(i), Y(j)], d)
            rhs = to_daha([Y(j), Y(i)], d)
            _record(out, f"daha.rel1.commute.v{i}.v{j}", lhs == rhs)
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
