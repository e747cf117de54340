"""Acceptance gate: ten exactly-checkable criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v` — each criterion is a single
test whose printed line summarizes what was verified.  Every comparison is an
exact equality of rationals; there are no tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

from periplectic.affine import (enumerate_regular, normalize, pbw_rank_check,
                                pi_m_word, tensor_image)
from periplectic.brauer import (ADElement, BrauerDiagram, enumerate_diagrams,
                                jm_element, multiply as ad_multiply, psi_image)
from periplectic.exactla import SparseMatrix, rank
from periplectic.tensoraction import (E, EndoOperator, S, TensorSpaceSpec, Y,
                                      commutant_dimension, evaluate_word,
                                      op_casimir, op_epsilon, op_s)
from periplectic.verify import (appendix_suite, daha_suite, jm_suite,
                                relations_suite)


def report(number, label, ok, detail):
    line = f"ACCEPTANCE {number:>2} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def failing(records):
    return [r["name"] for r in records if not r["pass"]]


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_relation_suite():
    t0 = time.time()
    bad, total = [], 0
    for n in (2, 3):
        for m in (0, 1, 2):
            for d in (2, 3):
                recs = relations_suite(n, m, d)
                total += len(recs)
                bad += [f"({n},{m},{d}):{name}" for name in failing(recs)]
    report(1, "defining relations across all twelve spaces", not bad,
           f"{total} identities, {time.time() - t0:.1f}s"
           + (f"; failing: {bad[:4]}" if bad else ""))


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_bend_formula_and_casimir_split():
    ok = True
    notes = []
    for n in (1, 2, 3):
        spec = TensorSpaceSpec(n, 0, 2)
        ent = {}
        for a in range(2 * n):
            b = (a + n) % (2 * n)
            col = spec.rank([a, b])
            for i in range(2 * n):
                ent[(spec.rank([i, (i + n) % (2 * n)]), col)] = \
                    Fraction(-1 if i >= n else 1)
        formula = EndoOperator(spec, SparseMatrix(spec.dim, spec.dim, ent))
        if op_epsilon(1, spec) != formula:
            ok = False
            notes.append(f"bend formula n={n}")
        if op_casimir(1, spec).scaled(2) != op_s(1, spec).add(op_epsilon(1, spec)):
            ok = False
            notes.append(f"casimir split n={n}")
    report(2, "bend operator formula and 2C = s + eps", ok,
           "entrywise for n=1,2,3" + ("; " + "; ".join(notes) if notes else ""))


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_appendix_identities():
    t0 = time.time()
    bad, total = [], 0
    for n in (2, 3):
        for m in (0, 1):
            recs = appendix_suite(n, m, 3)
            total += len(recs)
            bad += [f"({n},{m}):{name}" for name in failing(recs)]
    report(3, "identity lemmas behind the bend relations", not bad,
           f"{total} identities at d=3, {time.time() - t0:.1f}s"
           + (f"; failing: {bad[:4]}" if bad else ""))


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_diagram_count_and_faithfulness():
    expect = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945}
    counts_ok = all(len(enumerate_diagrams(d)) == expect[d] for d in expect)

    indep_ok = True
    for d in (1, 2, 3):
        diagrams = enumerate_diagrams(d)
        dim = (2 * d) ** d
        rows = {}
        for r, g in enumerate(diagrams):
            op = psi_image(ADElement.from_diagram(g), d)
            for (i, j), v in op.matrix.entries.items():
                rows[(r, i * dim + j)] = v
        if rank(SparseMatrix(len(diagrams), dim * dim, rows)) != len(diagrams):
            indep_ok = False

    comm = commutant_dimension(TensorSpaceSpec(3, 0, 2))
    report(4, "diagram census and faithful image",
           counts_ok and indep_ok and comm == 3,
           f"counts {tuple(expect.values())}, independence d<=3, commutant={comm}")


# -- 5 ------------------------------------------------------------------------

def test_criterion_05_commuting_family_identification():
    match_ok = all(
        evaluate_word([Y(j)], TensorSpaceSpec(3, 0, 3))
        == psi_image(jm_element(j, 3), 3)
        for j in (1, 2, 3))

    pinch_ok = True
    for d in (2, 3):
        for i in range(1, d):
            eps = ADElement.from_diagram(BrauerDiagram.eps_generator(d, i))
            power = ADElement.one(d)
            for _k in range(4):
                if not ad_multiply(ad_multiply(eps, power), eps).is_zero():
                    pinch_ok = False
                power = ad_multiply(power, jm_element(i, d))
    report(5, "dot generators match the commuting family", match_ok and pinch_ok,
           "d=3 n=3 all j; pinched powers k<=3 for d<=3")


# -- 6 ------------------------------------------------------------------------

D2_RELATION_SUMS = {
    "square": [(1, [S(1), S(1)]), (-1, [])],
    "bend_square": [(1, [E(1), E(1)])],
    "pinch0": [(1, [E(1), E(1)])],
    "pinch1": [(1, [E(1), Y(1), E(1)])],
    "pinch2": [(1, [E(1), Y(1), Y(1), E(1)])],
    "pinch3": [(1, [E(1), Y(1), Y(1), Y(1), E(1)])],
    "dots_commute": [(1, [Y(1), Y(2)]), (-1, [Y(2), Y(1)])],
    "absorb_left": [(1, [E(1), S(1)]), (1, [E(1)])],
    "absorb_right": [(1, [S(1), E(1)]), (-1, [E(1)])],
    "straighten_a": [(1, [S(1), Y(1)]), (-1, [Y(2), S(1)]), (-1, [E(1)]), (1, [])],
    "straighten_b": [(1, [Y(1), S(1)]), (-1, [S(1), Y(2)]), (1, [E(1)]), (1, [])],
    "bend_eats_dots_r": [(1, [E(1), Y(1)]), (-1, [E(1), Y(2)]), (-1, [E(1)])],
    "bend_eats_dots_l": [(1, [Y(1), E(1)]), (-1, [Y(2), E(1)]), (1, [E(1)])],
}


def test_criterion_06_quotient_maps_preserve_relations():
    t0 = time.time()
    bad = []
    for m in (0, 1, 2):
        for name, parts in D2_RELATION_SUMS.items():
            acc = ADElement.zero(m + 2)
            for coeff, word in parts:
                acc = acc.add(pi_m_word(word, 2, m), coeff)
            if not acc.is_zero():
                bad.append(f"m={m}:{name}")
    report(6, "shift homomorphisms preserve the relations", not bad,
           f"{3 * len(D2_RELATION_SUMS)} images at d=2, m<=2, "
           f"{time.time() - t0:.1f}s" + (f"; failing: {bad[:4]}" if bad else ""))


# -- 7 ------------------------------------------------------------------------

def test_criterion_07_rewriting_soundness():
    t0 = time.time()
    alphabet = [S(1), E(1), Y(1), Y(2)]
    words = [[]]
    for length in (1, 2, 3):
        words += [list(w) for w in itertools.product(alphabet, repeat=length)]
    rng = random.Random(20260825)
    for _ in range(200):
        words.append([rng.choice(alphabet)
                      for _ in range(rng.randint(1, 6))])

    specs = [TensorSpaceSpec(n, m, 2)
             for n in (2, 3) for m in (0, 1, 2, 3)]
    mismatches = 0
    for word in words:
        nf = normalize(word, 2)
        for spec in specs:
            if tensor_image(nf, spec) != evaluate_word(word, spec):
                mismatches += 1
    report(7, "rewriting engine sound against all eight spaces",
           mismatches == 0,
           f"{len(words)} words x {len(specs)} spaces, {time.time() - t0:.1f}s, "
           f"{mismatches} mismatches")


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_pinched_dot_powers_vanish():
    ok = all(normalize([E(1)] + [Y(1)] * k + [E(1)], 2).is_zero()
             for k in range(5))
    report(8, "pinched dot powers rewrite to zero", ok, "k <= 4 at d=2")


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_spanning_set_independence():
    t0 = time.time()
    cases = [(1, 2, 4, 3), (2, 0, 3, 3), (2, 1, 4, 9),
             (2, 2, 5, len(enumerate_regular(2, 2)))]
    bad = []
    for d, max_degree, n, want in cases:
        count, rk = pbw_rank_check(d, max_degree, n)
        if not (count == rk == want):
            bad.append(f"({d},{max_degree},{n}): count={count} rank={rk} want={want}")
    report(9, "regular monomials independent under stacked actions", not bad,
           f"4 windows, largest n=5, {time.time() - t0:.1f}s"
           + (f"; failing: {bad}" if bad else ""))


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_polynomial_quotient():
    recs = daha_suite(3)
    bad = failing(recs)
    report(10, "degenerate polynomial quotient relations", not bad,
           f"{len(recs)} checks at d=3" + (f"; failing: {bad[:4]}" if bad else ""))
