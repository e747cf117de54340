"""The appendix's identities on V (x) V as operator identities, against the
vector loops that checked them before.

`verify.appendix_suite` checks VW82.coev and VW81.bend_kills by composing
D = x (x) 1 - 1 (x) x with the bend.  `old_vector_identities` is the
earlier check, which builds the coevaluation's image and each vector pair
by hand from the columns of the dual x; it stays here only as the oracle,
over the true duals and over perturbed ones, most of which fail.
"""

import random
from fractions import Fraction

import pytest

from periplectic import verify
from periplectic.exactla import SparseMatrix
from periplectic.superalgebra import (PnDualPair, SuperMatrix,
                                      pn_basis_with_duals)
from periplectic.tensoraction import TensorSpaceSpec, op_epsilon


def old_vector_identities(n, pair):
    """(coev, bend_kills) for one dual pair, by the vector loops."""
    vspec = TensorSpaceSpec(n, 0, 2)
    base = 2 * n
    epsop = op_epsilon(1, vspec)

    def dual_cols(pair):
        cols = {}
        for (r, c), v in pair.dual_element.data.entries.items():
            cols.setdefault(c, []).append((r, v))
        return cols

    cols = dual_cols(pair)
    par = pair.parity
    vec = {}

    def put(pdig, qdig, coeff):
        key = vspec.rank((pdig, qdig))
        w = vec.get(key, Fraction(0)) + coeff
        if w:
            vec[key] = w
        elif key in vec:
            del vec[key]

    for k in range(base):
        kbar = (k + n) % base
        sk = Fraction(-1 if k >= n else 1)
        for r, v in cols.get(k, ()):
            put(r, kbar, sk * v)
        cross = -1 if (par and k >= n) else 1
        for r, v in cols.get(kbar, ()):
            put(k, r, -sk * cross * v)

    ok = True
    for p in range(base):
        for q in range(base):
            vec2 = {}
            for r, v in cols.get(p, ()):
                key = vspec.rank((r, q))
                vec2[key] = vec2.get(key, Fraction(0)) + v
            sgn = -1 if (par and p >= n) else 1
            for r, v in cols.get(q, ()):
                key = vspec.rank((p, r))
                vec2[key] = vec2.get(key, Fraction(0)) - sgn * v
            image = epsop.apply_dict({k: v for k, v in vec2.items() if v})
            if any(image.values()):
                ok = False
    return not vec, ok


def perturbed(n, pairs, rng, count):
    """count pairs whose dual gains one entry of its own parity."""
    out = []
    for i in range(count):
        pair = rng.choice(pairs)
        x = pair.dual_element
        while True:
            r, c = rng.randrange(2 * n), rng.randrange(2 * n)
            if ((r >= n) ^ (c >= n)) == x.declared_parity:
                break
        entries = dict(x.data.entries)
        entries[(r, c)] = (entries.get((r, c), 0)
                           + rng.choice((-1, 1)) * Fraction(rng.randint(1, 2), 2))
        entries = {k: v for k, v in entries.items() if v}
        dual = SuperMatrix(n, SparseMatrix(2 * n, 2 * n, entries),
                           x.declared_parity)
        out.append(PnDualPair(pair.basis_element, dual, f"M{i}", pair.indices))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_identities_match_the_vector_loops(n, monkeypatch):
    rng = random.Random(15004 + n)
    true_pairs = pn_basis_with_duals(n)
    pairs = true_pairs + perturbed(n, true_pairs, rng, 24)
    monkeypatch.setattr(verify, "pn_basis_with_duals", lambda _n: pairs)
    got = {r["name"]: r["pass"] for r in verify.appendix_suite(n, 0, 2)}
    failing = []
    for pair in pairs:
        tag = f"{pair.kind}{pair.indices[0]}_{pair.indices[1]}"
        verdicts = (got[f"VW82.coev.{tag}"], got[f"VW81.bend_kills.{tag}"])
        assert verdicts == old_vector_identities(n, pair), tag
        if not all(verdicts):
            failing.append(pair)
    # every true dual passes; most perturbed ones fail
    assert not set(failing) & set(true_pairs)
    assert len(failing) >= 18
