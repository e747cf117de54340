"""The rewriting engine's caches outlive a call without changing its answers.

`affine._walk` and `affine._letter` keep their expansions at
coefficient 1 across normalize and multiply calls, and hand the same dict
to every caller.  Whatever an earlier, unrelated batch left in them, the
normal forms, products and quotient images must equal those computed from
empty caches, and no caller may write into a cached dict.
"""

import random
from functools import lru_cache

import pytest

from periplectic import affine, brauer
from periplectic.affine import multiply, normalize, to_daha
from periplectic.tensoraction import E, S, Y

ENGINE_CACHES = (affine._walk, affine._letter,
                 affine._normalize_cached, affine._compose,
                 brauer.diagram_record)


def clear_engine_caches():
    for fn in ENGINE_CACHES:
        fn.cache_clear()


def random_word(rng, d, longest, max_dots=3, bends=True):
    letters = [S(i) for i in range(1, d)] + [Y(i) for i in range(1, d + 1)]
    if bends:
        letters += [E(i) for i in range(1, d)]
    while True:
        word = [rng.choice(letters) for _ in range(rng.randint(1, longest))]
        if sum(tok.kind == "Y" for tok in word) <= max_dots:
            return word


def targets(d):
    """Seeded normalize words, product pairs and bend-free to_daha words."""
    rng = random.Random(1700 + d)
    words = [random_word(rng, d, 10, 4) for _ in range(40)]
    pairs = [(random_word(rng, d, 4, 2), random_word(rng, d, 4, 2))
             for _ in range(15)]
    daha = [random_word(rng, d, 8, 3, bends=False) for _ in range(15)]
    return words, pairs, daha


def run_targets(d, words, pairs, daha, cold):
    out = []
    for kind, args in ([("n", w) for w in words] + [("m", p) for p in pairs]
                       + [("q", w) for w in daha]):
        if cold:
            clear_engine_caches()
        if kind == "n":
            out.append(normalize(args, d))
        elif kind == "m":
            out.append(multiply(normalize(args[0], d), normalize(args[1], d)))
        else:
            out.append(to_daha(args, d))
    return out


def unrelated_batch(d, seed):
    rng = random.Random(seed)
    for _ in range(100):
        x = normalize(random_word(rng, d, 10, 4), d)
        y = normalize(random_word(rng, d, 3, 1), d)
        multiply(x, y)
        to_daha(random_word(rng, d, 6, 2, bends=False), d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_warm_caches_give_the_cold_normal_forms(d):
    words, pairs, daha = targets(d)
    cold = run_targets(d, words, pairs, daha, cold=True)
    clear_engine_caches()
    unrelated_batch(d, 2700 + d)
    affine._normalize_cached.cache_clear()   # reach the engine again
    assert affine._walk.cache_info().currsize > 0
    warm = run_targets(d, words, pairs, daha, cold=False)
    assert warm == cold
    assert any(not x.is_zero() for x in cold)


def test_cached_expansions_are_never_written(monkeypatch):
    made = []

    def recording(fn):
        def inner(*args):
            out = fn(*args)
            made.append((fn.__name__, out, dict(out)))
            return out
        return lru_cache(maxsize=None)(inner)

    monkeypatch.setattr(affine, "_walk", recording(affine._walk.__wrapped__))
    monkeypatch.setattr(affine, "_letter",
                        recording(affine._letter.__wrapped__))
    affine._normalize_cached.cache_clear()
    try:
        for d in (2, 3, 4):
            unrelated_batch(d, 3700 + d)
    finally:
        affine._normalize_cached.cache_clear()
    assert {name for name, _, _ in made} == {"_walk", "_letter"}
    for name, out, snapshot in made:
        assert out == snapshot, name


def test_an_eviction_inside_one_call_changes_no_output(monkeypatch):
    # a working set past the bound is walked again, never answered wrongly
    rng = random.Random(4703)
    words = [random_word(rng, 3, 10, 4) for _ in range(20)]
    clear_engine_caches()
    want = [normalize(w, 3) for w in words]
    monkeypatch.setattr(affine, "_walk",
                        lru_cache(maxsize=4)(affine._walk.__wrapped__))
    monkeypatch.setattr(affine, "_letter",
                        lru_cache(maxsize=2)(affine._letter.__wrapped__))
    affine._normalize_cached.cache_clear()
    try:
        assert [normalize(w, 3) for w in words] == want
        assert affine._walk.cache_info().misses > 4
    finally:
        affine._normalize_cached.cache_clear()
