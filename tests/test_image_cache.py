"""The word-image cache keeps the images that recur, within its bound.

`tensoraction._evaluate_raw` is a segmented LRU of 512 images: a first
lookup puts an image in probation, a second moves it to the protected
segment, and one-off words cycle through probation without pushing the
protected images out.  Everything here is counted, not timed.
"""

import itertools
import random

import pytest

from periplectic import tensoraction
from periplectic.tensoraction import E, S, TensorSpaceSpec, Y

CACHE = tensoraction._evaluate_raw
PROBATION = tensoraction._PROBATION_SIZE
PROTECTED = tensoraction._IMAGE_CACHE_SIZE - PROBATION
SPACES = (TensorSpaceSpec(2, 0, 2), TensorSpaceSpec(2, 1, 2),
          TensorSpaceSpec(2, 0, 3))


def letters(d):
    return ([S(a) for a in range(1, d)] + [E(a) for a in range(1, d)]
            + [Y(j) for j in range(1, d + 1)])


def lookup_stream(seed, lookups):
    """Seeded (word, space) lookups: 500 words a space, each drawn word
    asked for again at once half of the time, so hundreds are promoted."""
    rng = random.Random(seed)
    pools = {spec: [tuple(rng.choice(letters(spec.d))
                          for _ in range(rng.randint(1, 5)))
                    for _ in range(500)] for spec in SPACES}
    while lookups > 0:
        spec = rng.choice(SPACES)
        key = (rng.choice(pools[spec]), spec)
        for _ in range(1 + (rng.random() < 0.5)):
            yield key
            lookups -= 1


@pytest.fixture
def counted(monkeypatch):
    """The cache behind a wrapper that records every lookup, the suffix
    lookups of its misses included, and checks the bounds after each."""
    CACHE.cache_clear()
    calls = []

    def lookup(word, spec):
        calls.append((word, spec))
        image = CACHE(word, spec)
        assert len(CACHE.probation) <= PROBATION
        assert len(CACHE.protected) <= PROTECTED
        assert CACHE.cache_info().currsize <= 512
        return image

    monkeypatch.setattr(tensoraction, "_evaluate_raw", lookup)
    yield lookup, calls
    CACHE.cache_clear()


def test_a_seeded_stream_gets_the_uncached_tables_within_the_bound(counted):
    lookup, calls = counted
    most_protected = 0
    for word, spec in lookup_stream(2601, 6000):
        assert lookup(word, spec) == CACHE.__wrapped__(word, spec)
        most_protected = max(most_protected, len(CACHE.protected))
    info = CACHE.cache_info()
    assert info.maxsize == 512
    # the protected segment filled and kept demoting to probation
    assert most_protected == PROTECTED and info.currsize == 512
    assert info.hits + info.misses == len(calls)
    assert info.hits and info.misses


def test_cache_clear_empties_both_segments(counted):
    lookup, _calls = counted
    for word, spec in lookup_stream(2602, 2000):
        lookup(word, spec)
    assert CACHE.probation and CACHE.protected
    CACHE.cache_clear()
    assert not CACHE.probation and not CACHE.protected
    assert CACHE.cache_info() == (0, 0, 512, 0)


def test_an_image_hit_twice_outlives_one_off_words():
    spec = SPACES[0]
    CACHE.cache_clear()
    kept = (Y(1), S(1), Y(2), E(1), Y(2), S(1), Y(1))   # no one-off's suffix
    image = CACHE(kept, spec)
    assert CACHE(kept, spec) is image
    # 8 x 512 words met once each, the first letter varying slowest, so
    # that their longer suffixes also leave probation before they recur
    one_off = list(itertools.product(letters(2), repeat=6))
    assert len(one_off) == 8 * 512
    for word in one_off:
        CACHE(word, spec)
    assert CACHE.cache_info().misses > 8 * 512
    assert CACHE(kept, spec) is image
    CACHE.cache_clear()
