"""Same outputs, pinned: SHA-256 digests over the documents of seeded sets.

The first set is 1,020 normal forms at d = 2/3/4 with at most four dots, 60
`multiply` products of two-word sums and 30 `pi_m` images.  The second is
600 `to_daha` images of words and of normal forms at d = 2/3/4 with dots.
`documents.dumps` writes terms in a fixed order, so a digest changes
exactly when some output does: a refactor of the rewriting engine that
keeps its results keeps the digests.
"""

import hashlib
import random

from periplectic import documents
from periplectic.affine import multiply, normalize, pi_m, to_daha
from periplectic.tensoraction import E, S, Y

DIGEST = "1684d02cd4d6d72bb43815b9b445e25dff0de68f44e8c12f0e6e7a0ae5d5889b"
DAHA_DIGEST = "98d803b904345a53a5eee63b5e7704d27a2285ef720cea70afd3b9da23add9e0"


def alphabet(d):
    # crossings twice over: a bend next to a bend often closes a loop, and
    # dots walking through crossings shed the most correction terms
    return ([S(a) for a in range(1, d)] * 2 + [E(a) for a in range(1, d)]
            + [Y(k) for k in range(1, d + 1)])


def random_word(rng, d, longest, most_dots):
    letters = alphabet(d)
    while True:
        word = [rng.choice(letters) for _ in range(rng.randint(0, longest))]
        if sum(t.kind == "Y" for t in word) <= most_dots:
            return word


def seeded_outputs():
    rng = random.Random(14001)
    for d, count, longest in ((2, 340, 10), (3, 340, 9), (4, 340, 8)):
        for _ in range(count):
            yield normalize(random_word(rng, d, longest, 4), d)
    for d in (2, 3, 3, 4):
        for _ in range(15):
            # sums of two normal forms, so most factors have several terms
            x, y = (normalize(random_word(rng, d, 5, 2), d).add(
                normalize(random_word(rng, d, 5, 2), d), rng.randint(-3, 3))
                for _ in range(2))
            yield multiply(x, y)
    for d, m in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
        for _ in range(6):
            yield pi_m(normalize(random_word(rng, d, 4, 2), d), m)


def seeded_daha_images():
    rng = random.Random(15001)
    for d, count, longest in ((2, 100, 10), (3, 100, 9), (4, 100, 8)):
        crossings_and_dots = ([S(a) for a in range(1, d)]
                              + [Y(k) for k in range(1, d + 1)])
        for _ in range(count):
            # bend-free words, whose images are nonzero
            word = [rng.choice(crossings_and_dots)
                    for _ in range(rng.randint(0, longest))]
            yield to_daha(word, d)
            # sums of normal forms with bends: only the cup-free terms survive
            x = normalize(random_word(rng, d, longest - 2, 4), d)
            yield to_daha(x.add(normalize(word[:6], d), rng.randint(-3, 3)))


def hexdigest(outputs):
    digest = hashlib.sha256()
    for x in outputs:
        digest.update(documents.dumps(documents.to_document(x),
                                      compact=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_seeded_outputs_keep_their_digest():
    assert hexdigest(seeded_outputs()) == DIGEST


def test_seeded_quotient_images_keep_their_digest():
    assert hexdigest(seeded_daha_images()) == DAHA_DIGEST
