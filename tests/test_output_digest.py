"""Same outputs, pinned: a SHA-256 over the documents of a seeded set.

The set is 1,020 normal forms at d = 2/3/4 with at most four dots, 60
`multiply` products of two-word sums and 30 `pi_m` images.
`documents.dumps` writes terms in a fixed order, so the digest changes
exactly when some output does: a refactor of the rewriting engine that
keeps its results keeps the digest.
"""

import hashlib
import random

from periplectic import documents
from periplectic.affine import multiply, normalize, pi_m
from periplectic.tensoraction import E, S, Y

DIGEST = "1684d02cd4d6d72bb43815b9b445e25dff0de68f44e8c12f0e6e7a0ae5d5889b"


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


def test_seeded_outputs_keep_their_digest():
    digest = hashlib.sha256()
    for x in seeded_outputs():
        digest.update(documents.dumps(documents.to_document(x),
                                      compact=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == DIGEST
