"""The four benchmark workloads, their seeded inputs and their output checks.

Each workload is built so that one layer (module of the package) does most
of its work and the others almost none.  A change to one layer then moves
the end-to-end numbers of exactly one workload, and a cost it moves into
another layer shows on another workload.

=============  =======================================  ======================
workload       layer metrics that should move            end-to-end metrics
=============  =======================================  ======================
rewrite        affine.normalize, affine.multiply,        ops_per_s, op_p90_ms
               affine.normalize_cache.hit_ratio,         ops_per_s
               affine.terms_out
               wordparse.parse_expression,               ops_per_s (about 20%)
               documents.to_document/from_document
compose        brauer.diagram_of_word, brauer.multiply   ops_per_s, first_op_s
               (kernels.combine_scaled and
               tensoraction.evaluate_word under them)
               exactla.mat_mul (the pi_m products)       ops_per_s
soundness      tensoraction.evaluate_word_sum,           ops_per_s, op_p90_ms
               tensoraction.evaluate_word,
               kernels.apply_columns, tensoraction.op_nnz
               tensoraction.evaluate_cache.hit_ratio     peak_rss_mb, ops_per_s
               and .size
               exactla.operator_eq                       ops_per_s
independence   kernels.reduce_against,                   ops_per_s
               tensoraction.commutant_dimension,
               affine.pbw_rank_check
=============  =======================================  ======================

Every workload is a closed loop: one process, one thread, each operation
starts when the previous one has finished.  An operation's output is kept
and checked after the timed phase, so checking costs no timed work.

Memory note: rewrite's peak_rss_mb grows with the number of operations a
run completes, because the package's normalize cache has no limit; a
faster rewriting engine completes more operations and so reports more.
"""

import math
from fractions import Fraction

from periplectic import (affine, brauer, documents, exactla, tensoraction,
                         wordparse)
from periplectic.tensoraction import E, S, TensorSpaceSpec, Y

ALPHABET_D2 = (S(1), E(1), Y(1), Y(2))
ALPHABET_D3 = (S(1), S(2), E(1), E(2), Y(1), Y(2), Y(3))
LETTERS_D4 = (S(1), S(2), S(3), E(1), E(2), E(3))
# fixed first inputs; FIRST_D4 closes no loop
FIRST_D2 = (S(1), Y(2), E(1), Y(1))
FIRST_D3 = (S(1), E(2), Y(3), S(2), Y(1), E(1), Y(2))
FIRST_D4 = (S(2), E(1), S(3), E(2))


def random_word(rng, alphabet, shortest, longest):
    return tuple(rng.choice(alphabet)
                 for _ in range(rng.randint(shortest, longest)))


def dots(word):
    return sum(tok.kind == "Y" for tok in word)


def expression(word):
    """The command-line spelling of a word, e.g. ``s1*e2*y3``."""
    return "*".join(f"{tok.kind.lower()}{tok.index}" for tok in word)


def flip(x):
    """A wrong element: one coefficient sign flipped (or 1 added to zero)."""
    if not x.terms:
        return x.add(type(x).one(x.d))
    first = next(iter(x.terms))
    return type(x)(x.d, {u: -c if u == first else c
                         for u, c in x.terms.items()})


def flip_op(op):
    ent = dict(op.matrix.entries)
    key = min(ent) if ent else (0, 0)
    ent[key] = -ent.get(key, Fraction(-1))
    return tensoraction.EndoOperator(
        op.spec, exactla.SparseMatrix(op.spec.dim, op.spec.dim, ent))


def stacked_matching(word, d):
    """Compose the generator diagrams of an S/E word by stacking them.

    Purely combinatorial, independent of the representation: returns the
    matching pairs of the composite with top vertices 1..d and bottom
    vertices -1..-d, or None if a closed loop forms (the product is then 0).
    """
    # vertex (level, position); letter k joins level k to level k+1
    adj = {}

    def join(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    for k, tok in enumerate(word):
        a = tok.index
        for p in range(1, d + 1):
            if p not in (a, a + 1):
                join((k, p), (k + 1, p))
        if tok.kind == "S":
            join((k, a), (k + 1, a + 1))
            join((k, a + 1), (k + 1, a))
        else:
            join((k, a), (k, a + 1))
            join((k + 1, a), (k + 1, a + 1))
    last = len(word)
    seen = set()
    pairs = []

    def signed(v):
        return v[1] if v[0] == 0 else -v[1]

    for start in [(0, p) for p in range(1, d + 1)] + [(last, p)
                                                       for p in range(1, d + 1)]:
        if start in seen:
            continue
        prev, cur = None, start
        seen.add(cur)
        while True:
            nxt = [v for v in adj.get(cur, ()) if v != prev]
            if not nxt or (cur != start and cur[0] in (0, last)):
                break
            prev, cur = cur, nxt[0]
            seen.add(cur)
        pairs.append((signed(start), signed(cur)))
    if len(seen) < (last + 1) * d:
        return None
    return pairs


def matching_key(pairs):
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


class DiagramWords:
    """Loop-free words over ``letters`` drawn for a chosen Brauer diagram.

    The diagram of a word, and whether it closes a loop, depend only on the
    diagram of the word without its last letter and on that letter.  So one
    word per diagram gives every transition, counting the loop-free words of
    each length that end at each diagram takes a few additions, and a word
    of a given length and diagram is drawn uniformly from the end, letter by
    letter.  All of it is combinatorics on ``stacked_matching``, independent
    of the package.
    """

    def __init__(self, letters, d, longest):
        ident = matching_key((p, -p) for p in range(1, d + 1))
        word_of = {ident: ()}
        into = {}        # diagram -> [(diagram before the letter, letter)]
        frontier = [ident]
        while frontier:
            reached = []
            for g in frontier:
                for a in letters:
                    pairs = stacked_matching(word_of[g] + (a,), d)
                    if pairs is None:
                        continue
                    h = matching_key(pairs)
                    into.setdefault(h, []).append((g, a))
                    if h not in word_of:
                        word_of[h] = word_of[g] + (a,)
                        reached.append(h)
            frontier = reached
        self.diagrams = sorted(word_of)
        self.into = into
        # count[k][g]: loop-free words of length k whose diagram is g
        self.count = [{ident: 1}]
        for _ in range(longest):
            before, now = self.count[-1], {}
            for h, edges in into.items():
                total = sum(before.get(g, 0) for g, _ in edges)
                if total:
                    now[h] = total
            self.count.append(now)

    def lengths(self, g, shortest):
        return [k for k in range(shortest, len(self.count))
                if g in self.count[k]]

    def draw(self, rng, g, length):
        word = []
        for k in range(length, 0, -1):
            edges = [(h, a) for h, a in self.into[g] if h in self.count[k - 1]]
            g, a = rng.choices(edges,
                               [self.count[k - 1][h] for h, _ in edges])[0]
            word.append(a)
        return tuple(reversed(word))


class Rewrite:
    """Random words at d = 3 through the in-process ``normalize --json`` path.

    Why: rewriting is most of the self time here and composition almost
    none.  One operation in five is instead a product of two short normal
    forms, which appends onto accumulators with many terms and bypasses the
    normalize cache; operands stay short because one product of two large
    normal forms can take minutes.  Words (and the two operands of a
    product together) carry at most four dot letters: the cost grows
    steeply with the dots, and the one word in a thousand with six or seven
    of them took up to a seventh of a run, so that throughput and tail
    latency followed the seed more than the program.
    """

    name = "rewrite"
    d = 3
    round_ops = 5
    max_dots = 4
    check_space = TensorSpaceSpec(2, 0, 3)
    tensor_checks = 150

    def inputs(self, rng):
        # the first word is the same in every run and starts with a
        # crossing, so that the first operation always composes and pays for
        # the lazily built span solver, and first_op_s measures that build
        # rather than the cost of one random word
        yield ("normalize", FIRST_D3)
        i = 1
        while True:
            if i % 5 == 4:
                u, v = self.word(rng, 2, 4), self.word(rng, 2, 4)
                while dots(u + v) > self.max_dots:
                    u, v = self.word(rng, 2, 4), self.word(rng, 2, 4)
                yield ("product", u, v)
            else:
                yield ("normalize", self.word(rng, 4, 10))
            i += 1

    def word(self, rng, shortest, longest):
        word = random_word(rng, ALPHABET_D3, shortest, longest)
        while dots(word) > self.max_dots:
            word = random_word(rng, ALPHABET_D3, shortest, longest)
        return word

    def run(self, inp, fault):
        d = self.d
        if inp[0] == "product":
            out = affine.multiply(affine.normalize(inp[1], d),
                                  affine.normalize(inp[2], d))
            return flip(out) if fault else out
        parsed = wordparse.parse_expression(expression(inp[1]), d)
        acc = affine.PdElement.zero(d)
        for coeff, word in parsed:
            acc = acc.add(affine.normalize(list(word), d).scaled(coeff))
        text = documents.dumps(documents.to_document(acc), compact=True)
        back = documents.from_document(documents.loads(text))
        # only the verdict is kept: holding every normal form until the
        # checks would double the peak memory this workload reports
        return (flip(back) if fault else back) == acc

    def check(self, index, inp, out):
        d = self.d
        if inp[0] == "product":
            word = inp[1] + inp[2]
            elem = out
            if elem != affine.normalize(word, d):
                return False
        else:
            if out is not True:
                return False
            word = inp[1]
            elem = affine.normalize(word, d)
        if index % 5 not in (0, 4) or index // 5 >= self.tensor_checks:
            return True
        return (affine.tensor_image(elem, self.check_space)
                == tensoraction.evaluate_word(word, self.check_space))


class Compose:
    """Dotless words at d = 4 resolved into the diagram algebra, plus shift
    images pi_2 of short d = 2 words (products on four strands).

    Why: nearly all the time goes to diagram composition through the
    representation and the span solve in ``brauer``, including the solver
    that the first operation builds; rewriting is absent.  The words close
    no loop, so every diagram operation reaches the solve.
    """

    name = "compose"
    d = 4
    round_ops = 120
    check_n = 2

    def inputs(self, rng):
        # the first word is the same in every run; it builds the solver
        yield ("diagram", FIRST_D4)
        # Then rounds that resolve words to each of the 105 diagrams once,
        # in a seeded order, each word of a seeded length 2..7 drawn
        # uniformly among the loop-free words of that length and diagram;
        # after every seventh word comes a pi_2 image of a word of length
        # 1..3, so a round is 120 operations.
        # The span solve's cost depends on the diagram it returns (up to ten
        # times the median), so with a few hundred operations a run, words
        # drawn independently made throughput and the median follow the
        # seed.  Words that close a loop evaluate to zero before the solve
        # and are left out.
        words = DiagramWords(LETTERS_D4, self.d, 7)
        images = 0
        while True:
            targets = list(words.diagrams)
            rng.shuffle(targets)
            for j, g in enumerate(targets):
                length = rng.choice(words.lengths(g, 2))
                yield ("diagram", words.draw(rng, g, length))
                if j % 7 == 6:
                    k = images % 3 + 1
                    yield ("pi_m", random_word(rng, (S(1), E(1)), k, k))
                    images += 1

    def run(self, inp, fault):
        if inp[0] == "pi_m":
            out = affine.pi_m_word(list(inp[1]), 2, 2)
        else:
            out = brauer.diagram_of_word(list(inp[1]), self.d)
        return flip(out) if fault else out

    def check(self, index, inp, out):
        n = self.check_n
        if inp[0] == "pi_m":
            want = affine.tensor_image(affine.normalize(inp[1], 2),
                                       TensorSpaceSpec(n, 2, 2))
            return brauer.psi_image(out, n).matrix == want.matrix
        pairs = stacked_matching(inp[1], self.d)
        if pairs is None:
            if out.terms:
                return False
        else:
            g = brauer.BrauerDiagram(self.d, pairs)
            if set(out.terms) != {g} or abs(out.terms[g]) != 1:
                return False
        return (brauer.psi_image(out, n)
                == tensoraction.evaluate_word(inp[1],
                                              TensorSpaceSpec(n, 0, self.d)))


class Soundness:
    """The rewriting-soundness cross-check: the image of the normal form of
    a word on a tensor space must equal the image of the word itself.

    Why: the representation layer (word evaluation, operator sums, column
    application) is most of the time and rewriting is small.  The spaces
    take turns in a fixed order; the 512-entry word-image cache fills, so
    cache-bound and memory changes show in peak_rss_mb.  (n, m) = (3, 3) is
    left out: on its own it takes minutes and gigabytes.  On the two largest
    spaces words have at most four letters and at most two dot letters:
    each dot letter triples the cost there, and the rare words with many
    dots made throughput and tail latency depend on the seed more than on
    the program.
    """

    name = "soundness"
    round_ops = 10
    spaces = (TensorSpaceSpec(2, 0, 2), TensorSpaceSpec(2, 1, 2),
              TensorSpaceSpec(2, 2, 2), TensorSpaceSpec(3, 0, 2),
              TensorSpaceSpec(3, 1, 2), TensorSpaceSpec(3, 2, 2),
              TensorSpaceSpec(2, 3, 2), TensorSpaceSpec(2, 0, 3),
              TensorSpaceSpec(2, 1, 3), TensorSpaceSpec(3, 0, 3))

    largest = (TensorSpaceSpec(3, 2, 2), TensorSpaceSpec(2, 3, 2))

    def inputs(self, rng):
        # the first word is the same in every run and uses every letter, so
        # that the first operation builds every table its space needs
        yield (self.spaces[0], FIRST_D2)
        i = 1
        while True:
            spec = self.spaces[i % len(self.spaces)]
            if spec in self.largest:
                word = random_word(rng, ALPHABET_D2, 1, 4)
                while sum(tok.kind == "Y" for tok in word) > 2:
                    word = random_word(rng, ALPHABET_D2, 1, 4)
            elif spec.d == 2:
                word = random_word(rng, ALPHABET_D2, 1, 6)
            else:
                word = random_word(rng, ALPHABET_D3, 1, 4)
            yield (spec, word)
            i += 1

    def run(self, inp, fault):
        spec, word = inp
        image = affine.tensor_image(affine.normalize(word, spec.d), spec)
        if fault:
            image = flip_op(image)
        return image == tensoraction.evaluate_word(word, spec)

    def check(self, index, inp, out):
        return out is True


# Number of regular monomials of total degree <= k on d strands: the known
# answer of a rank window (d, k, n).
KNOWN_COUNT = {(1, 1): 2, (1, 2): 3, (2, 0): 3}


class Independence:
    """Commutant dimensions of m = 0 spaces, and linear independence of the
    normal-form monomials under the stacked representations.

    Why: exact echelon reduction (``kernels.reduce_against``) is most of the
    time here and is absent from the other three workloads.  The rank
    windows stay small: in larger ones flattening the operators (affine
    self time) rivals the echelon.
    """

    name = "independence"
    round_ops = 35
    spaces = (TensorSpaceSpec(2, 0, 2), TensorSpaceSpec(3, 0, 2),
              TensorSpaceSpec(4, 0, 2))
    windows = ((1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 2, 4), (1, 2, 5),
               (1, 2, 6), (2, 0, 3), (2, 0, 4), (2, 0, 5), (2, 0, 6))

    def inputs(self, rng):
        # A fixed cycle of seven: the first operation has the same input in
        # every run, and the median operation is a (3, 0, 2) commutant, not
        # a gap between two kinds.  The rank windows come in seeded orders
        # of all ten, so that a round of 35 operations holds each once.
        small, mid, large = self.spaces
        windows = []
        while True:
            if not windows:
                windows = list(self.windows)
                rng.shuffle(windows)
            yield ("commutant", mid)
            yield ("pbw", windows.pop())
            yield ("commutant", small)
            yield ("pbw", windows.pop())
            yield ("commutant", mid)
            yield ("commutant", large)
            yield ("commutant", mid)

    def run(self, inp, fault):
        kind, arg = inp
        if kind == "pbw":
            count, rank = affine.pbw_rank_check(*arg)
            return count, rank - 1 if fault else rank
        dim = tensoraction.commutant_dimension(arg)
        return dim + 1 if fault else dim

    def check(self, index, inp, out):
        kind, arg = inp
        if kind == "pbw":
            want = KNOWN_COUNT[arg[:2]]
            return out == (want, want)
        # at n >= d the commutant is spanned by the (2d-1)!! diagrams
        return out == math.prod(range(1, 2 * arg.d, 2))


WORKLOADS = {w.name: w for w in (Rewrite(), Compose(), Soundness(),
                                 Independence())}
