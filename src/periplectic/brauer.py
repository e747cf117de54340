"""The finite diagram algebra on d strands (signed perfect matchings).

A diagram on d strands is a perfect matching on the 2d vertices
{1..d} (top row) and {-1..-d} (bottom row, printed 1bar..dbar).  The algebra
basis element attached to a diagram g is, by definition, the image under the
m = 0 representation of a fixed canonical generator word for g; all signs
are induced by that normalization.  That word, its sign at g's witness
coordinate and the right ends of g's bends are one record per diagram
(`diagram_record`), the one cache the rewriting engine reads diagrams from,
bounded at 2048 diagrams.

The product of two diagrams is +-1 times one diagram, or 0, and
`stack_word` reads it off the stacked picture of a dotless word without
evaluating any representation: the paths' ends give the diagram, a closed
loop gives 0 (sdim V = 0), and the sign is a product of the letters' local
signs along a parity labelling of the paths.  These are signed pictures as
in Kujawa-Tharp's marked Brauer category (arXiv:1411.6929), but the local
signs are read off the representation's conventions, not derived from
that category.
`diagram_of_word` computes the same through the faithful representation at
n = d, read back at one coordinate per diagram, its witness, where the
diagram's own image is +-1 and every other diagram's image is 0; it runs the
word on the witnesses' distinct inputs only (10 basis vectors at d = 4, of
4,096), and it is the oracle the stacking rule is tested against.

Words multiply by stacking: in a product x*y the x-word sits on top.  Under
the right-action convention the matrix of x*y is Mat(y) . Mat(x).
"""

from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from . import tensoraction
from .exactla import Combination
# unused here; perfbench/tracer.py wraps brauer.mat_mul and
# brauer.evaluate_word by name
from .exactla import mat_mul  # noqa: F401
from .kernels import combine_scaled
from .tensoraction import E, S, TensorSpaceSpec, check_word
from .tensoraction import evaluate_word  # noqa: F401


class BrauerDiagram:
    """A perfect matching on {1..d} and {-1..-d}, stored canonically."""

    __slots__ = ("d", "matching", "_hash")

    def __init__(self, d, matching):
        # the vertex order: top 1..d first, then bottom 1..d, keyed as
        # 1..2d so that one sort of plain tuples puts the pairs in order
        keyed = []
        for a, b in matching:
            ka = a if a > 0 else d - a
            kb = b if b > 0 else d - b
            keyed.append((ka, a, b) if ka < kb else (kb, b, a))
        keyed.sort()
        pairs = tuple((a, b) for _k, a, b in keyed)
        seen = set().union(*pairs)
        if len(pairs) != d or seen != set(range(-d, d + 1)) - {0}:
            raise ValueError(f"not a perfect matching on {2*d} vertices: {matching}")
        self.d = d
        self.matching = pairs
        # diagrams key every term and cache; hash the matching once
        self._hash = hash((d, pairs))

    # -- structure ---------------------------------------------------------

    def partner(self, v):
        for a, b in self.matching:
            if a == v:
                return b
            if b == v:
                return a
        raise KeyError(v)

    def cups(self):
        """Top horizontal edges as (left, right) with left < right."""
        return [(a, b) for a, b in self.matching if a > 0 and b > 0]

    def caps(self):
        """Bottom horizontal edges as positive (left, right), left < right."""
        return [(-a, -b) for a, b in self.matching if a < 0 and b < 0]

    def strands(self):
        """Through edges as (top, bottom) with both positive."""
        return [(a, -b) for a, b in self.matching if a > 0 and b < 0]

    def is_permutation(self):
        return not self.cups()

    def permutation(self):
        """For a cup-free diagram, the map top -> bottom as a dict."""
        if not self.is_permutation():
            raise ValueError("diagram has horizontal edges")
        return {a: -b for a, b in self.matching}

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, d):
        return cls(d, [(i, -i) for i in range(1, d + 1)])

    @classmethod
    def s_generator(cls, d, a):
        pairs = [(i, -i) for i in range(1, d + 1) if i not in (a, a + 1)]
        pairs += [(a, -(a + 1)), (a + 1, -a)]
        return cls(d, pairs)

    @classmethod
    def eps_generator(cls, d, a):
        pairs = [(i, -i) for i in range(1, d + 1) if i not in (a, a + 1)]
        pairs += [(a, a + 1), (-a, -(a + 1))]
        return cls(d, pairs)

    @classmethod
    def transposition(cls, d, i, j):
        pairs = [(k, -k) for k in range(1, d + 1) if k not in (i, j)]
        pairs += [(i, -j), (j, -i)]
        return cls(d, pairs)

    @classmethod
    def marked(cls, d, i, j):
        pairs = [(k, -k) for k in range(1, d + 1) if k not in (i, j)]
        pairs += [(i, j), (-i, -j)]
        return cls(d, pairs)

    @classmethod
    def from_permutation(cls, d, perm):
        """perm maps top vertex -> bottom vertex (1-based)."""
        return cls(d, [(i, -perm[i]) for i in range(1, d + 1)])

    def __eq__(self, other):
        return (isinstance(other, BrauerDiagram)
                and self.d == other.d and self.matching == other.matching)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        def v(x):
            return str(x) if x > 0 else f"{-x}̄"
        return "{" + ", ".join(f"{v(a)}-{v(b)}" for a, b in self.matching) + "}"


class ADElement(Combination):
    """A rational linear combination of diagrams on d strands."""

    __slots__ = ()

    def _check_key(self, g):
        if g.d != self.d:
            raise ValueError("mixed strand counts")

    @classmethod
    def one(cls, d):
        return cls(d, {BrauerDiagram.identity(d): 1})

    @classmethod
    def from_diagram(cls, g, coeff=1):
        return cls(g.d, {g: coeff})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{g}" for g, c in sorted(
            self.terms.items(), key=lambda t: t[0].matching))


# One entry per strand count, holding (2d - 1)!! diagrams: the whole test
# suite enumerates six strand counts and the benchmark workloads at most
# two, so eight entries hold every working set (d = 8 alone is 2,027,025
# diagrams).
@lru_cache(maxsize=8)
def enumerate_diagrams(d):
    """All (2d-1)!! diagrams, in a fixed deterministic order."""
    if d < 1:
        raise ValueError("d must be >= 1")
    verts = list(range(1, d + 1)) + list(range(-1, -d - 1, -1))
    out = []

    def rec(remaining, acc):
        if not remaining:
            out.append(BrauerDiagram(d, acc))
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            rec(remaining[1:k] + remaining[k + 1:], acc + [(first, remaining[k])])

    rec(verts, [])
    return tuple(out)


def marked_pair(i, j, d, kind="marked"):
    """Word, as a tuple of tokens, for the long-range transposition (i,j)
    or its marked variant.

    Both come from conjugating the adjacent generator at j-1 by the chain
    s_i ... s_{j-2}.
    """
    if not 1 <= i < j <= d:
        raise ValueError(f"need 1 <= i < j <= d, got ({i},{j}) at d={d}")
    chain = tuple(S(a) for a in range(i, j - 1))
    if kind == "marked":
        mid = (E(j - 1),)
    elif kind == "transposition":
        mid = (S(j - 1),)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return chain + mid + chain[::-1]


def _swaps(perm, d):
    """The positions of the adjacent swaps that sort top i -> bottom perm[i].

    Deterministic bubble sort of the one-line form, always swapping the
    first out-of-order pair; swapping the entries at positions a, a+1
    yields a, the letter S(a) of the word.  The entries before that pair
    are in order, and a swap can put only the pair just before it out of
    order, so the scan steps back one place instead of restarting:
    d + 2 * inversions steps.
    """
    p = [perm[i] for i in range(1, d + 1)]
    a = 0
    while a < d - 1:
        if p[a] > p[a + 1]:
            p[a], p[a + 1] = p[a + 1], p[a]
            yield a + 1
            a = max(a - 1, 0)
        else:
            a += 1


def _cups_and_permutation(g):
    """The cups of g in increasing order, and the permutation that
    `canonical_word` realizes below their marked pairs."""
    cups = sorted(g.cups())
    perm = {}
    for (a, b), (c, e) in zip(cups, sorted(g.caps())):
        perm[a] = c
        perm[b] = e
    for (t, b) in g.strands():
        perm[t] = b
    return cups, perm


class DiagramRecord(NamedTuple):
    """What the rewriting engine reads off one diagram g."""
    diagram: BrauerDiagram     # g as first seen
    word: tuple                # canonical_word(g)
    sign: int                  # the word's value at g's witness coordinate
    cup_ends: frozenset        # the right ends of g's cups
    cap_ends: frozenset        # the right ends of g's caps


# The one per-diagram cache.  Its 2048 entries hold every diagram on d <= 5
# strands (1 + 3 + 15 + 105 + 945 = 1,069).  Products reach any d: the
# whole test suite asks for 1,486 diagrams (all of d = 5, 300 of d = 6),
# and 3,000 random d = 6 words of up to 10 letters and 3 dots reach 2,019;
# the bound evicts what a larger working set needs again.  It hands back the
# diagram first seen, so equal products are one object while cached and the
# engine's dict lookups match them by identity, not by __eq__ (which doubled
# its calls in the rewrite workload).
@lru_cache(maxsize=2048)
def diagram_record(g):
    """The DiagramRecord of g."""
    cups, perm = _cups_and_permutation(g)
    word = [tok for a, b in cups for tok in marked_pair(a, b, g.d)]
    word = tuple(word + [S(a) for a in _swaps(perm, g.d)])
    return DiagramRecord(g, word, _stacked(word, g.d)[1],
                         frozenset(b for _a, b in cups),
                         frozenset(b for _a, b in g.caps()))


def canonical_word(g):
    """A fixed S/E generator word for the diagram g, as a tuple of tokens.

    The basis element of g is, by definition, the m = 0 image of this word,
    so no sign relates the two.  The word factors g as marked pairs (cups
    with matched caps) over a permutation word, processing cups in
    increasing order of left endpoint.
    """
    return diagram_record(g).word


def canonical_length(g, limit):
    """len(canonical_word(g)) if it is at most `limit`, else a number above
    `limit`: counted without building the word, in O(d + limit) steps."""
    cups, perm = _cups_and_permutation(g)
    n = sum(2 * (b - a) - 1 for a, b in cups)
    if n > limit:
        return n
    return n + sum(1 for _a in islice(_swaps(perm, g.d), limit - n + 1))


# ---------------------------------------------------------------------------
# products by stacking
# ---------------------------------------------------------------------------

def _end(v, d):
    """The diagram vertex of a path end: -p is top end p, -(d + p) bottom
    end p."""
    return -v if v >= -d else d + v


def _stacked(word, d):
    """(pairs, sign) for a dotless S/E word, or None when it closes a loop:
    the pairs of its diagram r, and the sign derived below.

    Letter k has four vertices: 4k and 4k + 1 just above it at positions a
    and a + 1, 4k + 2 and 4k + 3 just below.  A strand segment joins each
    of them to the nearest vertex or end at its position (`link`); the
    letter joins them in pairs (`across`), a crossing from above to below,
    a bend above to above (its cap) and below to below (its cup).  A
    position no letter touches is a through strand, so the path walk grows
    with the letters; only listing r's pairs takes O(d).

    Each path starts at its first end, top ends before bottom ends and each
    row by position, with parity 0, and its parity flips at every cap or
    cup it passes.  These are the parities of `_witnesses`' digits, where
    an edge's second end is barred exactly when the edge is a cup or a cap,
    so `sign` is the word's value at r's witness coordinate: S(a) gives -1
    when both labels just above it are odd, E(a) when the label just below
    it at position a is odd.  A vertex no path reaches lies on a loop.
    """
    link, below, across = {}, {}, []
    for k, (kind, a) in enumerate(word):
        v = 4 * k
        for slot, p in ((v, a), (v + 1, a + 1)):
            up = below.get(p, -p)
            link[slot] = up
            link[up] = slot
        below[a] = v + 2
        below[a + 1] = v + 3
        across += ((v + 3, v + 2, v + 1, v) if kind == "S"
                   else (v + 1, v, v + 3, v + 2))
    for p, v in below.items():
        link[v] = -(d + p)
        link[-(d + p)] = v
    parity = [-1] * len(across)
    touched = sorted(below)
    ends = {}   # first end -> second end, as diagram vertices
    done = set()
    for start in [-p for p in touched] + [-(d + p) for p in touched]:
        if start in done:
            continue
        v, bit = link[start], 0
        while v >= 0:
            parity[v] = bit
            bit ^= word[v >> 2].kind == "E"
            v = across[v]
            parity[v] = bit
            v = link[v]
        done.add(v)
        ends[_end(start, d)] = _end(v, d)
    if -1 in parity:
        return None
    sign = 1
    for k, (kind, _a) in enumerate(word):
        v = 4 * k
        if parity[v] & parity[v + 1] if kind == "S" else parity[v + 2]:
            sign = -sign
    matching = [(p, -p) for p in range(1, d + 1) if p not in below]
    matching += ends.items()
    return matching, sign


def stack_word(word, d):
    """Resolve a dotless S/E word into the diagram algebra by stacking.

    The word and the canonical word of its diagram r take +-1 at r's
    witness coordinate, and the word is that ratio times r's basis element,
    so r's coefficient is the product of the two signs.
    """
    check_word(word, d)
    for tok in word:
        if tok.kind not in ("S", "E"):
            raise ValueError(f"stack_word takes S and E letters, got {tok}")
    stacked = _stacked(word, d)
    if stacked is None:
        return ADElement.zero(d)
    pairs, sign = stacked
    r = diagram_record(BrauerDiagram(d, pairs))
    return ADElement(d, {r.diagram: sign * r.sign})


def multiply(x, y):
    """Product x*y, bilinear over pairs of diagrams: each pair (g, h) is
    the stacked word canonical_word(g) + canonical_word(h), g on top."""
    if x.d != y.d:
        raise ValueError("mixed strand counts")
    d = x.d
    acc = {}
    for g, cg in x.terms.items():
        wg = canonical_word(g)
        for h, ch in y.terms.items():
            combine_scaled(acc, stack_word(wg + canonical_word(h), d).terms,
                           cg * ch)
    return ADElement(d, acc)


# ---------------------------------------------------------------------------
# representation oracle
# ---------------------------------------------------------------------------

class _Witnesses(tuple):
    """The (g, input, output, value) records of `_witnesses`, in diagram
    order; `by_input` groups them as input -> ((g, output, value), ...)."""


# One entry per strand count up to `diagram_of_word`'s four, each (2d - 1)!!
# witnesses: 105 at d = 4, on 10 distinct inputs.
@lru_cache(maxsize=4)
def _witnesses(d):
    """(g, input, output, value) for every diagram g on d strands.

    At n = d each of g's d edges gets its own value k: a through edge puts
    digit k on both ends, a cup or cap puts k on one end and bar(k) = k + n
    on the other; top vertices are input (column) digits and bottom vertices
    output (row) digits.  At that (input, output) coordinate g's image is
    `value`, +-1, and every other diagram's image is 0: an edge of another
    diagram joins two ends of one value class, and those pairs are exactly
    g's edges.
    """
    n = d
    spec = TensorSpaceSpec(n, 0, d)
    out, by_input = [], {}
    for g in enumerate_diagrams(d):
        inp, outp = [0] * d, [0] * d
        for k, (a, b) in enumerate(g.matching):
            through = (a > 0) != (b > 0)
            for v, digit in ((a, k), (b, k if through else k + n)):
                (inp if v > 0 else outp)[abs(v) - 1] = digit
        i, o = spec.rank(inp), spec.rank(outp)
        value = tensoraction.apply_word_to_vector(
            canonical_word(g), spec, {i: 1})[o]
        out.append((g, i, o, value))
        by_input.setdefault(i, []).append((g, o, value))
    witnesses = _Witnesses(out)
    witnesses.by_input = {i: tuple(rows) for i, rows in by_input.items()}
    return witnesses


def _read_diagrams(d, column):
    """The ADElement whose image at n = d has the columns `column(input)`,
    for an operator in the span of the diagram images; `column` is called
    once for each distinct witness input."""
    terms = {}
    for i, rows in _witnesses(d).by_input.items():
        col = column(i)
        if col:
            for g, o, value in rows:
                v = col.get(o)
                if v:
                    # value is +-1, so dividing by it is multiplying by it
                    terms[g] = v * value
    return ADElement(d, terms)


def psi_image(x, n):
    """The m = 0 image of an ADElement, as an EndoOperator."""
    return tensoraction.evaluate_word_sum(
        ((canonical_word(g), c) for g, c in x.terms.items()),
        TensorSpaceSpec(n, 0, x.d))


def diagram_of_word(word, d):
    """Resolve a dotless S/E word through its image at n = d, read at the
    witnesses: the oracle of `stack_word`, on up to four strands.

    The word runs on each distinct witness input alone, 10 of the 4,096
    basis vectors at d = 4, once per input, and `_read_diagrams` reads each
    result at that input's witnesses as it comes; no image of the word is
    built or cached.
    """
    if d > 4:
        raise ValueError(f"diagram_of_word evaluates on (2d)^d dimensions; "
                         f"d={d} is above its 4")
    spec = TensorSpaceSpec(d, 0, d).validate()
    word = tuple(word)
    check_word(word, d)
    return _read_diagrams(d, lambda i: tensoraction.apply_word_to_vector(
        word, spec, {i: 1}))


def jm_element(j, d):
    """The commuting family member z_j = sum_{k<j} (k,j) + marked (k,j)."""
    if not 1 <= j <= d:
        raise ValueError(f"j={j} out of range for d={d}")
    terms = {}
    for k in range(1, j):
        terms[BrauerDiagram.transposition(d, k, j)] = 1
        terms[BrauerDiagram.marked(d, k, j)] = 1
    return ADElement(d, terms)


def matching_of_operator(op, d):
    """Infer the matching pattern from a (signed) diagram-image operator.

    Under the right-action convention the word's first letter meets the
    input, and the regular-form conventions place that side on the TOP row
    of the picture; so top vertices read the input digits and bottom
    vertices the output digits.  Two positions are joined iff their digits
    are perfectly correlated across the support (equal for top-bottom,
    mutually barred for same-row pairs).  Returns a BrauerDiagram; raises if
    the support is not a matching pattern.
    """
    spec = op.spec
    n = spec.n
    if spec.m != 0 or spec.d != d:
        raise ValueError("operator/diagram shape mismatch")
    support = []
    for c, col in op.columns.items():
        # top row = input digits (column), bottom row = output digits (row)
        support.extend((spec.digits(c), spec.digits(r)) for r in col)
    if not support:
        raise ValueError("zero operator has no matching pattern")

    def bar(x):
        return (x + n) % (2 * n)

    verts = [("T", i) for i in range(d)] + [("B", i) for i in range(d)]

    def digit(entry, v):
        out, inp = entry
        return out[v[1]] if v[0] == "T" else inp[v[1]]

    pairs = []
    used = set()
    for a in range(2 * d):
        if verts[a] in used:
            continue
        for b in range(a + 1, 2 * d):
            if verts[b] in used:
                continue
            va, vb = verts[a], verts[b]
            same_row = va[0] == vb[0]
            if same_row:
                ok = all(digit(e, va) == bar(digit(e, vb)) for e in support)
            else:
                ok = all(digit(e, va) == digit(e, vb) for e in support)
            if ok:
                pairs.append((va, vb))
                used.add(va)
                used.add(vb)
                break
        else:
            raise ValueError("support is not a matching pattern")

    def signed(v):
        return v[1] + 1 if v[0] == "T" else -(v[1] + 1)

    return BrauerDiagram(d, [(signed(a), signed(b)) for a, b in pairs])
