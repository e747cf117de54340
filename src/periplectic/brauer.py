"""The finite diagram algebra on d strands (signed perfect matchings).

A diagram on d strands is a perfect matching on the 2d vertices
{1..d} (top row) and {-1..-d} (bottom row, printed 1bar..dbar).  The algebra
basis element attached to a diagram g is, by definition, the image under the
m = 0 representation of a fixed canonical generator word for g; all signs
are induced by that normalization, and the matrices are the single source of
truth.  A product is evaluated through the faithful representation at n = d
and read back in the diagram basis at one coordinate per diagram, its
witness: there the diagram's own image is +-1 and every other diagram's
image is 0.

Words multiply by stacking: in a product x*y the x-word sits on top.  Under
the right-action convention the matrix of x*y is Mat(y) . Mat(x).
"""

from functools import lru_cache

from . import tensoraction
from .exactla import Combination
# unused here; perfbench/tracer.py wraps brauer.mat_mul by name
from .exactla import mat_mul  # noqa: F401
from .tensoraction import E, S, TensorSpaceSpec, evaluate_word


# A product is evaluated on the whole n = d space, of dimension (2d)^d.  At
# d = 5 one two-letter word (e1*s2) took 2.7 s and 202 MB peak (2-core host,
# Python 3.11), and the word-image cache keeps up to 512 such tables, so
# larger products fail at once instead of exhausting memory.
MAX_PRODUCT_D = 4


class TooManyStrands(ValueError):
    """A diagram product on more strands than MAX_PRODUCT_D."""


def _check_product_size(d):
    if d > MAX_PRODUCT_D:
        raise TooManyStrands(
            f"diagram products are limited to d <= {MAX_PRODUCT_D} strands "
            f"(got d={d}): each is evaluated on a space of dimension (2d)^d")


def _vkey(v):
    # top vertices first (ascending), then bottom vertices (ascending)
    return (0, v) if v > 0 else (1, -v)


class BrauerDiagram:
    """A perfect matching on {1..d} and {-1..-d}, stored canonically."""

    __slots__ = ("d", "matching", "_hash")

    def __init__(self, d, matching):
        pairs = []
        seen = set()
        for p in matching:
            a, b = p
            pairs.append(tuple(sorted((a, b), key=_vkey)))
            seen.update(p)
        pairs.sort(key=lambda p: (_vkey(p[0]), _vkey(p[1])))
        expected = set(range(1, d + 1)) | set(range(-d, 0))
        if seen != expected or len(pairs) != d:
            raise ValueError(f"not a perfect matching on {2*d} vertices: {matching}")
        self.d = d
        self.matching = tuple(pairs)
        # diagrams key every term and cache; hash the matching once
        self._hash = hash((d, self.matching))

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


def _permutation_word(perm, d):
    """Adjacent-swap word whose stacked diagram realizes top i -> bottom perm[i].

    Deterministic bubble sort of the one-line form; swapping the entries at
    positions a, a+1 appends S(a).
    """
    p = [perm[i] for i in range(1, d + 1)]
    word = []
    while True:
        swapped = False
        for a in range(d - 1):
            if p[a] > p[a + 1]:
                p[a], p[a + 1] = p[a + 1], p[a]
                word.append(S(a + 1))
                swapped = True
                break
        if not swapped:
            break
    return word


# The one canonical-word cache.  Its 2048 entries hold every diagram on
# d <= 5 strands (1 + 3 + 15 + 105 + 945 = 1,069).  Products stop at
# MAX_PRODUCT_D, so only words evaluated directly reach larger d, and the
# bound keeps those from growing the cache without limit.
@lru_cache(maxsize=2048)
def canonical_word(g):
    """A fixed S/E generator word for the diagram g, as a tuple of tokens.

    The basis element of g is, by definition, the m = 0 image of this word,
    so no sign relates the two.  The word factors g as marked pairs (cups
    with matched caps) over a permutation word, processing cups in
    increasing order of left endpoint.
    """
    d = g.d
    cups = sorted(g.cups())
    caps = sorted(g.caps())
    word = []
    for (a, b) in cups:
        word.extend(marked_pair(a, b, d, "marked"))
    perm = {}
    for (a, b), (c, e) in zip(cups, caps):
        perm[a] = c
        perm[b] = e
    for (t, b) in g.strands():
        perm[t] = b
    word.extend(_permutation_word(perm, d))
    return tuple(word)


# ---------------------------------------------------------------------------
# representation oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MAX_PRODUCT_D)
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
    out = []
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
    return tuple(out)


def _read_diagrams(d, column):
    """The ADElement whose image at n = d has the columns `column(input)`,
    for an operator in the span of the diagram images."""
    terms = {}
    for g, i, o, value in _witnesses(d):
        v = (column(i) or {}).get(o)
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
    """Resolve a dotless S/E word into the diagram algebra (exactly)."""
    _check_product_size(d)
    cols = evaluate_word(word, TensorSpaceSpec(d, 0, d)).columns
    return _read_diagrams(d, cols.get)


def multiply(x, y):
    """Product x*y via the faithful representation at n = d.

    Right-action convention: the matrix of x*y is Mat(y) . Mat(x), so its
    column c is Mat(y) applied to column c of Mat(x).
    """
    if x.d != y.d:
        raise ValueError("mixed strand counts")
    d = x.d
    _check_product_size(d)
    mx = psi_image(x, d)
    my = psi_image(y, d)
    return _read_diagrams(d, lambda c: my.apply_dict(mx.columns.get(c, {})))


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
