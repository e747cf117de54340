"""The finite diagram algebra on d strands (signed perfect matchings).

A diagram on d strands is a perfect matching on the 2d vertices
{1..d} (top row) and {-1..-d} (bottom row, printed 1bar..dbar).  The algebra
basis element attached to a diagram g is, by definition, the image under the
m = 0 representation of a fixed canonical generator word for g; all signs
are induced by that normalization and every product is computed through the
faithful representation at n = d (solving back in the diagram basis), so the
matrices are the single source of truth.

Words multiply by stacking: in a product x*y the x-word sits on top.  Under
the right-action convention the matrix of x*y is Mat(y) . Mat(x).
"""

from fractions import Fraction
from functools import lru_cache

from . import tensoraction
from .exactla import Combination, Echelon, NotInSpan, mat_mul
from .tensoraction import E, EndoOperator, S, TensorSpaceSpec, evaluate_word


# Products are solved over the (2d)^(2d) coordinates of the n = d
# representation. The solver takes about 15 s to build at d = 4 and does not
# finish in minutes at d = 5 (2-core host, Python 3.11), so larger products
# fail at once instead of hanging.
MAX_PRODUCT_D = 4


class TooManyStrands(ValueError):
    """A diagram product on more strands than MAX_PRODUCT_D."""


def _check_product_size(d):
    if d > MAX_PRODUCT_D:
        raise TooManyStrands(
            f"diagram products are limited to d <= {MAX_PRODUCT_D} strands "
            f"(got d={d}): they are solved over (2d)^(2d) coordinates")


def _vkey(v):
    # top vertices first (ascending), then bottom vertices (ascending)
    return (0, v) if v > 0 else (1, -v)


class BrauerDiagram:
    """A perfect matching on {1..d} and {-1..-d}, stored canonically."""

    __slots__ = ("d", "matching")

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
        return hash((self.d, self.matching))

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
        return cls(d, {BrauerDiagram.identity(d): Fraction(1)})

    @classmethod
    def from_diagram(cls, g, coeff=1):
        return cls(g.d, {g: Fraction(coeff)})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{g}" for g, c in sorted(
            self.terms.items(), key=lambda t: t[0].matching))


class CanonicalWord:
    """A fixed S/E generator word for a diagram.

    The basis element of the diagram is, by definition, the m = 0 image of
    this word, so no sign relates the two.
    """

    __slots__ = ("word", "diagram")

    def __init__(self, word, diagram):
        self.word = tuple(word)
        self.diagram = diagram

    def __repr__(self):
        return f"CanonicalWord({list(self.word)}, {self.diagram})"


@lru_cache(maxsize=None)
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
    """Word for the long-range transposition (i,j) or its marked variant.

    Both come from conjugating the adjacent generator at j-1 by the chain
    s_i ... s_{j-2}.
    """
    if not 1 <= i < j <= d:
        raise ValueError(f"need 1 <= i < j <= d, got ({i},{j}) at d={d}")
    chain = [S(a) for a in range(i, j - 1)]
    if kind == "marked":
        mid = [E(j - 1)]
        diagram = BrauerDiagram.marked(d, i, j)
    elif kind == "transposition":
        mid = [S(j - 1)]
        diagram = BrauerDiagram.transposition(d, i, j)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    word = chain + mid + list(reversed(chain))
    return CanonicalWord(word, diagram)


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


def canonical_word(g):
    """Factor a diagram as marked pairs (cups with matched caps) over a
    permutation word, processing cups in increasing order of left endpoint.
    """
    d = g.d
    cups = sorted(g.cups())
    caps = sorted(g.caps())
    word = []
    for (a, b) in cups:
        word.extend(marked_pair(a, b, d, "marked").word)
    perm = {}
    for (a, b), (c, e) in zip(cups, caps):
        perm[a] = c
        perm[b] = e
    for (t, b) in g.strands():
        perm[t] = b
    word.extend(_permutation_word(perm, d))
    return CanonicalWord(word, g)


# ---------------------------------------------------------------------------
# representation oracle
# ---------------------------------------------------------------------------

def _flatten(op):
    """The operator's entries as one row: entry (r, c) at r * dim + c."""
    dim = op.spec.dim
    return {r * dim + c: v for c, col in op.columns.items()
            for r, v in col.items()}


@lru_cache(maxsize=None)
def _span_solver(d):
    """All diagrams on d strands, and an exact echelon over their flattened
    images at n = d in which each image is tagged with its diagram's index."""
    diagrams = enumerate_diagrams(d)
    echelon = Echelon(TensorSpaceSpec(d, 0, d).dim ** 2)
    for idx, g in enumerate(diagrams):
        image = psi_image(ADElement.from_diagram(g), d)
        if not echelon.add(_flatten(image), idx):
            raise AssertionError(
                f"psi images dependent at d={d}, n={d}: diagram {g}")
    return diagrams, echelon


def _solve_diagrams(d, op):
    """The ADElement whose image at n = d is the operator `op`."""
    diagrams, echelon = _span_solver(d)
    combo = echelon.solve(_flatten(op))
    return ADElement(d, {diagrams[i]: c for i, c in combo.items()})


def psi_image(x, n):
    """The m = 0 image of an ADElement, as an EndoOperator."""
    return tensoraction.evaluate_word_sum(
        ((canonical_word(g).word, c) for g, c in x.terms.items()),
        TensorSpaceSpec(n, 0, x.d))


def diagram_of_word(word, d):
    """Resolve a dotless S/E word into the diagram algebra (exactly)."""
    _check_product_size(d)
    n = d
    spec = TensorSpaceSpec(n, 0, d)
    op = evaluate_word(word, spec)
    if op.is_zero():
        return ADElement.zero(d)
    return _solve_diagrams(d, op)


def multiply(x, y):
    """Product x*y via the faithful representation at n = d.

    Right-action convention: the matrix of x*y is Mat(y) . Mat(x).
    """
    if x.d != y.d:
        raise ValueError("mixed strand counts")
    d = n = x.d
    _check_product_size(d)
    mx = psi_image(x, n).matrix
    my = psi_image(y, n).matrix
    product = EndoOperator(TensorSpaceSpec(n, 0, d), mat_mul(my, mx))
    try:
        return _solve_diagrams(d, product)
    except NotInSpan as exc:   # pragma: no cover - internal consistency
        raise AssertionError(
            f"product left the diagram span at d={d}, n={n}") from exc


def jm_element(j, d):
    """The commuting family member z_j = sum_{k<j} (k,j) + marked (k,j)."""
    if not 1 <= j <= d:
        raise ValueError(f"j={j} out of range for d={d}")
    terms = {}
    for k in range(1, j):
        terms[BrauerDiagram.transposition(d, k, j)] = Fraction(1)
        terms[BrauerDiagram.marked(d, k, j)] = Fraction(1)
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
