"""The affine algebra on d dotted strands, with its rewriting engine.

Elements are rational combinations of *regular* dotted diagrams: a diagram on
d strands together with dot multiplicities on the top and bottom vertices,
where no top dot sits on the right end of a cup and bottom dots sit only on
right ends of caps.  Such monomials read, in word order,

    y_1^{i_1} ... y_d^{i_d} . (diagram) . y_1^{j_1} ... y_d^{j_d}

with the left (top) dot block first.  These monomials form a linear basis;
`normalize` rewrites an arbitrary generator word into that basis by appending
one token at a time to an accumulator that is already in normal form.

The appended-dot mechanics are purely pictorial: an illegal dot, or one that
blocks a new cup, walks along its strand through the diagram's canonical
letter word, up or down in one loop (`_journey`).  A crossing lets it pass to
the other index, a cup or cap turns it around, and each spawns correction
terms with one dot fewer.  Each walk, and each letter (y, s or e) appended
to a monomial, is expanded once, at coefficient 1, into a bounded cache
that later calls share (`_walk`, `_letter`).  The engine reads each
diagram's canonical word and the right ends of its bends from its one
cached record, `brauer.diagram_record`.  Dotless letter words are composed
by `brauer.stack_word`, which stacks the letters and reads the sign off the
paths.  Neither step evaluates a representation, so the tensor-space
images check the engine from outside, in tests and in `verify`.

The engine is the package's only one: the bend-free quotient, the
degenerate affine Hecke algebra of S_d, is read off the normal form of the
reversed word (`to_daha`), whose cup-free terms are its PBW basis.
"""

from functools import lru_cache
from itertools import product

from .brauer import (ADElement, BrauerDiagram, canonical_word,
                     diagram_record, enumerate_diagrams, jm_element,
                     stack_word)
# unused here; perfbench/tracer.py wraps affine.diagram_of_word by name
from .brauer import diagram_of_word  # noqa: F401
from .brauer import multiply as diagram_multiply
from .exactla import Combination, Echelon
from .kernels import combine_scaled
from .tensoraction import (E, TensorSpaceSpec, Y, check_word, evaluate_word,
                           evaluate_word_sum)


class DotDiagram:
    """A diagram on d strands with dot counts at the 2d endpoints.

    The constructor accepts any nonnegative dot placement; whether the
    placement is regular (basis-legal) is a separate question answered by
    `is_regular`.
    """

    __slots__ = ("d", "diagram", "top_dots", "bottom_dots", "_key", "_hash")

    def __init__(self, d, diagram, top_dots, bottom_dots):
        if diagram.d != d:
            raise ValueError("diagram size does not match d")
        top_dots = tuple(int(v) for v in top_dots)
        bottom_dots = tuple(int(v) for v in bottom_dots)
        if len(top_dots) != d or len(bottom_dots) != d:
            raise ValueError("dot vectors must have length d")
        if any(v < 0 for v in top_dots + bottom_dots):
            raise ValueError("dot counts must be nonnegative")
        self._fill(d, diagram, top_dots, bottom_dots)

    def _fill(self, d, diagram, top_dots, bottom_dots):
        self.d = d
        self.diagram = diagram
        self.top_dots = top_dots
        self.bottom_dots = bottom_dots
        self._key = (d, diagram.matching, top_dots, bottom_dots)
        # monomials key every normal form and cached walk; hash the key once
        self._hash = hash(self._key)

    @classmethod
    def _trusted(cls, d, diagram, top_dots, bottom_dots):
        """A monomial from d-tuples of nonnegative ints, unvalidated: for the
        engine, which builds no others, and `from_document`, which checks."""
        self = cls.__new__(cls)
        self._fill(d, diagram, top_dots, bottom_dots)
        return self

    @classmethod
    def bare(cls, d, diagram=None):
        diagram = diagram or BrauerDiagram.identity(d)
        return cls(d, diagram, (0,) * d, (0,) * d)

    @property
    def degree(self):
        return sum(self.top_dots) + sum(self.bottom_dots)

    def __eq__(self, other):
        return isinstance(other, DotDiagram) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"y{self.top_dots}.{self.diagram}.y{self.bottom_dots}"


def _illegal_dot(top, bottom, cup_ends, cap_ends):
    """The first illegal dot of y^top . g . y^bottom as (side, position), or
    None, for a diagram g whose cups and caps end on the right at cup_ends
    and cap_ends: bottom dots off every cap's right end come first, then top
    dots on a cup's right end."""
    for t, c in enumerate(bottom, 1):
        if c and t not in cap_ends:
            return "bottom", t
    for k, c in enumerate(top, 1):
        if c and k in cup_ends:
            return "top", k
    return None


def is_regular(x):
    """True iff no top dot sits on a cup's right end and every bottom dot
    sits on a cap's right end.  The bends are read off the diagram, not its
    record, so that checking a monomial builds no canonical word: the
    reversal on 10,000 strands has about 5 * 10^7 letters."""
    g = x.diagram
    return _illegal_dot(x.top_dots, x.bottom_dots,
                        {r for _l, r in g.cups()},
                        {r for _l, r in g.caps()}) is None


class PdElement(Combination):
    """A rational combination of regular dotted diagrams on d strands."""

    __slots__ = ()

    def _check_key(self, u):
        if u.d != self.d:
            raise ValueError("mixed strand counts")
        if not is_regular(u):
            raise ValueError(f"monomial is not regular: {u}")

    @classmethod
    @lru_cache(maxsize=8)   # built once per d: every normal form starts here
    def one(cls, d):
        return cls(d, {DotDiagram.bare(d): 1})

    @classmethod
    def from_monomial(cls, u, coeff=1):
        return cls(u.d, {u: coeff})

    @property
    def degree(self):
        return max((u.degree for u in self.terms), default=0)

    def top_degree_part(self):
        """The terms of maximal total dot count (zero element if zero)."""
        if not self.terms:
            return self
        top = self.degree
        return PdElement(self.d, {u: c for u, c in self.terms.items()
                                  if u.degree == top})

    def __repr__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: t[0]._key)
        return " + ".join(f"({c})*{u}" for u, c in items)


def enumerate_regular(d, max_degree):
    """All regular dotted diagrams of total degree <= max_degree.

    Order: diagrams in enumeration order, then top dots lexicographically,
    then bottom dots lexicographically.
    """
    if d < 1 or max_degree < 0:
        raise ValueError("need d >= 1 and max_degree >= 0")
    out = []
    rng = range(max_degree + 1)
    for g in enumerate_diagrams(d):
        record = diagram_record(g)
        tops = [rng if k not in record.cup_ends else (0,)
                for k in range(1, d + 1)]
        bots = [rng if t in record.cap_ends else (0,) for t in range(1, d + 1)]
        local = []
        for top in product(*tops):
            left = max_degree - sum(top)
            if left < 0:
                continue
            for bot in product(*bots):
                if sum(bot) <= left:
                    local.append(DotDiagram(d, g, top, bot))
        local.sort(key=lambda u: (u.top_dots, u.bottom_dots))
        out.extend(local)
    return out


def word_expansion(u):
    """The defining generator word of a regular monomial: top dots as y
    letters (ascending position), the diagram's canonical word, then the
    bottom dots (ascending position)."""
    word = []
    for k, c in enumerate(u.top_dots, start=1):
        word.extend([Y(k)] * c)
    word.extend(canonical_word(u.diagram))
    for t, c in enumerate(u.bottom_dots, start=1):
        word.extend([Y(t)] * c)
    return word


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

# Its words are a diagram's canonical word with one letter appended, or with
# one S letter replaced by E or dropped (a dot walk's corrections): at most
# 105 * 6 + 1,013 = 1,643 words at d = 4 and 139 at d = 3, so 2048 entries
# hold every working set up to four strands (6,000 random d = 4 words of up
# to 14 letters filled 880).  Past four strands they do not: 3,000 random
# words of up to 10 letters and 3 dots make 4,073 distinct words at d = 5
# and 11,488 at d = 6, and took 0.75 and 0.94 s bounded against 0.67 and
# 0.81 s unbounded, each miss costing one stacking (about 20 us at d = 5).
@lru_cache(maxsize=2048)
def _compose(word, d):
    """Dotless letter word -> exact diagram combination (at most one term)."""
    return stack_word(word, d)


def _journey(word, d, pos, idx, moving_up):
    """Walk one dot power along its strand through a letter word.

    The dot sits between word[pos-1] and word[pos] at horizontal position
    idx.  A crossing passes it through (switching index), a cup or cap slides
    it to the other end and turns it around; each such event appends
    lower-degree corrections (sign, replacement word) where the dot is gone
    and at most one letter changed; walking down flips the signs of the
    replace and bend terms, not the drop's.  Returns
    (("top"|"bottom", index), corr) for the surviving full-degree term.
    """
    corr = []
    for _ in range(4 * (len(word) + 2) * (d + 2)):
        step = -1 if moving_up else 1
        at = pos - 1 if moving_up else pos
        if not 0 <= at < len(word):
            return ("top" if moving_up else "bottom", idx), corr
        b = word[at].index
        if idx not in (b, b + 1):
            pos += step
            continue
        if word[at].kind == "S":
            corr.append((-step, word[:at] + (E(b),) + word[at + 1:]))
            corr.append((-1 if idx == b else 1, word[:at] + word[at + 1:]))
            pos += step
        else:
            corr.append((-step if idx == b else step, word))
            moving_up = not moving_up
        idx = b + 1 if idx == b else b
    raise AssertionError("dot walk failed to terminate")   # pragma: no cover


def _bump(dots, t, delta=1):
    """The dot vector with delta more dots at 1-based position t."""
    return dots[:t - 1] + (dots[t - 1] + delta,) + dots[t:]


def _walk_dot(d, top, g, bottom, side, t):
    """Take one dot off position t of the side row of y^top . g . y^bottom
    and walk it through canonical_word(g).  Returns the terms (top, g,
    bottom, coeff) it leaves, not yet regular, the landing term last."""
    word = diagram_record(g).word
    if side == "bottom":
        bottom = _bump(bottom, t, -1)
        (side, land), corr = _journey(word, d, len(word), t, True)
    else:
        top = _bump(top, t, -1)
        (side, land), corr = _journey(word, d, 0, t, False)
        assert side == "top", "a cup right end must walk back to the top row"
    landing = ((_bump(top, land), g, bottom, 1) if side == "top"
               else (top, g, _bump(bottom, land), 1))
    return [(top, g2, bottom, sgn * c2) for sgn, w2 in corr
            for g2, c2 in _compose(w2, d).terms.items()] + [landing]


# Walks outlive the call that made them: 40,000 rewrite workload operations
# (random d = 3 words, at most 4 dots) needed 1,507.  One call must fit, or
# it walks evicted terms again: 16 dots on d = 3's longest permutation, then
# s1 s2 s1 s2, filled 27,007 walks (30 MB) in 0.75 s, and nine dots at d = 4
# (y1^9 after the longest permutation, then s1 s2 s3) 53,696 (48 MB) in 2 s,
# about 1 kB an entry.
@lru_cache(maxsize=65536)
def _walk(d, top, g, bottom):
    """y^top . g . y^bottom as regular monomials, {monomial: coefficient}.

    top/bottom are dot vectors, d-tuples of counts by position, and may hold
    illegal placements; the first illegal dot is walked along its strand and
    every term it leaves is walked in turn.  The result is linear in the
    coefficient, so callers scale this cached, shared dict and never write it.
    """
    record = diagram_record(g)
    bad = _illegal_dot(top, bottom, record.cup_ends, record.cap_ends)
    if bad is None:
        return {DotDiagram._trusted(d, g, top, bottom): 1}
    out = {}
    for top2, g2, bottom2, c in _walk_dot(d, top, g, bottom, *bad):
        combine_scaled(out, _walk(d, top2, g2, bottom2), c)
    return out


# One entry per letter appended to a monomial; a y letter's entry, and an s
# or e letter's whose product has sign 1, is its walk's own dict.  The
# rewrite workload's 40,000 operations needed 3,233, reused 99.2% of the
# time.  Cold, d = 3's longest permutation, 16 dots, then s1 s2 s1 s2
# fills 30,226 (0.75 s; 0.92 s at 16,384, missing 46,635 times) and the
# nine dots at d = 4 above 68,649 (2.0 s at any bound from 16,384: few are
# reused).  After those two and s1*y1^80*s1^3 at d = 2 the cache held
# 17 MB, peak RSS 117 MB (38 and 135 MB at 65,536).
@lru_cache(maxsize=32768)
def _letter(d, top, g, bottom, tok):
    """y^top . g . y^bottom . tok as regular monomials, {monomial:
    coefficient}, cached and shared like `_walk`'s.

    A y letter is one more bottom dot, walked.  Bottom dots at an s or e
    letter's two positions are in the way: a crossing lets them through,
    and a new cup's blocking dot is walked up its strand out of the zone.
    With the zone clear, the letters compose by stacking (`_compose`) and
    the dots are re-legalized against the composite diagram.
    """
    a = tok.index
    if tok.kind == "Y":
        return _walk(d, top, g, _bump(bottom, a))
    if tok.kind == "E" and g.partner(-a) == -(a + 1):
        # the new cup meets this cap in a closed loop; any dots caught
        # between the two bends are killed as well
        return {}
    out = {}
    if not (bottom[a - 1] or bottom[a]):
        word = diagram_record(g).word + (tok,)
        for g2, c2 in _compose(word, d).terms.items():
            if c2 == 1:    # the one term: share the walk's dict
                return _walk(d, top, g2, bottom)
            combine_scaled(out, _walk(d, top, g2, bottom), c2)
        return out
    t = a + 1 if bottom[a] else a
    if tok.kind == "S":
        # the dot passes straight through the new crossing
        rest = _bump(bottom, t, -1)
        t2 = a + 1 if t == a else a
        for dd, c in _letter(d, top, g, rest, tok).items():
            combine_scaled(out, _walk(d, dd.top_dots, dd.diagram,
                                      _bump(dd.bottom_dots, t2)), c)
        combine_scaled(out, _letter(d, top, g, rest, E(a)), -1)
        combine_scaled(out, _walk(d, top, g, rest), -1 if t == a else 1)
        return out
    # new cup: walk the blocking dot out of the zone (the last term lands it)
    for top2, g2, bottom2, c in _walk_dot(d, top, g, bottom, "bottom", t):
        combine_scaled(out, _letter(d, top2, g2, bottom2, tok), c)
    assert bottom2[a - 1] + bottom2[a] < bottom[a - 1] + bottom[a], (
        "walked dot must leave the cup zone")
    return out


def _append_word(d, terms, word):
    """Append the tokens of word to the normal-form terms one at a time."""
    for tok in word:
        nxt = {}
        for dd, c in terms.items():
            combine_scaled(nxt, _letter(d, dd.top_dots, dd.diagram,
                                        dd.bottom_dots, tok), c)
        terms = nxt
        if not terms:
            break
    return terms


# Bounded so that memory stays flat however many distinct words a process
# normalizes: unbounded, the benchmark's rewrite workload (random d = 3
# words) peaked at 66.8 MB after 28,000 operations and 90.3 MB after 42,000;
# bounded, at 44.6 and 52.4 MB.  8192 entries keep every product operand of
# 2 to 4 letters at d = 3 (at most 2,793 distinct words) cached.
@lru_cache(maxsize=8192)
def _normalize_cached(word, d):
    return PdElement(d, _append_word(d, PdElement.one(d).terms, word))


def normalize(word, d):
    """Exact normal form of a generator word as a PdElement."""
    word = tuple(word)
    check_word(word, d)
    return _normalize_cached(word, d)


def multiply(x, y):
    """Product in the affine algebra: concatenate and re-normalize.  Appending
    is linear, so each term of y appends its word to all of x at once."""
    if x.d != y.d:
        raise ValueError("mixed strand counts")
    acc = {}
    for v, cv in y.terms.items():
        combine_scaled(acc, _append_word(x.d, x.terms, word_expansion(v)), cv)
    return PdElement(x.d, acc)


def tensor_image(x, spec):
    """Image of a PdElement on the tensor space, term by term."""
    if spec.d != x.d:
        raise ValueError("strand count mismatch")
    return evaluate_word_sum(
        ((word_expansion(u), c) for u, c in x.terms.items()), spec)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def pi_m_word(word, d, m):
    """Substitute generators into the diagram algebra on m+d strands:
    crossings and bends shift m steps right, the k-th dot generator goes to
    the (m+k)-th commuting family member."""
    check_word(word, d)
    if m < 0:
        raise ValueError("m must be >= 0")
    big = m + d
    acc = ADElement.one(big)
    for tok in word:
        if tok.kind == "S":
            img = ADElement.from_diagram(BrauerDiagram.s_generator(big, m + tok.index))
        elif tok.kind == "E":
            img = ADElement.from_diagram(BrauerDiagram.eps_generator(big, m + tok.index))
        else:
            img = jm_element(m + tok.index, big)
        acc = diagram_multiply(acc, img)
    return acc


def pi_m(x, m):
    """The shift-m quotient map onto the diagram algebra on m+d strands."""
    if not isinstance(x, PdElement):
        raise TypeError("pi_m expects a PdElement")
    acc = {}
    for u, c in x.terms.items():
        combine_scaled(acc, pi_m_word(word_expansion(u), x.d, m).terms, c)
    return ADElement(m + x.d, acc)


# ---------------------------------------------------------------------------
# the polynomial-extended symmetric group quotient
# ---------------------------------------------------------------------------

class DahaElement(Combination):
    """An element of the bend-free quotient, the degenerate affine Hecke
    algebra of S_d, in its basis (permutation) . v^K.

    Terms are keyed by (one-line permutation top->bottom, v exponents).
    `to_daha` reads them off affine normal forms: the cup-free monomial
    y^K . tau of a reversed word gives the key (tau^-1, K).
    """

    __slots__ = ()

    @classmethod
    def one(cls, d):
        return cls(d, {(tuple(range(1, d + 1)), (0,) * d): 1})

    def __repr__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items())
        return " + ".join(f"({c})*perm{p}*v^{k}" for (p, k), c in items)


def to_daha(x, d=None):
    """Quotient killing every bend token: words go to the normal form
    (permutation) . v^K; monomials whose diagram has a horizontal edge die.

    A bend-free word is read off the normal form of its reverse, whose
    cup-free terms y^K . tau are the quotient's basis.  The anti-automorphism
    s -> -s, y -> -y of the quotient takes the reversed word to the word and
    y^K . tau to tau^-1 . v^K, each up to the sign (-1)^length; the two signs
    agree, since every relation of the quotient keeps the length of a word
    mod 2.  A term with a cup lies in the bend ideal, which appending keeps,
    so the terms with a cup are dropped after each letter appended.
    """
    if isinstance(x, PdElement):
        acc = {}
        for u, c in x.terms.items():
            combine_scaled(acc, to_daha(word_expansion(u), x.d).terms, c)
        return DahaElement(x.d, acc)
    if d is None:
        raise ValueError("to_daha needs d for a word input")
    word = tuple(x)
    check_word(word, d)
    terms = PdElement.one(d).terms
    for tok in reversed(word):
        terms = {u: c for u, c in _append_word(d, terms, (tok,)).items()
                 if u.diagram.is_permutation()}
    out = {}
    for u, c in terms.items():
        tau = u.diagram.permutation()
        out[(tuple(sorted(tau, key=tau.get)), u.top_dots)] = c
    return DahaElement(d, out)


# ---------------------------------------------------------------------------
# basis independence check
# ---------------------------------------------------------------------------

def pbw_rank_check(d, max_degree, n):
    """(count, rank) of the regular monomials of degree <= max_degree.

    Each monomial is flattened to a long row by stacking its tensor-space
    matrices over module sizes m = 0, 1, ...; blocks are appended until the
    rank saturates at the monomial count (adding more columns can only keep
    or grow the rank, so stopping early never misreports) or until the last
    block m = max_degree + 1 is in place.
    """
    if n < d + max_degree + 1:
        raise ValueError("need n >= d + max_degree + 1 for a conclusive check")
    monomials = enumerate_regular(d, max_degree)
    count = len(monomials)
    words = [word_expansion(u) for u in monomials]
    rows = [dict() for _ in monomials]
    offset = 0
    rank = 0
    for m in range(max_degree + 2):
        spec = TensorSpaceSpec(n, m, d)
        for row, w in zip(rows, words):
            for c, col in evaluate_word(w, spec).columns.items():
                for r, v in col.items():
                    row[offset + r * spec.dim + c] = v
        offset += spec.dim * spec.dim
        echelon = Echelon()
        rank = sum(echelon.add(row) for row in rows)
        if rank == count:
            break
    return count, rank
