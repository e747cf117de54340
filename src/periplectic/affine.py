"""The affine algebra on d dotted strands, with its rewriting engine.

Elements are rational combinations of *regular* dotted diagrams: a diagram on
d strands together with dot multiplicities on the top and bottom vertices,
where no top dot sits on the right end of a cup and bottom dots sit only on
right ends of caps.  Such monomials read, in word order,

    y_1^{i_1} ... y_d^{i_d} . (diagram) . y_1^{j_1} ... y_d^{j_d}

with the left (top) dot block first.  These monomials form a linear basis;
`normalize` rewrites an arbitrary generator word into that basis by appending
one token at a time to an accumulator that is already in normal form.

The appended-dot mechanics are purely pictorial: a dot entering at an illegal
endpoint walks along its strand through the canonical letter word of the
diagram (a crossing lets it pass to the other index, a cup or cap makes it
turn around), and every crossing/turn spawns correction terms with one dot
fewer.  Dotless letter words are composed exactly through the faithful
diagram-algebra oracle; the walk itself never consults the representation, so
the two routes stay independent and can be compared in tests.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .brauer import (ADElement, BrauerDiagram, canonical_word, diagram_of_word,
                     enumerate_diagrams, jm_element)
from .brauer import multiply as diagram_multiply
from .exactla import Combination, Echelon
from .tensoraction import (E, TensorSpaceSpec, Y, check_word, evaluate_word,
                           evaluate_word_sum)


class DotDiagram:
    """A diagram on d strands with dot counts at the 2d endpoints.

    The constructor accepts any nonnegative dot placement; whether the
    placement is regular (basis-legal) is a separate question answered by
    `is_regular`.
    """

    __slots__ = ("d", "diagram", "top_dots", "bottom_dots", "_key")

    def __init__(self, d, diagram, top_dots, bottom_dots):
        if diagram.d != d:
            raise ValueError("diagram size does not match d")
        top_dots = tuple(int(v) for v in top_dots)
        bottom_dots = tuple(int(v) for v in bottom_dots)
        if len(top_dots) != d or len(bottom_dots) != d:
            raise ValueError("dot vectors must have length d")
        if any(v < 0 for v in top_dots + bottom_dots):
            raise ValueError("dot counts must be nonnegative")
        self.d = d
        self.diagram = diagram
        self.top_dots = top_dots
        self.bottom_dots = bottom_dots
        self._key = (d, diagram.matching, top_dots, bottom_dots)

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
        return hash(self._key)

    def __repr__(self):
        return f"y{self.top_dots}.{self.diagram}.y{self.bottom_dots}"


def _cup_right_ends(g):
    return {r for _l, r in g.cups()}


def _cap_right_ends(g):
    return {r for _l, r in g.caps()}


def is_regular(x):
    """True iff no top dot sits on a cup's right end and every bottom dot
    sits on a cap's right end."""
    cup_r = _cup_right_ends(x.diagram)
    cap_r = _cap_right_ends(x.diagram)
    if any(x.top_dots[k - 1] for k in cup_r):
        return False
    return all(t in cap_r for t in range(1, x.d + 1) if x.bottom_dots[t - 1])


class PdElement(Combination):
    """A rational combination of regular dotted diagrams on d strands."""

    __slots__ = ()

    def _check_key(self, u):
        if u.d != self.d:
            raise ValueError("mixed strand counts")
        if not is_regular(u):
            raise ValueError(f"monomial is not regular: {u}")

    @classmethod
    def one(cls, d):
        return cls(d, {DotDiagram.bare(d): Fraction(1)})

    @classmethod
    def from_monomial(cls, u, coeff=1):
        return cls(u.d, {u: Fraction(coeff)})

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
        cup_r = _cup_right_ends(g)
        cap_r = _cap_right_ends(g)
        tops = [rng if k not in cup_r else (0,) for k in range(1, d + 1)]
        bots = [rng if t in cap_r else (0,) for t in range(1, d + 1)]
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
    word.extend(_cw(u.diagram))
    for t, c in enumerate(u.bottom_dots, start=1):
        word.extend([Y(t)] * c)
    return word


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cw(g):
    return tuple(canonical_word(g).word)


@lru_cache(maxsize=None)
def _compose(word, d):
    """Dotless letter word -> exact diagram combination (at most one term)."""
    return diagram_of_word(list(word), d)


def _journey(word, d, pos, idx, moving_up):
    """Walk one dot power along its strand through a letter word.

    The dot sits between word[pos-1] and word[pos] at horizontal position
    idx.  A crossing passes it through (switching index), a cup or cap slides
    it to the other end and turns it around; each such event appends
    lower-degree corrections (sign, replacement word) where the dot is gone
    and at most one letter changed.  Returns (("top"|"bottom", index), corr)
    for the surviving full-degree term.
    """
    corr = []
    steps = 0
    while True:
        steps += 1
        if steps > 4 * (len(word) + 2) * (d + 2):   # pragma: no cover
            raise AssertionError("dot walk failed to terminate")
        if moving_up:
            if pos == 0:
                return ("top", idx), corr
            letter = word[pos - 1]
            b = letter.index
            if idx not in (b, b + 1):
                pos -= 1
            elif letter.kind == "S":
                repl = word[:pos - 1] + (E(b),) + word[pos:]
                drop = word[:pos - 1] + word[pos:]
                corr.append((1, repl))
                corr.append((-1 if idx == b else 1, drop))
                idx = b + 1 if idx == b else b
                pos -= 1
            else:
                corr.append((1 if idx == b else -1, word))
                idx = b + 1 if idx == b else b
                moving_up = False
        else:
            if pos == len(word):
                return ("bottom", idx), corr
            letter = word[pos]
            b = letter.index
            if idx not in (b, b + 1):
                pos += 1
            elif letter.kind == "S":
                repl = word[:pos] + (E(b),) + word[pos + 1:]
                drop = word[:pos] + word[pos + 1:]
                corr.append((-1, repl))
                corr.append((-1 if idx == b else 1, drop))
                idx = b + 1 if idx == b else b
                pos += 1
            else:
                corr.append((-1 if idx == b else 1, word))
                idx = b + 1 if idx == b else b
                moving_up = True


def _bump(dots, t, delta=1):
    nxt = dict(dots)
    nxt[t] = nxt.get(t, 0) + delta
    if not nxt[t]:
        del nxt[t]
    return nxt


def _tup(dots, d):
    return tuple(dots.get(k, 0) for k in range(1, d + 1))


def _dots(vec):
    return {k: c for k, c in enumerate(vec, start=1) if c}


def _emit(out, key, coeff):
    val = out.get(key, Fraction(0)) + coeff
    if val:
        out[key] = val
    elif key in out:
        del out[key]


def _regularize(d, top, g, bottom, coeff, out):
    """Accumulate coeff * y^top . g . y^bottom into out as regular monomials.

    top/bottom map 1-based positions to dot counts and may contain illegal
    placements; each illegal power is walked along its strand, one power at
    a time, until every dot rests at a legal endpoint.
    """
    if not coeff:
        return
    cap_r = _cap_right_ends(g)
    bad_bottom = sorted(t for t, c in bottom.items() if c and t not in cap_r)
    if bad_bottom:
        t = bad_bottom[0]
        rest = _bump(bottom, t, -1)
        word = _cw(g)
        (side, land), corr = _journey(word, d, len(word), t, True)
        for sgn, w2 in corr:
            for g2, c2 in _compose(w2, d).terms.items():
                _regularize(d, top, g2, rest, coeff * sgn * c2, out)
        if side == "top":
            _regularize(d, _bump(top, land), g, rest, coeff, out)
        else:
            _regularize(d, top, g, _bump(rest, land), coeff, out)
        return
    cup_r = _cup_right_ends(g)
    bad_top = sorted(k for k, c in top.items() if c and k in cup_r)
    if bad_top:
        k = bad_top[0]
        rest = _bump(top, k, -1)
        word = _cw(g)
        (side, land), corr = _journey(word, d, 0, k, False)
        for sgn, w2 in corr:
            for g2, c2 in _compose(w2, d).terms.items():
                _regularize(d, rest, g2, bottom, coeff * sgn * c2, out)
        assert side == "top", "a cup right end must walk back to the top row"
        _regularize(d, _bump(rest, land), g, bottom, coeff, out)
        return
    _emit(out, DotDiagram(d, g, _tup(top, d), _tup(bottom, d)), coeff)


def _append_letter(d, top, g, bottom, tok, coeff, out):
    """Accumulate coeff * y^top . g . y^bottom . tok for an S or E token.

    Bottom dots at the token's two positions are in the way; a crossing lets
    them through directly, while for a new cup the blocking dot is walked up
    along its strand until the zone is clear.  With the zone clear, the
    dotless letters compose through the diagram oracle and the surviving
    dots are re-legalized against the composite diagram.
    """
    if not coeff:
        return
    a = tok.index
    if tok.kind == "E" and g.partner(-a) == -(a + 1):
        # the new cup meets this cap in a closed loop; any dots caught
        # between the two bends are killed as well
        return
    blockers = [t for t in (a + 1, a) if bottom.get(t)]
    if not blockers:
        for g2, c2 in _compose(_cw(g) + (tok,), d).terms.items():
            _regularize(d, top, g2, bottom, coeff * c2, out)
        return
    t = blockers[0]
    rest = _bump(bottom, t, -1)
    if tok.kind == "S":
        # the dot passes straight through the new crossing
        t2 = a + 1 if t == a else a
        unit = Fraction(-1 if t == a else 1)
        tmp = {}
        _append_letter(d, top, g, rest, tok, Fraction(1), tmp)
        for dd, c in tmp.items():
            _regularize(d, _dots(dd.top_dots), dd.diagram,
                        _bump(_dots(dd.bottom_dots), t2), coeff * c, out)
        _append_letter(d, top, g, rest, E(a), -coeff, out)
        _regularize(d, top, g, rest, unit * coeff, out)
        return
    # new cup: walk the blocking dot out of the zone first
    word = _cw(g)
    (side, land), corr = _journey(word, d, len(word), t, True)
    for sgn, w2 in corr:
        for g2, c2 in _compose(w2, d).terms.items():
            _append_letter(d, top, g2, rest, tok, coeff * sgn * c2, out)
    if side == "top":
        _append_letter(d, _bump(top, land), g, rest, tok, coeff, out)
    else:
        assert land not in (a, a + 1), "walked dot must leave the cup zone"
        _append_letter(d, top, g, _bump(rest, land), tok, coeff, out)


def _append_token(d, dd, tok, coeff, out):
    top = _dots(dd.top_dots)
    bottom = _dots(dd.bottom_dots)
    if tok.kind == "Y":
        _regularize(d, top, dd.diagram, _bump(bottom, tok.index), coeff, out)
    else:
        _append_letter(d, top, dd.diagram, bottom, tok, coeff, out)


def _append_word(d, terms, word):
    for tok in word:
        nxt = {}
        for dd, c in terms.items():
            _append_token(d, dd, tok, c, nxt)
        terms = nxt
        if not terms:
            break
    return terms


@lru_cache(maxsize=None)
def _normalize_cached(word, d):
    terms = _append_word(d, {DotDiagram.bare(d): Fraction(1)}, word)
    return PdElement(d, terms)


def normalize(word, d):
    """Exact normal form of a generator word as a PdElement."""
    word = tuple(word)
    check_word(word, d)
    return _normalize_cached(word, d)


def multiply(x, y):
    """Product in the affine algebra: concatenate and re-normalize."""
    if x.d != y.d:
        raise ValueError("mixed strand counts")
    d = x.d
    acc = {}
    for v, cv in y.terms.items():
        wv = word_expansion(v)
        for u, cu in x.terms.items():
            for dd, c in _append_word(d, {u: cu * cv}, wv).items():
                _emit(acc, dd, c)
    return PdElement(d, acc)


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
    out = ADElement.zero(m + x.d)
    for u, c in x.terms.items():
        out = out.add(pi_m_word(word_expansion(u), x.d, m), c)
    return out


# ---------------------------------------------------------------------------
# the polynomial-extended symmetric group quotient
# ---------------------------------------------------------------------------

class DahaElement(Combination):
    """Normal form (permutation) . v^K over the symmetric group on d letters.

    Terms are keyed by (one-line permutation top->bottom, v exponents).
    """

    __slots__ = ()

    @classmethod
    def one(cls, d):
        return cls(d, {(tuple(range(1, d + 1)), (0,) * d): Fraction(1)})

    def __repr__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items())
        return " + ".join(f"({c})*perm{p}*v^{k}" for (p, k), c in items)


def _v_past_s(vexp, a, d):
    """Rewrite v^K s_a as [(coeff, s_present, K')]: far powers commute, the
    two zone powers swap one at a time, each swap shedding a constant term."""
    t = a + 1 if vexp.get(a + 1) else (a if vexp.get(a) else None)
    if t is None:
        return [(Fraction(1), True, dict(vexp))]
    t2 = a + 1 if t == a else a
    unit = Fraction(-1 if t == a else 1)
    out = []
    for c, flag, k2 in _v_past_s(_bump(vexp, t, -1), a, d):
        out.append((c, flag, _bump(k2, t2, 1)))
    out.append((unit, False, _bump(vexp, t, -1)))
    return out


def _daha_word(word, d):
    check_word(word, d)
    terms = {(tuple(range(1, d + 1)), (0,) * d): Fraction(1)}
    for tok in word:
        nxt = {}
        if tok.kind == "E":
            return DahaElement.zero(d)
        for (perm, vexp), c in terms.items():
            if tok.kind == "Y":
                key = (perm, _tup(_bump(_dots(vexp), tok.index, 1), d))
                _emit(nxt, key, c)
            else:
                a = tok.index
                for c2, flag, k2 in _v_past_s(_dots(vexp), a, d):
                    if flag:
                        swapped = tuple(a + 1 if v == a else (a if v == a + 1 else v)
                                        for v in perm)
                        key = (swapped, _tup(k2, d))
                    else:
                        key = (perm, _tup(k2, d))
                    _emit(nxt, key, c * c2)
        terms = {k: v for k, v in nxt.items() if v}
        if not terms:
            break
    return DahaElement(d, terms)


def to_daha(x, d=None):
    """Quotient killing every bend token: words go to the normal form
    (permutation) . v^K; monomials whose diagram has a horizontal edge die."""
    if isinstance(x, PdElement):
        out = DahaElement.zero(x.d)
        for u, c in x.terms.items():
            out = out.add(_daha_word(word_expansion(u), x.d), c)
        return out
    if d is None:
        raise ValueError("to_daha needs d for a word input")
    return _daha_word(list(x), d)


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
