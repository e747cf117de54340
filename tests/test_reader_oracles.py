"""The two input readers against the versions they replaced.

`wordparse` lexes each token once, reading its kind and position off one
match, and builds coefficients as exact scalars (an int when integral).
`documents.from_document` checks each term's dot vectors once and builds
its monomials unvalidated, and reads each coefficient's numerator and
denominator off one match.  The functions below are the earlier readers,
which checked and parsed twice; they stay here only as oracles.  Both sides
must give equal results or the same refusal on every input, except numbers
past CPython's int/str digit limit, which only the new readers refuse with
their own error.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periplectic.affine import DahaElement, DotDiagram, PdElement, normalize
from periplectic.brauer import ADElement, BrauerDiagram
from periplectic.documents import (DocumentError, dumps, from_document, loads,
                                   to_document)
from periplectic.tensoraction import E, S, Y
from periplectic.wordparse import (MAX_LETTER_WORK, WordParseError,
                                   letter_weight, max_dots, parse_expression)
from test_documents import BAD_MUTATIONS
from test_output_digest import seeded_daha_images, seeded_outputs

# ---------------------------------------------------------------------------
# the earlier expression reader
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<gen>[sey])(?P<idx>\d+)|(?P<num>\d+)"
                       r"|(?P<op>[*^+/-]))")

_MAKE = {"s": S, "e": E, "y": Y}


def _lex(src):
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == m.start():
            at = pos + len(src[pos:]) - len(src[pos:].lstrip())
            if at >= len(src):
                break
            raise WordParseError(f"unexpected character {src[at]!r}", at)
        at = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
        if m.group("gen"):
            out.append(("gen", (m.group("gen"), int(m.group("idx"))), at))
        elif m.group("num"):
            out.append(("num", int(m.group("num")), at))
        else:
            out.append(("op", m.group("op"), at))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, d, src):
        self.toks = tokens
        self.i = 0
        self.d = d
        self.src = src
        self.end = len(src)
        self.max_dots = max_dots(d)
        self.dots = 0
        self.work = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.end)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_num(self, what):
        kind, val, at = self.take()
        if kind != "num":
            raise WordParseError(f"expected {what}", at)
        return val, at

    def parse(self):
        kind, val, _at = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.take()
            sign = 1 if val == "+" else -1
        terms = [self.term(sign)]
        while True:
            kind, val, at = self.peek()
            if kind is None:
                return terms
            if kind == "op" and val in "+-":
                self.take()
                terms.append(self.term(sign=1 if val == "+" else -1))
            else:
                text = _TOKEN_RE.match(self.src, at).group(0)
                raise WordParseError(f"expected '+' or '-', got {text!r}", at)

    def term(self, sign):
        self.dots = 0
        self.work = 0
        kind, val, at = self.peek()
        coeff = Fraction(sign)
        word = []
        if kind == "num":
            self.take()
            num = val
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.take()
                den, dat = self.expect_num("a denominator")
                if den == 0:
                    raise WordParseError("zero denominator", dat)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "*":
                self.take()
                word = self.factors()
            elif kind2 == "gen":
                word = self.factors()
            return coeff, tuple(word)
        if kind == "gen":
            return coeff, tuple(self.factors())
        raise WordParseError("expected a scalar or generator", at)

    def factors(self):
        word = list(self.factor())
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "*":
                self.take()
                word.extend(self.factor())
            else:
                return word

    def factor(self):
        kind, val, at = self.take()
        if kind != "gen":
            raise WordParseError("expected a generator like s1, e1 or y1", at)
        letter, idx = val
        hi = self.d if letter == "y" else self.d - 1
        if not 1 <= idx <= hi:
            raise WordParseError(
                f"index out of range: {letter}{idx} needs 1..{hi} at d={self.d}", at)
        power = 1
        kind2, val2, _ = self.peek()
        if kind2 == "op" and val2 == "^":
            self.take()
            power, pat = self.expect_num("a positive power")
            if power < 1:
                raise WordParseError("power must be positive", pat)
        if letter == "y":
            self.dots += power
            if self.dots > self.max_dots:
                raise WordParseError(
                    f"a term has more than {self.max_dots} dot letters, the "
                    f"bound at d={self.d}", at)
        else:
            self.work += power * letter_weight(self.dots, self.d)
            if self.work > MAX_LETTER_WORK:
                raise WordParseError(
                    f"a term's s and e letters weigh more than "
                    f"{MAX_LETTER_WORK}, the bound at d={self.d} (a letter "
                    f"weighs more the more dot letters precede it and the "
                    f"more strands there are)", at)
        return [_MAKE[letter](idx)] * power


def oracle_parse_expression(src, d):
    if d < 1:
        raise WordParseError("d must be >= 1", 0)
    tokens = _lex(src)
    if not tokens:
        raise WordParseError("empty expression", 0)
    parser = _Parser(tokens, d, src)
    return parser.parse()


# ---------------------------------------------------------------------------
# the earlier document reader
# ---------------------------------------------------------------------------

_COEFF_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_count(v, least):
    return _is_int(v) and v >= least


def _parse_coeff(s):
    if not isinstance(s, str) or not _COEFF_RE.match(s.strip()):
        raise DocumentError(f"bad rational coefficient {s!r} (want 'p' or 'p/q')")
    return Fraction(s.strip())


def oracle_from_document(doc):
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schema_version") != "1":
        raise DocumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    if kind not in ("affine", "brauer", "daha"):
        raise DocumentError(f"unknown kind {kind!r}")
    d = doc.get("d")
    if not _is_count(d, 1):
        raise DocumentError(f"bad strand count {d!r}")
    terms = doc.get("terms")
    if not isinstance(terms, list):
        raise DocumentError("terms must be a list")
    parsed = []
    for i, t in enumerate(terms):
        try:
            coeff = _parse_coeff(t["coeff"])
            matching = [tuple(p) for p in t["matching"]]
            top = tuple(t["top_dots"])
            bottom = tuple(t["bottom_dots"])
        except (KeyError, TypeError) as exc:
            raise DocumentError(f"term {i}: missing or malformed field ({exc})")
        if not all(len(p) == 2 and all(map(_is_int, p)) for p in matching):
            raise DocumentError(f"term {i}: matching must be pairs of "
                                f"integer vertices")
        if len(top) != d or len(bottom) != d:
            raise DocumentError(f"term {i}: dot vectors must have length {d}")
        if not all(_is_count(v, 0) for v in top + bottom):
            raise DocumentError(f"term {i}: dots must be nonnegative integers")
        try:
            g = BrauerDiagram(d, matching)
        except ValueError as exc:
            raise DocumentError(f"term {i}: {exc}")
        parsed.append((coeff, g, top, bottom))
    if kind == "affine":
        acc = {}
        for coeff, g, top, bottom in parsed:
            u = DotDiagram(d, g, top, bottom)
            acc[u] = acc.get(u, Fraction(0)) + coeff
        try:
            return PdElement(d, acc)
        except ValueError as exc:
            raise DocumentError(str(exc))
    if kind == "brauer":
        acc = {}
        for coeff, g, top, bottom in parsed:
            if any(top) or any(bottom):
                raise DocumentError("brauer terms cannot carry dots")
            acc[g] = acc.get(g, Fraction(0)) + coeff
        return ADElement(d, acc)
    acc = {}
    for coeff, g, top, bottom in parsed:
        if any(top):
            raise DocumentError("daha terms carry exponents on the bottom row only")
        if not g.is_permutation():
            raise DocumentError("daha terms need permutation matchings")
        perm = g.permutation()
        key = (tuple(perm[i] for i in range(1, d + 1)), bottom)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return DahaElement(d, acc)


# ---------------------------------------------------------------------------
# both sides alike
# ---------------------------------------------------------------------------

def outcome(read, *args):
    """What read(*args) gives: ("ok", value) or ("error", type, message,
    position); the position is None for an error that carries none."""
    try:
        return ("ok", read(*args))
    except ValueError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "position", None))


TOKENS = ["s1", "s2", "s3", "e1", "e2", "e3", "y1", "y2", "y3", "y4", "s0",
          "e0", "y0", "y5", "s12", "s", "e", "y", "0", "1", "2", "3", "07",
          "10", "/0", "^0", "^2", "^", "*", "+", "-", "/", " ", "\t", "\n",
          "　", "\x85", "#", "x", ".", "?", "٣", "s١", "^٢"]


@given(st.lists(st.sampled_from(TOKENS), max_size=12), st.integers(0, 4))
@settings(max_examples=600, deadline=None)
def test_expressions_read_as_the_earlier_reader_reads_them(tokens, d):
    src = "".join(tokens)
    assert outcome(parse_expression, src, d) == \
        outcome(oracle_parse_expression, src, d), src


@pytest.mark.parametrize("src", [
    "3/4*s1^2 + y2 - 2/2e1", " -7 ", "+s1*s1", "0*y1", "1/0*s1", "s1 s1",
    "y1*?", "s3", "y1^0", "2/", "s1^", "e1e1", "y1^81*s1", "  ", "",
    "-3/6y1", "4/2"])
def test_fixed_expressions_read_alike(src):
    assert outcome(parse_expression, src, 2) == \
        outcome(oracle_parse_expression, src, 2)


def test_expression_coefficients_are_ints_exactly_when_integral():
    for src, d in (("4/2*s1 - 3 + 1/3*y1 + y2 - 6/4", 2), ("-s1 + 0/5", 2)):
        for coeff, _word in parse_expression(src, d):
            assert type(coeff) is (Fraction if coeff.denominator > 1 else int)


def affine_document(**fields):
    doc = loads(dumps(to_document(normalize([S(1), Y(1)], 2))))
    doc["terms"][0].update(fields)
    return doc


@pytest.mark.parametrize("label,mutate", BAD_MUTATIONS,
                         ids=[b[0] for b in BAD_MUTATIONS])
def test_malformed_documents_are_refused_alike(label, mutate):
    doc = affine_document()
    mutate(doc)
    old = outcome(oracle_from_document, doc)
    assert old[:2] == ("error", DocumentError)
    assert outcome(from_document, doc) == old


COEFFS = [" -03/4 ", "+0", "1/0", "2/4", "-6/3", "0/7", "12", "-0", "1/01",
          "٣/٤", "1/٠", "١٠", "1 / 2", "1/-2", "",
          " ", "1.5", "1e3", "+-1", "٣", "1_000", "\t5\n", "3/١٠"]


def assert_read_alike(doc):
    old = outcome(oracle_from_document, doc)
    assert old[0] == "ok" or old[1] is DocumentError
    assert outcome(from_document, doc) == old, doc


@given(st.one_of(st.sampled_from(COEFFS),
                 st.text(alphabet="0123456789+-/ \t٠٣",
                         max_size=8)))
@settings(max_examples=300, deadline=None)
def test_coefficients_read_alike(coeff):
    assert_read_alike(affine_document(coeff=coeff))


DOTS = st.one_of(st.integers(-2, 3), st.booleans(), st.sampled_from([1.0, 0.0]),
                 st.sampled_from(["1", None]))


@given(st.lists(DOTS, max_size=3), st.lists(DOTS, max_size=3),
       st.sampled_from(["affine", "brauer", "daha"]))
@settings(max_examples=300, deadline=None)
def test_dot_vectors_read_alike(top, bottom, kind):
    doc = affine_document(top_dots=top, bottom_dots=bottom)
    doc["kind"] = kind
    assert_read_alike(doc)


def test_every_seeded_output_survives_a_round_trip():
    count = 0
    for x in (*seeded_outputs(), *seeded_daha_images()):
        assert from_document(loads(dumps(to_document(x)))) == x, x
        count += 1
    assert count == 1710
