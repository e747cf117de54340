"""Parser for generator-word expressions.

Grammar (whitespace free between tokens):

    expr    :=  term (('+' | '-') term)*
    term    :=  scalar ('*'? factors)?  |  factors
    factors :=  factor ('*' factor)*
    factor  :=  generator ('^' count)?
    generator := ('s' | 'e' | 'y') index        e.g. s1, e2, y3
    scalar  :=  int ('/' int)?                  decimal-free rationals only

A parsed expression is a list of (coefficient, token word) pairs, each
coefficient an exact scalar (`exactla.scalar`); a bare scalar term is the
empty word.  A term carries at most MAX_DOTS dot letters, and its s and e
letters weigh at most MAX_LETTER_WORK (see `letter_weight`).  Errors carry
the 0-based source position.
"""

import re
import sys
from fractions import Fraction

from .exactla import scalar
from .tensoraction import E, S, Y


class WordParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# one group per token kind; a generator's index closes its group last, so
# `lastgroup` names the kind of every match
_TOKEN_RE = re.compile(r"(?P<space>\s+)|(?P<letter>[sey])(?P<gen>\d+)"
                       r"|(?P<num>\d+)|(?P<op>[*^+/-])|(?P<bad>.)", re.S)

_MAKE = {"s": S, "e": E, "y": Y}

# The dot letters one term may carry, for d = 1, 2, 3 and 4 strands; larger
# d takes the d = 4 bound.  Rewriting cost grows steeply with the dots.  Each
# bound was set, when the engine still computed in Fractions, as the largest
# count at which every word family measured normalized in about 3 s (2-core
# host, CPython 3.11), the next count up taking 4 s or more.  The integer
# engine takes, for the same words: at d = 2 s1*y1^80 0.47 s (2.4 s before,
# timed again alongside) and s1*y1^90 0.62 s; at d = 3, 16 dots over the
# longest permutation 0.71 s and 18 dots 1.3 s; at d = 4, 9 dots 1.9 s and
# 10 dots 2.3 s.  The bounds are kept, because the letter weights below were
# fitted only up to them.  A power is checked before it is expanded.
MAX_DOTS = (80, 80, 16, 9)

# An s or e letter is appended to the normal form of the letters before it,
# which holds more terms, with more dots to walk, the more dot letters
# precede it in its term.  So the letter weighs (dots + 2)^3 * growth^dots,
# growth for d = 1, 2, 3 and 4 strands (larger d takes d = 4's), and a
# term's letters may weigh at most MAX_LETTER_WORK.  Both are fitted to the
# costliest word families measured (the longest permutation or a bend, dots
# spread over the strands, then a run of s letters or of s and e letters;
# 2-core host, CPython 3.11), so that the bound admits no more letters after
# each dot count than normalized in about 3 s: at d = 2, 262,144 letters
# after no dots took 2.5 s, 256 after 20 dots 1.9 s (the bound admits 196)
# and 4 after 80 dots 2.5 s (it admits 3); at d = 3, 256 after 8 dots took
# 1.6 s (it admits 142) and 4 after 16 dots 11 s (it admits 1); at d = 4,
# 16 after 8 dots took 4.5 s (it admits 8).  It refuses s1*y1^20*y2^20*s1^200
# at d = 2, which took 7.6 s.  A power is weighed before it is expanded.
LETTER_GROWTH = ((1, 1), (1, 1), (7, 5), (2, 1))
MAX_LETTER_WORK = 2 ** 21


def _strand_factor(d):
    """How many times more an s or e letter weighs on d strands than on 4.

    Past four strands a letter also costs more the more strands there are:
    every diagram it reaches is built on d strands, and the stacked word of
    its product, the diagram's canonical word plus the letter, grows to
    about d^2 / 4 letters.  Fitted, with the dot weights above unchanged,
    to the costliest families measured past four strands (seeded random s
    words; s1*s2*...*s(d-1) repeated; a bend, dots on its right end, then s
    and e letters; dots spread over the strands, then s and e letters;
    2-core host, CPython 3.11), taking each at the most letters the bound
    admits after 0 to 9 dots: the slowest took 3.3 s (random s words at
    d = 30, 3,360 letters) and 3.4 s (the repeated chain at d = 100, 910
    letters), and none took more than 2.8 s at d = 300, 1,000, 3,000,
    10,000 or 100,000, where it admits 7 letters without dots and 1 after
    one dot.  The bound refuses
    s1*s2*s3*s4*s5*e1*e3*s2*s4 at d = 100,000, which took 1.8 to 2.5 s
    unbounded, and e1*y2*y1^3*s2*e3*s1*s2 there, which took 19.5 s.
    """
    return max(1, 3 * (min(d, 300) - 4), d // 3)


def max_dots(d):
    """The dot letters one term may carry on d strands."""
    return MAX_DOTS[min(d, len(MAX_DOTS)) - 1]


def letter_weight(dots, d):
    """The weight of an s or e letter after `dots` dot letters of its term."""
    num, den = LETTER_GROWTH[min(d, len(LETTER_GROWTH)) - 1]
    return (dots + 2) ** 3 * num ** dots // den ** dots * _strand_factor(d)


def _lex(src):
    """The tokens of src as (kind, value, position): a generator's value is
    (letter, index), a number's its int and an operator's its character."""
    out = []
    for m in _TOKEN_RE.finditer(src):
        kind, at = m.lastgroup, m.start()
        if kind == "op":
            out.append((kind, m[kind], at))
        elif kind == "bad":
            raise WordParseError(f"unexpected character {m[kind]!r}", at)
        elif kind != "space":
            try:
                n = int(m[kind])
            except ValueError:
                raise WordParseError(
                    f"a number is longer than Python's int/str digit limit "
                    f"of {sys.get_int_max_str_digits()} digits", m.start(kind))
            out.append((kind, (m["letter"], n) if kind == "gen" else n, at))
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
        if kind == "gen":
            return sign, tuple(self.factors())
        if kind != "num":
            raise WordParseError("expected a scalar or generator", at)
        self.take()
        coeff = sign * val
        kind, val, _ = self.peek()
        if kind == "op" and val == "/":
            self.take()
            den, dat = self.expect_num("a denominator")
            if den == 0:
                raise WordParseError("zero denominator", dat)
            coeff = scalar(Fraction(coeff, den))
            kind, val, _ = self.peek()
        if kind == "op" and val == "*":
            self.take()
        elif kind != "gen":
            return coeff, ()
        return coeff, tuple(self.factors())

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


def parse_expression(src, d):
    """Parse a word expression into [(coefficient, token tuple)] for size d."""
    if d < 1:
        raise WordParseError("d must be >= 1", 0)
    tokens = _lex(src)
    if not tokens:
        raise WordParseError("empty expression", 0)
    parser = _Parser(tokens, d, src)
    return parser.parse()
