"""Parser for generator-word expressions.

Grammar (whitespace free between tokens):

    expr    :=  term (('+' | '-') term)*
    term    :=  scalar ('*'? factors)?  |  factors
    factors :=  factor ('*' factor)*
    factor  :=  generator ('^' count)?
    generator := ('s' | 'e' | 'y') index        e.g. s1, e2, y3
    scalar  :=  int ('/' int)?                  decimal-free rationals only

A parsed expression is a list of (coefficient, token word) pairs; a bare
scalar term is the empty word.  A term carries at most MAX_DOTS dot letters.
Errors carry the 0-based source position.
"""

import re
from fractions import Fraction

from .tensoraction import E, S, Y


class WordParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:(?P<gen>[sey])(?P<idx>\d+)|(?P<num>\d+)"
                       r"|(?P<op>[*^+/-]))")

_MAKE = {"s": S, "e": E, "y": Y}

# The dot letters one term may carry, for d = 1, 2, 3 and 4 strands; larger
# d takes the d = 4 bound.  Rewriting cost grows steeply with the dots, and
# each bound is the largest count at which every word family measured
# normalized in about 3 s (2-core host, CPython 3.11), the next count up
# taking 4 s or more: at d = 2 s1*y1^80 took 2.8 s and s1*y1^90 4.1 s; at
# d = 3, 16 dots over the longest permutation 3.2 s and 18 dots 6.6 s; at
# d = 4, 9 dots 3.3 s and 10 dots 4.8 s.  A power is checked before it is
# expanded.
MAX_DOTS = (80, 80, 16, 9)


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
        self.max_dots = MAX_DOTS[min(d, len(MAX_DOTS)) - 1]
        self.dots = 0

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
