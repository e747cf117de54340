"""Lossless JSON interchange for algebra elements.

A document is a plain dict:

    {"schema_version": "1", "kind": "affine" | "brauer" | "daha", "d": int,
     "terms": [{"coeff": "p/q", "matching": [[a, b], ...],
                "top_dots": [...], "bottom_dots": [...]}, ...]}

Vertices are 1..d on the top row and -1..-d on the bottom row.  Coefficients
are decimal-free rational strings.  Term order and field order are fixed, so
serialising the same element always yields identical bytes.
"""

import json
import re
import sys
from fractions import Fraction

from .affine import DahaElement, DotDiagram, PdElement
from .brauer import ADElement, BrauerDiagram
from .exactla import scalar

SCHEMA_VERSION = "1"

_COEFF_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")


class DocumentError(ValueError):
    """Raised for malformed or inconsistent element documents."""


def _too_long(what):
    # CPython refuses to convert an int of more digits to or from str
    return DocumentError(f"{what} is longer than Python's int/str digit limit "
                         f"of {sys.get_int_max_str_digits()} digits")


def _is_int(v):
    # bool is an int subclass, but true/false are not counts or vertices; and
    # 1.0 would be written back as 1.0, breaking byte-identical serialisation
    return isinstance(v, int) and not isinstance(v, bool)


def _is_count(v, least):
    return _is_int(v) and v >= least


def _parse_coeff(s):
    """The coefficient string s as an exact scalar (see `exactla.scalar`)."""
    m = _COEFF_RE.fullmatch(s.strip()) if isinstance(s, str) else None
    if not m:
        raise DocumentError(f"bad rational coefficient {s!r} (want 'p' or 'p/q')")
    num, den = m.groups()
    try:
        return int(num) if den is None else scalar(Fraction(int(num), int(den)))
    except ValueError:
        raise _too_long("a coefficient")


def _term(coeff, matching, top, bottom):
    return {"coeff": str(coeff),
            "matching": [list(p) for p in matching],
            "top_dots": list(top),
            "bottom_dots": list(bottom)}


def to_document(x):
    """Serialise a PdElement, ADElement or DahaElement to a document dict."""
    if isinstance(x, PdElement):
        kind, d = "affine", x.d
        rows = sorted(((u.diagram.matching, u.top_dots, u.bottom_dots, c)
                       for u, c in x.terms.items()))
    elif isinstance(x, ADElement):
        kind, d = "brauer", x.d
        rows = sorted(((g.matching, (0,) * x.d, (0,) * x.d, c)
                       for g, c in x.terms.items()))
    elif isinstance(x, DahaElement):
        kind, d = "daha", x.d
        rows = sorted(((tuple((i, -p) for i, p in enumerate(perm, start=1)),
                        (0,) * x.d, vexp, c)
                       for (perm, vexp), c in x.terms.items()))
    else:
        raise TypeError(f"cannot serialise {type(x).__name__}")
    try:
        terms = [_term(c, m, t, b) for m, t, b, c in rows]
    except ValueError:
        raise _too_long("a coefficient")
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "d": d,
            "terms": terms}


def from_document(doc):
    """Rebuild the element encoded by a document dict."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
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
            u = DotDiagram._trusted(d, g, top, bottom)
            acc[u] = acc.get(u, 0) + coeff
        try:
            return PdElement(d, acc)
        except ValueError as exc:
            raise DocumentError(str(exc))
    if kind == "brauer":
        acc = {}
        for coeff, g, top, bottom in parsed:
            if any(top) or any(bottom):
                raise DocumentError("brauer terms cannot carry dots")
            acc[g] = acc.get(g, 0) + coeff
        return ADElement(d, acc)
    acc = {}
    for coeff, g, top, bottom in parsed:
        if any(top):
            raise DocumentError("daha terms carry exponents on the bottom row only")
        if not g.is_permutation():
            raise DocumentError("daha terms need permutation matchings")
        perm = g.permutation()
        key = (tuple(perm[i] for i in range(1, d + 1)), bottom)
        acc[key] = acc.get(key, 0) + coeff
    return DahaElement(d, acc)


def dumps(doc, compact=False):
    if compact:
        return json.dumps(doc, separators=(",", ":"))
    return json.dumps(doc, indent=2)


def loads(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DocumentError(f"invalid JSON: {exc}")
    except ValueError:
        raise _too_long("a JSON number")
    return doc
