"""Deterministic drawings of dotted diagrams from element documents.

Both backends draw straight through-strands, cups on the top row, caps on
the bottom row and filled dots stacked at strand endpoints, one panel per
term labeled with its coefficient.  All geometry is integer arithmetic on a
fixed grid, so identical documents always produce identical bytes.  An
element is drawn as `documents.to_document` writes it (`draw_ascii`,
`draw_svg`), so equal elements draw alike; `render_ascii` and `render_svg`
draw the element a document encodes, and a document `from_document` refuses
raises its DocumentError there too.
"""

from .brauer import BrauerDiagram
from .documents import from_document, to_document


def _edges(term, d):
    """A term's cups, caps and strands, each pair with positive ends."""
    g = BrauerDiagram(d, term["matching"])
    return g.cups(), g.caps(), g.strands()


# ---------------------------------------------------------------------------
# ascii
# ---------------------------------------------------------------------------

_CELL = 4


def _dot_cells(counts, d):
    row = [" "] * (_CELL * d)
    for k in range(1, d + 1):
        c = counts[k - 1]
        if not c:
            continue
        text = "*" if c == 1 else f"*{c}"
        x = _CELL * (k - 1)
        row[x:x + len(text)] = text
    return "".join(row).rstrip()


def _pair_row(glyph, left, right, d):
    row = [" "] * (_CELL * d)
    row[_CELL * (left - 1)] = glyph
    row[_CELL * (right - 1)] = glyph
    return "".join(row).rstrip()


def render_ascii(doc):
    return draw_ascii(from_document(doc))


def draw_ascii(x):
    doc = to_document(x)
    d, terms = doc["d"], doc["terms"]
    if not terms:
        return "0\n"
    panels = []
    for term in terms:
        cups, caps, strands = _edges(term, d)
        lines = [f"({term['coeff']})"]
        top = _dot_cells(term["top_dots"], d)
        if top:
            lines.append(top)
        for l, r in cups:
            lines.append(_pair_row("∪", l, r, d))
        if strands:
            upper = [" "] * (_CELL * d)
            lower = [" "] * (_CELL * d)
            for t, b in strands:
                ch = "|" if t == b else ("\\" if b > t else "/")
                upper[_CELL * (t - 1)] = ch
                lower[_CELL * (b - 1)] = ch
            lines.append("".join(upper).rstrip())
            lines.append("".join(lower).rstrip())
        for l, r in caps:
            lines.append(_pair_row("∩", l, r, d))
        bottom = _dot_cells(term["bottom_dots"], d)
        if bottom:
            lines.append(bottom)
        panels.append("\n".join(lines))
    return "\n\n".join(panels) + "\n"


# ---------------------------------------------------------------------------
# svg
# ---------------------------------------------------------------------------

_COL = 40      # horizontal spacing between vertices
_TOP = 44      # y of the top row
_BOT = 136     # y of the bottom row
_PAD = 24      # panel side padding
_GAP = 16      # gap between panels


def _panel_width(d):
    return 2 * _PAD + _COL * (d - 1)


def _svg_term(term, d, x0, parts):
    def col(k):
        return x0 + _PAD + _COL * (k - 1)

    cups, caps, strands = _edges(term, d)
    parts.append(f'<text x="{x0 + 4}" y="18" font-family="monospace" '
                 f'font-size="12">{term["coeff"]}</text>')
    for t, b in strands:
        parts.append(f'<line x1="{col(t)}" y1="{_TOP}" x2="{col(b)}" '
                     f'y2="{_BOT}" stroke="black" fill="none"/>')
    for l, r in cups:
        depth = _TOP + 24 + 8 * (r - l)
        mid = (col(l) + col(r)) // 2
        parts.append(f'<path d="M {col(l)} {_TOP} Q {mid} {depth} {col(r)} '
                     f'{_TOP}" stroke="black" fill="none"/>')
    for l, r in caps:
        depth = _BOT - 24 - 8 * (r - l)
        mid = (col(l) + col(r)) // 2
        parts.append(f'<path d="M {col(l)} {_BOT} Q {mid} {depth} {col(r)} '
                     f'{_BOT}" stroke="black" fill="none"/>')
    for k in range(1, d + 1):
        for i in range(term["top_dots"][k - 1]):
            parts.append(f'<circle cx="{col(k)}" cy="{_TOP - 8 - 9 * i}" '
                         f'r="3" fill="black"/>')
        for i in range(term["bottom_dots"][k - 1]):
            parts.append(f'<circle cx="{col(k)}" cy="{_BOT + 8 + 9 * i}" '
                         f'r="3" fill="black"/>')


def render_svg(doc):
    return draw_svg(from_document(doc))


def draw_svg(x):
    doc = to_document(x)
    d, terms = doc["d"], doc["terms"]
    height = _BOT + 44
    if not terms:
        body = ['<text x="12" y="24" font-family="monospace" '
                'font-size="12">0</text>']
        width = 48
    else:
        width = len(terms) * (_panel_width(d) + _GAP) - _GAP
        body = []
        for i, term in enumerate(terms):
            _svg_term(term, d, i * (_panel_width(d) + _GAP), body)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"
