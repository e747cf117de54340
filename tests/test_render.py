import pytest

from periplectic.affine import PdElement, normalize
from periplectic.brauer import ADElement, BrauerDiagram
from periplectic.documents import DocumentError, to_document
from periplectic.render import render_ascii, render_svg
from periplectic.tensoraction import E, S, Y


def doc_of(word, d=2):
    return to_document(normalize(word, d))


def test_ascii_single_dotted_strand():
    art = render_ascii(doc_of([Y(1)]))
    lines = art.splitlines()
    assert lines[0] == "(1)"
    assert lines[1].startswith("*")          # dot on strand 1 only
    assert "|" in lines[2] and "\\" not in art and "/" not in art


def test_ascii_bend_glyphs():
    art = render_ascii(doc_of([E(1)]))
    assert "∪" in art and "∩" in art
    # cup row comes before cap row
    assert art.index("∪") < art.index("∩")


def test_ascii_crossing_glyphs():
    art = render_ascii(doc_of([S(1)]))
    assert "\\" in art and "/" in art and "∪" not in art


def test_ascii_zero():
    assert render_ascii(to_document(PdElement.zero(2))) == "0\n"


def test_ascii_one_panel_per_term():
    art = render_ascii(doc_of([S(1), Y(1)]))
    assert art.count("(") == 3   # three coefficient headers


def test_ascii_multi_dot_cell():
    art = render_ascii(to_document(normalize([Y(1), Y(1), Y(1)], 2)))
    assert "*3" in art


def test_svg_deterministic():
    doc = doc_of([S(1), Y(1), E(1)])
    assert render_svg(doc) == render_svg(doc)


def test_svg_is_wellformed_enough():
    import xml.etree.ElementTree as ET
    doc = doc_of([S(1), Y(2), E(1)], 3)
    svg = render_svg(doc)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.startswith("<svg ")


def test_svg_dot_count_matches_degree():
    doc = to_document(normalize([Y(1), Y(1), Y(2)], 2))
    svg = render_svg(doc)
    assert svg.count("<circle") == 3


def test_svg_zero_panel():
    svg = render_svg(to_document(ADElement.zero(2)))
    assert ">0<" in svg


def test_svg_has_no_floats():
    svg = render_svg(doc_of([E(1), S(1)], 3))
    import re
    for num in re.findall(r'[xy][12]?="(-?\d+(?:\.\d+)?)"', svg):
        assert "." not in num


def test_render_rejects_malformed():
    with pytest.raises(DocumentError):
        render_ascii({"schema_version": "1", "kind": "affine"})
    with pytest.raises(DocumentError):
        render_svg({"nope": True})


def test_cup_and_cap_rows_sit_on_correct_side():
    # a cap-only bottom dot document: dot marker must appear after the cap row
    doc = to_document(normalize([E(1), Y(2)], 2))
    art = render_ascii(doc)
    assert art.index("∩") < art.index("*")


def test_bends_are_drawn_at_their_own_ends():
    # e1 s2 at d = 3: the cup joins tops 1 and 2, the cap bottoms 1 and 3
    doc = doc_of([E(1), S(2)], 3)
    assert render_ascii(doc) == "(1)\n∪   ∪\n        /\n    /\n∩       ∩\n"
    svg = render_svg(doc)
    assert '<path d="M 24 44 Q 44 76 64 44"' in svg
    assert '<path d="M 24 136 Q 64 96 104 136"' in svg


def affine_doc(d, terms):
    return {"schema_version": "1", "kind": "affine", "d": d, "terms": terms}


IDENTITY_TERM = {"coeff": "1", "matching": [[1, -1], [2, -2]],
                 "top_dots": [0, 0], "bottom_dots": [0, 0]}

MALFORMED = {
    "no matching": affine_doc(2, [{"coeff": "1", "top_dots": [0, 0],
                                   "bottom_dots": [0, 0]}]),
    "one top dot entry": affine_doc(2, [{**IDENTITY_TERM, "top_dots": [1]}]),
    "five top dot entries": affine_doc(
        2, [{**IDENTITY_TERM, "top_dots": [1, 0, 0, 0, 1]}]),
    "d is true": affine_doc(True, []),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_render_refuses_what_from_document_refuses(name):
    for draw in (render_ascii, render_svg):
        with pytest.raises(DocumentError):
            draw(MALFORMED[name])
