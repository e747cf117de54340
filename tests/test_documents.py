import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periplectic.affine import PdElement, enumerate_regular, normalize, to_daha
from periplectic.brauer import ADElement, BrauerDiagram, jm_element
from periplectic.documents import (DocumentError, dumps, from_document, loads,
                                   to_document)
from periplectic.tensoraction import E, S, Y


def roundtrip(x):
    return from_document(loads(dumps(to_document(x))))


def test_affine_roundtrip():
    x = normalize([S(1), Y(1), E(1), Y(2)], 2).scaled(3)
    assert roundtrip(x) == x


def test_affine_roundtrip_with_fractional_coefficients():
    x = normalize([Y(1)], 2).scaled("-7/3").add(normalize([S(1)], 2), 2) \
        .add(PdElement.one(2), "1/2")
    assert roundtrip(x) == x


def test_brauer_roundtrip():
    z = jm_element(3, 3)
    assert roundtrip(z) == z
    assert roundtrip(ADElement.zero(2)).is_zero()


def test_daha_roundtrip():
    x = to_daha([S(1), Y(1), S(2), Y(3)], 3)
    assert roundtrip(x) == x


@st.composite
def regular_combinations(draw):
    d = draw(st.integers(1, 3))
    basis = enumerate_regular(d, 2)
    picks = draw(st.lists(st.tuples(
        st.sampled_from(basis),
        st.fractions(min_value=-9, max_value=9, max_denominator=12)),
        max_size=6))
    acc = {}
    for u, c in picks:
        acc[u] = acc.get(u, Fraction(0)) + c
    return PdElement(d, acc)


@given(regular_combinations())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property_and_stable_bytes(x):
    text = dumps(to_document(x))
    back = from_document(loads(text))
    assert back == x
    assert dumps(to_document(back)) == text


def test_zero_roundtrip():
    doc = to_document(PdElement.zero(2))
    assert doc["terms"] == []
    assert from_document(doc).is_zero()


def test_term_order_is_deterministic():
    x = normalize([S(1), Y(1)], 2)
    assert dumps(to_document(x)) == dumps(to_document(x.scaled(2).scaled("1/2")))


def test_compact_and_pretty_agree():
    doc = to_document(normalize([S(1), Y(1)], 2))
    assert json.loads(dumps(doc)) == json.loads(dumps(doc, compact=True))
    assert "\n" not in dumps(doc, compact=True)


def test_coefficients_are_strings():
    doc = to_document(normalize([S(1), Y(1)], 2).scaled("-3/4"))
    for term in doc["terms"]:
        assert isinstance(term["coeff"], str)
        assert "." not in term["coeff"]


BAD_MUTATIONS = [
    ("wrong schema", lambda d: d.update(schema_version="0")),
    ("missing schema", lambda d: d.pop("schema_version")),
    ("unknown kind", lambda d: d.update(kind="weyl")),
    ("bad d", lambda d: d.update(d=0)),
    ("d not int", lambda d: d.update(d="two")),
    ("terms not list", lambda d: d.update(terms={})),
    ("float coeff", lambda d: d["terms"][0].update(coeff="0.5")),
    ("zero denominator", lambda d: d["terms"][0].update(coeff="1/0")),
    ("empty coeff", lambda d: d["terms"][0].update(coeff="")),
    ("broken matching", lambda d: d["terms"][0].update(matching=[[1, 1], [2, -2]])),
    ("short matching", lambda d: d["terms"][0].update(matching=[[1, -1]])),
    ("dots length", lambda d: d["terms"][0].update(bottom_dots=[0, 0, 0])),
    ("negative dots", lambda d: d["terms"][0].update(bottom_dots=[-2, 0])),
    # legal places for dots, so only the count check refuses them
    ("negative top dots", lambda d: d["terms"][0].update(top_dots=[-1, 0])),
    ("dot type", lambda d: d["terms"][0].update(top_dots=["1", 0])),
    ("dot bool", lambda d: d["terms"][0].update(top_dots=[True, 0])),
    ("d bool", lambda d: d.update(kind="brauer", d=True, terms=[
        {"coeff": "1", "matching": [[1, -1]], "top_dots": [0],
         "bottom_dots": [0]}])),
    ("vertex str", lambda d: d["terms"][0].update(matching=[["a", "b"], [2, -2]])),
    ("vertex bool", lambda d: d["terms"][0].update(matching=[[True, -1], [2, -2]])),
    ("vertex float", lambda d: d["terms"][0].update(matching=[[1.0, -1.0], [2, -2]])),
]


@pytest.mark.parametrize("label,mutate", BAD_MUTATIONS,
                         ids=[b[0] for b in BAD_MUTATIONS])
def test_rejects_malformed_documents(label, mutate):
    doc = loads(dumps(to_document(normalize([S(1), Y(1)], 2))))
    mutate(doc)
    with pytest.raises(DocumentError):
        from_document(doc)


def test_rejects_irregular_affine_term():
    doc = loads(dumps(to_document(normalize([E(1)], 2))))
    doc["terms"][0]["top_dots"] = [0, 1]  # right end of the cup
    with pytest.raises(DocumentError):
        from_document(doc)


def test_daha_documents_must_be_permutations():
    doc = loads(dumps(to_document(to_daha([S(1)], 2))))
    doc["terms"][0]["matching"] = [[1, 2], [-1, -2]]
    with pytest.raises(DocumentError):
        from_document(doc)


def test_loads_rejects_non_json():
    with pytest.raises(DocumentError):
        from_document(loads("not json"))
    with pytest.raises(DocumentError, match="invalid JSON"):
        loads(b"\xff\xfe{")


def test_over_long_numbers_are_document_errors():
    # CPython converts at most 4,300 digits between int and str
    with pytest.raises(DocumentError, match="digit limit"):
        loads('{"d": ' + "9" * 5000 + "}")
    doc = loads(dumps(to_document(normalize([S(1), Y(1)], 2))))
    doc["terms"][0]["coeff"] = "9" * 5000
    with pytest.raises(DocumentError, match="digit limit"):
        from_document(doc)
    doc["terms"][0]["coeff"] = "-1/" + "9" * 5000
    with pytest.raises(DocumentError, match="digit limit"):
        from_document(doc)
    with pytest.raises(DocumentError, match="digit limit"):
        to_document(PdElement.one(2).scaled(Fraction(10 ** 5000, 3)))
