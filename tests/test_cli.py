import hashlib
import json
import time

import pytest
from click.testing import CliRunner

from periplectic import verify
from periplectic.cli import main
from periplectic.documents import dumps, to_document
from periplectic.affine import DotDiagram, PdElement, normalize
from periplectic.brauer import ADElement, BrauerDiagram
from periplectic.tensoraction import E, S, Y
from periplectic.wordparse import MAX_DOTS
from periplectic.wordparse import (MAX_LETTER_WORK, WordParseError,
                                   letter_weight, parse_expression)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    return runner.invoke(main, list(args), **kw)


def test_normalize_identity(runner):
    res = invoke(runner, "normalize", "--d", "2", "--json", "s1*s1")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["kind"] == "affine"
    assert len(doc["terms"]) == 1
    assert doc["terms"][0]["coeff"] == "1"
    assert doc["terms"][0]["matching"] == [[1, -1], [2, -2]]


def test_normalize_pinch_is_zero(runner):
    res = invoke(runner, "normalize", "--d", "2", "--json", "e1*y1*e1")
    assert res.exit_code == 0
    assert json.loads(res.output)["terms"] == []


def test_normalize_commutator_is_zero(runner):
    res = invoke(runner, "normalize", "--d", "2", "--json", "y1*y2 - y2*y1")
    assert res.exit_code == 0
    assert json.loads(res.output)["terms"] == []


def test_normalize_reports_parse_position(runner):
    res = invoke(runner, "normalize", "--d", "2", "y1*?")
    assert res.exit_code != 0
    assert "position 3" in res.output


def test_normalize_rejects_out_of_range_index(runner):
    res = invoke(runner, "normalize", "--d", "2", "s2")
    assert res.exit_code != 0
    assert "out of range" in res.output


def test_normalize_scaled_expression(runner):
    res = invoke(runner, "normalize", "--d", "2", "--json", "1/2*y1^2")
    doc = json.loads(res.output)
    assert doc["terms"][0]["coeff"] == "1/2"
    assert doc["terms"][0]["top_dots"] == [2, 0]


def test_normalize_sums_many_terms_into_the_same_bytes(runner):
    # the 861 monomials y1^i * y2^j, i + j <= 40, each its own summand
    terms = ["*".join([f"y1^{i}"] * bool(i) + [f"y2^{j}"] * bool(j)) or "1"
             for i in range(41) for j in range(41 - i)]
    res = invoke(runner, "normalize", "--d", "2", "--json", " + ".join(terms))
    assert res.exit_code == 0
    assert len(json.loads(res.output)["terms"]) == 861
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "74045a7d80b52c6c3653b3ead41e20940eba1c002e9261ac8be643f307578641")


def test_verify_relations_all_pass(runner):
    res = invoke(runner, "verify", "--suite", "relations",
                 "--n", "2", "--d", "2", "--m", "1")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    tail = json.loads(res.output.strip().splitlines()[-1])
    assert tail["all_pass"] is True


def test_verify_json_mode(runner):
    res = invoke(runner, "verify", "--suite", "jm", "--n", "3", "--d", "3",
                 "--json")
    assert res.exit_code == 0
    summary = json.loads(res.output)
    assert summary["failed"] == 0
    names = [r["name"] for r in summary["results"]]
    assert names == sorted(names)


def test_verify_rejects_oversized_parameters(runner):
    res = invoke(runner, "verify", "--suite", "relations", "--n", "9")
    assert res.exit_code != 0
    assert "cap" in res.output
    res = invoke(runner, "verify", "--suite", "pbw", "--max-degree", "5")
    assert res.exit_code != 0


def test_verify_daha_checks_every_relation_and_its_bend_kills(runner):
    res = invoke(runner, "verify", "--suite", "daha", "--d", "2", "--json")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["all_pass"] and out["checks"] == 15


@pytest.mark.parametrize("suite", ["relations", "appendix"])
def test_verify_refuses_a_tensor_space_above_the_bound_at_once(
        runner, monkeypatch, suite):
    # (4, 3, 3) is inside every cap, but its space has dimension 8^6
    def never(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(verify.SUITES, suite,
                        (never, verify.SUITES[suite][1]))
    res = invoke(runner, "verify", "--suite", suite, "--n", "4", "--m", "3",
                 "--d", "3")
    assert res.exit_code == 1
    assert "dimension (2n)^(m+d) = 262144, above the bound 46656" in res.output
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert "Traceback" not in res.output


@pytest.mark.parametrize("n,m,d", [(3, 3, 3), (4, 2, 3), (4, 3, 2)])
def test_verify_admits_the_spaces_up_to_the_bound(runner, monkeypatch, n, m,
                                                  d):
    # the largest admitted spaces take 7 to 15 s, so a stand-in suite runs
    seen = []

    def stand_in(*args):
        seen.append(args)
        return [{"name": "stand_in", "pass": True, "detail": ""}]

    monkeypatch.setitem(verify.SUITES, "relations",
                        (stand_in, verify.SUITES["relations"][1]))
    res = invoke(runner, "verify", "--suite", "relations", "--n", str(n),
                 "--m", str(m), "--d", str(d), "--json")
    assert res.exit_code == 0, res.output
    assert seen == [(n, m, d)]


def test_verify_jm_is_not_bounded_by_m(runner):
    # jm acts on V^(x)d alone, so an --m that it ignores refuses nothing
    res = invoke(runner, "verify", "--suite", "jm", "--n", "4", "--m", "3",
                 "--d", "3", "--json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["checks"] == 41


def test_verify_pbw_example(runner):
    res = invoke(runner, "verify", "--suite", "pbw", "--d", "2",
                 "--max-degree", "1", "--n", "4", "--json")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["all_pass"] and out["checks"] == 2


def test_verify_pbw_defaults_fail_with_a_message(runner):
    # the defaults d = 2, max-degree = 1 need n >= 4, and n defaults to 2
    for args in ((), ("--n", "2", "--d", "2")):
        res = invoke(runner, "verify", "--suite", "pbw", *args)
        assert res.exit_code != 0
        assert "need n >= d + max_degree + 1" in res.output
        assert isinstance(res.exception, SystemExit)   # no traceback
        assert "Traceback" not in res.output


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("suite,checks", [("relations", 0), ("appendix", 16),
                                          ("daha", 0)])
def test_verify_runs_on_one_strand(runner, suite, checks, m):
    # a single strand has no bend and no crossing: relations and daha check
    # nothing there, which is refused rather than reported as a pass
    res = invoke(runner, "verify", "--suite", suite, "--d", "1",
                 "--m", str(m), "--json")
    if not checks:
        assert res.exit_code != 0
        assert f"suite {suite} ran no check" in res.output
        assert "nothing was verified" in res.output
        assert "Traceback" not in res.output
        return
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["all_pass"] and out["checks"] == checks


def test_mul_brauer_generators(runner, tmp_path):
    s1 = to_document(ADElement.from_diagram(BrauerDiagram.s_generator(2, 1)))
    e1 = to_document(ADElement.from_diagram(BrauerDiagram.eps_generator(2, 1)))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(dumps(s1))
    pb.write_text(dumps(e1))
    res = invoke(runner, "mul", "--algebra", "brauer", "--json",
                 str(pb), str(pa))   # eps * s = -eps
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["terms"][0]["coeff"] == "-1"


def test_mul_brauer_at_five_strands(runner, tmp_path):
    from periplectic.brauer import psi_image
    from periplectic.documents import from_document, loads
    x = ADElement(5, {BrauerDiagram.eps_generator(5, 2): 3,
                      BrauerDiagram.s_generator(5, 4): -1})
    y = ADElement(5, {BrauerDiagram.marked(5, 1, 4): 2,
                      BrauerDiagram.transposition(5, 3, 5): 1})
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(dumps(to_document(x)))
    pb.write_text(dumps(to_document(y)))
    res = invoke(runner, "mul", "--algebra", "brauer", "--d", "5", "--json",
                 str(pa), str(pb))
    assert res.exit_code == 0
    product = from_document(loads(res.output))
    assert len(product.terms) == 4
    # the image of x*y is Mat(y) . Mat(x), here on V^(x)5 at n = 2
    assert psi_image(product, 2) == psi_image(y, 2).compose(psi_image(x, 2))


@pytest.mark.parametrize("rev_first", [False, True])
@pytest.mark.parametrize("algebra", ["brauer", "affine"])
def test_mul_refuses_a_long_canonical_word_at_once(runner, tmp_path, algebra,
                                                   rev_first):
    # the reversal on 10,000 strands has d(d-1)/2 crossings in its word
    d = 10_000
    rev = ADElement.from_diagram(
        BrauerDiagram(d, [(i, -(d + 1 - i)) for i in range(1, d + 1)]))
    one = ADElement.one(d)
    if algebra == "affine":
        rev, one = (PdElement(d, {DotDiagram.bare(d, g): c
                                  for g, c in x.terms.items()})
                    for x in (rev, one))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(dumps(to_document(rev)))
    pb.write_text(dumps(to_document(one)))
    start = time.perf_counter()
    docs = (pa, pb) if rev_first else (pb, pa)
    res = invoke(runner, "mul", "--algebra", algebra, *map(str, docs))
    assert time.perf_counter() - start < 5
    assert res.exit_code != 0
    assert (f"weigh more than {MAX_LETTER_WORK}, the bound at d={d}"
            in res.output)


def test_mul_refuses_a_pair_with_too_many_dots(runner, tmp_path):
    p = tmp_path / "y1.json"
    p.write_text(dumps(to_document(normalize([Y(1)] * 41, 2))))
    res = invoke(runner, "mul", str(p), str(p))
    assert res.exit_code != 0
    assert (f"more than {MAX_DOTS[1]} dot letters, the bound at d=2"
            in res.output)


def test_mul_affine_dots_add(runner, tmp_path):
    y1 = to_document(normalize([Y(1)], 2))
    p = tmp_path / "y1.json"
    p.write_text(dumps(y1))
    res = invoke(runner, "mul", "--algebra", "affine", "--json", str(p), str(p))
    doc = json.loads(res.output)
    assert doc["terms"][0]["top_dots"] == [2, 0]


def test_mul_kind_mismatch(runner, tmp_path):
    y1 = to_document(normalize([Y(1)], 2))
    p = tmp_path / "y1.json"
    p.write_text(dumps(y1))
    res = invoke(runner, "mul", "--algebra", "brauer", str(p), str(p))
    assert res.exit_code != 0
    assert "does not match" in res.output


def test_render_ascii_from_stdin(runner):
    doc = dumps(to_document(normalize([Y(1)], 2)))
    res = invoke(runner, "render", "--format", "ascii", "-", input=doc)
    assert res.exit_code == 0
    assert "*" in res.output and "|" in res.output


def test_render_svg_json_wrapped(runner, tmp_path):
    p = tmp_path / "x.json"
    p.write_text(dumps(to_document(normalize([E(1)], 2))))
    res = invoke(runner, "render", "--format", "svg", "--json", str(p))
    payload = json.loads(res.output)
    assert payload["format"] == "svg"
    assert payload["content"].startswith("<svg ")


def test_render_malformed_document(runner):
    res = invoke(runner, "render", "-", input='{"schema_version": "1"}')
    assert res.exit_code != 0


def test_render_missing_file(runner):
    res = invoke(runner, "render", "/nonexistent/x.json")
    assert res.exit_code != 0


def test_pbw_command(runner):
    res = invoke(runner, "pbw", "--d", "2", "--max-degree", "0", "--n", "3",
                 "--json")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out == {"d": 2, "max_degree": 0, "n": 3, "count": 3, "rank": 3,
                   "pass": True}


def test_pbw_rejects_oversized(runner):
    res = invoke(runner, "pbw", "--d", "4", "--max-degree", "0", "--n", "3")
    assert res.exit_code != 0


def test_pbw_refuses_a_block_beyond_the_bound(runner):
    # the last block at (d, max-degree, n) = (3, 2, 6) has dimension 12^6
    start = time.perf_counter()
    res = invoke(runner, "pbw", "--d", "3", "--max-degree", "2", "--n", "6")
    assert time.perf_counter() - start < 5
    assert res.exit_code != 0
    assert "2985984" in res.output and "248832" in res.output


def test_pbw_reports_an_inconclusive_window(runner):
    res = invoke(runner, "pbw", "--d", "2", "--max-degree", "1", "--n", "3")
    assert res.exit_code == 1
    assert "need n >= d + max_degree + 1" in res.output


def test_normalize_pretty_output_roundtrips(runner):
    from periplectic.documents import from_document, loads
    res = invoke(runner, "normalize", "--d", "2", "s1*y1")
    x = from_document(loads(res.output))
    assert x == normalize([S(1), Y(1)], 2)


def test_normalize_resolves_diagram_products_past_four_strands(runner):
    from periplectic.affine import tensor_image
    from periplectic.documents import from_document, loads
    from periplectic.tensoraction import TensorSpaceSpec, evaluate_word
    start = time.perf_counter()
    res = invoke(runner, "normalize", "--d", "5", "e1*s2")
    assert time.perf_counter() - start < 5
    assert res.exit_code == 0
    spec = TensorSpaceSpec(2, 0, 5)
    assert (tensor_image(from_document(loads(res.output)), spec)
            == evaluate_word([E(1), S(2)], spec))


def test_normalize_refuses_a_long_word_on_many_strands_at_once(runner):
    start = time.perf_counter()
    res = invoke(runner, "normalize", "--d", "100000",
                 "s1*s2*s3*s4*s5*e1*e3*s2*s4")
    assert time.perf_counter() - start < 5
    assert res.exit_code != 0
    assert (f"weigh more than {MAX_LETTER_WORK}, the bound at d=100000"
            in res.output)


def test_normalize_many_dots_finishes(runner):
    start = time.perf_counter()
    res = invoke(runner, "normalize", "--d", "2", "--json", "s1*y1^24")
    assert time.perf_counter() - start < 5
    assert res.exit_code == 0
    assert len(json.loads(res.output)["terms"]) == 325


def test_normalize_dot_words_at_five_strands(runner):
    res = invoke(runner, "normalize", "--d", "5", "--json", "y1*y3*y5")
    assert res.exit_code == 0
    assert json.loads(res.output)["terms"][0]["top_dots"] == [1, 0, 1, 0, 1]


@pytest.mark.parametrize("d,expression,message", [
    ("2", "s1*y1^120", "more than 80 dot letters"),
    ("2", "s1*y1^240", "more than 80 dot letters"),
    ("2", "y1^1000000000000", "more than 80 dot letters"),
    ("3000000", "y1", "above the bound 100000")])
def test_normalize_refuses_an_infeasible_input_at_once(runner, d, expression,
                                                       message):
    start = time.perf_counter()
    res = invoke(runner, "normalize", "--d", d, expression)
    assert time.perf_counter() - start < 5
    assert res.exit_code != 0
    assert message in res.output


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_normalize_dot_bound_counts_each_term(runner, d):
    bound = MAX_DOTS[min(d, 4) - 1]
    ok = invoke(runner, "normalize", "--d", str(d),
                f"y1^{bound - 1}*y{d} + y1^{bound}")
    assert ok.exit_code == 0
    res = invoke(runner, "normalize", "--d", str(d), f"y1^{bound}*y{d}")
    assert res.exit_code != 0
    assert f"more than {bound} dot letters" in res.output


def test_normalize_reports_the_unexpected_source_text(runner):
    res = invoke(runner, "normalize", "--d", "2", "s1 s1")
    assert res.exit_code != 0
    assert "got 's1' (at position 3)" in res.output


def test_normalize_refuses_many_letters_after_many_dots_at_once(runner):
    start = time.perf_counter()
    res = invoke(runner, "normalize", "--d", "2", "s1*y1^20*y2^20*s1^200")
    assert time.perf_counter() - start < 5
    assert res.exit_code != 0
    assert f"weigh more than {MAX_LETTER_WORK}, the bound at d=2" in res.output


@pytest.mark.parametrize("d,dots", [(2, 0), (2, 20), (2, 80), (3, 8), (3, 16),
                                    (4, 9), (5, 3)])
def test_letter_bound_weighs_each_power_after_the_dots_before_it(d, dots):
    allowed = MAX_LETTER_WORK // letter_weight(dots, d)
    ys = f"y1^{dots}*" if dots else ""
    ok = parse_expression(f"{ys}s1^{allowed} + {ys}s1^{allowed}", d)
    assert [len(w) for _c, w in ok] == [dots + allowed] * 2
    with pytest.raises(WordParseError, match=str(MAX_LETTER_WORK)):
        parse_expression(f"{ys}s1^{allowed}*e1", d)
    with pytest.raises(WordParseError, match=str(MAX_LETTER_WORK)):
        parse_expression(f"{ys}s1^{10 ** 15}", d)
    if dots:
        # letters before the dots weigh as if no dot preceded them
        parse_expression(f"s1^{MAX_LETTER_WORK // letter_weight(0, d)}*y1", d)


def assert_refused_with_a_message(res, *fragments):
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception
    for fragment in fragments:
        assert fragment in res.output


@pytest.mark.parametrize("expression,position", [
    ("9" * 5000 + "*s1", 0), ("s" + "9" * 5000, 1), ("s1^" + "9" * 5000, 3)],
    ids=["coefficient", "index", "power"])
def test_normalize_refuses_an_over_long_number_at_its_position(
        runner, expression, position):
    res = invoke(runner, "normalize", "--d", "2", expression)
    assert_refused_with_a_message(res, "digit limit",
                                  f"(at position {position})")


def test_normalize_refuses_an_over_long_output_coefficient(runner):
    # the input's 4,300 digits pass; its product with the normal form's
    # coefficients does not
    res = invoke(runner, "normalize", "--d", "2", "9" * 4300 + "*s1*y1^20")
    assert_refused_with_a_message(res, "a coefficient", "digit limit")


def test_mul_refuses_an_over_long_product_coefficient(runner, tmp_path):
    x = PdElement.one(2).scaled(10 ** 4000 - 1)
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(to_document(x)))
        paths.append(str(path))
    res = invoke(runner, "mul", *paths)
    assert_refused_with_a_message(res, "a coefficient", "digit limit")


def test_mul_refuses_an_over_long_json_number(runner, tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"schema_version": "1", "kind": "affine", "d": '
                    + "9" * 5000 + ', "terms": []}')
    res = invoke(runner, "mul", str(path), str(path))
    assert_refused_with_a_message(res, "a JSON number", "digit limit")


def test_render_refuses_a_file_that_is_not_utf8(runner, tmp_path):
    path = tmp_path / "a.json"
    path.write_bytes(b"\xff\xfe{}")
    res = invoke(runner, "render", str(path))
    assert_refused_with_a_message(res, "cannot read")


RENDER_DOCS = {
    "dotted": to_document(normalize([S(1), Y(1), E(2), Y(3), S(2), Y(2)], 3)),
    "brauer": to_document(ADElement.from_diagram(
        BrauerDiagram.eps_generator(3, 1)).add(
            ADElement.from_diagram(BrauerDiagram.s_generator(3, 2)), -2)),
    "zero": to_document(PdElement.zero(2)),
    # not as to_document writes it: terms out of order, an unreduced and a
    # repeated coefficient
    "unsorted": {"schema_version": "1", "kind": "affine", "d": 2, "terms": [
        {"coeff": "2/4", "matching": [[1, -1], [2, -2]],
         "top_dots": [0, 1], "bottom_dots": [0, 0]},
        {"coeff": "-3", "matching": [[1, 2], [-1, -2]],
         "top_dots": [0, 0], "bottom_dots": [0, 0]},
        {"coeff": "1/2", "matching": [[1, -1], [2, -2]],
         "top_dots": [0, 1], "bottom_dots": [0, 0]}]},
}
# sha256 of every drawing below, as the command printed it before it read
# each document once
RENDER_DIGEST = ("4042bcfe4c0e89afd80d9de9d4c60d2c"
                 "fe077575f4a87cf9ef52460bbd2cbf8a")


def render_outputs(runner, tmp_path):
    for name in sorted(RENDER_DOCS):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(RENDER_DOCS[name]))
        for fmt in ("ascii", "svg"):
            for flags in ((), ("--json",)):
                res = invoke(runner, "render", "--format", fmt, *flags,
                             str(path))
                assert res.exit_code == 0, res.output
                yield res.output


def test_render_prints_the_bytes_it_printed_before(runner, tmp_path):
    import hashlib
    digest = hashlib.sha256()
    for out in render_outputs(runner, tmp_path):
        digest.update(out.encode())
    assert digest.hexdigest() == RENDER_DIGEST


def test_render_reads_its_document_once(runner, tmp_path, monkeypatch):
    from periplectic import documents, render
    calls = []
    original = documents.from_document

    def counted(doc):
        calls.append(doc)
        return original(doc)

    monkeypatch.setattr(documents, "from_document", counted)
    monkeypatch.setattr(render, "from_document", counted)
    path = tmp_path / "x.json"
    path.write_text(dumps(RENDER_DOCS["dotted"]))
    for fmt in ("ascii", "svg"):
        for flags in ((), ("--json",)):
            calls.clear()
            res = invoke(runner, "render", "--format", fmt, *flags, str(path))
            assert res.exit_code == 0, res.output
            assert len(calls) == 1
