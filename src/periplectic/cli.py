"""Command line front end.

Commands: normalize, mul, verify, render, pbw.  Every command takes --json
for machine-readable output.  All arithmetic is exact; coefficients print as
rational strings.
"""

import json
import os
import sys

import click

from . import affine, brauer, documents, render, verify, wordparse
from .kernels import combine_scaled


def _echo_doc(x, as_json):
    try:
        doc = documents.to_document(x)
    except documents.DocumentError as exc:
        raise click.ClickException(str(exc))
    click.echo(documents.dumps(doc, compact=as_json))


def _read_doc(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}")
    try:
        raw = documents.loads(text)
        return documents.from_document(raw), raw
    except (documents.DocumentError, ValueError) as exc:
        raise click.ClickException(f"{path}: {exc}")


def _color_ok():
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _report(records, as_json):
    records = sorted(records, key=lambda r: r["name"])
    failed = [r for r in records if not r["pass"]]
    summary = {
        "checks": len(records),
        "failed": len(failed),
        "all_pass": not failed,
        "results": [{"name": r["name"], "pass": r["pass"], "detail": r["detail"]}
                    for r in records],
    }
    if as_json:
        click.echo(json.dumps(summary, separators=(",", ":")))
    else:
        paint = _color_ok()
        for r in records:
            word = "PASS" if r["pass"] else "FAIL"
            if paint:
                word = click.style(word, fg="green" if r["pass"] else "red")
            tail = f"  ({r['detail']})" if r["detail"] else ""
            click.echo(f"{word}  {r['name']}{tail}")
        click.echo(json.dumps({k: summary[k] for k in
                               ("checks", "failed", "all_pass")},
                              separators=(",", ":")))
    return 0 if not failed else 1


@click.group()
def main():
    """Exact computations in an affine diagram algebra of periplectic type."""


# normalize's and mul's time and output grow with d even for a dot word: at
# d = 100,000 y1^5*y2^4, with the 9 dot letters allowed beyond d = 4, took
# 1.8 s and printed 1.9 MB, and y1 at d = 3,000,000 took 47 s
_NORMALIZE_MAX_D = 100_000


@main.command()
@click.option("--d", "d", type=int, required=True, help="number of strands")
@click.option("--json", "as_json", is_flag=True, help="compact JSON output")
@click.argument("expression")
def normalize(d, as_json, expression):
    """Rewrite EXPRESSION into the regular-monomial normal form."""
    if d < 1:
        raise click.ClickException("--d must be at least 1")
    if d > _NORMALIZE_MAX_D:
        raise click.ClickException(
            f"--d {d} is above the bound {_NORMALIZE_MAX_D}")
    try:
        parsed = wordparse.parse_expression(expression, d)
    except wordparse.WordParseError as exc:
        raise click.ClickException(str(exc))
    acc = {}
    for coeff, word in parsed:
        combine_scaled(acc, affine.normalize(list(word), d).terms, coeff)
    _echo_doc(affine.PdElement(d, acc), as_json)


def _check_product_work(xa, xb, algebra):
    """Refuse a product before it starts if it weighs more than `normalize`
    admits for one term.

    d is bounded as in `normalize`.  `mul` appends the word of each term v
    of the second document to each term u of the first, a normal form, so
    each pair is weighed as `normalize` weighs that word after u: it may
    carry at most the dots a term may, and v's s and e letters weigh
    `wordparse.letter_weight` of the dots before them and of d.  u's own
    letters are stacked again, not rewritten, so each weighs as a letter
    with no dots before it.  Every pair builds a term on d strands, so it
    weighs at least one letter, and the pairs' weights add up to at most
    MAX_LETTER_WORK.  Word lengths are counted without building the words,
    and each count stops past what the bound admits.
    """
    d = xa.d
    if d > _NORMALIZE_MAX_D:
        raise click.ClickException(
            f"d={d} is above the bound {_NORMALIZE_MAX_D}")
    bound = wordparse.MAX_LETTER_WORK
    floor = wordparse.letter_weight(0, d)
    refusal = click.ClickException(
        f"the product's term pairs weigh more than {bound}, the bound at "
        f"d={d} (a pair weighs as normalize weighs its word)")
    if len(xa.terms) * len(xb.terms) * floor > bound:
        raise refusal
    limit = bound // floor

    def shape(t):
        # (dot letters before the diagram's word, all dot letters, letters)
        if algebra == "brauer":
            return 0, 0, brauer.canonical_length(t, limit)
        lead = sum(t.top_dots)
        return (lead, lead + sum(t.bottom_dots),
                brauer.canonical_length(t.diagram, limit))

    max_dots = wordparse.max_dots(d)
    ys = [shape(v) for v in xb.terms]
    work = 0
    for _lead, dots_u, len_u in map(shape, xa.terms):
        for lead_v, dots_v, len_v in ys:
            if dots_u + dots_v > max_dots:
                raise click.ClickException(
                    f"a pair of terms has more than {max_dots} dot letters, "
                    f"the bound at d={d}")
            work += max(floor, len_u * floor
                        + len_v * wordparse.letter_weight(dots_u + lead_v, d))
            if work > bound:
                raise refusal


@main.command()
@click.option("--d", "d", type=int, default=None,
              help="expected strand count (checked against the documents)")
@click.option("--algebra", type=click.Choice(["affine", "brauer"]),
              default="affine", show_default=True)
@click.option("--json", "as_json", is_flag=True, help="compact JSON output")
@click.argument("doc_a")
@click.argument("doc_b")
def mul(d, algebra, as_json, doc_a, doc_b):
    """Multiply two element documents (files, or - for stdin)."""
    xa, raw_a = _read_doc(doc_a)
    xb, raw_b = _read_doc(doc_b)
    for raw, path in ((raw_a, doc_a), (raw_b, doc_b)):
        if raw["kind"] != algebra:
            raise click.ClickException(
                f"{path}: kind {raw['kind']!r} does not match --algebra {algebra}")
        if d is not None and raw["d"] != d:
            raise click.ClickException(
                f"{path}: document has d={raw['d']}, expected {d}")
    if raw_a["d"] != raw_b["d"]:
        raise click.ClickException(
            f"strand counts differ: {raw_a['d']} vs {raw_b['d']}")
    _check_product_work(xa, xb, algebra)
    if algebra == "affine":
        prod = affine.multiply(xa, xb)
    else:
        prod = brauer.multiply(xa, xb)
    _echo_doc(prod, as_json)


_VERIFY_CAPS = {"n": 4, "m": 3, "d": 3, "max_degree": 2}
# relations and appendix act on M (x) V^(x)d, of dimension (2n)^(m+d).  At
# 6^6 = 46,656, (n, m, d) = (3, 3, 3), they took 14.9 and 9.0 s with 1.2 GB
# and 310 MB of peak memory; at 8^6, (4, 3, 3), the only larger space the
# caps admit, relations ran out of memory under a 4 GB address-space limit
# and appendix, then running every relation, went past 120 s
_VERIFY_MAX_DIM = 6 ** 6


@main.command(name="verify")
@click.option("--suite", type=click.Choice(sorted(verify.SUITES)), required=True)
@click.option("--n", "n", type=int, default=2, show_default=True)
@click.option("--m", "m", type=int, default=0, show_default=True)
@click.option("--d", "d", type=int, default=2, show_default=True)
@click.option("--max-degree", "max_degree", type=int, default=1,
              show_default=True)
@click.option("--json", "as_json", is_flag=True, help="JSON summary only")
def verify_cmd(suite, n, m, d, max_degree, as_json):
    """Run one verification suite and report PASS/FAIL per check."""
    params = {"n": n, "m": m, "d": d, "max_degree": max_degree}
    lows = {"n": 1, "m": 0, "d": 1, "max_degree": 0}
    run, keys = verify.SUITES[suite]
    for key in keys:
        if params[key] > _VERIFY_CAPS[key]:
            raise click.ClickException(
                f"--{key.replace('_', '-')} {params[key]} exceeds the cap "
                f"{_VERIFY_CAPS[key]}; matrix sizes grow as (2n)^(m+d), so "
                f"verification is restricted to desk scale")
        if params[key] < lows[key]:
            raise click.ClickException(
                f"--{key.replace('_', '-')} must be at least {lows[key]}")
    dim = (2 * n) ** (m + d)
    if "m" in keys and dim > _VERIFY_MAX_DIM:
        raise click.ClickException(
            f"the tensor space has dimension (2n)^(m+d) = {dim}, above the "
            f"bound {_VERIFY_MAX_DIM} = 6^6")
    try:
        records = run(*(params[k] for k in keys))
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if not records:
        raise click.ClickException(
            f"suite {suite} ran no check with these parameters, so nothing "
            f"was verified")
    sys.exit(_report(records, as_json))


@main.command(name="render")
@click.option("--format", "fmt", type=click.Choice(["svg", "ascii"]),
              default="ascii", show_default=True)
@click.option("--json", "as_json", is_flag=True,
              help="wrap the drawing in a JSON object")
@click.argument("document")
def render_cmd(fmt, as_json, document):
    """Draw every term of an element document (file, or - for stdin)."""
    x, _ = _read_doc(document)
    drawing = render.draw_svg(x) if fmt == "svg" else render.draw_ascii(x)
    if as_json:
        click.echo(json.dumps({"format": fmt, "content": drawing},
                              separators=(",", ":")))
    else:
        click.echo(drawing, nl=not drawing.endswith("\n"))


# pbw's largest tensor space, of dimension (2n)^(d + max_degree + 1), is the
# block its time and memory grow with; 12^5 at (d, max-degree, n) = (3, 1, 6)
# took 26 s and 1.1 GB of peak memory, the largest size measured feasible
_PBW_MAX_BLOCK = 12 ** 5


@main.command(name="pbw")
@click.option("--d", "d", type=int, required=True)
@click.option("--max-degree", "max_degree", type=int, required=True)
@click.option("--n", "n", type=int, required=True,
              help="rank used for the faithfulness window")
@click.option("--json", "as_json", is_flag=True)
def pbw_cmd(d, max_degree, n, as_json):
    """Check spanning-set independence under the tensor representations."""
    if not (1 <= d <= 3):
        raise click.ClickException("--d must be in 1..3 (desk scale)")
    if not (0 <= max_degree <= 2):
        raise click.ClickException("--max-degree must be in 0..2 (desk scale)")
    if not (1 <= n <= 6):
        raise click.ClickException("--n must be in 1..6 (desk scale)")
    block = (2 * n) ** (d + max_degree + 1)
    if block > _PBW_MAX_BLOCK:
        raise click.ClickException(
            f"the largest block has dimension (2n)^(d+max-degree+1) = {block}, "
            f"above the bound {_PBW_MAX_BLOCK} = 12^5")
    try:
        count, rank = affine.pbw_rank_check(d, max_degree, n)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    ok = count == rank
    if as_json:
        click.echo(json.dumps({"d": d, "max_degree": max_degree, "n": n,
                               "count": count, "rank": rank, "pass": ok},
                              separators=(",", ":")))
    else:
        word = "PASS" if ok else "FAIL"
        if _color_ok():
            word = click.style(word, fg="green" if ok else "red")
        click.echo(f"count={count} rank={rank} {word}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
