"""Mutation gate: every mutant in MUTANTS must fail the fast oracle subset.

Run from anywhere:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py name ...   # the named ones

For each mutant the script copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory (pyproject's `pythonpath` would otherwise load the
unmutated `src/`), replaces the one snippet in the copy, runs SUBSET there
and prints killed or survived with the seconds the run took.  A run that
outlasts TIMEOUT_S counts as killed.  The unmutated copy runs first, and
the script stops if it fails.  Exit status: 0 when every mutant is killed,
1 when one survives.

A surviving mutant is a missing oracle: it stays in the table.  The file
name keeps pytest from collecting this script; `test_mutants_table.py`
checks that every snippet occurs exactly once in `src/`, so code that
moves must carry its mutants along.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBSET = ("tests/test_word_image_oracle.py",
          "tests/test_presentation.py::"
          "test_every_relation_holds_on_every_monomial",
          "tests/test_output_digest.py", "tests/test_stacking.py",
          "tests/test_dot_walk.py", "tests/test_render.py",
          "tests/test_diagram_record.py", "tests/test_documents.py",
          "tests/test_reader_oracles.py", "tests/test_tensoraction.py",
          "tests/test_operator_columns.py::"
          "test_sums_share_the_columns_one_term_writes",
          "tests/test_commutant_generators.py::"
          "test_generators_and_cartan_generate_pn",
          "tests/test_image_cache.py", "tests/test_witness_route.py")
TIMEOUT_S = 300

# (name, file under src/periplectic, exact snippet, replacement, what the
# replacement breaks)
MUTANTS = (
    ("record-bends-swapped", "brauer.py",
     "frozenset(b for _a, b in cups),\n"
     "                         frozenset(b for _a, b in g.caps()))",
     "frozenset(b for _a, b in g.caps()),\n"
     "                         frozenset(b for _a, b in cups))",
     "the record's cup ends and cap ends trade places"),
    ("record-sign-plus", "brauer.py",
     "DiagramRecord(g, word, _stacked(word, g.d)[1],",
     "DiagramRecord(g, word, 1,",
     "every canonical word's sign is taken as +1"),
    ("stacked-s-either-odd", "brauer.py",
     'if parity[v] & parity[v + 1] if kind == "S" else parity[v + 2]:',
     'if parity[v] | parity[v + 1] if kind == "S" else parity[v + 2]:',
     "a crossing gives -1 when either label above it is odd"),
    ("stacked-e-above", "brauer.py",
     'if parity[v] & parity[v + 1] if kind == "S" else parity[v + 2]:',
     'if parity[v] & parity[v + 1] if kind == "S" else parity[v]:',
     "a bend's sign is read above the letter, not below"),
    ("stacked-no-loop-check", "brauer.py",
     "    if -1 in parity:\n        return None\n",
     "",
     "a closed loop no longer gives 0"),
    ("route-reads-first-input", "brauer.py",
     "word, spec, {i: 1}))",
     "word, spec, {next(iter(_witnesses(d).by_input)): 1}))",
     "diagram_of_word reads every witness at the image of one input"),
    ("route-runs-outputs", "brauer.py",
     "by_input.setdefault(i, []).append((g, o, value))",
     "by_input.setdefault(o, []).append((g, i, value))",
     "the witnesses are grouped by output, so a word runs on the output "
     "coordinates and is read at the inputs"),
    ("journey-step-sign", "affine.py",
     "corr.append((-step, word[:at] + (E(b),) + word[at + 1:]))",
     "corr.append((step, word[:at] + (E(b),) + word[at + 1:]))",
     "the replace correction of a crossing keeps its sign walking down"),
    ("journey-drop-sign", "affine.py",
     "corr.append((-1 if idx == b else 1, word[:at] + word[at + 1:]))",
     "corr.append((1 if idx == b else -1, word[:at] + word[at + 1:]))",
     "the drop correction of a crossing takes the other index's sign"),
    ("journey-bend-sign", "affine.py",
     "corr.append((-step if idx == b else step, word))",
     "corr.append((step if idx == b else -step, word))",
     "a cup or cap's correction takes the opposite sign"),
    ("bump-abs-delta", "affine.py",
     "return dots[:t - 1] + (dots[t - 1] + delta,) + dots[t:]",
     "return dots[:t - 1] + (dots[t - 1] + abs(delta),) + dots[t:]",
     "taking a dot off a position adds one instead"),
    ("blocked-pass-sign", "affine.py",
     "combine_scaled(out, _walk(d, top, g, rest), -1 if t == a else 1)",
     "combine_scaled(out, _walk(d, top, g, rest), 1 if t == a else -1)",
     "a dot passing a new crossing leaves its dropped term with the "
     "other sign"),
    ("letter-loop-top-row", "affine.py",
     "g.partner(-a) == -(a + 1)",
     "g.partner(a) == a + 1",
     "an e letter's closed-loop test reads the top row, not the bottom"),
    ("letter-y-on-top", "affine.py",
     "return _walk(d, top, g, _bump(bottom, a))",
     "return _walk(d, _bump(top, a), g, bottom)",
     "an appended y letter lands on the top row, not the bottom"),
    ("illegal-dot-cap-test", "affine.py",
     "if c and t not in cap_ends:",
     "if c and t in cap_ends:",
     "bottom dots on caps' right ends count as illegal, others as legal"),
    ("render-bends-swapped", "render.py",
     "return g.cups(), g.caps(), g.strands()",
     "return g.caps(), g.cups(), g.strands()",
     "pictures draw the caps on the top row and the cups below"),
    ("coeff-sign-dropped", "documents.py",
     r'_COEFF_RE = re.compile(r"([+-]?\d+)(?:/',
     r'_COEFF_RE = re.compile(r"[+-]?(\d+)(?:/',
     "a document's coefficient loses its sign"),
    ("coeff-upside-down", "documents.py",
     "Fraction(int(num), int(den))",
     "Fraction(int(den), int(num))",
     "a document's coefficient p/q reads as q/p"),
    ("dots-negative-pass", "documents.py",
     "if not all(_is_count(v, 0) for v in top + bottom):",
     "if not all(_is_int(v) for v in top + bottom):",
     "negative dot counts reach DotDiagram._trusted"),
    ("dots-bottom-length", "documents.py",
     "if len(top) != d or len(bottom) != d:",
     "if len(top) != d:",
     "a bottom dot vector of the wrong length reaches DotDiagram._trusted"),
    ("lexer-position-end", "wordparse.py",
     "kind, at = m.lastgroup, m.start()",
     "kind, at = m.lastgroup, m.end()",
     "every token reports the position after it"),
    ("daha-no-cup-filter", "affine.py",
     "if u.diagram.is_permutation()}",
     "}",
     "to_daha keeps the terms with a cup after each letter"),
    ("daha-tau-not-inverted", "affine.py",
     "tuple(sorted(tau, key=tau.get))",
     "tuple(tau[k] for k in sorted(tau))",
     "to_daha reads a cup-free term's permutation as tau, not tau^-1"),
    ("scalar-never-int", "exactla.py",
     "c.numerator if c.denominator == 1 else c",
     "c.numerator if c.denominator == 0 else c",
     "integral coefficients stay Fractions"),
    ("op-s-either-odd", "tensoraction.py",
     "sgn = -1 if (_parity(n, dg[p]) and _parity(n, dg[q])) else 1",
     "sgn = -1 if (_parity(n, dg[p]) or _parity(n, dg[q])) else 1",
     "the S operator gives -1 when either swapped digit is odd"),
    ("op-e-bar-sign", "tensoraction.py",
     "-1 if i >= n else 1",
     "-1 if i < n else 1",
     "the E operator's bar pairs take the opposite sign"),
    ("prepend-minus-one-shared", "kernels.py",
     "vec if a == 1 else {k: a * v for k, v in vec.items()}",
     "vec",
     "an S letter's -1 entry shares the rest's column without negating it"),
    ("prepend-first-shared", "kernels.py",
     "vec = (dict(src) if a == 1",
     "vec = (src if a == 1",
     "a column of several entries adds the others into its first source, "
     "a column of the rest's cached image"),
    ("e-rest-one-side", "tensoraction.py",
     "rest = (tuple(dg[:p]), tuple(dg[q + 1:]))",
     "rest = tuple(dg[:p])",
     "E inputs that differ only right of the bend share one column"),
    ("suffix-lead-forward", "tensoraction.py",
     "for tok in reversed(word[:cut]):",
     "for tok in word[:cut]:",
     "the letters past the depth bound are added first to last"),
    ("suffix-cut-off-by-one", "tensoraction.py",
     "out = _evaluate_raw(word[cut:], spec)",
     "out = _evaluate_raw(word[cut + 1:], spec)",
     "the cached suffix starts a letter late, so that letter is lost"),
    ("casimir-no-dual-parity", "tensoraction.py",
     "crossing = par * (pref[s] + pref[dual_slot])",
     "crossing = par * pref[s]",
     "a Y operator's crossing sign forgets the odd digits before the "
     "dual slot"),
    ("pn-generators-no-y12", "superalgebra.py",
     'wanted.append(("Y_st", (1, 2)))',
     "pass",
     "the generating set of p(n) misses Y_12, so g_-1 is not generated"),
    ("image-cache-no-promotion", "tensoraction.py",
     "protected[key] = value",
     "probation[key] = value",
     "a word-image hit in probation stays there, so one-off words push "
     "out the images that recur"),
    ("image-cache-unbounded", "tensoraction.py",
     "if len(protected) > _IMAGE_CACHE_SIZE - _PROBATION_SIZE:",
     "if False:",
     "the protected segment of the word-image cache is never demoted, so "
     "it outgrows the bound"),
    ("sum-adds-into-shared-column", "tensoraction.py",
     "tacc = own[t] = dict(first)",
     "tacc = own[t] = first",
     "the second term of a sum adds into the first term's cached column"),
    ("reduce-scale-pivot-only", "kernels.py",
     "residual = {k: p * v for k, v in residual.items()}",
     "residual = {k: p * v if k == j else v for k, v in residual.items()}",
     "a reduction scales the residual's pivot coordinate only"),
)


def copy_tree(dest):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_subset(tree):
    """(passed, seconds) of SUBSET on the copy at tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", *SUBSET]
    start = time.perf_counter()
    try:
        passed = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                                timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "unmutated"
        copy_tree(base)
        passed, seconds = run_subset(base)
        print(f"{'unmutated':<24} {'passed' if passed else 'FAILED':<8} "
              f"{seconds:6.1f} s")
        if not passed:
            sys.exit("the unmutated copy fails the subset; no verdict")
        shutil.rmtree(base)
        for name, module, snippet, replacement, breaks in chosen:
            tree = Path(tmp) / name
            copy_tree(tree)
            path = tree / "src" / "periplectic" / module
            text = path.read_text()
            if text.count(snippet) != 1:
                sys.exit(f"{name}: snippet not found once in {module}")
            path.write_text(text.replace(snippet, replacement))
            passed, seconds = run_subset(tree)
            survived += passed
            print(f"{name:<24} {'SURVIVED' if passed else 'killed':<8} "
                  f"{seconds:6.1f} s  {breaks}", flush=True)
            shutil.rmtree(tree)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
