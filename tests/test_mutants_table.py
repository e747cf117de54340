"""The mutation gate's table still points at the code it mutates.

`tests/mutants.py` (run by hand, not collected) replaces one exact snippet
of `src/` per mutant.  Each snippet must occur exactly once in all of
`src/`, in the file its row names, so that a refactor which moves the code
has to carry its mutants along.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "periplectic"


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()
SOURCES = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}


def test_mutant_names_are_unique():
    names = [m[0] for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name,module,snippet,replacement,breaks", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_each_snippet_occurs_once_in_src(name, module, snippet, replacement,
                                         breaks):
    assert snippet != replacement and breaks
    assert SOURCES[module].count(snippet) == 1
    assert sum(text.count(snippet) for text in SOURCES.values()) == 1
