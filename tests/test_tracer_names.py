"""Every name the benchmark tracer wraps must exist on the package.

`perfbench/tracer.py` resolves its `OWN` and `CROSS_MODULE` tables with
`getattr` under `--trace 1`; a deleted or renamed function would only show
there.  The tracer module is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
NAMES = sorted({(layer, attr) for layer, attrs in tracer.OWN.items()
                for attr in attrs}
               | {(layer, attr) for layer, attr, _ in tracer.CROSS_MODULE})


@pytest.mark.parametrize("layer,attr", NAMES,
                         ids=[f"{layer}.{attr}" for layer, attr in NAMES])
def test_traced_name_resolves(layer, attr):
    module = importlib.import_module(f"periplectic.{layer}")
    assert callable(getattr(module, attr))


def test_operator_equality_resolves():
    exactla = importlib.import_module("periplectic.exactla")
    assert callable(exactla.SparseMatrix.__eq__)
