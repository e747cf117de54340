"""What the benchmark reads of an operator still works on column operators.

`perfbench/workloads.py` corrupts a result through `flip_op`, which rebuilds
an operator from `op.matrix.entries`, and `perfbench/tracer.py` counts
operator nonzeros through `len(r.matrix.entries)`.  Both modules are loaded
by path and left unchanged.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from periplectic.tensoraction import (E, S, TensorSpaceSpec, Y, evaluate_word,
                                      evaluate_word_sum)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracer = load("tracer")

SPEC = TensorSpaceSpec(2, 1, 2)
RESULTS = {
    "word": lambda: evaluate_word([S(1), Y(2), E(1)], SPEC),
    "identity": lambda: evaluate_word([], SPEC),
    "zero": lambda: evaluate_word([E(1), E(1)], SPEC),
    "sum": lambda: evaluate_word_sum([((Y(1), S(1)), Fraction(1, 3)),
                                      ((S(1), Y(2)), 2), ((E(1),), -1)],
                                     SPEC),
    "cancelling sum": lambda: evaluate_word_sum([((S(1),), 1),
                                                 ((S(1),), -1)], SPEC),
}


def nonzeros(op):
    return sum(len(col) for col in op.columns.values())


@pytest.mark.parametrize("kind", sorted(RESULTS))
def test_flip_op_changes_every_result(kind):
    op = RESULTS[kind]()
    flipped = workloads.flip_op(op)
    assert flipped != op and op != flipped


@pytest.mark.parametrize("kind", sorted(RESULTS))
def test_tracer_counts_operator_nonzeros(kind):
    op = RESULTS[kind]()
    for name in ("tensoraction.evaluate_word",
                 "tensoraction.evaluate_word_sum"):
        key, measure = tracer.COUNTERS[name]
        assert key == "tensoraction.op_nnz"
        assert measure(op) == nonzeros(op)
    assert (nonzeros(op) == 0) == op.is_zero()
