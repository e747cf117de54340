"""A traced benchmark run of every workload ends in a complete result.

`perfbench/worker.py --trace` wraps the package's functions, runs a fixed
number of operations and prints one JSON result as its last stdout line.
Its cache metrics look `affine._normalize_cached` and
`tensoraction._evaluate_raw` up by name and read their `cache_info`, so a
cache that loses it turns those metrics into null.  The worker is only run
here, as a subprocess; nothing is loaded from `perfbench/`.

The tracer's counters are fed by the return values of `affine.normalize`,
`affine.multiply` and the word-image functions, so each workload reports
exactly the counters of the functions its operations reach.  Compose reaches
none: it resolves words on the witness inputs and multiplies diagrams by
stacking, so it builds no operator and fills no word-image cache.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from periplectic import affine, tensoraction

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
OPS = 30
COUNTERS = {"rewrite": {"affine.terms_out"},
            "compose": set(),
            "soundness": {"affine.terms_out", "tensoraction.op_nnz"},
            "independence": {"tensoraction.op_nnz"}}


def test_the_worker_reads_both_caches_by_name():
    for fn in (affine._normalize_cached, tensoraction._evaluate_raw):
        info = fn.cache_info()
        assert info.maxsize and info.currsize >= 0


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_a_traced_run_prints_a_finite_result(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
         "--ops", str(OPS), "--seconds", "1", "--deadline", "60",
         "--trace", str(tmp_path / "spans.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] == OPS and result["failed"] == 0
    trace = result["trace"]
    assert set(trace["counters"]) == COUNTERS[workload]
    if workload == "compose":
        assert trace["caches"]["tensoraction.evaluate_cache.size"] == 0
    assert trace["caches"] and trace["layers"]
    for part in ("caches", "layers", "counters"):
        for name, value in trace[part].items():
            assert (isinstance(value, (int, float))
                    and math.isfinite(value)), (part, name, value)
