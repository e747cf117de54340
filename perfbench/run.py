"""Layered benchmark of the periplectic engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 20 --trace 0

Workloads: rewrite, compose, soundness, independence (see workloads.py for
what each stresses and why).  Every operation's output is checked; an
operation fails if it raises, fails its check, or is unfinished at the run's
deadline.

--trace 0 prints the end-to-end metrics.  A shared host's speed can drift
by a quarter or more within minutes, so every time is scaled to a reference
machine by a reference slice interleaved with the work (calibrate.py), and
the steady phase lasts --seconds at the reference speed (at most 1.25 times
that in wall time); the first output line gives the unscaled values too.

    ops_per_s     operations per second after the first one finished
    op_p50_ms     median latency of the operations after the first
    op_p90_ms     90th-percentile latency of the same: the highest
                  percentile with ten operations beyond it on every
                  workload (compose finishes about 120 in a run)
    first_op_s    start of the timed phase to the first finished operation
                  (lazy builds every process pays), on a first input that is
                  the same in every run; the median over the timed process
                  and PROBES probe processes, or the timed process alone
                  when that took longer than PROBE_FIRST_OP_LIMIT_S
                  (compose's solver build)
    peak_rss_mb   peak resident memory of the timed process
    setup_s       fresh interpreter to package imported and input stream
                  ready; the median over the same processes

The failed fraction is ``failed / attempted`` of the result line; it is not
a metric of its own, because it is 0 on a correct program.

--trace 1 runs the workload untraced, then again in a fresh process with
every public function of the package's modules wrapped in a span, for the
same operations, and prints the per-layer metrics: calls and self time of
the functions each workload is built around, self time and share of every
layer, exact counts, cache hit ratios, and the tracing overhead.  The spans
are written to perfbench/out/.

--corrupt-every N flips one sign in every N-th operation's result, to show
that the checks catch a wrong answer.

Each run starts fresh interpreters, so the package's caches start empty.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The lines before it give each metric with its unit and the
backend (kernel implementation, Python version, PERIPLECTIC_PURE).
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("rewrite", "compose", "soundness", "independence")

# set-up samples per run: this many probe processes plus the timed process
PROBES = 19
# probes also time their first operation when the timed process's first
# operation took less than this; a longer one is dominated by a
# deterministic lazy build and is not repeated
PROBE_FIRST_OP_LIMIT_S = 2.0
# reference slices the parent runs before starting each worker
SETUP_SLICES = 20
# a whole run must end well inside three minutes
RUN_BUDGET_S = 170.0

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("first_op_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# span names whose calls and self time are reported in the traced run
FUNCTIONS = ("affine.normalize", "affine.multiply",
             "wordparse.parse_expression", "documents.to_document",
             "documents.from_document", "brauer.diagram_of_word",
             "brauer.multiply", "kernels.combine_scaled",
             "tensoraction.evaluate_word", "exactla.mat_mul",
             "tensoraction.evaluate_word_sum", "kernels.apply_columns",
             "exactla.operator_eq", "kernels.reduce_against",
             "tensoraction.commutant_dimension", "affine.pbw_rank_check")
LAYERS = ("wordparse", "affine", "brauer", "tensoraction", "exactla",
          "kernels", "documents")
COUNTS = ("affine.terms_out", "tensoraction.op_nnz")
CACHES = (("affine.normalize_cache.hit_ratio", "ratio"),
          ("affine.normalize_cache.lookups", "count"),
          ("tensoraction.evaluate_cache.hit_ratio", "ratio"),
          ("tensoraction.evaluate_cache.lookups", "count"),
          ("tensoraction.evaluate_cache.size", "count"))


class RunError(Exception):
    pass


def per_layer_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for fn in FUNCTIONS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    for layer in LAYERS:
        out += [(f"layer.{layer}.self_s", "s"),
                (f"layer.{layer}.share", "ratio")]
    out += [(name, "count") for name in COUNTS]
    out += list(CACHES)
    out += [("trace.untraced_s", "s"), ("trace.traced_s", "s"),
            ("trace.overhead_s", "s"), ("trace.ops", "count"),
            ("trace.spans", "count")]
    return out


class Worker:
    """A worker process; the parent times its set-up by the ``ready`` line."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        # machine speed just before the start, to scale the set-up time
        self.setup_scale = calibrate.scale_of(
            [calibrate.slice_seconds() for _ in range(SETUP_SLICES)])
        t0 = time.perf_counter()
        # unbuffered, so that reading the ready line takes nothing after it
        self.proc = subprocess.Popen([sys.executable, WORKER] + args,
                                     stdout=subprocess.PIPE, bufsize=0,
                                     cwd=ROOT)
        wait = max(0.0, self.deadline - time.perf_counter())
        ready, _, _ = select.select([self.proc.stdout], [], [], wait)
        line = self.proc.stdout.readline().decode() if ready else ""
        self.setup_raw_s = time.perf_counter() - t0
        self.setup_s = self.setup_raw_s * self.setup_scale
        if line.strip() != "ready":
            self.finish()
            raise RunError(f"worker did not start: {line.strip()!r}")

    def finish(self):
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RunError("worker exceeded the run budget")
        if self.proc.returncode != 0:
            raise RunError(f"worker exited with code {self.proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise RunError("worker printed no result")
        return json.loads(lines[-1])


def worker_args(opts, deadline, extra=(), seed=None):
    seed = opts.seed if seed is None else seed
    return (["--workload", opts.workload, "--seed", str(seed),
             "--seconds", str(opts.seconds), "--deadline", str(deadline),
             "--corrupt-every", str(opts.corrupt_every)] + list(extra))


def timed_run(opts, budget_end):
    """The timed process, then the set-up probes; end-to-end metrics."""
    deadline = opts.seconds + 45.0
    main = Worker(worker_args(opts, deadline), budget_end)
    res = main.finish()
    setups = [main.setup_s]
    firsts = [res["first_op_s"]]
    probe_first = (res["first_op_s"] is not None
                   and res["first_op_s"] < PROBE_FIRST_OP_LIMIT_S)
    probe_mode = ["--ops", "1"] if probe_first else ["--setup-only"]
    for _ in range(PROBES):
        # the first input is the same in every process, so first_op_s is
        # the median of the same lazy builds paid ten times
        probe = Worker(worker_args(opts, deadline, probe_mode), budget_end)
        setups.append(probe.setup_s)
        pres = probe.finish()
        if probe_first:
            firsts.append(pres["first_op_s"])
    if None in firsts or res["ops_per_s"] is None:
        raise RunError("no operation finished before the deadline")
    res["setup_s"] = statistics.median(setups)
    res["first_op_s"] = statistics.median(firsts)
    res["first_op_samples_s"] = firsts
    res["setup_samples_s"] = setups
    res["raw"]["setup_s"] = main.setup_raw_s
    res["scale"]["setup"] = main.setup_scale
    metrics = {name: {"value": res[name], "unit": unit}
               for name, unit in END_TO_END}
    return res, metrics


def traced_run(opts, budget_end):
    """Untraced run for --seconds, then the same operations traced."""
    plain = Worker(worker_args(opts, opts.seconds + 45.0),
                   budget_end).finish()
    ops = plain["attempted"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{opts.workload}-{opts.seed}.json")
    deadline = max(1.0, budget_end - time.perf_counter() - 15.0)
    traced = Worker(worker_args(opts, deadline,
                                ["--ops", str(ops), "--trace", path]),
                    budget_end).finish()
    if traced["attempted"] != ops:
        raise RunError("traced run did not finish the same operations")
    tr = traced["trace"]
    values = {}
    for fn in FUNCTIONS:
        calls, self_s = tr["functions"].get(fn, (0, 0.0))
        values[f"{fn}.calls"] = calls
        values[f"{fn}.self_s"] = self_s
    total = sum(tr["layers"].values())
    for layer in LAYERS:
        self_s = tr["layers"].get(layer, 0.0)
        values[f"layer.{layer}.self_s"] = self_s
        values[f"layer.{layer}.share"] = self_s / total if total else 0.0
    for name in COUNTS:
        values[name] = tr["counters"].get(name, 0)
    values.update(tr["caches"])
    values["trace.untraced_s"] = plain["phase_wall_s"]
    values["trace.traced_s"] = traced["phase_wall_s"]
    values["trace.overhead_s"] = traced["phase_wall_s"] - plain["phase_wall_s"]
    values["trace.ops"] = ops
    values["trace.spans"] = tr["spans"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_names()}
    res = dict(traced)
    res["failed"] = max(plain["failed"], traced["failed"])
    res["trace_file"] = os.path.relpath(path, ROOT)
    return res, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-every", type=int, default=0)
    opts = ap.parse_args()
    if not 1 <= opts.seconds <= 60:
        ap.error("--seconds must be in 1..60")

    budget_end = time.perf_counter() + RUN_BUDGET_S
    try:
        if opts.trace:
            res, metrics = traced_run(opts, budget_end)
        else:
            res, metrics = timed_run(opts, budget_end)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({"workload": opts.workload, "seed": opts.seed,
                      "implementation": res["implementation"],
                      "python": res["python"],
                      "PERIPLECTIC_PURE": res["PERIPLECTIC_PURE"],
                      "first_op_samples_s": res.get("first_op_samples_s"),
                      "setup_samples_s": res.get("setup_samples_s"),
                      "unscaled": res.get("raw"),
                      "scale": res.get("scale"),
                      "trace_file": res.get("trace_file")}))
    for name, m in metrics.items():
        print(f"{opts.workload:<13} {name:<44} {m['value']} {m['unit']}")
    print(f"{opts.workload:<13} {'failed_frac':<44} {failed / attempted} "
          f"({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
