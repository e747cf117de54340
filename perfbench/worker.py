"""One benchmark process: import, generate inputs, run the timed phase, check.

Started by ``run.py`` in a fresh interpreter, so every module-level cache of
the package starts empty, as it does in each command-line process.  The
package is imported from the checkout's ``src`` directory, as the tests do.

Protocol: after set-up the worker prints ``ready`` on stdout and flushes;
the parent times set-up by that line.  The last stdout line is a JSON object
with the results.
"""

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHECK_DEADLINE_S = 60.0
# reference slices run just before and just after the timed phase, so that
# a short first operation still has a measure of the machine's speed
# around it
PRE_SLICES = 20
# the steady phase ends after --seconds at reference speed, or after this
# many times --seconds of wall time on a host much slower than that
WALL_CAP = 1.25


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def import_package():
    sys.path.insert(0, SRC)
    import periplectic
    where = os.path.dirname(os.path.abspath(periplectic.__file__))
    if where != os.path.join(SRC, "periplectic"):
        raise ImportError(f"periplectic imported from {where}, not from {SRC}")


def percentile_ms(samples, q):
    if len(samples) == 1:
        return samples[0] * 1e3
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[q - 1] * 1e3


def cache_snapshot(fn):
    info = getattr(fn, "cache_info", None)
    return info() if info else None


def cache_ratio(before, after):
    """Hit ratio of the lookups between two snapshots; None if no cache."""
    if before is None or after is None:
        return None, 0
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return (hits / lookups if lookups else 0.0), lookups


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--ops", type=int, default=0,
                    help="run exactly this many operations instead")
    ap.add_argument("--deadline", type=float, required=True,
                    help="hard limit on the timed phase, in seconds")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit once set-up is done")
    ap.add_argument("--trace", default="",
                    help="record spans and write them to this file")
    ap.add_argument("--corrupt-every", type=int, default=0)
    args = ap.parse_args()

    import_package()
    from periplectic import (affine, brauer, documents, exactla, kernels,
                             tensoraction, wordparse)
    import calibrate
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    stream = workload.inputs(random.Random(args.seed))
    print("ready", flush=True)
    if args.setup_only:
        print("{}")
        return

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(max_spans=250_000)
        tracer.install({"wordparse": wordparse, "affine": affine,
                        "brauer": brauer, "tensoraction": tensoraction,
                        "exactla": exactla, "kernels": kernels,
                        "documents": documents})
    calib = None
    if not tracer:
        calib = calibrate.Calibrator()
        # machine speed just before the first operation, for first_op_s
        calib.burst(PRE_SLICES)
    norm_cache = getattr(affine, "_normalize_cached", None)
    eval_cache = getattr(tensoraction, "_evaluate_raw", None)
    norm_before = cache_snapshot(norm_cache)
    eval_before = cache_snapshot(eval_cache)

    signal.signal(signal.SIGALRM, _on_alarm)
    records = []      # (input, output or None, seconds)
    ends = []         # end of each operation, without the reference slices
    failed = 0
    clock = time.perf_counter
    stolen = (lambda: calib.stolen) if calib else (lambda: 0.0)
    t_start = clock()
    t_first = None
    stolen_first = 0.0

    def measured(now):
        """Seconds of the steady phase so far, at the reference machine's
        speed when calibrating, so that the number of operations a run
        completes (and with it the memory and cache state it reaches) does
        not follow the host's speed.  Capped in wall time."""
        wall = now - t_first
        scale = calib.scale_since_mark() if calib else None
        if scale is None or wall >= WALL_CAP * args.seconds:
            return wall
        return (wall - (stolen() - stolen_first)) * scale

    signal.setitimer(signal.ITIMER_REAL, args.deadline)
    if tracer:
        tracer.enabled = True
    if calib:
        calib.start()
    try:
        while True:
            if args.ops:
                if len(records) >= args.ops:
                    break
            elif t_first is not None and measured(clock()) >= args.seconds:
                break
            inp = next(stream)
            fault = bool(args.corrupt_every
                         and len(records) % args.corrupt_every
                         == args.corrupt_every - 1)
            t0, s0 = clock(), stolen()
            try:
                out = workload.run(inp, fault)
            except DeadlineExceeded:
                records.append((inp, None, clock() - t0 - (stolen() - s0)))
                ends.append(clock() - stolen())
                failed += 1
                print(f"operation {len(records)} unfinished at the deadline",
                      file=sys.stderr)
                break
            except Exception as exc:  # one failed operation, keep measuring
                out = None
                failed += 1
                print(f"operation {len(records) + 1} raised {exc!r}",
                      file=sys.stderr)
            t1 = clock()
            records.append((inp, out, t1 - t0 - (stolen() - s0)))
            ends.append(t1 - stolen())
            if t_first is None:
                t_first, stolen_first = t1, stolen()
                if calib:
                    calib.mark()
    except DeadlineExceeded:  # fired between two operations
        pass
    finally:
        if calib:
            calib.stop()
        if tracer:
            tracer.enabled = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    t_end = clock()
    stolen_end = stolen()
    if calib:
        # machine speed just after, for a first operation that ended the run
        calib.burst(PRE_SLICES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    norm_ratio, norm_lookups = cache_ratio(norm_before,
                                           cache_snapshot(norm_cache))
    eval_ratio, eval_lookups = cache_ratio(eval_before,
                                           cache_snapshot(eval_cache))
    eval_info = cache_snapshot(eval_cache)

    # output checks, outside the timed phase and under their own deadline
    check_failed = 0
    signal.setitimer(signal.ITIMER_REAL, CHECK_DEADLINE_S)
    try:
        for index, (inp, out, _) in enumerate(records):
            if out is None:
                continue
            try:
                ok = workload.check(index, inp, out)
            except DeadlineExceeded:
                raise
            except Exception as exc:
                ok = False
                print(f"check {index} raised {exc!r}", file=sys.stderr)
            if not ok:
                check_failed += 1
    except DeadlineExceeded:
        checked = index
        check_failed += sum(1 for r in records[checked:] if r[1] is not None)
        print("output checks unfinished at their deadline", file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    failed += check_failed

    # times at the reference machine's speed; 1 when not calibrated
    first_scale = steady_scale = 1.0
    if calib and t_first is not None:
        first_scale = calib.scale_between(t_start, t_first, PRE_SLICES)
        steady_scale = (calib.scale_between(t_first, t_end, PRE_SLICES)
                        if len(records) > 1 else first_scale)
    # The steady metrics cover whole rounds of the workload's input cycle
    # when at least one round finished, so that every run measures the same
    # mix of inputs rather than a seeded part of a round.
    steady = len(records) - 1                 # the first is first_op_s
    if steady >= workload.round_ops:
        steady -= steady % workload.round_ops
    latencies = [r[2] for r in records[1:steady + 1]]
    steady_s = ends[steady] - ends[0] if steady > 0 else 0
    raw = {
        "first_op_s": ((t_first - t_start) - stolen_first
                       if t_first is not None else None),
        "ops_per_s": steady / steady_s if steady_s > 0 else None,
        "op_p50_ms": percentile_ms(latencies, 50) if latencies else None,
        "op_p90_ms": percentile_ms(latencies, 90) if latencies else None,
    }
    result = {
        "attempted": len(records),
        "failed": failed,
        "first_op_s": (raw["first_op_s"] * first_scale
                       if t_first is not None else None),
        "ops_per_s": (raw["ops_per_s"] / steady_scale
                      if raw["ops_per_s"] else None),
        "op_p50_ms": (raw["op_p50_ms"] * steady_scale
                      if latencies else None),
        "op_p90_ms": (raw["op_p90_ms"] * steady_scale
                      if latencies else None),
        "raw": raw,
        "scale": {"first": first_scale, "steady": steady_scale,
                  "slices": len(calib.slices) if calib else 0},
        "peak_rss_mb": peak_rss_mb,
        # the timed phase without the reference slices
        "phase_wall_s": t_end - t_start - stolen_end,
        "implementation": kernels.IMPLEMENTATION,
        "python": platform.python_version(),
        "PERIPLECTIC_PURE": os.environ.get("PERIPLECTIC_PURE"),
    }
    if tracer:
        result["trace"] = {
            "functions": {name: tracer.function_stats(name)
                          for name in tracer.names},
            "layers": tracer.layer_self_s(),
            "counters": tracer.counters,
            "caches": {"affine.normalize_cache.hit_ratio": norm_ratio,
                       "affine.normalize_cache.lookups": norm_lookups,
                       "tensoraction.evaluate_cache.hit_ratio": eval_ratio,
                       "tensoraction.evaluate_cache.lookups": eval_lookups,
                       "tensoraction.evaluate_cache.size":
                           eval_info.currsize if eval_info else None},
            "spans": len(tracer.span_name) + tracer.dropped,
        }
        tracer.write(args.trace, {"workload": args.workload,
                                  "seed": args.seed, "ops": len(records)})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
