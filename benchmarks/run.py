"""Benchmark of bepower: closed-loop workloads, checked outputs, and an
optional traced run with a per-layer breakdown.

Run from the repository root:

    python3 benchmarks/run.py --workload estimate --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py and README.md): ``estimate`` (mapped power
estimates over the Table-1 grid and single-crossing scans on integer
grids, the vector path), ``recommend`` (power curves, crossover sizes and
CLI commands, the scalar path).  One caller thread sends each call only
after the previous one returned (a closed loop with one client).

With ``--trace 0`` the run measures the end-to-end metrics untraced:
set-up time in fresh interpreters, then rounds of calls for ``--seconds``
seconds.  With ``--trace 1`` it repeats one fixed round,
untraced and then traced, for ``--seconds`` seconds and reports the
per-layer metrics computed from the recorded spans.  Either way every
output is checked against ``expected.json``.

The report names every metric with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Details, and the spans of a traced run, go to benchmarks/out/.
The exit code is 2 when the library sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import SPAN_FIELDS, SPAN_NAMES, SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "qrng.calls": "count", "qrng.self_s": "s", "qrng.points": "count",
    **{f"special.{k}.{m}": u
       for k in ("inv_norm", "inv_chisq", "t_quantile")
       for m, u in (("calls", "count"), ("elems", "count"), ("self_s", "s"),
                    ("ns_per_elem", "ns"))},
    "special.scalar_calls": "count", "special.us_per_scalar_call": "us",
    "tost.calls": "count", "tost.self_s": "s", "tost.trials": "count",
    "tost.welch_df.calls": "count",
    "curve.calls": "count", "curve.self_s": "s", "curve.points": "count",
    "curve.g_evals": "count", "curve.g_evals_per_point": "ratio",
    "curve.reinit_points": "count", "curve.censored_points": "count",
    "curve.smallest_crossing.calls": "count", "curve.g_at.calls": "count",
    "crossover.calls": "count", "crossover.self_s": "s",
    "crossover.chow.calls": "count", "crossover.chow.self_s": "s",
    "diagnostics.calls": "count", "diagnostics.self_s": "s",
    "diagnostics.cells": "count", "diagnostics.ns_per_cell": "ns",
    "diagnostics.multi_points": "count",
    "cli.calls": "count", "cli.self_s": "s", "cli.bytes_written": "count",
    "trace.overhead_frac": "ratio",
}
# per-layer metrics that are times (medians over traced passes); the rest
# are counts, identical on every pass for a fixed seed
_TIMED_SUFFIXES = ("self_s", "ns_per_elem", "us_per_scalar_call",
                   "ns_per_cell", "overhead_frac")

# a fresh interpreter imports bepower and makes the workload's first call
# at the tiny size: set-up cost, not steady-state work
SETUP_CODE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import bepower
import workloads
workloads.Workload({name!r}, {seed!r}, "tiny").round(0)[0].run()
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="estimate or recommend")
    p.add_argument("--seed", required=True, type=int,
                   help="workload seed; picks the inputs of every round")
    p.add_argument("--seconds", required=True, type=float,
                   help="how long to measure")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1),
                   help="0: end-to-end metrics; 1: traced per-layer metrics")
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="problem sizes; 'tiny' is for the smoke test")
    p.add_argument("--expected", type=Path,
                   default=BENCH_DIR / "expected.json",
                   help="recorded outputs to check against")
    return p.parse_args(argv)


def execute(call, expected, recorder=None):
    """Make one call; return (latency in ns, list of check failures)."""
    t0 = time.perf_counter_ns()
    try:
        output = call.run()
    except Exception as exc:  # a raising call is a failed call, not a crash
        return time.perf_counter_ns() - t0, [f"raised {type(exc).__name__}: {exc}"]
    ns = time.perf_counter_ns() - t0
    if recorder is not None:
        for name, value in call.counters(output).items():
            recorder.counters[name] += value
    want = expected.get(call.key)
    if want is None:
        return ns, ["no expected output recorded"]
    try:
        return ns, call.compare(call.summarize(output), want)
    except Exception as exc:  # an output the check cannot read is wrong
        return ns, [f"check raised {type(exc).__name__}: {exc}"]


def measure_setup(name, seed, runs):
    """Wall time of `runs` fresh interpreters running SETUP_CODE; returns
    every run's seconds."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), name=name,
                             seed=seed)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def tail(latencies_ms):
    """Highest percentile with at least 10 calls beyond it, as
    (value, percentile, calls beyond); the maximum when there are too few
    calls for that."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 10
    return ordered[k - 1], 100.0 * k / n, 10


def run_pass(calls, expected, failures, recorder=None):
    """Make each call once; return their total latency in ns.  Failed
    checks are appended to `failures`."""
    total = 0
    for call in calls:
        ns, problems = execute(call, expected, recorder)
        total += ns
        if problems:
            failures.append({"call": call.key, "problems": problems})
    return total


def run_untraced(workload, expected, seconds):
    """Rounds of calls until `seconds` have passed and one round is
    complete; the run stops between two calls, so a long round does not
    overrun it.  Throughput is a round's calls over the call time of a
    typical round, the sum of each call slot's median latency: a burst of
    load from elsewhere on the machine moves that less than a mean would,
    and a partial last round does not bias it."""
    calls_ms, failures = [], []
    slot_ms = [[] for _ in workload.templates]
    deadline = time.perf_counter() + seconds
    slots_and_calls = itertools.chain.from_iterable(
        enumerate(workload.round(r)) for r in itertools.count())
    for i, (slot, call) in enumerate(slots_and_calls):
        if i >= len(slot_ms) and time.perf_counter() >= deadline:
            break
        ns, problems = execute(call, expected)
        slot_ms[slot].append(ns / 1e6)
        calls_ms.append((call.key, ns / 1e6))
        if problems:
            failures.append({"call": call.key, "problems": problems})
    latencies = [ms for _, ms in calls_ms]
    attempted = len(latencies)
    completed = attempted - len(failures)
    round_s = sum(statistics.median(ms) for ms in slot_ms) / 1e3
    tail_ms, tail_pct, beyond = tail(latencies)
    metrics = {
        "calls_per_s": completed / attempted * len(slot_ms) / round_s,
        "call_p50_ms": statistics.median(latencies),
        "call_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "calls_per_s": f"{len(slot_ms)} calls a round, {completed} of "
                       f"{attempted} calls passed; typical round {round_s:.3f} "
                       "s of call time",
        "call_p50_ms": f"median of {attempted} calls",
        "call_tail_ms": f"p{tail_pct:.1f}, {beyond} calls beyond, "
                        f"{attempted} calls",
        "peak_rss_mb": "peak resident set of this process",
        "calls_ms": calls_ms,
    }
    return metrics, notes, attempted, failures


def run_traced(workload, expected, seconds):
    """Repeat round 0 untraced then traced until `seconds` is used up (at
    least once).  Counts come from the first traced pass; times are
    medians over passes."""
    calls = workload.round(0)
    passes, failures = [], []
    t_start = time.perf_counter()
    while True:
        untraced_ns = run_pass(calls, expected, failures)
        rec = SpanRecorder()
        rec.install()
        try:
            traced_ns = run_pass(calls, expected, failures, recorder=rec)
        finally:
            rec.uninstall()
        layer = rec.layer_metrics()
        layer["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
        passes.append((rec, layer, traced_ns))
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) > seconds:
            break

    first = passes[0][1]
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(_TIMED_SUFFIXES):
            metrics[name] = statistics.median(p[1][name] for p in passes)
        else:
            metrics[name] = first[name]
    unsteady = sorted(name for name in PER_LAYER
                      if not name.endswith(_TIMED_SUFFIXES)
                      and any(p[1][name] != first[name] for p in passes))
    notes = {"passes": len(passes),
             "traced_wall_s": statistics.median(p[2] for p in passes) / 1e9,
             "counts_differ_between_passes": unsteady}
    attempted = 2 * len(calls) * len(passes)
    return metrics, notes, attempted, failures, [p[0] for p in passes]


def write_spans(path, recorders):
    tables = [rec.table() for rec in recorders]
    np.savez_compressed(
        path, span_names=np.array(SPAN_NAMES), fields=np.array(SPAN_FIELDS),
        spans=np.concatenate(tables),
        traced_pass=np.concatenate([np.full(len(t), i)
                                    for i, t in enumerate(tables)]))


def provenance(args, metric_names):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "metrics": list(metric_names),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bepower" / "__init__.py").is_file():
        print(f"error: no bepower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bepower
    import workloads

    if not Path(bepower.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bepower was imported from {bepower.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)[args.size]
    workload = workloads.Workload(args.workload, args.seed, args.size)
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    setup_times = []
    if args.trace == 0:
        setup_times = measure_setup(args.workload, args.seed,
                                    workload.profile.setup_runs)

    # Warm-up: one tiny round loads scipy's lazy submodules, the Sobol'
    # direction table and the CLI paths before anything is timed.
    warm = workloads.Workload(args.workload, args.seed, "tiny")
    for call in warm.round(0):
        call.run()

    spans_path = None
    if args.trace == 0:
        metrics, notes, attempted, failures = run_untraced(
            workload, expected, args.seconds)
        metrics = {"setup_s": statistics.median(setup_times), **metrics}
        notes["setup_s"] = (f"median of {len(setup_times)} fresh interpreters: "
                            + ", ".join(f"{t:.3f}" for t in setup_times))
        units = END_TO_END
    else:
        metrics, notes, attempted, failures, recorders = run_traced(
            workload, expected, args.seconds)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        write_spans(spans_path, recorders)
        units = PER_LAYER
    metrics = {name: metrics[name] for name in units}

    info = provenance(args, units)
    failed = len(failures)
    print(f"bepower benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("provenance: " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {units[name]}{note}")
    print(f"  {'failed_frac':<32} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} calls failed a check or raised)")
    if args.trace == 1:
        wall = notes["traced_wall_s"]
        print(f"  traced wall per pass: {wall:.3f} s over {notes['passes']} "
              "passes; self time by layer:")
        for layer in ("qrng", "special", "tost", "curve", "crossover",
                      "diagnostics", "cli"):
            s = (sum(metrics[f"special.{k}.self_s"]
                     for k in ("inv_norm", "inv_chisq", "t_quantile"))
                 if layer == "special" else metrics[f"{layer}.self_s"])
            print(f"    {layer:<12} {s:9.4f} s  {100 * s / wall:5.1f}%")
        if notes["counts_differ_between_passes"]:
            print("  counts differ between passes: "
                  + ", ".join(notes["counts_differ_between_passes"]))
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for f in failures[:20]:
        print(f"  FAILED {f['call']}: " + "; ".join(f["problems"]))

    record = {"provenance": info, "notes": notes, "failures": failures,
              "correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    result_path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
