"""Command-line front end.

Subcommands
-----------
power      one power estimate at fixed group sizes (mapped estimator or
           naive data-level simulation)
curve      power-curve approximation and sample-size recommendation
crossover  2x2 crossover sample sizes, optionally with the conservative
           closed-form comparator
diagnose   crossing and se-peak statistics on integer grids, over named
           scenario presets or a custom design
bench      replicated power estimates over a grid of sample sizes, with
           means and replicate SDs per engine

Options may come from flags or from a flat config file of
``key = value`` lines (flags win).  Every run requires an explicit
--seed and is fully reproducible from its inputs: rerunning an
invocation writes byte-identical files except for the metadata block
(timestamp, elapsed time, timings) of JSON records.

Commands raise and `main` prints each line of the message as
``error: ...``: exit 2 for a ValueError (invalid input), 1 for a
RuntimeError, a failed write or a MemoryError (too many points to hold).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .crossover import CrossoverSpec, chow_sample_size, crossover_sample_size
from .curve import DEFAULT_B, DEFAULT_TOL, power_curve
from .diagnostics import SCENARIOS, scenario_summary
from .oracle import naive_power
from .qrng import _check_count, _check_seed
from .tost import DesignSpec, _finite, empirical_power

_TABLE1_GRID = "3,5,8,10,15,20,30,40,50,60"
_ENGINES = {"segment": empirical_power, "naive": naive_power}


def _add_design_args(p):
    p.add_argument("--mu-diff", dest="mu_diff", type=float,
                   help="anticipated mean difference mu1 - mu2")
    p.add_argument("--sigma1", type=float, help="group 1 SD")
    p.add_argument("--sigma2", type=float, help="group 2 SD")
    _add_test_args(p)


def _add_test_args(p):
    p.add_argument("--delta", type=float,
                   help="symmetric limits: expands to delta_L = -delta, "
                        "delta_U = +delta")
    p.add_argument("--delta-l", dest="delta_l", type=float,
                   help="lower equivalence limit (overrides --delta)")
    p.add_argument("--delta-u", dest="delta_u", type=float,
                   help="upper equivalence limit (overrides --delta)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="one-sided significance level (default %(default)g)")


def _add_solver_args(p):
    p.add_argument("--target-power", dest="target_power", type=float,
                   default=0.8, help="desired power (default %(default)s)")
    p.add_argument("-B", "--bound", dest="bound", type=float,
                   default=DEFAULT_B,
                   help="censoring bound for crossings (default %(default)g)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="root tolerance in n (default %(default)g)")


def _build_parser():
    """The parser and its subcommand parsers, by name."""
    parser = argparse.ArgumentParser(
        prog="bepower",
        description="Power analysis for two-group equivalence tests "
                    "with unequal variances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="single power estimate")
    # group 2's size is --n2; the design's q is never read
    p.set_defaults(run=_cmd_power, m=65536, q=1.0)
    _add_design_args(p)
    p.add_argument("--n1", type=int, help="group 1 size")
    p.add_argument("--n2", type=int, help="group 2 size")
    p.add_argument("--engine", choices=_ENGINES, default="segment",
                   help="segment: unit-cube mapped estimator (default); "
                        "naive: data-level simulation")

    p = sub.add_parser("curve", help="power curve and recommendation")
    p.set_defaults(run=_cmd_curve, m=1024)
    _add_design_args(p)
    _add_solver_args(p)
    p.add_argument("--csv", help="write the ECDF as n,power rows here")
    p.add_argument("--svg", help="write an ECDF step plot here")

    p = sub.add_parser("crossover", help="2x2 crossover sample sizes")
    p.set_defaults(run=_cmd_crossover, m=1024)
    p.add_argument("--effect", type=float,
                   help="direct treatment effect F")
    p.add_argument("--sigma-d1", dest="sigma_d1", type=float,
                   help="period-difference SD, sequence 1")
    p.add_argument("--sigma-d2", dest="sigma_d2", type=float,
                   help="period-difference SD, sequence 2")
    _add_test_args(p)
    _add_solver_args(p)
    p.add_argument("--compare-chow", dest="compare_chow", action="store_true",
                   help="also report the conservative closed-form n "
                        "(uses sigma_d1 as the common SD)")

    p = sub.add_parser("diagnose", help="crossing diagnostics on integer grids")
    p.set_defaults(run=_cmd_diagnose, m=1024)
    p.add_argument("--scenario",
                   help="preset name(s), comma separated, or 'all'; "
                        f"presets: {', '.join(sorted(SCENARIOS))}")
    _add_design_args(p)
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="grid bound for a custom design")
    p.add_argument("--reps", type=int, default=10,
                   help="replicated streams (default %(default)s)")
    p.add_argument("--csv", help="write the summary table here")

    p = sub.add_parser("bench", help="replicated estimates over a size grid")
    p.set_defaults(run=_cmd_bench, m=65536)
    _add_design_args(p)
    p.add_argument("--grid", default=_TABLE1_GRID,
                   help="comma list of n1 values (default %(default)s)")
    p.add_argument("--reps", type=int, default=5,
                   help="replicates per n (default %(default)s)")
    p.add_argument("--engines", choices=(*_ENGINES, "both"),
                   default="both",
                   help="which engines to run (default %(default)s)")
    p.add_argument("--csv", help="write the result table here")
    for name in ("curve", "crossover", "diagnose", "bench"):
        sub.choices[name].add_argument(
            "--q", type=float, default=1.0,
            help="allocation ratio n2 = q * n1 (default %(default)g)")
    for p in sub.choices.values():
        p.add_argument("--m", type=int, help="Sobol' points, or naive "
                       "replicates, per estimate (default %(default)s)")
        p.add_argument("--config", help="flat key = value config file; "
                                        "flags override file values")
        p.add_argument("--seed", type=int, help="required 64-bit seed")
        p.add_argument("--json", help="write a JSON record here")
    return parser, sub.choices


def _read_config(path, parser):
    """Values and problems of a flat config file for one subcommand; each
    key takes its type and choices from the subcommand's option of that
    name."""
    actions = {a.dest: a for a in parser._actions
               if a.dest not in ("help", "config")}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        return {}, [f"cannot read config file: {exc}"]
    values, problems = {}, []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in actions:
            problems.append(f"{path}:{lineno}: unknown key '{key}'")
            continue
        # a flag without a value (--compare-chow) reads true or false
        typ = actions[key].type or (bool if actions[key].nargs == 0 else str)
        try:
            if typ is bool and value.lower() not in ("true", "false"):
                raise ValueError
            values[key] = value.lower() == "true" if typ is bool else typ(value)
        except ValueError:
            problems.append(f"{path}:{lineno}: cannot parse '{value}' "
                            f"for '{key}' as {typ.__name__}")
            continue
        # argparse checks choices on the command line, not on defaults
        choices = actions[key].choices
        if choices is not None and values[key] not in choices:
            del values[key]
            problems.append(f"{path}:{lineno}: invalid choice '{value}' for "
                            f"'{key}' (choose from {', '.join(choices)})")
    return values, problems


def _fail(problems):
    """Raise one ValueError that lists every problem, one per line."""
    if problems:
        raise ValueError("\n".join(problems))


def _spec(args, later=(), cls=DesignSpec,
          dests=("mu_diff", "sigma1", "sigma2"), what="design option(s)"):
    """cls(*dests, delta_L, delta_U, alpha, q) from the arguments.

    The ValueError lists every missing option, or the spec's own
    complaint, followed by the caller's `later` problems.
    """
    flags = [f"--{d.replace('_', '-')}" for d in dests
             if getattr(args, d) is None]
    problems = [f"missing required {what}: " + ", ".join(flags)] if flags else []
    lo, hi = args.delta_l, args.delta_u
    if args.delta is not None:
        lo = -args.delta if lo is None else lo
        hi = args.delta if hi is None else hi
    if lo is None or hi is None:
        problems.append("equivalence limits required: give --delta or "
                        "both --delta-l and --delta-u")
    spec = None
    if not problems:
        try:
            spec = cls(*(getattr(args, d) for d in dests), lo, hi,
                       args.alpha, args.q)
        except ValueError as exc:
            problems.append(str(exc))
    _fail(problems + list(later))
    return spec


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _inputs(spec, args, **extra):
    """JSON inputs: the spec's fields, then m, seed and `extra`."""
    return {**asdict(spec), "m": args.m, "seed": args.seed, **extra}


def _csv_text(header, rows):
    lines = [",".join(f"{c:.10g}" if isinstance(c, float) else str(c)
                      for c in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def _ecdf_steps(pc):
    finite = np.sort(pc.crossings[np.isfinite(pc.crossings)])
    ns, counts = np.unique(finite, return_counts=True)
    cum = np.cumsum(counts) / pc.m
    return list(zip(ns.tolist(), cum.tolist()))


def _svg_ecdf(pc):
    """Deterministic step plot of the crossing ECDF."""
    width, height = 720, 480
    left, right, top, bottom = 72, 24, 24, 56
    pw, ph = width - left - right, height - top - bottom
    steps = _ecdf_steps(pc)
    x_lo = 2.0
    x_hi = max(steps[-1][0], x_lo + 1.0)

    def sx(v):
        return left + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return top + ph * (1.0 - v)

    path = " ".join([f"M {sx(x_lo):.2f} {sy(0.0):.2f}",
                     *(f"H {sx(n):.2f} V {sy(frac):.2f}" for n, frac in steps),
                     f"H {sx(x_hi):.2f}"])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<path d="{path}" fill="none" stroke="#20639b" stroke-width="1.5"/>',
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" '
        f'y2="{top + ph}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" '
        f'stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        xs = sx(xv)
        parts.append(f'<line x1="{xs:.2f}" y1="{top + ph}" x2="{xs:.2f}" '
                     f'y2="{top + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{xs:.2f}" y="{top + ph + 20}" '
                     f'text-anchor="middle" font-size="12">{xv:.4g}</text>')
        yv = i / 4
        ys = sy(yv)
        parts.append(f'<line x1="{left - 5}" y1="{ys:.2f}" x2="{left}" '
                     f'y2="{ys:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 9}" y="{ys + 4:.2f}" '
                     f'text-anchor="end" font-size="12">{yv:.2f}</text>')
    parts.append(f'<text x="{left + pw / 2:.2f}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="13">n (group 1 size)</text>')
    parts.append(f'<text x="18" y="{top + ph / 2:.2f}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 18 '
                 f'{top + ph / 2:.2f})">estimated power</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _solver_record(spec, args, pc):
    """The JSON inputs and results that curve and crossover share."""
    inputs = _inputs(spec, args, target_power=args.target_power,
                     B=args.bound, tol=args.tol)
    results = {"rec_n1": pc.rec_n1, "rec_n2": pc.rec_n2,
               "n_star_final": pc.n_star_final,
               "censored": pc.censored_count, "reinitialized": pc.reinit_count}
    return {"inputs": inputs, "results": results}


def _cmd_power(args):
    spec = _spec(args, [f"missing required option --{n}"
                        for n in ("n1", "n2") if getattr(args, n) is None])
    power = _ENGINES[args.engine](spec, args.n1, args.n2, args.m, args.seed)
    print(f"power = {power:.6f}  (engine={args.engine}, n1={args.n1}, "
          f"n2={args.n2}, m={args.m}, seed={args.seed})")
    return {"inputs": _inputs(spec, args, n1=args.n1, n2=args.n2,
                              engine=args.engine),
            "results": {"power": power}}


def _cmd_curve(args):
    spec = _spec(args)
    pc = power_curve(spec, args.target_power, args.m, args.seed,
                     B=args.bound, tol=args.tol)
    print(f"recommend n1 = {pc.rec_n1}, n2 = {pc.rec_n2}  "
          f"(n* = {pc.n_star_final:.4f}, target = {pc.target_power:g}, "
          f"censored = {pc.censored_count}, "
          f"reinitialized = {pc.reinit_count})")
    if args.csv:
        _write_text(args.csv, _csv_text("n,power", _ecdf_steps(pc)))
    if args.svg:
        _write_text(args.svg, _svg_ecdf(pc))
    record = _solver_record(spec, args, pc)
    record["results"]["n_star_initial"] = pc.n_star_initial
    return record


def _cmd_crossover(args):
    cspec = _spec(args, cls=CrossoverSpec, what="option(s)",
                  dests=("effect", "sigma_d1", "sigma_d2"))
    pc = crossover_sample_size(cspec, args.target_power, args.m, args.seed,
                               B=args.bound, tol=args.tol)
    record = _solver_record(cspec, args, pc)
    line = (f"recommend {pc.rec_n1} + {pc.rec_n2} subjects per sequence "
            f"(n* = {pc.n_star_final:.4f})")
    if args.compare_chow:
        chow_n = chow_sample_size(cspec.F, cspec.sigma_D1, cspec.delta_U,
                                  cspec.alpha, 1.0 - args.target_power)
        record["results"]["chow_n"] = chow_n
        line += f"; conservative closed form: {chow_n} per sequence"
    print(line)
    return record


def _cmd_diagnose(args):
    if args.scenario:
        names = (sorted(SCENARIOS) if args.scenario == "all"
                 else [s.strip() for s in args.scenario.split(",")])
        # a preset fixes the design and the grid, so a flag or config
        # value that moves them off the parser defaults would go unused
        default = _build_parser()[1]["diagnose"].get_default
        moved = [f"--{d.replace('_', '-')}" for d in (
            "mu_diff", "sigma1", "sigma2", "delta", "delta_l", "delta_u",
            "alpha", "q", "n_max") if getattr(args, d) != default(d)]
        _fail([f"unknown scenario '{name}'" for name in names
               if name not in SCENARIOS]
              + ([f"--scenario presets fix the design and grid: drop "
                  f"{', '.join(moved)}"] if moved else []))
        jobs = [(name, *SCENARIOS[name]) for name in names]
    else:
        spec = _spec(args, [] if args.n_max is not None
                     else ["custom designs need --n-max"])
        jobs = [("custom", spec, args.n_max)]
    header = ("scenario,mu_diff,sigma1,sigma2,q,n_max,m,reps,prevalence,"
              "mean_departure,mean_duration,mean_argmax,frac_argmax_gt5,"
              "frac_argmax_gt10")
    rows, results = [], []
    for name, spec, n_max in jobs:
        summary = scenario_summary(spec, n_max, args.m, args.reps, args.seed)
        # the columns after q are the summary's keys
        rows.append((name, spec.mu_diff, spec.sigma1, spec.sigma2, spec.q,
                     *(summary[key] for key in header.split(",")[5:])))
        results.append({"scenario": name, **summary})
        print(f"{name}: prevalence = {summary['prevalence']:.5%}, "
              f"mean se-argmax = {summary['mean_argmax']:.2f}")
    if args.csv:
        _write_text(args.csv, _csv_text(header, rows))
    inputs = {"m": args.m, "reps": args.reps, "seed": args.seed,
              "scenarios": [j[0] for j in jobs]}
    return {"inputs": inputs, "results": {"rows": results}}


def _cmd_bench(args):
    try:
        grid = [int(tok) for tok in args.grid.split(",") if tok.strip()]
        bad_grid = ([] if grid and all(map(_finite, grid))
                    else ["--grid must list n1 values in the float range"])
    except ValueError:
        grid, bad_grid = [], [f"cannot parse --grid '{args.grid}'"]
    spec = _spec(args, bad_grid)
    reps = _check_count("--reps", args.reps)
    engines = tuple(_ENGINES) if args.engines == "both" else (args.engines,)
    rep_seeds = np.random.SeedSequence(args.seed).generate_state(
        reps, np.uint64)
    header = "n1,n2" + "".join(f",mean_{e},sd_{e}" for e in engines)
    # group 2 takes rint(q * n1) subjects, which must be at least 2
    _fail([f"q * n1 = {spec.q:g} * {n1} overflows the float range"
           for n1 in grid if math.isinf(spec.q * n1)]
          + [f"q * n1 = {spec.q:g} * {n1} rounds to a group 2 size below 2"
             for n1 in grid if n1 >= 2 > np.rint(spec.q * n1)])
    sizes = [(n1, int(np.rint(spec.q * n1))) for n1 in grid]
    rows = [list(size) for size in sizes]
    timing = {}
    for engine in engines:
        fn = _ENGINES[engine]
        t0 = time.monotonic()
        # the grid inside each seed: the segment engine then builds each
        # replicate's stream once
        per_seed = [[fn(spec, n1, n2, args.m, int(s)) for n1, n2 in sizes]
                    for s in rep_seeds]
        timing[engine] = time.monotonic() - t0
        for j, row in enumerate(rows):
            estimates = [powers[j] for powers in per_seed]
            row.extend([float(np.mean(estimates)),
                        float(np.std(estimates, ddof=1))
                        if len(estimates) > 1 else 0.0])
    for row in rows:
        print(f"n1={row[0]:4d}  " + "  ".join(
            f"{engines[i]}={row[2 + 2 * i]:.4f} (sd {row[3 + 2 * i]:.1e})"
            for i in range(len(engines))))
    if args.csv:
        _write_text(args.csv, _csv_text(header, rows))
    # wall-clock timings vary between reruns, so they go in metadata
    return {"inputs": _inputs(spec, args, grid=grid, reps=reps,
                              engines=list(engines)),
            "results": {"header": header.split(","), "rows": rows},
            "metadata": {"engine_seconds": {k: round(v, 3)
                                            for k, v in timing.items()}}}


def main(argv=None):
    started = time.monotonic()
    parser, subcommands = _build_parser()
    args = parser.parse_args(argv)
    try:
        problems = []
        if args.config:
            sub = subcommands[args.command]
            values, problems = _read_config(args.config, sub)
            # the file's values become defaults, so flags still win
            sub.set_defaults(**values)
            args = parser.parse_args(argv)
        if args.seed is None:
            problems.append("missing required option --seed")
        _fail(problems)
        _check_seed(args.seed)
        record = args.run(args)
        if args.json:
            record.setdefault("metadata", {}).update(
                timestamp=datetime.now(timezone.utc).isoformat(),
                elapsed_s=round(time.monotonic() - started, 6))
            _write_text(args.json,
                        json.dumps(record, indent=2, sort_keys=True) + "\n")
        return 0
    except ValueError as exc:
        code, message = 2, str(exc)
    except (RuntimeError, OSError, MemoryError) as exc:
        code, message = 1, str(exc) or type(exc).__name__
    for line in message.splitlines():
        print(f"error: {line}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
