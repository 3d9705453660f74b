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
(timestamp, elapsed time) of JSON records.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .crossover import CrossoverSpec, chow_sample_size, crossover_sample_size
from .curve import DEFAULT_B, DEFAULT_TOL, power_curve
from .diagnostics import SCENARIOS, scenario_summary
from .oracle import naive_power
from .tost import DesignSpec, empirical_power

_TABLE1_GRID = "3,5,8,10,15,20,30,40,50,60"

_DEFAULTS = {
    "power": {"m": 65536, "engine": "segment", "alpha": 0.05, "q": 1.0},
    "curve": {"m": 1024, "target_power": 0.8, "bound": DEFAULT_B,
              "tol": DEFAULT_TOL, "alpha": 0.05, "q": 1.0},
    "crossover": {"m": 1024, "target_power": 0.8, "bound": DEFAULT_B,
                  "tol": DEFAULT_TOL, "alpha": 0.05, "q": 1.0},
    "diagnose": {"m": 1024, "reps": 10, "alpha": 0.05, "q": 1.0},
    "bench": {"m": 65536, "reps": 5, "grid": _TABLE1_GRID, "engines": "both",
              "alpha": 0.05, "q": 1.0},
}

_TYPES = {
    "mu_diff": float, "sigma1": float, "sigma2": float,
    "delta": float, "delta_l": float, "delta_u": float,
    "alpha": float, "q": float,
    "effect": float, "sigma_d1": float, "sigma_d2": float,
    "n1": int, "n2": int, "m": int, "seed": int,
    "reps": int, "n_max": int,
    "target_power": float, "bound": float, "tol": float,
    "engine": str, "engines": str, "grid": str, "scenario": str,
    "json": str, "csv": str, "svg": str,
    "compare_chow": bool,
}


def _add_design_args(p):
    p.add_argument("--mu-diff", dest="mu_diff", type=float,
                   help="anticipated mean difference mu1 - mu2")
    p.add_argument("--sigma1", type=float, help="group 1 SD")
    p.add_argument("--sigma2", type=float, help="group 2 SD")
    _add_limit_args(p)
    p.add_argument("--alpha", type=float,
                   help="one-sided significance level (default 0.05)")
    p.add_argument("--q", type=float,
                   help="allocation ratio n2 = q * n1 (default 1)")


def _add_limit_args(p):
    p.add_argument("--delta", type=float,
                   help="symmetric limits: expands to delta_L = -delta, "
                        "delta_U = +delta")
    p.add_argument("--delta-l", dest="delta_l", type=float,
                   help="lower equivalence limit (overrides --delta)")
    p.add_argument("--delta-u", dest="delta_u", type=float,
                   help="upper equivalence limit (overrides --delta)")


def _add_common_args(p, with_json=True):
    p.add_argument("--config", help="flat key = value config file; "
                                    "flags override file values")
    p.add_argument("--seed", type=int, help="required 64-bit seed")
    if with_json:
        p.add_argument("--json", help="write a JSON record here")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bepower",
        description="Power analysis for two-group equivalence tests "
                    "with unequal variances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="single power estimate")
    _add_design_args(p)
    p.add_argument("--n1", type=int, help="group 1 size")
    p.add_argument("--n2", type=int, help="group 2 size")
    p.add_argument("--m", type=int, help="points / replicates (default 65536)")
    p.add_argument("--engine", choices=("segment", "naive"),
                   help="segment: unit-cube mapped estimator (default); "
                        "naive: data-level simulation")
    _add_common_args(p)

    p = sub.add_parser("curve", help="power curve and recommendation")
    _add_design_args(p)
    p.add_argument("--target-power", dest="target_power", type=float,
                   help="desired power (default 0.8)")
    p.add_argument("--m", type=int, help="Sobol' points (default 1024)")
    p.add_argument("-B", "--bound", dest="bound", type=float,
                   help="censoring bound for crossings (default 65536)")
    p.add_argument("--tol", type=float,
                   help="root tolerance in n (default 1e-6)")
    p.add_argument("--csv", help="write the ECDF as n,power rows here")
    p.add_argument("--svg", help="write an ECDF step plot here")
    _add_common_args(p)

    p = sub.add_parser("crossover", help="2x2 crossover sample sizes")
    p.add_argument("--effect", type=float,
                   help="direct treatment effect F")
    p.add_argument("--sigma-d1", dest="sigma_d1", type=float,
                   help="period-difference SD, sequence 1")
    p.add_argument("--sigma-d2", dest="sigma_d2", type=float,
                   help="period-difference SD, sequence 2")
    _add_limit_args(p)
    p.add_argument("--alpha", type=float, help="significance level")
    p.add_argument("--q", type=float, help="sequence allocation ratio")
    p.add_argument("--target-power", dest="target_power", type=float)
    p.add_argument("--m", type=int, help="Sobol' points (default 1024)")
    p.add_argument("-B", "--bound", dest="bound", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--compare-chow", dest="compare_chow", action="store_true",
                   default=None,
                   help="also report the conservative closed-form n "
                        "(uses sigma_d1 as the common SD)")
    _add_common_args(p)

    p = sub.add_parser("diagnose", help="crossing diagnostics on integer grids")
    p.add_argument("--scenario",
                   help="preset name(s), comma separated, or 'all'; "
                        f"presets: {', '.join(sorted(SCENARIOS))}")
    _add_design_args(p)
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="grid bound for a custom design")
    p.add_argument("--m", type=int, help="Sobol' points (default 1024)")
    p.add_argument("--reps", type=int, help="replicated streams (default 10)")
    p.add_argument("--csv", help="write the summary table here")
    _add_common_args(p)

    p = sub.add_parser("bench", help="replicated estimates over a size grid")
    _add_design_args(p)
    p.add_argument("--grid", help=f"comma list of n1 values "
                                  f"(default {_TABLE1_GRID})")
    p.add_argument("--m", type=int, help="points per estimate (default 65536)")
    p.add_argument("--reps", type=int, help="replicates per n (default 5)")
    p.add_argument("--engines", choices=("segment", "naive", "both"),
                   help="which engines to run (default both)")
    p.add_argument("--csv", help="write the result table here")
    _add_common_args(p)
    return parser


def _parse_config_file(path, known, problems):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        problems.append(f"cannot read config file: {exc}")
        return values
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
        if key not in known:
            problems.append(f"{path}:{lineno}: unknown key '{key}'")
            continue
        typ = _TYPES[key]
        try:
            if typ is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError
                values[key] = value.lower() == "true"
            else:
                values[key] = typ(value)
        except ValueError:
            problems.append(f"{path}:{lineno}: cannot parse '{value}' "
                            f"for '{key}' as {typ.__name__}")
    return values


def _merge_options(args, problems):
    """Apply config then builtin defaults beneath explicit flags."""
    command = args.command
    known = {k for k, v in vars(args).items()
             if k not in ("command", "config")}
    if args.config:
        config = _parse_config_file(args.config, known, problems)
        for key, value in config.items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
    for key, value in _DEFAULTS[command].items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if args.seed is None:
        problems.append("missing required option --seed")
    return args


def _resolve_limits(args, problems):
    lo, hi = args.delta_l, args.delta_u
    if args.delta is not None:
        if lo is None:
            lo = -args.delta
        if hi is None:
            hi = args.delta
    if lo is None or hi is None:
        problems.append("equivalence limits required: give --delta or "
                        "both --delta-l and --delta-u")
    return lo, hi


def _resolve_design(args, problems):
    missing = [f"--{name.replace('_', '-')}"
               for name in ("mu_diff", "sigma1", "sigma2")
               if getattr(args, name) is None]
    if missing:
        problems.append("missing required design option(s): "
                        + ", ".join(missing))
    lo, hi = _resolve_limits(args, problems)
    if problems:
        return None
    try:
        return DesignSpec(mu_diff=args.mu_diff, sigma1=args.sigma1,
                          sigma2=args.sigma2, delta_L=lo, delta_U=hi,
                          alpha=args.alpha, q=args.q)
    except ValueError as exc:
        problems.append(str(exc))
        return None


def _write_text(path, text, problems):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        problems.append(f"cannot write {path}: {exc}")


def _json_record(inputs, results, started):
    meta = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": round(time.monotonic() - started, 6),
    }
    record = {"inputs": inputs, "results": results, "metadata": meta}
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _csv_cell(c):
    if isinstance(c, float):
        return "nan" if math.isnan(c) else f"{c:.10g}"
    return str(c)


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
    x_hi = max(s[0] for s in steps) if steps else pc.target_power
    x_hi = max(x_hi, x_lo + 1.0)

    def sx(v):
        return left + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return top + ph * (1.0 - v)

    d = [f"M {sx(x_lo):.2f} {sy(0.0):.2f}"]
    level = 0.0
    for n, frac in steps:
        d.append(f"H {sx(n):.2f}")
        d.append(f"V {sy(frac):.2f}")
        level = frac
    d.append(f"H {sx(x_hi):.2f}")
    path = " ".join(d)

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


def _design_inputs(spec, args, extra=None):
    inputs = {
        "mu_diff": spec.mu_diff, "sigma1": spec.sigma1,
        "sigma2": spec.sigma2, "delta_L": spec.delta_L,
        "delta_U": spec.delta_U, "alpha": spec.alpha, "q": spec.q,
        "m": args.m, "seed": args.seed,
    }
    if extra:
        inputs.update(extra)
    return inputs


def _cmd_power(args, problems, started):
    spec = _resolve_design(args, problems)
    for name in ("n1", "n2"):
        if getattr(args, name) is None:
            problems.append(f"missing required option --{name}")
    if problems:
        return 2
    try:
        if args.engine == "naive":
            power = naive_power(spec, args.n1, args.n2, args.m, args.seed)
        else:
            power = empirical_power(spec, args.n1, args.n2, args.m, args.seed)
    except ValueError as exc:
        problems.append(str(exc))
        return 2
    print(f"power = {power:.6f}  (engine={args.engine}, n1={args.n1}, "
          f"n2={args.n2}, m={args.m}, seed={args.seed})")
    if args.json:
        inputs = _design_inputs(spec, args, {"n1": args.n1, "n2": args.n2,
                                             "engine": args.engine})
        _write_text(args.json,
                    _json_record(inputs, {"power": power}, started), problems)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_curve(args, problems, started):
    spec = _resolve_design(args, problems)
    if problems:
        return 2
    try:
        pc = power_curve(spec, args.target_power, args.m, args.seed,
                         B=args.bound, tol=args.tol)
    except ValueError as exc:
        problems.append(str(exc))
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"recommend n1 = {pc.rec_n1}, n2 = {pc.rec_n2}  "
          f"(n* = {pc.n_star_final:.4f}, target = {pc.target_power:g}, "
          f"censored = {pc.censored_count}, "
          f"reinitialized = {pc.reinit_count})")
    if args.json:
        inputs = _design_inputs(spec, args,
                                {"target_power": args.target_power,
                                 "B": args.bound, "tol": args.tol})
        results = {
            "rec_n1": pc.rec_n1, "rec_n2": pc.rec_n2,
            "n_star_initial": pc.n_star_initial,
            "n_star_final": pc.n_star_final,
            "censored": pc.censored_count,
            "reinitialized": pc.reinit_count,
        }
        _write_text(args.json, _json_record(inputs, results, started),
                    problems)
    if args.csv:
        _write_text(args.csv, _csv_text("n,power", _ecdf_steps(pc)), problems)
    if args.svg:
        _write_text(args.svg, _svg_ecdf(pc), problems)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_crossover(args, problems, started):
    missing = [f"--{n.replace('_', '-')}"
               for n in ("effect", "sigma_d1", "sigma_d2")
               if getattr(args, n) is None]
    if missing:
        problems.append("missing required option(s): " + ", ".join(missing))
    lo, hi = _resolve_limits(args, problems)
    if problems:
        return 2
    try:
        cspec = CrossoverSpec(F=args.effect, sigma_D1=args.sigma_d1,
                              sigma_D2=args.sigma_d2, delta_L=lo, delta_U=hi,
                              alpha=args.alpha, q=args.q)
        pc = crossover_sample_size(cspec, args.target_power, args.m,
                                   args.seed, B=args.bound, tol=args.tol)
    except ValueError as exc:
        problems.append(str(exc))
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = {
        "rec_n1": pc.rec_n1, "rec_n2": pc.rec_n2,
        "n_star_final": pc.n_star_final,
        "censored": pc.censored_count,
        "reinitialized": pc.reinit_count,
    }
    line = (f"recommend {pc.rec_n1} + {pc.rec_n2} subjects per sequence "
            f"(n* = {pc.n_star_final:.4f})")
    if args.compare_chow:
        chow_n = chow_sample_size(cspec.F, cspec.sigma_D1, cspec.delta_U,
                                  cspec.alpha, 1.0 - args.target_power)
        results["chow_n"] = chow_n
        line += f"; conservative closed form: {chow_n} per sequence"
    print(line)
    if args.json:
        inputs = {"F": cspec.F, "sigma_D1": cspec.sigma_D1,
                  "sigma_D2": cspec.sigma_D2, "delta_L": cspec.delta_L,
                  "delta_U": cspec.delta_U, "alpha": cspec.alpha,
                  "q": cspec.q, "m": args.m, "seed": args.seed,
                  "target_power": args.target_power, "B": args.bound}
        _write_text(args.json, _json_record(inputs, results, started),
                    problems)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


def _diagnose_jobs(args, problems):
    if args.scenario:
        names = (sorted(SCENARIOS) if args.scenario == "all"
                 else [s.strip() for s in args.scenario.split(",")])
        jobs = []
        for name in names:
            if name not in SCENARIOS:
                problems.append(f"unknown scenario '{name}'")
                continue
            spec, n_max = SCENARIOS[name]
            jobs.append((name, spec, n_max))
        return jobs
    spec = _resolve_design(args, problems)
    if args.n_max is None:
        problems.append("custom designs need --n-max")
    if problems:
        return []
    return [("custom", spec, args.n_max)]


def _cmd_diagnose(args, problems, started):
    jobs = _diagnose_jobs(args, problems)
    if problems:
        return 2
    header = ("scenario,mu_diff,sigma1,sigma2,q,n_max,m,reps,prevalence,"
              "mean_departure,mean_duration,mean_argmax,frac_argmax_gt5,"
              "frac_argmax_gt10")
    rows = []
    results = []
    for name, spec, n_max in jobs:
        summary = scenario_summary(spec, n_max, args.m, args.reps, args.seed)
        rows.append((name, spec.mu_diff, spec.sigma1, spec.sigma2, spec.q,
                     summary["n_max"], summary["m"], summary["reps"],
                     summary["prevalence"], summary["mean_departure"],
                     summary["mean_duration"], summary["mean_argmax"],
                     summary["frac_argmax_gt5"], summary["frac_argmax_gt10"]))
        results.append({"scenario": name, **summary})
        print(f"{name}: prevalence = {summary['prevalence']:.5%}, "
              f"mean se-argmax = {summary['mean_argmax']:.2f}")
    if args.csv:
        _write_text(args.csv, _csv_text(header, rows), problems)
    if args.json:
        inputs = {"m": args.m, "reps": args.reps, "seed": args.seed,
                  "scenarios": [j[0] for j in jobs]}
        _write_text(args.json, _json_record(inputs, {"rows": results},
                                            started), problems)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_bench(args, problems, started):
    spec = _resolve_design(args, problems)
    try:
        grid = [int(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError:
        problems.append(f"cannot parse --grid '{args.grid}'")
        grid = []
    if problems:
        return 2
    engines = (("segment", "naive") if args.engines == "both"
               else (args.engines,))
    rep_seeds = np.random.SeedSequence(args.seed).generate_state(
        args.reps, np.uint64)
    header = "n1,n2"
    for engine in engines:
        header += f",mean_{engine},sd_{engine}"
    rows = []
    timing = {}
    for n1 in grid:
        n2 = int(np.rint(spec.q * n1))
        row = [n1, n2]
        for engine in engines:
            fn = empirical_power if engine == "segment" else naive_power
            t0 = time.monotonic()
            estimates = [fn(spec, n1, n2, args.m, int(s)) for s in rep_seeds]
            timing[engine] = timing.get(engine, 0.0) + time.monotonic() - t0
            row.extend([float(np.mean(estimates)),
                        float(np.std(estimates, ddof=1))
                        if len(estimates) > 1 else 0.0])
        rows.append(tuple(row))
        print(f"n1={n1:4d}  " + "  ".join(
            f"{engines[i]}={row[2 + 2 * i]:.4f} (sd {row[3 + 2 * i]:.1e})"
            for i in range(len(engines))))
    if args.csv:
        _write_text(args.csv, _csv_text(header, rows), problems)
    if args.json:
        inputs = _design_inputs(spec, args,
                                {"grid": grid, "reps": args.reps,
                                 "engines": list(engines)})
        results = {"header": header.split(","),
                   "rows": [list(r) for r in rows],
                   "engine_seconds": {k: round(v, 3)
                                      for k, v in timing.items()}}
        _write_text(args.json, _json_record(inputs, results, started),
                    problems)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


_COMMANDS = {
    "power": _cmd_power,
    "curve": _cmd_curve,
    "crossover": _cmd_crossover,
    "diagnose": _cmd_diagnose,
    "bench": _cmd_bench,
}


def main(argv=None):
    started = time.monotonic()
    parser = _build_parser()
    args = parser.parse_args(argv)
    problems = []
    _merge_options(args, problems)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2
    code = _COMMANDS[args.command](args, problems, started)
    if code == 2:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
