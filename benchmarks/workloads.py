"""The benchmark's workloads: which library calls each one makes, with
which inputs, and how each output is checked.

A workload is an endless sequence of rounds.  Every round makes the same
calls (the workload's templates) in the same order; only the library
seeds change from round to round.  Seeds come from a fixed pool whose
outputs are recorded in ``expected.json``, and the benchmark's workload
seed picks, for each group of templates, the order in which the pool is
walked.
So any workload seed gives inputs with recorded outputs, the same
workload seed always gives the same inputs, and every round costs about
the same, which keeps throughput figures steady when a run ends on a
round boundary.

Calls look up library functions through module attributes at call time
(``bp.curve.power_curve``, not a reference taken at import), so the span
recorder in ``tracer.py`` sees them once it rebinds those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bepower as bp
import bepower.cli
import bepower.crossover
import bepower.curve
import bepower.diagnostics
import bepower.tost

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
OUT_DIR = BENCH_DIR / "out"

# Library seeds with recorded outputs.  The first three are the seeds the
# README uses for curve (2024), crossover (11) and power (7).
SEED_POOL = (2024, 11, 7, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 15)

TABLE1_GRID = (3, 5, 8, 10, 15, 20, 30, 40, 50, 60)
TARGET_POWER = 0.8
TOL = 1e-6  # root tolerance passed to the curve solver; n* is checked to it


@dataclass(frozen=True)
class Profile:
    """Problem sizes: 'full' is the benchmark, 'tiny' keeps the smoke
    test fast."""

    estimate_m: int
    estimate_grid: tuple
    estimate_pool: int  # seeds; one replicate seed serves a whole round
    curve_m: int
    scenario_m: int
    pool: int  # seeds of every other call
    setup_runs: int


PROFILES = {
    "full": Profile(estimate_m=65536, estimate_grid=TABLE1_GRID,
                    estimate_pool=16, curve_m=1024, scenario_m=128, pool=8,
                    setup_runs=3),
    "tiny": Profile(estimate_m=1024, estimate_grid=(3, 10), estimate_pool=2,
                    curve_m=64, scenario_m=16, pool=2, setup_runs=1),
}

MOTIVATING = bp.DesignSpec(mu_diff=-4.0, sigma1=18.0, sigma2=15.0,
                           delta_L=-19.2, delta_U=19.2, alpha=0.05)
ESTIMATE_DESIGNS = {
    "motivating": MOTIVATING,
    "q1.5": bp.DesignSpec(mu_diff=-4.0, sigma1=18.0, sigma2=15.0,
                          delta_L=-19.2, delta_U=19.2, alpha=0.05, q=1.5),
}
CURVE_DESIGNS = {
    "motivating": MOTIVATING,
    "near_limit": bp.DesignSpec(mu_diff=-16.0, sigma1=18.0, sigma2=15.0,
                                delta_L=-19.2, delta_U=19.2, alpha=0.05),
    "q1.5": bp.DesignSpec(mu_diff=-12.0, sigma1=19.5, sigma2=13.0,
                          delta_L=-19.2, delta_U=19.2, alpha=0.05, q=1.5),
    "q1/1.5": bp.DesignSpec(mu_diff=-8.0, sigma1=19.5, sigma2=13.0,
                            delta_L=-19.2, delta_U=19.2, alpha=0.05,
                            q=1.0 / 1.5),
}
README_CROSSOVER = bp.CrossoverSpec(F=0.05, sigma_D1=0.4, sigma_D2=0.4,
                                    delta_L=-0.223, delta_U=0.223, alpha=0.05)
# (F, sigma_D, delta_U, alpha, beta): README design, and a near-limit one
# whose closed-form n is in the thousands
CHOW_INPUTS = {
    "readme": (0.05, 0.4, 0.223, 0.05, 1.0 - TARGET_POWER),
    "near_limit": (0.21, 0.4, 0.223, 0.05, 1.0 - TARGET_POWER),
}
# single-crossing scans: a short, a medium and a long integer grid
SCENARIO_GRIDS = (("s1_mu0", 100), ("s5_mu12", 500), ("s2_mu16", 2500))

CURVE_ARGV = ["curve", "--mu-diff", "-4", "--sigma1", "18", "--sigma2", "15",
              "--delta", "19.2", "--target-power", "0.8"]
CROSSOVER_ARGV = ["crossover", "--effect", "0.05", "--sigma-d1", "0.4",
                  "--sigma-d2", "0.4", "--delta", "0.223", "--compare-chow"]


@dataclass(frozen=True)
class Call:
    """One library call with fixed inputs.

    run() makes the call and returns its raw output; summarize(output)
    reduces that to the JSON values recorded in expected.json; compare
    (observed, expected) lists the mismatches; counters(output) gives
    work counts the tracer cannot see from the call boundary.
    """

    key: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    compare: Callable[[dict, dict], list]
    counters: Callable[[object], dict] = lambda output: {}


@dataclass(frozen=True)
class Template:
    """A call slot of a round.  group names the seed pool walk it follows,
    over the first `pool` seeds of SEED_POOL; in round r the slot takes
    the walk's seed r + offset, so templates of one group and offset share
    a seed.  group None means the call takes no seed."""

    group: str | None
    make: Callable[[int | None], Call]
    pool: int = 0
    offset: int = 0


# --- output summaries and comparisons ---------------------------------

def _exact(observed, expected):
    return [f"{k}: got {observed.get(k)!r}, expected {v!r}"
            for k, v in expected.items() if observed.get(k) != v]


def _summarize_power(m):
    def summarize(power):
        count = power * m
        # m * power is an exact count by contract; a fraction is a failure
        rejections = round(count) if abs(count - round(count)) < 1e-9 else count
        return {"rejections": rejections}
    return summarize


def _summarize_curve(pc):
    return {"rec_n1": pc.rec_n1, "rec_n2": pc.rec_n2,
            "censored_count": pc.censored_count,
            "n_star_final": pc.n_star_final}


def _compare_curve(observed, expected):
    problems = _exact({k: v for k, v in observed.items() if k != "n_star_final"},
                      {k: v for k, v in expected.items() if k != "n_star_final"})
    if not abs(observed["n_star_final"] - expected["n_star_final"]) <= TOL:
        problems.append(f"n_star_final: got {observed['n_star_final']!r}, "
                        f"expected {expected['n_star_final']!r} within {TOL}")
    return problems


def _finite_or_none(v):
    return None if isinstance(v, float) and math.isnan(v) else v


def _summarize_scenario(summary):
    return {k: _finite_or_none(v) for k, v in summary.items()}


def _compare_scenario(observed, expected):
    problems = []
    for k, v in expected.items():
        got = observed.get(k)
        same = (got is None and v is None) or (
            got is not None and v is not None
            and math.isclose(got, v, rel_tol=1e-12, abs_tol=0.0))
        if not same:
            problems.append(f"{k}: got {got!r}, expected {v!r}")
    return problems


# --- CLI calls ----------------------------------------------------------

@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    files: dict  # file name -> bytes, read back after the call


def _run_cli(argv, out_names):
    """Run bepower.cli.main in-process, writing into a fresh directory
    under OUT_DIR; stdout is captured.  The directory is removed before
    returning, so the call leaves nothing behind."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    try:
        paths = {name: work / name for name in out_names}
        full_argv = list(argv)
        for name, path in paths.items():
            full_argv += [f"--{name.rsplit('.', 1)[1]}", str(path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = bp.cli.main(full_argv)
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code
        files = {name: path.read_bytes() for name, path in paths.items()
                 if path.exists()}
        return CliOutput(code=code, stdout=stdout.getvalue(), files=files)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cli_bytes(output):
    return {"cli.bytes_written": len(output.stdout.encode())
            + sum(len(b) for b in output.files.values())}


def _summarize_cli_curve(output):
    summary = {"exit": output.code, "stdout": output.stdout}
    if "curve.json" in output.files:
        results = json.loads(output.files["curve.json"])["results"]
        summary["json_results"] = results
    if "curve.csv" in output.files:
        rows = output.files["curve.csv"].decode().splitlines()[1:]
        ns = [float(r.split(",")[0]) for r in rows]
        powers = "\n".join(r.split(",")[1] for r in rows)
        summary["csv_rows"] = len(rows)
        summary["csv_n_sum"] = math.fsum(ns)
        summary["csv_power_sha256"] = hashlib.sha256(powers.encode()).hexdigest()
    if "curve.svg" in output.files:
        root = ET.fromstring(output.files["curve.svg"])
        paths = [el.get("d") for el in root.iter() if el.tag.endswith("path")]
        summary["svg_steps"] = sum(d.split().count("V") for d in paths)
    return summary


def _compare_cli_curve(observed, expected):
    """stdout bytes exactly; crossings (n* and the CSV n column) within
    TOL per point, since the solver only promises roots to TOL; counts,
    powers and plot steps exactly."""
    problems = _exact(observed, {k: v for k, v in expected.items()
                                 if k not in ("json_results", "csv_n_sum")})
    got_json = observed.get("json_results", {})
    for k, v in expected.get("json_results", {}).items():
        got = got_json.get(k)
        if k.startswith("n_star"):
            ok = got is not None and abs(got - v) <= TOL
        else:
            ok = got == v
        if not ok:
            problems.append(f"json_results.{k}: got {got!r}, expected {v!r}")
    if "csv_n_sum" in expected:
        # each CSV n is printed to 10 significant digits on top of TOL
        slack = expected["csv_rows"] * (TOL + 1e-6)
        got = observed.get("csv_n_sum")
        if got is None or not abs(got - expected["csv_n_sum"]) <= slack:
            problems.append(f"csv_n_sum: got {got!r}, expected "
                            f"{expected['csv_n_sum']!r} within {slack:g}")
    return problems


# --- workload templates ---------------------------------------------------

def _estimate_templates(profile):
    m = profile.estimate_m
    templates = []
    for label, spec in ESTIMATE_DESIGNS.items():
        for n1 in profile.estimate_grid:
            n2 = int(round(spec.q * n1))

            def make(seed, spec=spec, n1=n1, n2=n2, label=label):
                return Call(
                    key=f"estimate/{label}/n={n1}/seed={seed}",
                    run=lambda: bp.tost.empirical_power(spec, n1, n2, m, seed),
                    summarize=_summarize_power(m), compare=_exact)
            templates.append(Template("replicate", make, profile.estimate_pool))

    # Each scan runs twice a round, on two seeds half the pool apart, so
    # that a run makes well over 10 of the long scans: the tail (10 calls
    # beyond it) then lands among them in every run, not on whichever side
    # of the gap between them and the empirical_power calls the round
    # count happens to fall.
    for offset in (0, profile.pool // 2):
        for name, n_max in SCENARIO_GRIDS:
            spec = bp.diagnostics.SCENARIOS[name][0]

            def make_scan(seed, spec=spec, name=name, n_max=n_max):
                return Call(
                    key=f"estimate/scenario/{name}/n_max={n_max}/seed={seed}",
                    run=lambda: bp.diagnostics.scenario_summary(
                        spec, n_max, profile.scenario_m, 1, seed),
                    summarize=_summarize_scenario, compare=_compare_scenario)
            templates.append(Template(f"scenario/{name}", make_scan,
                                      profile.pool, offset))
    return templates


def _recommend_templates(profile):
    m = profile.curve_m
    templates = []
    for label, spec in CURVE_DESIGNS.items():
        def make(seed, spec=spec, label=label):
            return Call(
                key=f"recommend/power_curve/{label}/seed={seed}",
                run=lambda: bp.curve.power_curve(spec, TARGET_POWER, m, seed,
                                                 tol=TOL),
                summarize=_summarize_curve, compare=_compare_curve)
        templates.append(Template(f"curve/{label}", make, profile.pool))

    def make_crossover(seed):
        return Call(
            key=f"recommend/crossover_sample_size/readme/seed={seed}",
            run=lambda: bp.crossover.crossover_sample_size(
                README_CROSSOVER, TARGET_POWER, m, seed, tol=TOL),
            summarize=_summarize_curve, compare=_compare_curve)
    templates.append(Template("crossover", make_crossover, profile.pool))

    for label, args in CHOW_INPUTS.items():
        def make_chow(seed, label=label, args=args):
            return Call(
                key=f"recommend/chow_sample_size/{label}",
                run=lambda: bp.crossover.chow_sample_size(*args),
                summarize=lambda n: {"n": n}, compare=_exact)
        templates.append(Template(None, make_chow))

    def make_cli_curve(seed):
        argv = CURVE_ARGV + ["--m", str(m), "--seed", str(seed)]
        return Call(
            key=f"recommend/cli/curve/seed={seed}",
            run=lambda: _run_cli(argv, ("curve.json", "curve.csv", "curve.svg")),
            summarize=_summarize_cli_curve, compare=_compare_cli_curve,
            counters=_cli_bytes)
    templates.append(Template("cli/curve", make_cli_curve, profile.pool))

    def make_cli_crossover(seed):
        argv = CROSSOVER_ARGV + ["--m", str(m), "--seed", str(seed)]
        return Call(
            key=f"recommend/cli/crossover/seed={seed}",
            run=lambda: _run_cli(argv, ()),
            summarize=lambda out: {"exit": out.code, "stdout": out.stdout},
            compare=_exact, counters=_cli_bytes)
    templates.append(Template("cli/crossover", make_cli_crossover,
                              profile.pool))
    return templates


_TEMPLATES = {
    "estimate": _estimate_templates,
    "recommend": _recommend_templates,
}
WORKLOADS = tuple(_TEMPLATES)


class Workload:
    """The rounds of one workload for one workload seed and size."""

    def __init__(self, name, seed, size="full"):
        if name not in _TEMPLATES:
            raise ValueError(f"unknown workload {name!r}")
        self.profile = PROFILES[size]
        self.templates = _TEMPLATES[name](self.profile)
        rng = random.Random(f"{name}/{seed}")
        self._walks = {}
        for t in self.templates:
            if t.group is not None and t.group not in self._walks:
                self._walks[t.group] = rng.sample(SEED_POOL[:t.pool], t.pool)

    def round(self, r):
        """The calls of round r (r = 0, 1, ...)."""
        calls = []
        for t in self.templates:
            seed = None
            if t.group is not None:
                walk = self._walks[t.group]
                seed = walk[(r + t.offset) % len(walk)]
            calls.append(t.make(seed))
        return calls

    def every_call(self):
        """Each distinct call of the workload: every template with every
        pool seed.  Used to record expected outputs."""
        seen = {}
        for t in self.templates:
            for seed in (SEED_POOL[:t.pool] if t.group is not None
                         else (None,)):
                call = t.make(seed)
                seen.setdefault(call.key, call)
        return list(seen.values())
