"""Span recorder for the traced run.

Wraps the public functions of each bepower module (a layer) so that
every call records a span: which function, start, end, and the span
that was open when it started (its parent).  The wrapper is bound at
every ``bepower.*`` module attribute that holds the original function,
because modules import one another's functions with ``from . import``.
Spans stay in memory, in one compact array, until the run ends.

A layer's self time is the time its spans cover minus the time their
child spans cover.  A wrapped function that is missing or never called
records zero calls, so refactors that drop a function do not break the
benchmark.  A call that raises records no span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from array import array

import numpy as np

# layer -> public functions wrapped; the first one is the layer's entry
# point, whose calls are reported as <layer>.calls
LAYERS = {
    "qrng": ("sobol_stream",),
    "special": ("inv_norm", "inv_chisq", "t_quantile"),
    "tost": ("empirical_power", "welch_df"),
    "curve": ("power_curve", "smallest_crossing", "g_at"),
    "crossover": ("crossover_sample_size", "chow_sample_size"),
    "diagnostics": ("scenario_summary",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns)
KERNELS = ("special.inv_norm", "special.inv_chisq", "special.t_quantile")
# one span = (id, function, parent id, start ns, end ns, work); work is
# elements, points or cells, and -1 for a kernel call that returned a float
SPAN_FIELDS = ("id", "fn", "parent", "start_ns", "end_ns", "work")


def _bound(fn, args, kwargs):
    params = inspect.signature(fn).bind(*args, **kwargs)
    params.apply_defaults()
    return params.arguments


def _grid_length(q, n_max):
    """Length of the diagnostics integer grid: n1 from the first n with
    round(q n) >= 2 up to n_max."""
    start = 2
    while int(np.rint(q * start)) < 2:
        start += 1
    return max(0, int(n_max) - start + 1)


class SpanRecorder:
    """Records the spans of one traced pass over a workload round."""

    def __init__(self):
        self.spans = array("q")  # SPAN_FIELDS per span, in completion order
        self.counters = {"curve.points": 0, "curve.g_evals": 0,
                         "curve.reinit_points": 0, "curve.censored_points": 0,
                         "diagnostics.multi_points": 0, "cli.bytes_written": 0}
        self._ids = itertools.count()
        self._stack = []
        self._bindings = []  # (module, attribute, original)

    def install(self):
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (name == "bepower" or name.startswith("bepower."))]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"bepower.{layer}")
            for fname in fns:
                orig = getattr(home, fname, None)
                if orig is None:
                    continue
                name = f"{layer}.{fname}"
                fid = SPAN_NAMES.index(name)
                wrapper = (self._wrap_kernel(fid, orig) if name in KERNELS
                           else self._wrap(fid, orig, _HOOKS.get(name)))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._bindings.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._bindings):
            setattr(mod, attr, orig)
        self._bindings.clear()

    def _wrap_kernel(self, fid, orig):
        # the hot path: tens of thousands of calls per curve, so the work
        # count is inlined rather than left to a hook
        spans, ids, stack, clock = self.spans, self._ids, self._stack, time.perf_counter_ns

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.extend((sid, fid, parent, t0, t1,
                          -1 if isinstance(result, float) else result.size))
            return result
        return wrapper

    def _wrap(self, fid, orig, hook):
        spans, ids, stack, clock = self.spans, self._ids, self._stack, time.perf_counter_ns

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            work = hook(self, orig, args, kwargs, result) if hook else 0
            spans.extend((sid, fid, parent, t0, t1, work))
            return result
        return wrapper

    def table(self):
        """The spans as an (n, 6) int64 array of SPAN_FIELDS, by id."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def layer_metrics(self):
        """Per-layer counts and times of this pass, as {name: value}."""
        rows = self.table()
        sid, fn, parent, start, end, work = rows.T
        n_fn = len(SPAN_NAMES)
        dur = (end - start).astype(float)
        row_of = np.full(int(sid.max()) + 1 if len(sid) else 0, -1)
        row_of[sid] = np.arange(len(sid))
        prow = np.where(parent >= 0, row_of[np.maximum(parent, 0)], -1)
        has = prow >= 0
        self_ns = dur - np.bincount(prow[has], weights=dur[has],
                                    minlength=len(dur))
        scalar = work < 0
        work = np.where(scalar, 1, work).astype(float)

        calls = np.bincount(fn, minlength=n_fn)
        self_s = np.bincount(fn, weights=self_ns, minlength=n_fn) / 1e9
        incl_s = np.bincount(fn, weights=dur, minlength=n_fn) / 1e9
        works = np.bincount(fn, weights=work, minlength=n_fn)

        def i(name):
            return SPAN_NAMES.index(name)

        def layer_self(layer):
            return float(sum(self_s[i(f"{layer}.{f}")] for f in LAYERS[layer]))

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        c = self.counters
        out = {
            "qrng.calls": int(calls[i("qrng.sobol_stream")]),
            "qrng.self_s": layer_self("qrng"),
            "qrng.points": int(works[i("qrng.sobol_stream")]),
        }
        for name in KERNELS:
            k = i(name)
            out[f"{name}.calls"] = int(calls[k])
            out[f"{name}.elems"] = int(works[k])
            out[f"{name}.self_s"] = float(self_s[k])
            out[f"{name}.ns_per_elem"] = ratio(self_s[k] * 1e9, works[k])
        scalar_kernel = np.isin(fn, [i(n) for n in KERNELS]) & scalar
        out["special.scalar_calls"] = int(np.count_nonzero(scalar_kernel))
        out["special.us_per_scalar_call"] = ratio(
            self_ns[scalar_kernel].sum() / 1e3, out["special.scalar_calls"])
        out.update({
            "tost.calls": int(calls[i("tost.empirical_power")]),
            "tost.self_s": layer_self("tost"),
            "tost.trials": int(works[i("tost.empirical_power")]),
            "tost.welch_df.calls": int(calls[i("tost.welch_df")]),
            "curve.calls": int(calls[i("curve.power_curve")]),
            "curve.self_s": layer_self("curve"),
            "curve.points": c["curve.points"],
            "curve.g_evals": c["curve.g_evals"],
            "curve.g_evals_per_point": ratio(c["curve.g_evals"], c["curve.points"]),
            "curve.reinit_points": c["curve.reinit_points"],
            "curve.censored_points": c["curve.censored_points"],
            "curve.smallest_crossing.calls": int(calls[i("curve.smallest_crossing")]),
            "curve.g_at.calls": int(calls[i("curve.g_at")]),
            "crossover.calls": int(calls[i("crossover.crossover_sample_size")]),
            "crossover.self_s": layer_self("crossover"),
            "crossover.chow.calls": int(calls[i("crossover.chow_sample_size")]),
            "crossover.chow.self_s": float(self_s[i("crossover.chow_sample_size")]),
            "diagnostics.calls": int(calls[i("diagnostics.scenario_summary")]),
            "diagnostics.self_s": layer_self("diagnostics"),
            "diagnostics.cells": int(works[i("diagnostics.scenario_summary")]),
            "diagnostics.ns_per_cell": ratio(
                incl_s[i("diagnostics.scenario_summary")] * 1e9,
                works[i("diagnostics.scenario_summary")]),
            "diagnostics.multi_points": c["diagnostics.multi_points"],
            "cli.calls": int(calls[i("cli.main")]),
            "cli.self_s": layer_self("cli"),
            "cli.bytes_written": c["cli.bytes_written"],
        })
        return out


# --- hooks: a call's work, read from its arguments or result ----------------

def _sobol_hook(rec, orig, args, kwargs, result):
    return len(result.points)


def _power_hook(rec, orig, args, kwargs, result):
    return int(_bound(orig, args, kwargs)["m"])


def _curve_hook(rec, orig, args, kwargs, result):
    points = len(result.crossings)
    rec.counters["curve.points"] += points
    rec.counters["curve.g_evals"] += int(result.g_evals_total)
    rec.counters["curve.reinit_points"] += int(result.reinit_count)
    rec.counters["curve.censored_points"] += int(result.censored_count)
    return points


def _scenario_hook(rec, orig, args, kwargs, result):
    a = _bound(orig, args, kwargs)
    trials = int(a["reps"]) * int(a["m"])
    rec.counters["diagnostics.multi_points"] += round(result["prevalence"] * trials)
    return trials * _grid_length(a["spec"].q, a["n_max"])


_HOOKS = {
    "qrng.sobol_stream": _sobol_hook,
    "tost.empirical_power": _power_hook,
    "curve.power_curve": _curve_hook,
    "diagnostics.scenario_summary": _scenario_hook,
}
