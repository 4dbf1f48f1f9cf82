"""Call spans around the public functions of each package module.

A :class:`Tracer` wraps every public module-level function of the layers
in :data:`LAYERS`.  It rebinds the module attribute *and* every
``from ... import`` binding of the same function anywhere in the package,
because ``harness`` and ``cli`` call names such as ``sample_channels`` or
``estimate_ls`` through their own bindings.  Functions imported at call
time (``harness`` imports ``refsolver.solve`` inside a function) read the
module attribute, so they are covered too.

Spans (name, parent, start, end) are kept in memory in flat arrays and
reduced when the run ends.  A span's self time is its duration minus the
durations of its direct children.  Counts derived from argument shapes
(draws, bytes) are labelled *computed* in the output; the others (pinned
users, solver iterations) are read from the return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "mimo_pilot"
LAYERS = ("scenario", "airlink", "estimators", "metrics", "ppa", "refsolver",
          "harness", "cli")

# Scalar closed forms summed into the ``metrics.closed_form`` aggregate.
CLOSED_FORMS = ("metrics.exp_rcee_closed", "metrics.exp_rcee_limit",
                "metrics.exp_rcee_eppa_floor", "metrics.sinr_closed",
                "metrics.sinr_limit", "metrics.upsilon",
                "metrics.achievable_rate", "metrics.rate_summary")

_COMPLEX_BYTES = np.dtype(complex).itemsize


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _complex_draws(args, kwargs, result):
    return {"draws": int(np.prod(_arg(args, kwargs, 0, "shape")))}


def _shadow_draws(args, kwargs, result):
    # one log-normal draw per (BS, cell, user) triple
    L, K = np.shape(_arg(args, kwargs, 2, "positions"))[:2]
    return {"shadow_draws": L * L * K}


def _pilot_bytes(args, kwargs, result):
    # channel tensor read plus the (M, tau) received block written
    h = _arg(args, kwargs, 0, "ch").h
    M, tau = h.shape[2], _arg(args, kwargs, 2, "tau")
    return {"bytes": h.nbytes + M * tau * _COMPLEX_BYTES}


def _prefix_bytes(args, kwargs, result):
    # both complex inputs are read once
    return {"bytes": np.asarray(_arg(args, kwargs, 0, "h")).nbytes
            + np.asarray(_arg(args, kwargs, 1, "h_hat")).nbytes}


def _csv_bytes(args, kwargs, result):
    out = _arg(args, kwargs, 2, "out") if len(args) > 2 or "out" in kwargs else None
    return {"bytes": os.path.getsize(out) if out is not None else 0}


def _pinned(args, kwargs, result):
    return {"pinned": len(result.at_min) + len(result.at_max)}


def _solve_counts(max_iter_default: int):
    def counts(args, kwargs, result):
        max_iter = args[2] if len(args) > 2 else kwargs.get("max_iter", max_iter_default)
        return {"iterations": result.iterations,
                "unconverged": int(not result.converged),
                "max_iter": int(result.iterations >= max_iter)}
    return counts


def _hooks(modules) -> dict:
    solve = modules["refsolver"].solve
    max_iter = inspect.signature(solve).parameters["max_iter"].default
    return {
        "airlink.complex_normal": _complex_draws,
        "airlink.pilot_phase": _pilot_bytes,
        "scenario.large_scale": _shadow_draws,
        "metrics.rcee_prefix_samples": _prefix_bytes,
        "cli.emit_csv": _csv_bytes,
        "ppa.ppa_allocate": _pinned,
        "refsolver.solve": _solve_counts(max_iter),
    }


def rebind(original, replacement) -> list:
    """Point every package binding of ``original`` at ``replacement``.

    Returns the (module, attribute, original) triples needed to undo it.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def public_functions(module):
    """Public functions defined in ``module`` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def self_times(name_ids, parents, starts, ends, n_names: int):
    """Calls and summed self time per name id.

    ``parents[i]`` is the index of span i's enclosing span, or -1.  Self
    time is a span's duration minus the durations of its direct children.
    """
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
    own = dur - child
    calls = np.bincount(name_ids, minlength=n_names)
    total = np.bincount(name_ids, weights=own, minlength=n_names)
    return calls, total


class Tracer:
    """Records a span for every call of a wrapped public function.

    Use as a context manager; the package's bindings are restored on exit.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        hooks = _hooks(modules)
        for layer, mod in modules.items():
            for name, fn in public_functions(mod).items():
                qual = f"{layer}.{name}"
                wrapper = self._wrap(qual, fn, hooks.get(qual))
                self._undo += rebind(fn, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, qual: str, fn, hook):
        name_id = len(self.names)
        self.names.append(qual)
        stack, ids, parents = self._stack, self.name_ids, self.parents
        starts, ends, counts = self.starts, self.ends, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                for key, n in hook(args, kwargs, result).items():
                    key = f"{qual}.{key}"
                    counts[key] = counts.get(key, 0) + n
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus the computed counts."""
        calls, own = self_times(self.name_ids, self.parents, self.starts,
                                self.ends, len(self.names))
        return {"calls": {n: int(c) for n, c in zip(self.names, calls)},
                "self_s": {n: float(s) for n, s in zip(self.names, own)},
                "counts": dict(self.counts)}


class ResultLog:
    """Keeps the return value of every call of one package function.

    Unlike :class:`Tracer` it takes no timestamps, so it can stay on
    during timed runs; the benchmark uses it to read each ``SolveResult``.
    """

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.results: list = []
        self._undo: list = []

    def __enter__(self) -> "ResultLog":
        fn = getattr(self.module, self.name)
        results = self.results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result

        self._undo = rebind(fn, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        restore(self._undo)
        self._undo = []


# Functions reported one by one, with the counts each one carries.
REPORTED = {
    "airlink.complex_normal": ("draws",),
    "airlink.pilot_phase": ("bytes",),
    "airlink.sample_channels": (),
    "harness.seed_schedule": (),
    "metrics.rcee_prefix_samples": ("bytes",),
    "estimators.estimate_ls": (),
    "estimators.estimate_mmse": (),
    "estimators.mmse_gain": (),
    "metrics.sinr_closed": (),
    "metrics.exp_rcee_closed": (),
    "scenario.build_layout": (),
    "scenario.drop_users": (),
    "scenario.large_scale": ("shadow_draws",),
    "ppa.ppa_allocate": ("pinned",),
    "ppa.objective_value": (),
    "ppa.asymptotic_groups": (),
    "refsolver.solve": ("iterations", "unconverged", "max_iter"),
    "refsolver.project_bounded_simplex": (),
    "harness.empirical_cdf": (),
    "cli.emit_csv": ("bytes",),
}
COUNT_UNITS = {"draws": "count", "shadow_draws": "count", "bytes": "B",
               "pinned": "count", "iterations": "count",
               "unconverged": "count", "max_iter": "count"}
# Counts derived from argument shapes rather than read from results.
COMPUTED = ("draws", "shadow_draws", "bytes")


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics ``name -> (value, unit)`` from :meth:`Tracer.summary`."""
    calls, own, counts = summary["calls"], summary["self_s"], summary["counts"]
    out = {}
    for qual, extra in REPORTED.items():
        out[f"{qual}.calls"] = (calls.get(qual, 0), "count")
        out[f"{qual}.self_s"] = (own.get(qual, 0.0), "s")
        for key in extra:
            out[f"{qual}.{key}"] = (counts.get(f"{qual}.{key}", 0), COUNT_UNITS[key])
    out["metrics.closed_form.calls"] = (sum(calls.get(q, 0) for q in CLOSED_FORMS), "count")
    out["metrics.closed_form.self_s"] = (sum(own.get(q, 0.0) for q in CLOSED_FORMS), "s")
    out["harness.run_experiment.self_s"] = (own.get("harness.run_experiment", 0.0), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(s for q, s in own.items()
                                      if q.startswith(layer + ".")), "s")
    return out
