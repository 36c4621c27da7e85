"""Span recorder that wraps the package's entry points from outside.

A traced op replaces the module attributes that callers look up (for
example ``incomedist.fit.objective``, which the fitter's closure reads
on every evaluation) with wrappers that record one span per call:
name, start, end, parent span, op id, the exception type if the call
raised, and a few counts taken from arguments and return values.
Spans stay in memory until the run ends; ``layer_metrics`` turns them
into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# (name, unit, better); the order is the order of the report.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("data.load_incomes.s", "s", "lower"),
    ("data.load_incomes.rows", "count", "higher"),
    ("data.empirical_ccdf.calls", "count", "lower"),
    ("data.empirical_ccdf.s", "s", "lower"),
    ("fit.fit.s", "s", "lower"),
    ("fit.bootstrap_errors.s", "s", "lower"),
    ("fit.minimize.calls", "count", "lower"),
    ("fit.minimize.nfev", "count", "lower"),
    ("fit.minimize.nit", "count", "lower"),
    ("fit.minimize.converged_ratio", "1", "higher"),
    ("fit.objective.calls", "count", "lower"),
    ("fit.objective.s", "s", "lower"),
    ("fit.objective.self_s", "s", "lower"),
    ("fit.objective.penalty_ratio", "1", "lower"),
    ("fit.objective.penalties.InvalidParamsError", "count", "lower"),
    ("fit.objective.penalties.QuadratureError", "count", "lower"),
    ("fit.objective.penalties.OverflowError", "count", "lower"),
    ("model.normalize.calls", "count", "lower"),
    ("model.normalize.s", "s", "lower"),
    ("model.logccdf.calls", "count", "lower"),
    ("model.logccdf.points", "count", "lower"),
    ("model.logccdf.s", "s", "lower"),
    ("model.quantile.calls", "count", "lower"),
    ("model.quantile.s", "s", "lower"),
    ("model.sample.calls", "count", "lower"),
    ("model.sample.draws", "count", "lower"),
    ("model.sample.s", "s", "lower"),
    ("quadrature.kernel_log_mass.calls", "count", "lower"),
    ("quadrature.kernel_log_mass.s", "s", "lower"),
    ("quadrature.kernel_log_mass.errors", "count", "lower"),
    ("quadrature.kernel_log_cumulative.calls", "count", "lower"),
    ("quadrature.kernel_log_cumulative.segments", "count", "lower"),
    ("quadrature.kernel_log_cumulative.s", "s", "lower"),
    ("quadrature.kernel_log_cumulative.achieved_tol_max", "1", "lower"),
    ("langevin.simulate_ensemble.s", "s", "lower"),
    ("langevin.simulate_ensemble.agent_steps", "count", "lower"),
    ("langevin.simulate_ensemble.ns_per_agent_step", "ns", "lower"),
    ("langevin.write_snapshots_csv.s", "s", "lower"),
    ("langevin.ks_distance.calls", "count", "lower"),
    ("langevin.ks_distance.s", "s", "lower"),
    ("langevin.relaxation_reached.s", "s", "lower"),
]

_PENALTIES = ("InvalidParamsError", "QuadratureError", "OverflowError")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op_id: int
    end: float = math.nan
    error: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``span`` and ``wrap`` are the two ways in."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id = 0

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, start=time.perf_counter(), parent=parent, op_id=self.op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; ``count(span, args, kwargs, result)`` adds counts."""

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = _error_kind(exc)
                raise
            finally:
                self._close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _error_kind(exc) -> str:
    for kind in _PENALTIES:  # NonNormalizableError counts as InvalidParamsError
        if any(cls.__name__ == kind for cls in type(exc).__mro__):
            return kind
    return type(exc).__name__


def _count_points(span, args, kwargs, result):
    span.counts["points"] = int(np.size(args[1]))


def _count_draws(span, args, kwargs, result):
    span.counts["draws"] = int(args[1])


def _count_segments(span, args, kwargs, result):
    span.counts["segments"] = int(np.size(args[1]))
    span.counts["achieved"] = float(result[1])


def _count_rows(span, args, kwargs, result):
    span.counts["rows"] = len(result[0])


def _count_minimize(span, args, kwargs, result):
    opt_tol = 4.0 * kwargs["options"]["xatol"]  # the fitter passes xatol = opt_tol / 4
    vertices = result.final_simplex[0]
    diameter = float(np.max(np.abs(vertices - vertices[0])))
    span.counts.update(nfev=int(result.nfev), nit=int(result.nit),
                       converged=int(diameter < opt_tol))


def _count_agent_steps(span, args, kwargs, result):
    cfg = args[0]
    span.counts["agent_steps"] = int(cfg.n_agents) * int(cfg.n_steps)


def patch_points(pkg):
    """(module, attribute, span name, counter) for every wrapped entry point.

    One span name may cover several attributes bound to the same
    function, e.g. ``fit.logccdf`` and ``model.logccdf``.
    """
    cli, fit, model, quad, lang = pkg.cli, pkg.fit, pkg.model, pkg.quadrature, pkg.langevin
    return [
        (cli, "fit", "fit.fit", None),
        (cli, "bootstrap_errors", "fit.bootstrap_errors", None),
        (cli, "load_incomes", "data.load_incomes", _count_rows),
        (cli, "empirical_ccdf", "data.empirical_ccdf", None),
        (fit, "empirical_ccdf", "data.empirical_ccdf", None),
        (fit, "objective", "fit.objective", None),
        (fit, "minimize", "fit.minimize", _count_minimize),
        (fit, "normalize", "model.normalize", None),
        (fit, "logccdf", "model.logccdf", _count_points),
        (model, "normalize", "model.normalize", None),
        (model, "logccdf", "model.logccdf", _count_points),
        (model, "quantile", "model.quantile", None),
        (model, "sample", "model.sample", _count_draws),
        (quad, "kernel_log_mass", "quadrature.kernel_log_mass", None),
        (quad, "kernel_log_cumulative", "quadrature.kernel_log_cumulative", _count_segments),
        (lang, "simulate_ensemble", "langevin.simulate_ensemble", _count_agent_steps),
        (lang, "write_snapshots_csv", "langevin.write_snapshots_csv", None),
        (lang, "ks_distance", "langevin.ks_distance", None),
        (lang, "relaxation_reached", "langevin.relaxation_reached", None),
        (lang, "ccdf", "langevin.ccdf", None),
    ]


class Patched:
    """Context manager installing the wrappers and restoring the originals."""

    def __init__(self, pkg, recorder: Recorder):
        self.points = patch_points(pkg)
        self.recorder = recorder
        self.saved = []

    def __enter__(self):
        for module, attr, name, count in self.points:
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.recorder.wrap(name, original, count))
        return self.recorder

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


def layer_metrics(spans: list[Span], out_bytes: int) -> dict:
    """Per-layer metrics (values only) from one op's spans."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def own(i):
        return spans[i].duration - sum(spans[j].duration for j in children.get(i, ()))

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def sel(name):
        return [spans[i] for i in by_name.get(name, ())]

    def total_s(name):
        return float(sum(s.duration for s in sel(name)))

    def count_sum(name, key):
        return int(sum(s.counts.get(key, 0) for s in sel(name)))

    m = {}
    m["cli.self_s"] = float(sum(own(i) for i in by_name.get("cli", ())))
    m["cli.out_bytes"] = int(out_bytes)
    m["data.load_incomes.s"] = total_s("data.load_incomes")
    m["data.load_incomes.rows"] = count_sum("data.load_incomes", "rows")
    m["data.empirical_ccdf.calls"] = len(sel("data.empirical_ccdf"))
    m["data.empirical_ccdf.s"] = total_s("data.empirical_ccdf")
    m["fit.fit.s"] = total_s("fit.fit")
    m["fit.bootstrap_errors.s"] = total_s("fit.bootstrap_errors")
    runs = sel("fit.minimize")
    m["fit.minimize.calls"] = len(runs)
    m["fit.minimize.nfev"] = count_sum("fit.minimize", "nfev")
    m["fit.minimize.nit"] = count_sum("fit.minimize", "nit")
    m["fit.minimize.converged_ratio"] = (
        count_sum("fit.minimize", "converged") / len(runs) if runs else 0.0)
    calls = sel("fit.objective")
    m["fit.objective.calls"] = len(calls)
    m["fit.objective.s"] = total_s("fit.objective")
    m["fit.objective.self_s"] = float(sum(own(i) for i in by_name.get("fit.objective", ())))
    penalised = [s for s in calls if s.error in _PENALTIES]
    m["fit.objective.penalty_ratio"] = len(penalised) / len(calls) if calls else 0.0
    for kind in _PENALTIES:
        m[f"fit.objective.penalties.{kind}"] = sum(s.error == kind for s in calls)
    m["model.normalize.calls"] = len(sel("model.normalize"))
    m["model.normalize.s"] = total_s("model.normalize")
    m["model.logccdf.calls"] = len(sel("model.logccdf"))
    m["model.logccdf.points"] = count_sum("model.logccdf", "points")
    m["model.logccdf.s"] = total_s("model.logccdf")
    m["model.quantile.calls"] = len(sel("model.quantile"))
    m["model.quantile.s"] = total_s("model.quantile")
    m["model.sample.calls"] = len(sel("model.sample"))
    m["model.sample.draws"] = count_sum("model.sample", "draws")
    m["model.sample.s"] = total_s("model.sample")
    mass = sel("quadrature.kernel_log_mass")
    m["quadrature.kernel_log_mass.calls"] = len(mass)
    m["quadrature.kernel_log_mass.s"] = total_s("quadrature.kernel_log_mass")
    m["quadrature.kernel_log_mass.errors"] = sum(bool(s.error) for s in mass)
    cum = sel("quadrature.kernel_log_cumulative")
    m["quadrature.kernel_log_cumulative.calls"] = len(cum)
    m["quadrature.kernel_log_cumulative.segments"] = count_sum(
        "quadrature.kernel_log_cumulative", "segments")
    m["quadrature.kernel_log_cumulative.s"] = total_s("quadrature.kernel_log_cumulative")
    achieved = [s.counts["achieved"] for s in cum
                if "achieved" in s.counts and math.isfinite(s.counts["achieved"])]
    m["quadrature.kernel_log_cumulative.achieved_tol_max"] = max(achieved, default=0.0)
    sim_s = total_s("langevin.simulate_ensemble")
    steps = count_sum("langevin.simulate_ensemble", "agent_steps")
    m["langevin.simulate_ensemble.s"] = sim_s
    m["langevin.simulate_ensemble.agent_steps"] = steps
    m["langevin.simulate_ensemble.ns_per_agent_step"] = 1e9 * sim_s / steps if steps else 0.0
    m["langevin.write_snapshots_csv.s"] = total_s("langevin.write_snapshots_csv")
    m["langevin.ks_distance.calls"] = len(sel("langevin.ks_distance"))
    m["langevin.ks_distance.s"] = total_s("langevin.ks_distance")
    m["langevin.relaxation_reached.s"] = total_s("langevin.relaxation_reached")
    return m
