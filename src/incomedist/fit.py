"""Parameter estimation from empirical CCDFs.

The estimator is least squares between model and data in log-log CCDF
space: both curves are compared as log10 p over a log-spaced income
grid spanning the data range, which weights the Pareto tail and the
exponential bulk about equally instead of letting the bulk (where
nearly all probability mass sits) drown the tail.  Minimization is
derivative-free simplex search in log-parameter space, so positivity
holds by construction and the optimizer never sees the quadrature noise
a finite-difference gradient would amplify.  Uncertainty comes from a
nonparametric bootstrap: resample the dataset, refit from the fitted
center, report per-parameter standard deviations.  A :class:`FitProblem`
builds the grid and empirical curve once per curve; each evaluation is
then one normalization whose two branch sweeps also give the model curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from scipy.optimize import minimize

from . import model as model_mod
from .data import Dataset, EmpiricalCcdf, empirical_ccdf
from .errors import (
    ConfigError,
    DomainError,
    InsufficientDataError,
    InvalidParamsError,
    QuadratureError,
    UnreliableErrorsError,
)
from .model import NormalizedModel, Params, logccdf, normalize  # noqa: F401 (bench/tracing.py)

__all__ = [
    "FitConfig",
    "FitResult",
    "FitProblem",
    "initial_guess",
    "objective",
    "fit",
    "bootstrap_errors",
    "fit_result_document",
]

_ORDER = ("t_low", "t_high", "m0", "m1", "alpha", "alpha1")
_JSON_NAMES = {"t_low": "T", "t_high": "T1", "m0": "m0", "m1": "m1",
               "alpha": "alpha", "alpha1": "alpha1"}
_LN10 = math.log(10.0)
_PENALTY = 1e9


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings; defaults suit 10^4..10^6-record samples."""

    grid_points: int = 200
    tie_t1_m1: bool = False
    bounds: Optional[Mapping[str, tuple]] = None
    restarts: int = 5
    bootstrap_resamples: int = 200
    seed: int = 0
    opt_tol: float = 2e-4
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.grid_points, (int, np.integer)) or self.grid_points < 10:
            raise ConfigError(f"grid_points must be >= 10, got {self.grid_points!r}")
        if not isinstance(self.restarts, (int, np.integer)) or self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts!r}")
        if not isinstance(self.bootstrap_resamples, (int, np.integer)) or self.bootstrap_resamples < 0:
            raise ConfigError(f"bootstrap_resamples must be >= 0, got {self.bootstrap_resamples!r}")
        if not (0.0 < self.opt_tol < 1.0):
            raise ConfigError(f"opt_tol must lie in (0, 1), got {self.opt_tol!r}")
        if not (0.0 < self.quad_tol <= 1e-6):
            raise ConfigError(f"quad_tol must lie in (0, 1e-6], got {self.quad_tol!r}")
        if self.bounds is not None:
            for name, pair in self.bounds.items():
                if name not in _ORDER:
                    raise ConfigError(f"unknown bound name {name!r}")
                lo, hi = pair
                if not (0.0 < lo < hi and math.isfinite(hi)):
                    raise ConfigError(f"bounds for {name} must be positive and ordered, got {pair!r}")


@dataclass(frozen=True)
class FitResult:
    params: Params
    errors: dict
    objective: float
    iterations: int
    converged: bool
    restarts_used: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.objective >= 0.0:
            raise DomainError(f"objective must be >= 0, got {self.objective!r}")
        if any(v < 0.0 for v in self.errors.values()):
            raise DomainError("errors must be >= 0")


def _positive_points(ccdf: EmpiricalCcdf):
    keep = ccdf.m > 0.0
    m = ccdf.m[keep]
    p = ccdf.p[keep]
    if m.size < 2:
        raise InsufficientDataError("need at least two positive-income CCDF points")
    return m, p


def _grid_ceiling(m: np.ndarray, p: np.ndarray, tail_floor: int = 20) -> float:
    """Largest income the objective grid may reach (see ``objective``)."""
    if tail_floor > 0:
        reliable = np.flatnonzero(p >= tail_floor * p[-1])
        if reliable.size >= 2:
            return float(m[reliable[-1]])
    return float(m[-1])


def _derive_bounds(ccdf: EmpiricalCcdf, overrides) -> dict:
    m, p = _positive_points(ccdf)
    scale = (float(m[0]) / 30.0, float(m[-1]) * 30.0)
    # The breakpoint must stay inside the region the objective can see,
    # or the high branch degenerates into a free-for-all.
    ceiling = _grid_ceiling(m, p)
    break_scale = (scale[0], ceiling * 2.0)
    bounds = {
        "t_low": scale,
        "t_high": break_scale,
        "m0": scale,
        "m1": break_scale,
        "alpha": (0.05, 12.0),
        "alpha1": (0.05, 12.0),
    }
    if overrides:
        bounds.update({k: (float(v[0]), float(v[1])) for k, v in overrides.items()})
    return bounds


class FitProblem:
    """The part of :func:`objective` fixed by the curve: grid and log10 empirical CCDF."""

    def __init__(self, ccdf: EmpiricalCcdf, grid_points: int,
                 quad_tol: float = 1e-10, tail_floor: int = 20):
        if grid_points < 2:
            raise DomainError(f"grid_points must be >= 2, got {grid_points!r}")
        m, p = _positive_points(ccdf)
        self.grid = np.geomspace(m[0], _grid_ceiling(m, p, tail_floor), int(grid_points))
        self.log10_emp = np.interp(np.log(self.grid), np.log(m), np.log(p)) / _LN10
        self.quad_tol = quad_tol

    def logccdf(self, params: Params) -> np.ndarray:
        """Model log CCDF (natural log) on the grid."""
        return model_mod._normalize_on(params, self.quad_tol, self.grid)[1]

    def misfit(self, params: Params) -> float:
        diff = self.logccdf(params) / _LN10 - self.log10_emp
        return float(np.mean(diff * diff))


def objective(params: Params, ccdf: EmpiricalCcdf, grid_points: int,
              quad_tol: float = 1e-10, tail_floor: int = 20) -> float:
    """Mean squared log10-CCDF misfit over a log-spaced income grid.

    The empirical curve is interpolated linearly in (log m, log p).
    The grid starts at the smallest positive data point and, with the
    default ``tail_floor``, stops where fewer than that many effective
    exceedances back the empirical curve (p below tail_floor times the
    final plotting position): beyond it the extreme order statistics
    scatter by whole factors around the true CCDF, and letting them
    into a mean-squared criterion drowns the signal of every other
    regime.  ``tail_floor=0`` spans the full data range, in which case
    a CCDF produced by evaluating the model on that exact grid scores
    exactly zero.
    """
    return FitProblem(ccdf, grid_points, quad_tol, tail_floor).misfit(params)


def _coarse_shape(log_m: np.ndarray, log_p: np.ndarray, nodes: int = 60):
    """Slopes of the CCDF on a uniform log grid, lightly smoothed."""
    x = np.linspace(log_m[0], log_m[-1], nodes)
    y = np.interp(x, log_m, log_p)
    kernel = np.ones(5) / 5.0
    pad = np.concatenate([y[:2][::-1], y, y[-2:][::-1]])
    y = np.convolve(pad, kernel, mode="valid")
    dx = x[1] - x[0]
    slopes = np.diff(y) / dx
    mids = 0.5 * (x[1:] + x[:-1])
    return mids, slopes, dx


def initial_guess(ccdf: EmpiricalCcdf) -> Params:
    """Heuristic starting point for the optimizer.

    Deliberately coarse: the temperature comes from an exponential fit
    of the lowest decade, the crossover m0 from the steepest point of
    the log-log curve (end of the exponential regime), the breakpoint
    m1 from the largest upward slope jump above m0 (falling back to the
    90th percentile of the log range), and the exponents from local
    slopes; T1 starts tied to m1.

    Raises
    ------
    InsufficientDataError
        Fewer than 20 points or a span under two decades.
    """
    m, p = _positive_points(ccdf)
    if m.size < 20:
        raise InsufficientDataError(f"need >= 20 CCDF points, got {m.size}")
    if m[-1] / m[0] < 100.0:
        raise InsufficientDataError(
            f"need >= 2 decades of income span, got {m[-1] / m[0]:.3g}x"
        )
    log_m = np.log10(m)
    log_p = np.log10(p)

    low = m <= m[0] * 10.0
    if np.count_nonzero(low) < 3:
        low = np.zeros(m.size, dtype=bool)
        low[:5] = True
    slope_ln = np.polyfit(m[low], np.log(p[low]), 1)[0]
    if slope_ln < -1e-300:
        t_low = -1.0 / slope_ln
    else:
        t_low = float(m[np.argmin(np.abs(p - math.exp(-1.0)))])

    mids, slopes, dx = _coarse_shape(log_m, log_p)
    # Ignore the statistically hollow deep tail when locating the knee.
    solid = np.interp(mids, log_m, log_p) >= math.log10(10.0 / (m.size + 1.0))
    knee_pool = np.flatnonzero(solid)
    if knee_pool.size == 0:
        knee_pool = np.arange(mids.size)
    knee = knee_pool[np.argmin(slopes[knee_pool])]
    m0 = float(10.0 ** mids[knee])

    jumps = np.diff(slopes)
    above = np.flatnonzero(mids[1:] >= mids[knee] + 2.0 * dx)
    m1 = None
    if above.size:
        j = above[np.argmax(jumps[above])]
        if jumps[j] > 0.4:
            m1 = float(10.0 ** (0.5 * (mids[j] + mids[j + 1])))
    if m1 is None:
        m1 = float(10.0 ** (log_m[0] + 0.9 * (log_m[-1] - log_m[0])))
    if m1 <= m0:
        m1 = 3.0 * m0

    mid = (m >= m0) & (m <= m1)
    if np.count_nonzero(mid) < 4:
        mid = (m >= m0 / 2.0) & (m <= m1 * 2.0)
    if np.count_nonzero(mid) >= 4:
        alpha = -np.polyfit(log_m[mid], log_p[mid], 1)[0]
    else:
        alpha = -float(np.min(slopes))
    alpha = float(np.clip(alpha, 0.1, 11.0))

    top = m >= max(m1 * 1.2, m[-1] / 10.0)
    if np.count_nonzero(top) < 3:
        top = np.zeros(m.size, dtype=bool)
        top[-5:] = True
    alpha1 = float(np.clip(-np.polyfit(log_m[top], log_p[top], 1)[0], 0.05, 11.0))

    bounds = _derive_bounds(ccdf, None)

    def clip(name, value):
        lo, hi = bounds[name]
        return float(np.clip(value, lo * 1.0000001, hi * 0.9999999))

    return Params(
        t_low=clip("t_low", t_low),
        t_high=clip("t_high", m1),
        m0=clip("m0", m0),
        m1=clip("m1", m1),
        alpha=clip("alpha", alpha),
        alpha1=clip("alpha1", alpha1),
    )


def _pack_names(tie: bool):
    return tuple(n for n in _ORDER if not (tie and n == "t_high"))


def _unpack(x: np.ndarray, names, tie: bool) -> Params:
    kw = dict(zip(names, np.exp(x)))
    if tie:
        kw["t_high"] = kw["m1"]
    return Params(**kw)


def _clip_into(x, log_bounds):
    return np.clip(x, [b[0] + 1e-9 for b in log_bounds], [b[1] - 1e-9 for b in log_bounds])


def _minimize_from(problem: FitProblem, x0, log_bounds, config: FitConfig):
    """One Nelder-Mead run from x0 clipped into the box; (result, converged)."""
    names = _pack_names(config.tie_t1_m1)

    def fun(x):
        try:
            return problem.misfit(_unpack(x, names, config.tie_t1_m1))
        except (InvalidParamsError, QuadratureError, OverflowError):
            return _PENALTY
    res = minimize(fun, _clip_into(x0, log_bounds), method="Nelder-Mead", bounds=log_bounds,
                   options={"xatol": 0.25 * config.opt_tol, "fatol": 1e-9, "maxiter": 6000,
                            "maxfev": 9000, "adaptive": True})
    vertices = res.final_simplex[0]
    diameter = float(np.max(np.abs(vertices - vertices[0])))
    return res, diameter < config.opt_tol


def fit(ccdf: EmpiricalCcdf, config: FitConfig) -> FitResult:
    """Best-of-restarts simplex fit of the six (or five, tied) parameters.

    Starts at :func:`initial_guess`, then from seeded log-space
    perturbations of it; each restart runs Nelder-Mead inside positive
    bounds derived from the data range (overridable via the config).
    ``converged`` reflects the winning restart's final simplex diameter
    against ``opt_tol``; a non-converged result is still returned.
    """
    guess = initial_guess(ccdf)
    bounds = _derive_bounds(ccdf, config.bounds)
    names = _pack_names(config.tie_t1_m1)
    log_bounds = [tuple(np.log(bounds[n])) for n in names]
    problem = FitProblem(ccdf, config.grid_points, config.quad_tol)
    x0 = _clip_into(np.array([math.log(getattr(guess, n)) for n in names]), log_bounds)

    best = None
    for k in range(int(config.restarts)):
        noise = np.random.default_rng((config.seed, 1, k)).standard_normal(x0.size)
        res, converged = _minimize_from(problem, x0 + 0.3 * noise if k else x0, log_bounds, config)
        if best is None or float(res.fun) < best[0]:
            best = (float(res.fun), converged, res)

    value, converged, res = best
    params = _unpack(res.x, names, config.tie_t1_m1)
    saturated = [
        names[i]
        for i in range(len(names))
        if res.x[i] - log_bounds[i][0] < 1e-3 or log_bounds[i][1] - res.x[i] < 1e-3
    ]
    # Ridge geometry: the two branches describe the same law, so m1 is
    # unidentifiable.  The 0.15 margins sit well above estimator noise
    # yet an order of magnitude below any genuinely two-branch dataset.
    ridge = (
        abs(math.log(params.t_high / params.t_low)) < 0.15
        and abs(params.alpha - params.alpha1) < 0.15
    )
    return FitResult(
        params=params,
        errors={_JSON_NAMES[n]: 0.0 for n in _ORDER},
        objective=value,
        iterations=int(res.nit),
        converged=bool(converged),
        restarts_used=int(config.restarts),
        diagnostics={"bound_saturated": saturated, "degenerate_ridge": ridge},
    )


def _refit_from(center: Params, ccdf: EmpiricalCcdf, bounds, config: FitConfig):
    names = _pack_names(config.tie_t1_m1)
    log_bounds = [tuple(np.log(bounds[n])) for n in names]
    x0 = np.array([math.log(getattr(center, n)) for n in names])
    res, converged = _minimize_from(FitProblem(ccdf, config.grid_points, config.quad_tol),
                                    x0, log_bounds, config)
    return _unpack(res.x, names, config.tie_t1_m1), converged


def bootstrap_errors(
    ds: Dataset,
    config: FitConfig,
    center: Params,
    index_sampler: Optional[Callable[[int, np.random.Generator], np.ndarray]] = None,
) -> dict:
    """Per-parameter standard deviations over bootstrap refits.

    Each of the ``config.bootstrap_resamples`` tasks draws len(ds)
    records with replacement (probability proportional to weight),
    rebuilds the CCDF, and refits once starting from ``center``.  Task
    k's random stream is seeded by (config.seed, 2, k) so results do
    not depend on execution order.  ``index_sampler`` replaces the
    resampling draw and exists for controlled experiments.

    Raises
    ------
    UnreliableErrorsError
        If more than half of the refits fail to converge.
    """
    if config.bootstrap_resamples < 20:
        raise ConfigError(
            f"bootstrap needs >= 20 resamples, got {config.bootstrap_resamples}"
        )
    n = len(ds)
    probs = ds.weights / ds.weights.sum()
    bounds = _derive_bounds(empirical_ccdf(ds), config.bounds)
    draws = []
    failed = 0
    for k in range(int(config.bootstrap_resamples)):
        rng = np.random.default_rng((config.seed, 2, k))
        if index_sampler is not None:
            idx = np.asarray(index_sampler(k, rng), dtype=np.intp)
        else:
            idx = rng.choice(n, size=n, replace=True, p=probs)
        resampled = Dataset(values=ds.values[idx], label=f"resample-{k}")
        params_k, ok = _refit_from(center, empirical_ccdf(resampled), bounds, config)
        if not ok:
            failed += 1
        draws.append([getattr(params_k, name) for name in _ORDER])
    if 2 * failed > config.bootstrap_resamples:
        raise UnreliableErrorsError(
            f"{failed}/{config.bootstrap_resamples} bootstrap refits failed to converge"
        )
    spread = np.std(np.asarray(draws), axis=0, ddof=1)
    return {_JSON_NAMES[name]: float(spread[i]) for i, name in enumerate(_ORDER)}


def fit_result_document(result: FitResult, config: FitConfig) -> dict:
    """JSON-ready document: result fields plus the config echo."""
    return {
        "params": model_mod.params_to_dict(result.params),
        "errors": dict(result.errors),
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "diagnostics": {
            "bound_saturated": list(result.diagnostics.get("bound_saturated", [])),
            "degenerate_ridge": bool(result.diagnostics.get("degenerate_ridge", False)),
        },
        "config": {
            "grid_points": config.grid_points,
            "tie_t1_m1": config.tie_t1_m1,
            "bounds": None if config.bounds is None
            else {k: [v[0], v[1]] for k, v in config.bounds.items()},
            "restarts": config.restarts,
            "bootstrap_resamples": config.bootstrap_resamples,
            "seed": config.seed,
            "opt_tol": config.opt_tol,
            "quad_tol": config.quad_tol,
        },
    }
