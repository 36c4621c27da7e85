"""Parameter estimation from empirical CCDFs.

The estimator is least squares between model and data in log-log CCDF
space: both curves are compared as log10 p over a log-spaced income
grid spanning the data range, which weights the Pareto tail and the
exponential bulk about equally instead of letting the bulk (where
nearly all probability mass sits) drown the tail.  Minimization is a
bounded Levenberg-Marquardt loop on the grid residuals in log-parameter
space, so positivity holds by construction.  Its Jacobian is exact: one
augmented sweep per trial point carries, next to each branch mass, its
kernel-weighted means of u = arctan(m/m0) and of log cos u (the
derivatives by log T and by alpha) and the integrand at both ends
(Leibniz's rule), from which the model composes the log CCDF and its
derivatives through both branch constants and the continuity ratio.
That sweep costs about 1.5 residual-only ones, and has no step size to
trade against quadrature noise.
Uncertainty comes from a nonparametric bootstrap: resample the
dataset, refit from the fitted center, report per-parameter standard
deviations, which the caller passes to :func:`fit_result_document`.
A :class:`FitProblem` builds the grid and empirical curve once per
curve; each evaluation is then one normalization whose two branch
sweeps also give the model curve.  The fit needs numpy alone, so every
command's cold start costs about numpy and click.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field

import numpy as np

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

__all__ = ["FitConfig", "FitResult", "FitProblem", "initial_guess", "objective", "fit",
           "bootstrap_errors", "fit_result_document"]

_ORDER = ("t_low", "t_high", "m0", "m1", "alpha", "alpha1")  # Params field order
_KEYS = {attr: key for key, attr in model_mod._PARAM_KEYS.items()}  # t_low -> "T", ...
_LN10 = math.log(10.0)
_PENALTY = 1e9
_MAX_STEPS = 300  # misfit calls per run: trial points, each one sweep with its Jacobian
_TAIL_FLOOR = 20  # effective exceedances that must back the grid's last point


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings; defaults suit 10^4..10^6-record samples."""

    grid_points: int = 200
    tie_t1_m1: bool = False
    restarts: int = 5
    bootstrap_resamples: int = 200
    seed: int = 0
    opt_tol: float = 2e-4  # a run stops once its log-parameter step is shorter than about this
    quad_tol: float = 1e-10

    def __post_init__(self):
        for name, least in (("grid_points", 10), ("restarts", 1), ("bootstrap_resamples", 0),
                            ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (0.0 < self.opt_tol < 1.0):
            raise ConfigError(f"opt_tol must lie in (0, 1), got {self.opt_tol!r}")
        if not (0.0 < self.quad_tol <= 1e-6):
            raise ConfigError(f"quad_tol must lie in (0, 1e-6], got {self.quad_tol!r}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit`; ``iterations`` counts the winning restart's
    misfit evaluations, each a sweep that gives the residuals and their exact Jacobian.
    ``diagnostics`` holds ``bound_saturated``, ``degenerate_ridge``, ``misfit_calls`` (all
    restarts, counted alike), ``restart_objectives``, ``grid_points_above_m1`` (grid points
    >= m1), ``jacobian_singular_values`` (descending) of the residual Jacobian in
    log-parameter space at the fit, and ``weakest_direction``, the right singular vector
    of the smallest as {parameter: weight}, its largest weight positive.
    """

    params: Params
    objective: float
    iterations: int
    converged: bool
    restarts_used: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.objective >= 0.0:
            raise DomainError(f"objective must be >= 0, got {self.objective!r}")


def _positive_points(ccdf: EmpiricalCcdf):
    keep = ccdf.m > 0.0
    m = ccdf.m[keep]
    p = ccdf.p[keep]
    if m.size < 2:
        raise InsufficientDataError("need at least two positive-income CCDF points")
    return m, p


def _grid_ceiling(m: np.ndarray, p: np.ndarray) -> float:
    """Largest income the objective grid may reach (see ``objective``)."""
    reliable = np.flatnonzero(p >= _TAIL_FLOOR * p[-1])
    if reliable.size >= 2:
        return float(m[reliable[-1]])
    return float(m[-1])


def _derive_bounds(ccdf: EmpiricalCcdf) -> dict:
    m, p = _positive_points(ccdf)
    scale = (float(m[0]) / 30.0, float(m[-1]) * 30.0)
    # The breakpoint must stay inside the region the objective can see,
    # or the high branch degenerates into a free-for-all.
    ceiling = _grid_ceiling(m, p)
    break_scale = (scale[0], ceiling * 2.0)
    return {
        "t_low": scale,
        "t_high": break_scale,
        "m0": scale,
        "m1": break_scale,
        "alpha": (0.05, 12.0),
        "alpha1": (0.05, 12.0),
    }


class FitProblem:
    """The part of :func:`objective` fixed by the curve: grid and log10 empirical CCDF."""

    def __init__(self, ccdf: EmpiricalCcdf, grid_points: int, quad_tol: float = 1e-10):
        if grid_points < 2:
            raise DomainError(f"grid_points must be >= 2, got {grid_points!r}")
        m, p = _positive_points(ccdf)
        self.grid = np.geomspace(m[0], _grid_ceiling(m, p), int(grid_points))
        self.log10_emp = np.interp(np.log(self.grid), np.log(m), np.log(p)) / _LN10
        self.quad_tol = quad_tol

    def logccdf(self, params: Params, grad: bool = False):
        """Model log CCDF (natural log) on the grid; with ``grad``, (curve, derivatives by
        the log of each parameter), the derivatives as columns in :class:`Params` field order."""
        out = model_mod._normalize_on(params, self.quad_tol, self.grid, grad)
        return out[1:] if grad else out[1]

    def residuals(self, params: Params, grad: bool = False):
        """log10 CCDF gaps on the grid over sqrt(n); their sum of squares is the misfit.
        With ``grad``, (gaps, their derivatives by the log of each parameter) from one sweep."""
        out = self.logccdf(params, grad)
        r = ((out[0] if grad else out) / _LN10 - self.log10_emp) / math.sqrt(self.grid.size)
        return (r, out[1] / (_LN10 * math.sqrt(self.grid.size))) if grad else r

    def misfit(self, params: Params) -> float:
        r = self.residuals(params)
        return float(r @ r)


def objective(params: Params, ccdf: EmpiricalCcdf, grid_points: int,
              quad_tol: float = 1e-10) -> float:
    """Mean squared log10-CCDF misfit over a log-spaced income grid.

    The empirical curve is interpolated linearly in (log m, log p).
    The grid starts at the smallest positive data point and stops where
    fewer than 20 effective exceedances back the empirical curve (p
    below 20 times the final plotting position), or at the largest
    point when fewer than two points pass that test: beyond it the
    extreme order statistics scatter by whole factors around the true
    CCDF, and letting them into a mean-squared criterion drowns the
    signal of every other regime.
    """
    return FitProblem(ccdf, grid_points, quad_tol).misfit(params)


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

    bounds = _derive_bounds(ccdf)

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


def _evaluator(problem: FitProblem, config: FitConfig):
    """x -> (residuals, Jacobian) at packed log-parameters x from one sweep; a point the
    model refuses or that gives non-finite output gets the penalty vector and a zero Jacobian."""
    names = _pack_names(config.tie_t1_m1)
    # Maps Params-order columns onto the packed ones; a tied T1 moves with m1.
    fold = np.eye(len(_ORDER))[:, [_ORDER.index(n) for n in names]]
    if config.tie_t1_m1:
        fold[_ORDER.index("t_high"), names.index("m1")] = 1.0
    penalty = (np.full(problem.grid.size, math.sqrt(_PENALTY / problem.grid.size)),
               np.zeros((problem.grid.size, len(names))))

    def evaluate(x):
        try:
            r, jac = problem.residuals(_unpack(x, names, config.tie_t1_m1), grad=True)
        except (InvalidParamsError, QuadratureError, OverflowError):
            return penalty
        jac = jac @ fold
        return (r, jac) if np.all(np.isfinite(r)) and np.all(np.isfinite(jac)) else penalty

    return evaluate


def _minimize_from(problem: FitProblem, x0, log_bounds, config: FitConfig):
    """One bounded Levenberg-Marquardt run (Moré 1978) from x0 clipped into the box.

    Each trial point is one :func:`_evaluator` sweep, so an accepted point already
    holds the next step's Jacobian.  The box enters through Coleman & Li's affine
    scaling (SIAM J. Optim. 6, 1996), as in scipy's ``trf``.  A step that would
    leave the box stops at 0.995 of the way to the first bound it meets, or if the
    best step along the scaled gradient then gains more, that one is taken.  Stops
    as :func:`fit` says.  Returns (log-space end point, objective there (twice the
    cost), converged, misfit calls, Jacobian there).
    """
    evaluate = _evaluator(problem, config)
    lb, ub = log_bounds.T

    def reach(step_h):  # 1, or 0.995 of the fraction of a hat step that meets the first bound
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d * step_h > 0, ub - x, lb - x) / (d * step_h)
        return min(1.0, 0.995 * float(np.min(room, where=room >= 0, initial=2.0)))

    def gain(step_h):  # the decrease in cost that the model predicts
        return -float(g_h @ step_h + 0.5 * np.sum((aug @ step_h) ** 2))

    x = np.clip(x0, lb + 1e-9, ub - 1e-9)
    r, jac = evaluate(x)
    calls, cost, col_norm = 1, 0.5 * float(r @ r), np.zeros(x.size)
    damping, grow, converged = None, 2.0, False
    while not converged and calls < _MAX_STEPS:
        g = jac.T @ r
        # Coleman-Li: a step shrinks with the root of its distance to the bound -g points at,
        # over the largest Jacobian column norm seen so far.
        dist = np.where(g > 0, x - lb, np.where(g < 0, ub - x, 1.0))
        converged = np.max(np.abs(g * dist)) < 1e-10  # vanishing scaled gradient
        col_norm = np.maximum(col_norm, np.linalg.norm(jac, axis=0))
        norm = np.where(col_norm > 0.0, col_norm, 1.0)
        d = np.sqrt(dist / norm)
        # In hat variables (step = d * hat) the model's Hessian is aug.T @ aug: the Gauss-Newton
        # term plus Coleman-Li's diagonal |g| / norm from the scaling's own slope.
        aug = np.vstack([jac * d, np.diag(np.sqrt(np.abs(g) / norm))])
        g_h = d * g
        _, sv, vt = np.linalg.svd(aug, full_matrices=False)
        damping = 1e-3 * float(sv[0]) ** 2 if damping is None else damping
        while not converged and calls < _MAX_STEPS:
            full = -vt.T @ ((vt @ g_h) / (sv * sv + damping))  # the damped Gauss-Newton step
            small_step = np.linalg.norm(d * full) < config.opt_tol
            cut = reach(full)
            step_h = cut * full
            if cut < 1.0:  # the box cut the step: the best one along -g may gain more
                cauchy = -g_h * (g_h @ g_h) / (np.sum((aug @ g_h) ** 2) + damping * (g_h @ g_h))
                cauchy = reach(cauchy) * cauchy
                step_h = cauchy if gain(cauchy) > gain(step_h) else step_h
            r_new, jac_new = evaluate(x + d * step_h)
            calls, cost_new = calls + 1, 0.5 * float(r_new @ r_new)
            converged = small_step
            if cost_new < cost:
                ratio = (cost - cost_new) / gain(step_h)
                converged |= cost - cost_new < 1e-9 * cost and ratio > 0.25
                x, r, jac, cost = x + d * step_h, r_new, jac_new, cost_new
                damping, grow = damping * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 2.0
                break
            damping, grow = damping * grow, 2.0 * grow  # Nielsen's updates, here and above
    value = 2.0 * cost  # a penalised end point scores _PENALTY up to rounding
    return x, value, bool(converged and value < 0.5 * _PENALTY), calls, jac


def fit(ccdf: EmpiricalCcdf, config: FitConfig) -> FitResult:
    """Best-of-restarts least-squares fit of the six (or five, tied) parameters.

    Starts at :func:`initial_guess`, then from seeded log-space
    perturbations of it; each restart runs a bounded Levenberg-Marquardt
    loop inside positive bounds derived from the data range.
    ``converged`` is the winning restart's: it stopped on a tolerance
    test (a damped Gauss-Newton step shorter than ``opt_tol`` in log
    space, an accepted step that cut the cost by under 1e-9 relative, or
    a vanishing scaled gradient) rather than the step budget, at a point
    that is not penalised.  A non-converged result is still returned.
    """
    guess = initial_guess(ccdf)
    names = _pack_names(config.tie_t1_m1)
    bounds = _derive_bounds(ccdf)
    log_bounds = np.log([bounds[n] for n in names])
    problem = FitProblem(ccdf, config.grid_points, config.quad_tol)
    x0 = np.log([getattr(guess, n) for n in names])  # initial_guess clips into the box

    runs = []
    for k in range(int(config.restarts)):
        noise = np.random.default_rng((config.seed, 1, k)).standard_normal(x0.size)
        runs.append(_minimize_from(problem, x0 + 0.3 * noise if k else x0, log_bounds, config))
    x, value, converged, calls, jac = min(runs, key=lambda run: run[1])

    params = _unpack(x, names, config.tie_t1_m1)
    gaps = np.minimum(x - log_bounds[:, 0], log_bounds[:, 1] - x)
    saturated = [name for name, gap in zip(names, gaps) if gap < 1e-3]
    # Ridge geometry: the two branches describe the same law, so m1 is
    # unidentifiable.  The 0.15 margins sit well above estimator noise
    # yet an order of magnitude below any genuinely two-branch dataset.
    ridge = (
        abs(math.log(params.t_high / params.t_low)) < 0.15
        and abs(params.alpha - params.alpha1) < 0.15
    )
    # The residual Jacobian's spectrum at the fit: which log-parameter combinations the data fix.
    _, singular, vt = np.linalg.svd(jac, full_matrices=False)
    weakest = vt[-1] * np.sign(vt[-1][np.argmax(np.abs(vt[-1]))])  # largest weight positive
    return FitResult(
        params=params,
        objective=value,
        iterations=calls,
        converged=converged,
        restarts_used=int(config.restarts),
        diagnostics={"bound_saturated": saturated, "degenerate_ridge": ridge,
                     "misfit_calls": sum(run[3] for run in runs),
                     "restart_objectives": [run[1] for run in runs],
                     "grid_points_above_m1": int(np.count_nonzero(problem.grid >= params.m1)),
                     "jacobian_singular_values": singular.tolist(),
                     "weakest_direction": {_KEYS[n]: float(w) for n, w in zip(names, weakest)}},
    )


def bootstrap_errors(ds: Dataset, config: FitConfig, center: Params) -> dict:
    """Per-parameter standard deviations over bootstrap refits.

    Each of the ``config.bootstrap_resamples`` tasks draws len(ds)
    records with replacement (probability proportional to weight),
    rebuilds the CCDF, and refits once starting from ``center``.  Task
    k's random stream is seeded by (config.seed, 2, k) so results do
    not depend on execution order.

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
    names = _pack_names(config.tie_t1_m1)
    bounds = _derive_bounds(empirical_ccdf(ds))
    log_bounds = np.log([bounds[name] for name in names])
    x0 = np.log([getattr(center, name) for name in names])
    draws = []
    failed = 0
    for k in range(int(config.bootstrap_resamples)):
        idx = np.random.default_rng((config.seed, 2, k)).choice(n, size=n, replace=True, p=probs)
        resampled = Dataset(values=ds.values[idx], label=f"resample-{k}")
        problem = FitProblem(empirical_ccdf(resampled), config.grid_points, config.quad_tol)
        x, _value, ok = _minimize_from(problem, x0, log_bounds, config)[:3]
        if not ok:
            failed += 1
        draws.append(list(model_mod.params_to_dict(_unpack(x, names, config.tie_t1_m1)).values()))
    if 2 * failed > config.bootstrap_resamples:
        raise UnreliableErrorsError(
            f"{failed}/{config.bootstrap_resamples} bootstrap refits failed to converge"
        )
    spread = np.std(np.asarray(draws), axis=0, ddof=1)
    return dict(zip(model_mod.params_to_dict(center), spread.tolist()))


def fit_result_document(result: FitResult, config: FitConfig, errors: dict) -> dict:
    """JSON-ready document: result fields, per-parameter errors and the config echo."""
    return {
        "params": model_mod.params_to_dict(result.params),
        "errors": dict(errors),
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "diagnostics": copy.deepcopy(result.diagnostics),
        "config": asdict(config),
    }


def __getattr__(name):  # bench/tracing.py wraps fit.minimize, unused here; goes with ROADMAP item 6
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
