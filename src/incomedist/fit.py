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
That sweep costs about 1.6 residual-only ones, and has no step size to
trade against quadrature noise.
Uncertainty comes from a nonparametric bootstrap: resample the
dataset, refit from the fitted center, report per-parameter standard
deviations, which the caller passes to :func:`fit_result_document`.
A :class:`FitProblem` builds the grid and empirical curve once per
curve; each evaluation is then one normalization whose two branch
sweeps also give the model curve.  Each Levenberg-Marquardt run is a
generator of trial points, and one driver runs a fit's restarts or a
bootstrap's refits in lockstep: each round, one batched quadrature call
evaluates every live run's next point, and each point's curve and
Jacobian are composed on their own, so every run takes the steps it
takes alone.  The fit needs numpy alone, so every command's cold start
costs about numpy and click.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as model_mod
from .data import Dataset, EmpiricalCcdf, empirical_ccdf
from .errors import (ConfigError, DomainError, InsufficientDataError, InvalidParamsError, QuadratureError,
                     UnreliableErrorsError, _integer, _raised, _real)
from .model import Params, logccdf, normalize  # noqa: F401 (bench/tracing.py)
from .quadrature import _TOL_RANGE

__all__ = ["FitConfig", "FitResult", "FitProblem", "initial_guess", "objective", "fit",
           "bootstrap_errors", "fit_result_document"]

_ORDER = ("t_low", "t_high", "m0", "m1", "alpha", "alpha1")  # Params field order
_KEYS = {attr: key for key, attr in model_mod._PARAM_KEYS.items()}  # t_low -> "T", ...
_LN10 = math.log(10.0)
_PENALTY = 1e9
_MAX_STEPS = 300  # misfit calls per run: trial points, each one sweep with its Jacobian
_TAIL_FLOOR = 20  # effective exceedances that must back the grid's last point
_LIVE_RUNS = 64  # runs that share a round's batched sweep


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings; defaults suit 10^4..10^6-record samples; quad_tol in [2e-13, 1e-6]."""

    grid_points: int = 200
    tie_t1_m1: bool = False
    restarts: int = 5
    bootstrap_resamples: int = 200
    seed: int = 0
    opt_tol: float = 2e-4  # a run stops once its log-parameter step is shorter than about this
    quad_tol: float = 1e-10

    def __post_init__(self):
        for name, least in (("grid_points", 10), ("restarts", 1), ("bootstrap_resamples", 0), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError, least))
        for name, (lo, hi), closed in (("opt_tol", (0.0, 1.0), "neither"), ("quad_tol", _TOL_RANGE, "both")):
            object.__setattr__(self, name, _real(getattr(self, name), name, ConfigError, lo, hi, closed))
        if not isinstance(self.tie_t1_m1, (bool, np.bool_)):
            raise ConfigError(f"tie_t1_m1 must be a bool, got {self.tie_t1_m1!r}")
        object.__setattr__(self, "tie_t1_m1", bool(self.tie_t1_m1))
        if 0 < self.bootstrap_resamples < 20:
            raise ConfigError(f"bootstrap_resamples must be 0 or >= 20, got {self.bootstrap_resamples!r}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit`; ``iterations`` counts the winning restart's
    misfit evaluations, each a sweep that gives the residuals and their exact Jacobian.
    ``diagnostics`` holds ``bound_saturated``, ``misfit_calls`` (all restarts, counted
    alike), ``restart_objectives``, ``grid_points_above_m1`` (grid points >= m1),
    ``jacobian_singular_values`` (descending) of the residual Jacobian in log-parameter
    space at the fit, and ``weakest_direction``, the right singular vector of the smallest
    as {parameter: weight}, its largest weight positive.  One-branch data (T1 = T, alpha1 =
    alpha) fitted with m1 above the grid give a smallest value near 0, T1 or alpha1 weighted most.
    """

    params: Params
    objective: float
    iterations: int
    converged: bool
    restarts_used: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        _real(self.objective, "objective", DomainError, 0.0, closed="left")


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
    """The part of :func:`objective` fixed by the curve: grid and log10 empirical CCDF.  Each
    evaluation, to a ``quad_tol`` in [2e-13, 1e-6], is one sweep: residuals and exact Jacobian."""

    def __init__(self, ccdf: EmpiricalCcdf, grid_points: int, quad_tol: float = 1e-10):
        grid_points = _integer(grid_points, "grid_points", DomainError, 2)
        self.quad_tol = _real(quad_tol, "quad_tol", DomainError, *_TOL_RANGE, closed="both")
        m, p = _positive_points(ccdf)
        self.grid = np.geomspace(m[0], _grid_ceiling(m, p), grid_points)
        self.log10_emp = np.interp(np.log(self.grid), np.log(m), np.log(p)) / _LN10

    def residuals(self, params: Params):
        """(gaps, Jacobian) from one sweep: the log10 CCDF gaps on the grid over sqrt(n), whose
        sum of squares is the misfit, and their derivatives by the log of each parameter as
        columns in :class:`Params` field order."""
        swept = model_mod._normalize_on([(params, self.grid)], self.quad_tol, grad=True)[0]
        return self._gaps(*_raised(swept)[1:])

    def _gaps(self, curve, jac):
        """:meth:`residuals` from the point's log CCDF on the grid and its derivatives."""
        scale = math.sqrt(self.grid.size)
        return (curve / _LN10 - self.log10_emp) / scale, jac / (_LN10 * scale)


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
    signal of every other regime.  ``quad_tol`` lies in [2e-13, 1e-6].
    """
    r = FitProblem(ccdf, grid_points, quad_tol).residuals(params)[0]
    return float(r @ r)


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
    # polyfit scales its columns by their norms, whose squares overflow or underflow when the
    # incomes' norm is past about 1e154 or below 1e-150: such incomes take the fallback below.
    norm = m[low][-1] * math.sqrt(np.count_nonzero(low))
    slope_ln = np.polyfit(m[low], np.log(p[low]), 1)[0] if 1e-150 < norm < 1e154 else math.nan
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


def _space(ccdf: EmpiricalCcdf, config: FitConfig):
    """A fit's parameter space: the free names in Params field order, the (6 x k) fold from
    packed log-parameters to the log of each field (tied, T1's row points at m1's column),
    and the packed log box.  Tied and untied fits differ only here."""
    source = ["m1" if config.tie_t1_m1 and n == "t_high" else n for n in _ORDER]
    names = tuple(n for n in _ORDER if n in source)
    fold = np.array([[float(s == free) for free in names] for s in source])
    bounds = _derive_bounds(ccdf)
    return names, fold, np.log([bounds[n] for n in names])


def _evaluator(fold: np.ndarray):
    """(problems, xs) -> [(residuals, Jacobian)] at packed log-parameters xs[k] of problems[k],
    all from one batched sweep; the problems share one ``quad_tol``.  A point the model
    refuses or that gives non-finite output gets the penalty vector and a zero Jacobian; every
    other point gets what it gets alone."""

    def evaluate(problems, xs):
        out, points = [], []
        for problem, x in zip(problems, xs):
            n = problem.grid.size
            out.append((np.full(n, math.sqrt(_PENALTY / n)), np.zeros((n, fold.shape[1]))))
            try:
                points.append((len(out) - 1, Params(*np.exp(fold @ x))))
            except InvalidParamsError:
                continue
        swept = model_mod._normalize_on([(p, problems[k].grid) for k, p in points],
                                        problems[0].quad_tol, grad=True) if points else []
        for (k, _p), result in zip(points, swept):
            if isinstance(result, QuadratureError):
                continue
            r, jac = problems[k]._gaps(*result[1:])
            jac = jac @ fold
            if np.all(np.isfinite(r)) and np.all(np.isfinite(jac)):
                out[k] = r, jac
        return out

    return evaluate


def _lockstep(problems, fold: np.ndarray, starts, log_bounds, opt_tol: float):
    """One :func:`_minimize_from` run from each start, run k on ``problems[k]``, in lockstep.

    Each round advances every live run by one trial point, and one batched sweep evaluates
    the round's points, so a run takes the steps it takes alone.  At most ``_LIVE_RUNS`` runs
    are live at once, the next starting as one ends, so the round's arrays stay bounded
    however many refits a bootstrap asks for.  Returns each run's result, in order.
    """
    evaluate = _evaluator(fold)
    waiting, runs, replies = list(enumerate(starts))[::-1], {}, {}
    results = [None] * len(starts)
    while replies or waiting:
        while waiting and len(replies) < _LIVE_RUNS:
            k, x0 = waiting.pop()
            runs[k], replies[k] = _minimize_from(x0, log_bounds, opt_tol), None  # None starts it
        points = {}
        for k, reply in replies.items():
            try:
                points[k] = runs[k].send(reply)
            except StopIteration as stop:
                results[k] = stop.value
        replies = dict(zip(points, evaluate([problems[k] for k in points], list(points.values()))))
    return results


def _minimize_from(x0, log_bounds, opt_tol: float):
    """One bounded Levenberg-Marquardt run (Moré 1978) from x0 clipped into the box, as a
    generator: it yields each trial point and is sent back its (residuals, Jacobian).

    So an accepted point already holds the next step's Jacobian, and a driver such as
    :func:`_lockstep` may evaluate many runs' points together.  The box enters through
    Coleman & Li's affine scaling (SIAM J. Optim. 6, 1996), as in scipy's ``trf``.  A step
    that would leave the box stops at 0.995 of the way to the first bound it meets, or if
    the best step along the scaled gradient then gains more, that one is taken.  Stops as
    :func:`fit` says.  Returns (log-space end point, objective there (twice the
    cost), converged, misfit calls, Jacobian there).
    """
    lb, ub = log_bounds.T

    def reach(step_h):  # 1, or 0.995 of the fraction of a hat step that meets the first bound
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d * step_h > 0, ub - x, lb - x) / (d * step_h)
        return min(1.0, 0.995 * float(np.min(room, where=room >= 0, initial=2.0)))

    def gain(step_h):  # the decrease in cost that the model predicts
        return -float(g_h @ step_h + 0.5 * np.sum((aug @ step_h) ** 2))

    x = np.clip(x0, lb + 1e-9, ub - 1e-9)
    r, jac = yield x
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
            small_step = np.linalg.norm(d * full) < opt_tol
            cut = reach(full)
            step_h = cut * full
            if cut < 1.0:  # the box cut the step: the best one along -g may gain more
                cauchy = -g_h * (g_h @ g_h) / (np.sum((aug @ g_h) ** 2) + damping * (g_h @ g_h))
                cauchy = reach(cauchy) * cauchy
                step_h = cauchy if gain(cauchy) > gain(step_h) else step_h
            r_new, jac_new = yield x + d * step_h
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
    names, fold, log_bounds = _space(ccdf, config)
    problem = FitProblem(ccdf, config.grid_points, config.quad_tol)
    x0 = np.log([getattr(guess, n) for n in names])  # initial_guess clips into the box
    starts = [x0 + 0.3 * np.random.default_rng((config.seed, 1, k)).standard_normal(x0.size)
              if k else x0 for k in range(config.restarts)]
    runs = _lockstep([problem] * len(starts), fold, starts, log_bounds, config.opt_tol)
    x, value, converged, calls, jac = min(runs, key=lambda run: run[1])

    params = Params(*np.exp(fold @ x))
    gaps = np.minimum(x - log_bounds[:, 0], log_bounds[:, 1] - x)
    saturated = [name for name, gap in zip(names, gaps) if gap < 1e-3]
    # The residual Jacobian's spectrum at the fit: which log-parameter combinations the data fix.
    _, singular, vt = np.linalg.svd(jac, full_matrices=False)
    weakest = vt[-1] * np.sign(vt[-1][np.argmax(np.abs(vt[-1]))])  # largest weight positive
    return FitResult(
        params=params,
        objective=value,
        iterations=calls,
        converged=converged,
        restarts_used=config.restarts,
        diagnostics={"bound_saturated": saturated, "misfit_calls": sum(run[3] for run in runs),
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
        raise ConfigError(f"bootstrap needs >= 20 resamples, got {config.bootstrap_resamples}")
    names, fold, log_bounds = _space(empirical_ccdf(ds), config)
    x0 = np.log([getattr(center, name) for name in names])
    problems = [FitProblem(empirical_ccdf(Dataset(values=ds.values[idx])), config.grid_points,
                           config.quad_tol) for idx in _resamples(ds, config)]
    runs = _lockstep(problems, fold, [x0] * len(problems), log_bounds, config.opt_tol)
    failed = sum(not run[2] for run in runs)
    draws = [np.exp(fold @ run[0]) for run in runs]
    if 2 * failed > config.bootstrap_resamples:
        raise UnreliableErrorsError(
            f"{failed}/{config.bootstrap_resamples} bootstrap refits failed to converge"
        )
    spread = np.std(np.asarray(draws), axis=0, ddof=1)
    return dict(zip(model_mod.params_to_dict(center), spread.tolist()))


def _resamples(ds: Dataset, config: FitConfig):
    """Each bootstrap task's record indices, drawn with replacement with probability
    proportional to weight, in ascending order.

    Task k's draw is the multiset ``Generator.choice(n, n, p=weights / sum)`` takes from the
    stream seeded by (config.seed, 2, k): the same uniforms searched in the same cumulative
    probabilities, but sorted first, so the indices ascend and the resample of the sorted
    values arrives sorted.
    """
    n = len(ds)
    cdf = np.cumsum(ds.weights / ds.weights.sum())
    cdf /= cdf[-1]
    for k in range(config.bootstrap_resamples):
        yield cdf.searchsorted(np.sort(np.random.default_rng((config.seed, 2, k)).random(n)),
                               side="right")


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


minimize = _minimize_from  # bench/tracing.py wraps this name; the fit calls _minimize_from
