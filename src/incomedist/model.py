"""Two-branch stationary income distribution.

The density on m >= 0 is piecewise

    P(m) = c_low  * k(m; T,  alpha)   for m <  m1
    P(m) = c_high * k(m; T1, alpha1)  for m >= m1

with the branch kernel

    k(m; T, alpha) = exp(-(m0/T) * arctan(m/m0)) / (1 + (m/m0)^2)^((alpha+1)/2).

For m << m0 the kernel reduces to the exponential exp(-m/T); for
m >> m0 it is a power law m^-(alpha+1), so the complementary CDF decays
like m^-alpha.  The breakpoint m1 switches temperature and exponent,
and ``normalize`` fixes c_high/c_low so the density is continuous at m1
while the total mass integrates to one.

Parameters arise from a drift/diffusion description: with drift
A(m) = A0 + a*m below m1 (A0' + a'*m above) and diffusion
B(m) = B0 + b*m^2, the stationary density has exactly the shape above
with alpha = 1 + a/b, alpha1 = 1 + a'/b, T = B0/A0, T1 = B0/A0' and
m0 = sqrt(B0/b).  :func:`from_fp_coefficients` performs that mapping and
:func:`fp_coefficients_for` inverts it for a chosen b.

All evaluation is carried out in log space; realistic parameters put
exponents of order (m0/T)*pi/2 into the branch constants, which is fine
for log arithmetic and fatal for linear arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.optimize import brentq

from . import quadrature
from .errors import (
    DataFormatError,
    DomainError,
    InvalidParamsError,
    NonNormalizableError,
    QuadratureError,
)

__all__ = [
    "Params",
    "FpCoefficients",
    "NormalizedModel",
    "from_fp_coefficients",
    "fp_coefficients_for",
    "normalize",
    "pdf",
    "logpdf",
    "ccdf",
    "logccdf",
    "quantile",
    "sample",
    "tail_slope",
    "params_to_dict",
    "params_from_dict",
    "model_diagnostics",
]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class Params:
    """Distribution parameters, all strictly positive.

    Attributes
    ----------
    t_low, t_high : float
        Effective temperatures (EUR) of the branches below and above the
        breakpoint.
    m0 : float
        Crossover scale (EUR) between exponential bulk and power-law
        behaviour within a branch.
    m1 : float
        Breakpoint income (EUR) separating the branches.
    alpha, alpha1 : float
        Power-law tail exponents of the low and high branch.  ``alpha1``
        governs the true tail; values <= 0 would give infinite mass and
        are rejected outright.
    """

    t_low: float
    t_high: float
    m0: float
    m1: float
    alpha: float
    alpha1: float

    def __post_init__(self):
        for name in ("t_low", "t_high", "m0", "m1", "alpha", "alpha1"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise InvalidParamsError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.alpha1 <= 0.0:
            raise NonNormalizableError(
                f"alpha1={self.alpha1!r} <= 0: the high-branch tail mass diverges"
            )
        for name in ("t_low", "t_high", "m0", "m1", "alpha"):
            if getattr(self, name) <= 0.0:
                raise InvalidParamsError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class FpCoefficients:
    """Drift and diffusion coefficients of the income Langevin dynamics.

    Drift is A(m) = a0_low + a_low * m below the breakpoint and
    a0_high + a_high * m above it; diffusion is B(m) = b0 + b * m**2.
    ``m_init`` records the lowest admissible income and defaults to 0.
    """

    a0_low: float
    a_low: float
    a0_high: float
    a_high: float
    b0: float
    b: float
    m_init: float = 0.0

    def __post_init__(self):
        for name in ("a0_low", "a_low", "a0_high", "a_high", "b0", "b", "m_init"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise InvalidParamsError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.b <= 0.0 or self.b0 <= 0.0:
            raise InvalidParamsError(
                f"diffusion must be positive: b0={self.b0!r}, b={self.b!r}"
            )


def from_fp_coefficients(coeffs: FpCoefficients, m1: float) -> Params:
    """Map drift/diffusion coefficients to distribution parameters.

    Parameters
    ----------
    coeffs : FpCoefficients
    m1 : float
        Breakpoint income (EUR) at which the drift switches.

    Returns
    -------
    Params
        With alpha = 1 + a/b, alpha1 = 1 + a'/b, T = B0/A0, T1 = B0/A0'
        and m0 = sqrt(B0/b).
    """
    if coeffs.a0_low <= 0.0 or coeffs.a0_high <= 0.0:
        raise InvalidParamsError(
            "constant drift terms must be positive to define temperatures: "
            f"a0_low={coeffs.a0_low!r}, a0_high={coeffs.a0_high!r}"
        )
    return Params(
        t_low=coeffs.b0 / coeffs.a0_low,
        t_high=coeffs.b0 / coeffs.a0_high,
        m0=math.sqrt(coeffs.b0 / coeffs.b),
        m1=m1,
        alpha=1.0 + coeffs.a_low / coeffs.b,
        alpha1=1.0 + coeffs.a_high / coeffs.b,
    )


def fp_coefficients_for(params: Params, b: float = 1.0) -> FpCoefficients:
    """Drift/diffusion coefficients realizing ``params`` for a chosen b."""
    if b <= 0.0 or not math.isfinite(b):
        raise InvalidParamsError(f"b must be positive and finite, got {b!r}")
    b0 = params.m0 * params.m0 * b
    return FpCoefficients(
        a0_low=b0 / params.t_low,
        a_low=(params.alpha - 1.0) * b,
        a0_high=b0 / params.t_high,
        a_high=(params.alpha1 - 1.0) * b,
        b0=b0,
        b=b,
    )


def _log_kernel(m, m0: float, beta: float, alpha: float):
    """Log of the branch kernel at income m (vectorized)."""
    r = np.asarray(m, dtype=float) / m0
    return -beta * np.arctan(r) - 0.5 * (alpha + 1.0) * np.log1p(r * r)


def _log_kernel_ratio_at_m1(params: Params) -> float:
    """log of k_low(m1)/k_high(m1); fixes c_high/c_low by continuity."""
    u1 = math.atan(params.m1 / params.m0)
    r2 = (params.m1 / params.m0) ** 2
    return (params.m0 / params.t_high - params.m0 / params.t_low) * u1 + 0.5 * (
        params.alpha1 - params.alpha
    ) * math.log1p(r2)


@dataclass(frozen=True)
class NormalizedModel:
    """A :class:`Params` bundle with branch constants fixed.

    ``log_c_low`` and ``log_c_high`` are the primary representation; the
    linear ``c_low``/``c_high`` properties can overflow for extreme
    parameter combinations and exist for diagnostics.  Evaluation is
    pure and safe to share across threads; the lazily built sampling
    table is memoized idempotently.
    """

    params: Params
    log_c_low: float
    log_c_high: float
    log_ccdf_at_m1: float
    quad_tol: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def c_low(self) -> float:
        return float(np.exp(self.log_c_low))

    @property
    def c_high(self) -> float:
        return float(np.exp(self.log_c_high))

    def continuity_gap(self) -> float:
        """Relative mismatch of the two branch densities at m1."""
        delta = (self.log_c_low - self.log_c_high) + _log_kernel_ratio_at_m1(self.params)
        return abs(math.expm1(delta))


def normalize(params: Params, quad_tol: float = 1e-10) -> NormalizedModel:
    """Fix the branch constants so the density is continuous and has unit mass.

    Parameters
    ----------
    params : Params
    quad_tol : float
        Relative tolerance for the kernel quadratures, in (0, 1e-6].

    Returns
    -------
    NormalizedModel

    Raises
    ------
    QuadratureError
        If a branch mass cannot be integrated to ``quad_tol``.
    """
    return _normalize_on(params, quad_tol, np.empty(0))[0]


def _log_masses(m0, temperature, alpha, start_v, points_v, end_v, quad_tol):
    """Log kernel masses, as kernel_log_mass gives them, from start_v to each point and end_v."""
    beta = m0 / temperature
    cum, achieved = quadrature.kernel_log_cumulative(
        start_v, np.append(points_v, end_v), beta, alpha, quad_tol)
    if achieved > quad_tol:
        raise QuadratureError(f"branch quadrature reached {achieved:.3e} > {quad_tol:.3e}",
                              achieved_tol=achieved)
    return math.log(m0) - beta * _HALF_PI + cum


def _normalize_on(p: Params, quad_tol: float, m: np.ndarray):
    """:func:`normalize` and the log CCDF at ascending incomes ``m``.

    One sweep per branch in v = arctan(m0/m): low over {v1, v(m < m1)..., pi/2},
    high over {0, v(m >= m1)..., v1}; each branch mass is its sweep's last knot.
    With no incomes these are the knots of kernel_log_mass, so the constants equal it.
    """
    if not (0.0 < quad_tol <= 1e-6):
        raise DomainError(f"quad_tol must lie in (0, 1e-6], got {quad_tol!r}")
    v1 = float(quadrature._v_of_m(p.m1, p.m0))
    v = quadrature._v_of_m(m, p.m0)[::-1]  # ascending, so m >= m1 comes first
    n_high = m.size - int(np.searchsorted(m, p.m1))
    low = _log_masses(p.m0, p.t_low, p.alpha, v1, np.maximum(v[n_high:], v1), _HALF_PI, quad_tol)
    high = _log_masses(p.m0, p.t_high, p.alpha1, 0.0, v[:n_high], v1, quad_tol)
    log_ratio = _log_kernel_ratio_at_m1(p)
    log_c_low = -np.logaddexp(low[-1], log_ratio + high[-1])
    log_c_high = log_c_low + log_ratio
    if not (math.isfinite(log_c_low) and math.isfinite(log_c_high)):
        raise QuadratureError(f"branch constants are not finite for {p!r}", achieved_tol=math.nan)
    log_ccdf_at_m1 = float(log_c_high + high[-1])
    model = NormalizedModel(params=p, log_c_low=float(log_c_low), log_c_high=float(log_c_high),
                            log_ccdf_at_m1=log_ccdf_at_m1, quad_tol=quad_tol,
                            _cache={"v1": v1, "beta_low": p.m0 / p.t_low, "beta_high": p.m0 / p.t_high})
    out = np.concatenate([log_c_high + high[:-1], np.logaddexp(log_ccdf_at_m1, log_c_low + low[:-1])])
    return model, out[::-1]


def _validate_incomes(m):
    arr = np.asarray(m, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise DomainError("income values must be finite and >= 0")
    return arr


def logpdf(model: NormalizedModel, m):
    """Log density at income m (scalar or array)."""
    arr = _validate_incomes(m)
    p = model.params
    low = _log_kernel(arr, p.m0, p.m0 / p.t_low, p.alpha) + model.log_c_low
    high = _log_kernel(arr, p.m0, p.m0 / p.t_high, p.alpha1) + model.log_c_high
    out = np.where(arr < p.m1, low, high)
    return float(out) if np.isscalar(m) else out


def pdf(model: NormalizedModel, m):
    """Probability density at income m (EUR^-1); scalar in, scalar out.

    The density is strictly decreasing, continuous at the breakpoint by
    construction, and behaves like exp(-m/T) for m much smaller than m0
    and like m^-(alpha1+1) deep in the tail.
    """
    out = np.exp(logpdf(model, m))
    return float(out) if np.isscalar(m) else out


def branch_logpdf(model: NormalizedModel, m, branch: str):
    """Log density of one branch's formula, ignoring the breakpoint."""
    p = model.params
    if branch == "low":
        return _log_kernel(m, p.m0, p.m0 / p.t_low, p.alpha) + model.log_c_low
    if branch == "high":
        return _log_kernel(m, p.m0, p.m0 / p.t_high, p.alpha1) + model.log_c_high
    raise DomainError(f"unknown branch {branch!r}; expected 'low' or 'high'")


def logccdf(model: NormalizedModel, m):
    """Log complementary CDF at income m (scalar or array).

    Each evaluation integrates the normalized density from m to
    infinity with the same quadrature machinery used by
    :func:`normalize`; requesting many points at once shares one sweep.
    """
    arr = _validate_incomes(m)
    p = model.params
    uniq, inverse = np.unique(arr.ravel(), return_inverse=True)
    out = np.empty(uniq.shape)
    m0 = p.m0
    v1 = model._cache["v1"]
    log_m0 = math.log(m0)

    high = uniq >= p.m1
    if np.any(high):
        beta = model._cache["beta_high"]
        pts = quadrature._v_of_m(uniq[high], m0)[::-1]  # ascending v
        cum, achieved = quadrature.kernel_log_cumulative(
            0.0, pts, beta, p.alpha1, model.quad_tol
        )
        if achieved > model.quad_tol:
            raise QuadratureError(
                f"tail CCDF quadrature reached {achieved:.3e} (requested {model.quad_tol:.3e})",
                achieved_tol=achieved,
            )
        out[high] = model.log_c_high + log_m0 - beta * _HALF_PI + cum[::-1]
    low = ~high
    if np.any(low):
        beta = model._cache["beta_low"]
        pts = np.maximum(quadrature._v_of_m(uniq[low], m0)[::-1], v1)
        cum, achieved = quadrature.kernel_log_cumulative(
            v1, pts, beta, p.alpha, model.quad_tol
        )
        if achieved > model.quad_tol:
            raise QuadratureError(
                f"bulk CCDF quadrature reached {achieved:.3e} (requested {model.quad_tol:.3e})",
                achieved_tol=achieved,
            )
        partial = model.log_c_low + log_m0 - beta * _HALF_PI + cum[::-1]
        out[low] = np.logaddexp(model.log_ccdf_at_m1, partial)

    result = out[inverse].reshape(arr.shape)
    return float(result) if np.isscalar(m) else result


def ccdf(model: NormalizedModel, m):
    """Complementary CDF: probability of an income strictly above m."""
    out = np.exp(logccdf(model, m))
    return float(out) if np.isscalar(m) else out


def _sample_table(model: NormalizedModel):
    """Monotone (log m, log ccdf) table for inverse-CCDF interpolation."""
    table = model._cache.get("table")
    if table is not None:
        return table
    p = model.params
    # Low anchor: CDF(m) ~ c_low * m near zero, aim for CDF ~ 1e-10.
    log_m_lo = math.log(1e-10) - model.log_c_low
    m_lo = math.exp(min(log_m_lo, math.log(p.t_low)))
    m_hi = 10.0 * max(p.m1, p.m0, p.t_low, p.t_high)
    target = math.log(1e-13)
    for _ in range(300):
        if logccdf(model, m_hi) < target or m_hi > 1e280:
            break
        m_hi *= 10.0
    grid = np.geomspace(m_lo, m_hi, 4096)
    log_m = np.log(grid)
    log_p = logccdf(model, grid)
    # Ascending in log ccdf for np.interp.
    table = (log_p[::-1].copy(), log_m[::-1].copy())
    model._cache["table"] = table
    return table


def quantile(model: NormalizedModel, p: float) -> float:
    """Income m with ccdf(m) = p, solved to ~1e-12 relative in p.

    Parameters
    ----------
    p : float
        Tail probability in (0, 1).
    """
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError(f"quantile probability must lie in (0, 1), got {p!r}")
    log_p_grid, log_m_grid = _sample_table(model)
    target = math.log(p)
    y0 = float(np.interp(target, log_p_grid, log_m_grid))

    def g(y: float) -> float:
        return float(logccdf(model, math.exp(y))) - target

    lo, hi = y0 - 0.05, y0 + 0.05
    glo, ghi = g(lo), g(hi)
    width = 0.1
    for _ in range(80):
        if glo > 0.0 >= ghi:
            break
        width *= 2.0
        if glo <= 0.0:  # ccdf too small already: move left
            lo -= width
            glo = g(lo)
        else:
            hi += width
            ghi = g(hi)
    else:
        raise QuadratureError(f"failed to bracket quantile({p!r})")
    if glo == 0.0:
        return math.exp(lo)
    root = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return math.exp(root)


def sample(model: NormalizedModel, n: int, seed) -> np.ndarray:
    """Draw n independent incomes by inverse-CCDF of seeded uniforms.

    The inverse is interpolated from a dense precomputed table, which
    keeps the distributional error orders of magnitude below sampling
    noise for any realistic n while staying deterministic: equal seeds
    give bitwise-equal output.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    log_p_grid, log_m_grid = _sample_table(model)
    u = np.random.default_rng(seed).random(int(n))
    with np.errstate(divide="ignore"):
        return np.exp(np.interp(np.log(u), log_p_grid, log_m_grid))


def tail_slope(model: NormalizedModel, m_lo: float, m_hi: float, k: int = 64) -> float:
    """Least-squares slope of log10 ccdf against log10 m on [m_lo, m_hi].

    Intended for the pure power-law region, so m_lo must not undercut
    the breakpoint; the slope there converges to -alpha1.
    """
    if not (model.params.m1 <= m_lo < m_hi):
        raise DomainError(
            f"slope window [{m_lo!r}, {m_hi!r}] must satisfy m1 <= m_lo < m_hi"
        )
    if k < 2:
        raise DomainError(f"need at least two points, got k={k!r}")
    grid = np.geomspace(m_lo, m_hi, int(k))
    x = np.log10(grid)
    y = logccdf(model, grid) / math.log(10.0)
    return float(np.polyfit(x, y, 1)[0])


_PARAM_KEYS = {"T": "t_low", "T1": "t_high", "m0": "m0", "m1": "m1",
               "alpha": "alpha", "alpha1": "alpha1"}


def params_to_dict(params: Params) -> dict:
    """Flat JSON-ready mapping with keys T, T1, m0, m1, alpha, alpha1."""
    return {key: getattr(params, attr) for key, attr in _PARAM_KEYS.items()}


def params_from_dict(doc: Mapping) -> Params:
    """Inverse of :func:`params_to_dict`; unknown keys are ignored."""
    missing = [key for key in _PARAM_KEYS if key not in doc]
    if missing:
        raise DataFormatError(f"parameter document lacks keys: {', '.join(missing)}")
    try:
        kwargs = {attr: float(doc[key]) for key, attr in _PARAM_KEYS.items()}
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"non-numeric parameter value: {exc}") from None
    return Params(**kwargs)


def model_diagnostics(model: NormalizedModel) -> dict:
    """Serialized diagnostics of a normalized model."""
    return {
        **params_to_dict(model.params),
        "c_low": model.c_low,
        "c_high": model.c_high,
        "log_c_low": model.log_c_low,
        "log_c_high": model.log_c_high,
        "quad_tol": model.quad_tol,
    }
