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
with alpha = 1 + a/b, alpha1 = 1 + a'/b, T = B0/A0, T1 = B0/A0',
m0 = sqrt(B0/b) and m1 the drift's breakpoint.  :func:`fp_coefficients_for`
gives the coefficients, m1 among them, realizing a parameter set for a chosen b.

All evaluation is carried out in log space; realistic parameters put
exponents of order (m0/T)*pi/2 into the branch constants, which is fine
for log arithmetic and fatal for linear arithmetic.  The branch kernel
masses come from :mod:`quadrature` in income space; this module only
composes the branch constants and the CCDF from them.  One quadrature
call sweeps both branches of a model, or of a batch of parameter points
(each with its own incomes), and each point is then composed alone:
:func:`normalize` and :func:`logccdf` are batches of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import quadrature
from .errors import (DataFormatError, DomainError, InvalidParamsError, NonNormalizableError,
                     QuadratureError, _integer, _nonnegative_array, _raised, _real)

__all__ = ["Params", "FpCoefficients", "NormalizedModel", "fp_coefficients_for", "normalize",
           "pdf", "logpdf", "ccdf", "logccdf", "quantile", "sample",
           "params_to_dict", "params_from_dict"]

_LOG_FLOAT_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))


def _store_floats(obj, positive) -> None:
    """Store each field of a frozen dataclass as a finite float, > 0 if its name is in ``positive``."""
    for name, value in list(vars(obj).items()):  # the fields, in order
        lo = 0.0 if name in positive else -math.inf
        object.__setattr__(obj, name, _real(value, name, InvalidParamsError, lo))


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
        _store_floats(self, ("t_low", "t_high", "m0", "m1", "alpha"))
        if self.alpha1 <= 0.0:
            raise NonNormalizableError(f"alpha1={self.alpha1!r} <= 0: the high-branch tail mass diverges")


@dataclass(frozen=True)
class FpCoefficients:
    """Drift and diffusion coefficients of the income Langevin dynamics.

    Drift is A(m) = a0_low + a_low * m below the breakpoint m1 and
    a0_high + a_high * m from m1 on; diffusion is B(m) = b0 + b * m**2.
    """

    a0_low: float
    a_low: float
    a0_high: float
    a_high: float
    b0: float
    b: float
    m1: float

    def __post_init__(self):
        _store_floats(self, ("b0", "b", "m1"))  # the diffusion and the breakpoint


def fp_coefficients_for(params: Params, b: float = 1.0) -> FpCoefficients:
    """Drift/diffusion coefficients realizing ``params`` for a chosen b."""
    b = _real(b, "b", InvalidParamsError, 0.0)
    b0 = params.m0 * params.m0 * b
    return FpCoefficients(
        a0_low=b0 / params.t_low,
        a_low=(params.alpha - 1.0) * b,
        a0_high=b0 / params.t_high,
        a_high=(params.alpha1 - 1.0) * b,
        b0=b0,
        b=b,
        m1=params.m1,
    )


def _log_kernel(m, m0: float, beta: float, alpha: float):
    """Log of the branch kernel at income m (vectorized)."""
    r = np.asarray(m, dtype=float) / m0
    s = np.maximum(r, 1.0)  # log1p(r^2) as 2 log s + log1p(min(r, 1/s)^2): no overflow
    log1p_r2 = 2.0 * np.log(s) + np.log1p(np.minimum(r, 1.0 / s) ** 2)
    return -beta * np.arctan(r) - 0.5 * (alpha + 1.0) * log1p_r2


def _log_kernel_ratio_at_m1(params: Params) -> float:
    """log of k_low(m1)/k_high(m1); fixes c_high/c_low by continuity.  Past m1/m0 = 1e154
    it is NaN or infinite, and :func:`normalize` refuses the branch constants it gives."""
    r = params.m1 / params.m0
    return (params.m0 / params.t_high - params.m0 / params.t_low) * math.atan(r) + 0.5 * (
        params.alpha1 - params.alpha
    ) * math.log1p(r * r)


@dataclass(frozen=True)
class NormalizedModel:
    """A :class:`Params` bundle with branch constants fixed.

    The branch constants are kept as ``log_c_low`` and ``log_c_high``.
    Evaluation is pure and safe to share across threads; the lazily
    built sampling table (cubic Hermite, from one log CCDF sweep), which
    :func:`sample` and :func:`quantile` read, is memoized idempotently.
    """

    params: Params
    log_c_low: float
    log_c_high: float
    log_ccdf_at_m1: float
    quad_tol: float

    def continuity_gap(self) -> float:
        """Relative mismatch of the two branch densities at m1."""
        delta = (self.log_c_low - self.log_c_high) + _log_kernel_ratio_at_m1(self.params)
        return abs(math.expm1(delta))

    @functools.cached_property
    def _sample_table(self):
        """Cubic Hermite table of log m in log CCDF, for inverse-CCDF interpolation.

        Returns (log_s, knots, coef): the knots' log CCDF, ascending as m descends; its
        running maximum, where each interval starts; and per interval the Horner
        coefficients of log m in the distance from that start, a (4, knots - 1) array.
        One :func:`logccdf` sweep takes every knot: dense knots from the CDF's 1e-10 point
        up to rung 0, 10 max(m1, m0, T, T1), placed by :func:`_dense_knots`; m1 and the
        layer below it (:func:`_m1_layer`); and the rungs above (:func:`_tail_rungs`).
        The table ends at the first knot whose log CCDF is below log(1e-13).  The slopes
        d log m / d log S = -S / (m pdf) come from the analytic density, limited per
        interval to three times its secant (Fritsch and Carlson), so each cubic is
        monotone and stays between its knots.
        """
        p = self.params
        # Low anchor: CDF(m) ~ c_low * m near zero, aim for CDF ~ 1e-10.
        log_m_lo = math.log(1e-10) - self.log_c_low
        m_lo = math.exp(min(log_m_lo, math.log(p.t_low)))
        if not m_lo > 0.0:
            # A branch constant this large comes from a low-branch mass
            # that underflowed; the table would start at income 0.
            raise QuadratureError(f"sampling table low anchor exp({log_m_lo:.6g}) underflows "
                                  f"(log c_low = {self.log_c_low:.6g})")
        rung0 = 10.0 * max(p.m1, p.m0, p.t_low, p.t_high)
        if not rung0 < math.inf:
            raise DomainError(f"sampling table rung 0, 10 max(m1, m0, T, T1), overflows for {p!r}")
        parts = [_dense_knots(self, m_lo, rung0), _tail_rungs(p, rung0)]
        if m_lo < p.m1:
            parts += [[p.m1], _m1_layer(self, m_lo)]
        m = np.sort(np.concatenate(parts))
        swept = logccdf(self, m)
        if not np.all(swept <= _log_ccdf_noise(p)):
            raise QuadratureError(f"log CCDF {swept.max()!r} on the sampling table's knots is positive")
        below = np.flatnonzero(swept < math.log(1e-13))
        end = max(below[0] + 1, 2) if below.size else m.size  # one interval at least
        # m descends from here on; a top knot whose CCDF underflowed sits at the float floor.
        m, log_s = m[end - 1::-1], np.maximum(swept[end - 1::-1], _LOG_FLOAT_RANGE[0])
        log_m = np.log(m)
        with np.errstate(over="ignore"):  # a flat stretch of the CCDF: the limit below takes it
            slope = -np.exp(log_s - log_m - logpdf(self, m))
        knots = np.maximum.accumulate(log_s)
        h = np.diff(knots)
        # Equal knots bound no interval that the search can pick: their cubic is left flat.
        flat = h == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = np.where(flat, 0.0, np.diff(log_m) / h)
        d0, d1 = (np.fmax(d, 3.0 * secant) for d in (slope[:-1], slope[1:]))
        h = np.where(flat, 1.0, h)
        coef = np.array([log_m[:-1], d0, (3.0 * secant - 2.0 * d0 - d1) / h,
                         (d0 + d1 - 2.0 * secant) / (h * h)])
        return log_s, knots, coef


_DENSE_KNOTS = 1024  # sampling-table knots from the CDF's 1e-10 point up to rung 0
_DENSE_GRID = 1024  # the analytic grid that places them


def _dense_knots(model: NormalizedModel, m_lo: float, rung0: float) -> np.ndarray:
    """The table's dense knots on [m_lo, rung0), placed where its cubic needs them.

    A cubic's error over a step h in y = log m grows as h^4 r^4, where r is the rate
    d log|s| / dy at which the log-log slope s = -m pdf / S of the CCDF S turns (s is
    constant on a power law, where log m is linear in log S).  Its CDF error is about that
    times m pdf, and its relative CCDF error that times |s|.  On a fine grid in y the
    analytic density gives m pdf, a trapezoid S from rung 0 down (m pdf / alpha1 above
    it) and so s and r; the knots cut the integral of the fourth root of the larger error,
    weighted 100:1 for CDF against relative, times 1 + r, into equal shares.  Where S is
    below 1e-14 the weight is its floor, 1% of the largest.
    """
    y = np.linspace(math.log(m_lo), math.log(rung0), _DENSE_GRID)
    dy = y[1] - y[0]
    log_mass = y + logpdf(model, np.exp(y))  # log(m pdf), the CCDF's density in y
    steps = np.logaddexp(log_mass[1:], log_mass[:-1]) + math.log(0.5 * dy)
    log_s = np.logaddexp.accumulate(
        np.append(steps, log_mass[-1] - math.log(model.params.alpha1))[::-1])[::-1]
    log_slope = log_mass - log_s
    weight = 0.25 * np.maximum(log_mass, log_slope - math.log(100.0)) + np.log1p(
        np.abs(np.gradient(log_slope, dy)))
    weight[log_s < math.log(1e-14)] = -np.inf
    with np.errstate(invalid="ignore"):  # no weight at all: NaN, and the floor takes every point
        weight = np.fmax(np.exp(weight - weight.max()), 0.01)
    share = np.concatenate([[0.0], np.cumsum(weight[1:] + weight[:-1])])
    return np.exp(np.interp(np.linspace(0.0, share[-1], _DENSE_KNOTS + 1)[:-1], share, y))


def _m1_layer(model: NormalizedModel, m_lo: float) -> np.ndarray:
    """Knots just below m1, where a high branch much steeper than the low one leaves a layer.

    With S1 = ccdf(m1) and s1 = m1 pdf(m1) / S1, the CCDF below m1 is about
    S1 (1 + s1 z) in z = 1 - m/m1, so log m turns in log S over z of order 1/s1.  The
    knots run from z = 0.1/s1 to z = 1/2, equally spaced in z^(1/4): the cubic's CDF error
    there is about m1 pdf(m1) times z^3 / (z + 1/s1)^3 times the fourth power of that
    spacing.
    """
    p = model.params
    log_s1 = math.log(p.m1) + logpdf(model, p.m1) - model.log_ccdf_at_m1
    lo, hi = max(0.1 * math.exp(-min(log_s1, 700.0)), 1e-14) ** 0.25, 0.5 ** 0.25
    if not lo < hi:
        return np.empty(0)
    m = p.m1 * (1.0 - np.linspace(lo, hi, math.ceil(160.0 * (hi - lo)) + 1) ** 4)
    return m[m > m_lo]


def _tail_rungs(p: Params, rung0: float) -> np.ndarray:
    """Rung 0 and the decades above it, each cut into as many geometric steps as it needs.

    The rungs run through the first above 1e280 (at most 300 decades up), or the first
    where the CCDF must be below 1e-13: for m >= 10 m0 the kernel falls at least as fast
    as m^-(alpha1 + 1) up to a factor (1 + (m0/m)^2)^((alpha1 + 1)/2), so
    S(rung0 10^k) <= that factor times 10^(-k alpha1).  Above rung 0 log m is linear in
    log S up to terms of order a = (m0/T1) q + (alpha1 + 1) q^2, q = m0/m, so a step h in
    log m errs by about alpha1 h^4 a / 384 relative to S; a decade gets the steps that
    keep this within the smaller of 1e-7 and 1e-9 over its bound on S (at most 64).
    """
    k = np.arange(min(max(math.floor(280.0 - math.log10(rung0)) + 2, 1), 301), dtype=float)
    q = p.m0 / rung0 * 10.0 ** -k
    log_bound = np.minimum(0.5 * (p.alpha1 + 1.0) * math.log1p(q[0] * q[0])
                           - k * p.alpha1 * math.log(10.0), 0.0)
    k = k[:int(np.argmax(np.append(log_bound, -np.inf) < math.log(1e-13))) + 1]
    q = q[:k.size]
    with np.errstate(divide="ignore", over="ignore"):
        tol = np.minimum(1e-9 * np.exp(-log_bound[:k.size]), 1e-7)
        step = (384.0 * tol / (p.alpha1 * ((p.m0 / p.t_high) * q + (p.alpha1 + 1.0) * q * q))) ** 0.25
    steps = np.clip(np.ceil(math.log(10.0) / step), 1, 64).astype(int)
    steps[-1] = 1  # the last rung is the table's end
    first = np.repeat(np.cumsum(steps) - steps, steps)
    return rung0 * 10.0 ** (np.repeat(k, steps) + (np.arange(first.size) - first) / np.repeat(steps, steps))


def normalize(params: Params, quad_tol: float = 1e-10) -> NormalizedModel:
    """Fix the branch constants so the density is continuous and has unit mass.

    Parameters
    ----------
    params : Params
    quad_tol : float
        Relative tolerance for the kernel quadratures, in [2e-13, 1e-6].

    Returns
    -------
    NormalizedModel

    Raises
    ------
    DomainError
        If ``quad_tol`` is not a number in [2e-13, 1e-6].
    QuadratureError
        If a branch mass cannot be integrated to ``quad_tol``, or the branch
        constants are not finite floats.
    """
    quad_tol = _real(quad_tol, "quad_tol", DomainError, *quadrature._TOL_RANGE, closed="both")
    return _raised(_normalize_on([(params, np.empty(0))], quad_tol)[0])[0]


def _sweep(points, quad_tol: float, grad: bool = False):
    """Branch kernel log masses, as kernel_log_mass gives them, for a batch of points.

    ``points`` holds (params, ascending incomes) pairs.  One
    :func:`quadrature.branch_log_masses` call sweeps, for every point, its incomes given
    and no others: the low kernel from each m < m1 up to m1, and the high kernel from each
    m >= m1 up to infinity.  Returns one entry per point: (low, high), each in the order
    of its incomes and with ``grad`` the (masses, derivatives) pair of
    :func:`quadrature.branch_log_masses`, or the :class:`QuadratureError` the point raises
    alone.
    """
    sweeps = []
    for p, m in points:
        i = int(m.searchsorted(p.m1))
        sweeps += [(p.m0, p.t_low, p.alpha, p.m1, i), (p.m0, p.t_high, p.alpha1, math.inf, m.size - i)]
    m0, temperature, alpha, top, sizes = zip(*sweeps)
    incomes = points[0][1] if len(points) == 1 else np.concatenate([m for _p, m in points])
    masses = quadrature.branch_log_masses(m0, temperature, alpha, top, incomes, sizes, quad_tol, grad)
    return [high if isinstance(high, QuadratureError) else low if isinstance(low, QuadratureError)
            else (low, high) for low, high in zip(masses[::2], masses[1::2])]


def _normalize_on(points, quad_tol: float, grad: bool = False):
    """:func:`normalize` and the log CCDF at ascending incomes, for a batch of points.

    ``points`` holds (params, incomes) pairs.  One :func:`_sweep` takes every point's
    incomes with 0 and m1 added, so ``low[0]`` and ``high[0]`` are its whole branch masses
    on [0, m1] and [m1, inf).  With no incomes each sweep is the one kernel_log_mass makes,
    so the constants equal it.  Returns one entry per point: (model, curve) or, with
    ``grad``, (model, curve, jac), where ``jac`` holds the log CCDF's derivatives by the log
    of each parameter, an (m.size, 6) array with columns in :class:`Params` field order; or,
    in its place, the :class:`QuadratureError` the point raises alone.  Callers check ``quad_tol``.
    """
    with_ends = []
    for p, m in points:
        i = int(m.searchsorted(p.m1))
        with_ends.append((p, np.concatenate([[0.0], m[:i], [p.m1], m[i:]])))
    return [branches if isinstance(branches, QuadratureError) else _compose(p, quad_tol, *branches, grad)
            for (p, _m), branches in zip(points, _sweep(with_ends, quad_tol, grad))]


def _compose(p: Params, quad_tol: float, low, high, grad: bool):
    """One point of :func:`_normalize_on` from its branch masses (and derivatives), or, in
    its place, a :class:`QuadratureError` if its branch constants are not finite."""
    if grad:
        (low, d_low), (high, d_high) = low, high
    log_ratio = _log_kernel_ratio_at_m1(p)
    # invalid: infinite masses or ratio (overflowed parameters); refused just below.
    with np.errstate(invalid="ignore"):
        log_c_low = -np.logaddexp(low[0], log_ratio + high[0])
        log_c_high = log_c_low + log_ratio
    if not (math.isfinite(log_c_low) and math.isfinite(log_c_high)):
        return QuadratureError(f"branch constants are not finite for {p!r}")
    log_ccdf_at_m1 = float(log_c_high + high[0])
    model = NormalizedModel(params=p, log_c_low=float(log_c_low), log_c_high=float(log_c_high),
                            log_ccdf_at_m1=log_ccdf_at_m1, quad_tol=quad_tol)
    curve = _log_ccdf_from(model, low[1:], high[1:])
    if not grad:
        return model, curve
    g_low = _branch_grad(d_low, 0, 4, p.alpha)
    g_high = _branch_grad(d_high, 1, 5, p.alpha1)
    g_high[0, 3] += d_high[2, 0]  # the high sweep starts at m1 itself
    # The derivatives of log R, R = k_low(m1)/k_high(m1), by log T, T1, m0, m1, alpha, alpha1.
    r = p.m1 / p.m0
    q, u1, log1p_r2 = r / (1.0 + r * r), math.atan(r), math.log1p(r * r)
    b_low, b_high, a_gap = p.m0 / p.t_low, p.m0 / p.t_high, p.alpha1 - p.alpha
    g_ratio = np.array([b_low * u1, -b_high * u1, (b_high - b_low) * (u1 - q) - a_gap * r * q,
                        (b_high - b_low) * q + a_gap * r * q, -0.5 * p.alpha * log1p_r2,
                        0.5 * p.alpha1 * log1p_r2])
    # log c_low = -log(low mass + R * high mass), weighted by each branch's share of the total.
    # invalid: with T1 << m0 a branch's share can underflow to 0 where its m0 derivative has
    # overflowed to inf; the NaN that 0 * inf leaves in the Jacobian makes the fit penalise the point.
    with np.errstate(invalid="ignore"):
        g_c_low = -(math.exp(low[0] + log_c_low) * g_low[0]
                    + math.exp(log_ratio + high[0] + log_c_low) * (g_ratio + g_high[0]))
    g_c_high = g_c_low + g_ratio
    g_at_m1 = g_c_high + g_high[0]
    # Below m1 the log CCDF is logaddexp(log CCDF(m1), log c_low + low): weight each by its share.
    n_low = low.size - 1
    with np.errstate(invalid="ignore"):  # -inf - -inf where a zero mass meets a zero CCDF
        w_at_m1 = np.exp(log_ccdf_at_m1 - curve[:n_low])[:, None]
        w_low = np.exp(log_c_low + low[1:] - curve[:n_low])[:, None]
    return model, curve, np.concatenate([w_at_m1 * g_at_m1 + w_low * (g_c_low + g_low[1:]),
                                         g_c_high + g_high[1:]])


def _branch_grad(d, t: int, a: int, alpha: float):
    """Branch log-mass derivatives (quadrature.branch_log_masses rows) by log parameters.

    ``t`` and ``a`` are the branch's temperature and exponent columns; the sweep's top
    is m1 (column 3) or inf, and its incomes are data, fixed.
    """
    d_t, d_alpha, d_m, d_top = d
    g = np.zeros((d_t.size, 6))
    g[:, t] = d_t
    g[:, 2] = 1.0 - d_t - d_m - d_top
    g[:, 3] = d_top
    g[:, a] = alpha * d_alpha
    return g


def _log_ccdf_from(model: NormalizedModel, low, high):
    """Log CCDF from the branch masses of :func:`_sweep`, in the order of the incomes."""
    if not low.size:  # no income below m1, as for a single income at or above it
        return model.log_c_high + high
    below = np.logaddexp(model.log_ccdf_at_m1, model.log_c_low + low)
    return np.concatenate([below, model.log_c_high + high]) if high.size else below


def _validate_incomes(m):
    if type(m) is float and 0.0 <= m < math.inf:  # a finite Python float >= 0 has nothing to scan
        return np.float64(m + 0.0)
    return _nonnegative_array(m, "income values", DomainError) + 0.0  # -0.0 + 0.0 is +0.0, which maps to v = pi/2


def logpdf(model: NormalizedModel, m):
    """Log density at income m (scalar or array)."""
    arr, p = _validate_incomes(m), model.params
    out = np.where(arr < p.m1, _log_kernel(arr, p.m0, p.m0 / p.t_low, p.alpha) + model.log_c_low,
                   _log_kernel(arr, p.m0, p.m0 / p.t_high, p.alpha1) + model.log_c_high)
    return float(out) if np.isscalar(m) else out


def pdf(model: NormalizedModel, m):
    """Probability density at income m (EUR^-1); scalar in, scalar out.

    The density is strictly decreasing, continuous at the breakpoint by
    construction, and behaves like exp(-m/T) for m much smaller than m0
    and like m^-(alpha1+1) deep in the tail.
    """
    out = np.exp(logpdf(model, m))
    return float(out) if np.isscalar(m) else out


def logccdf(model: NormalizedModel, m):
    """Log complementary CDF at income m (scalar or array).

    Each evaluation integrates the normalized density from m to
    infinity with the same quadrature machinery used by
    :func:`normalize`; requesting many points at once shares one sweep.
    """
    arr = _validate_incomes(m)
    uniq, inverse = (arr.reshape(1), 0) if arr.size == 1 else np.unique(arr.ravel(), return_inverse=True)
    out = _log_ccdf_from(model, *_raised(_sweep([(model.params, uniq)], model.quad_tol)[0]))
    result = out[inverse].reshape(arr.shape)
    return float(result) if np.isscalar(m) else result


def ccdf(model: NormalizedModel, m):
    """Complementary CDF: probability of an income strictly above m."""
    out = np.exp(logccdf(model, m))
    return float(out) if np.isscalar(m) else out


def _log_ccdf_noise(p: Params) -> float:
    """How far the log CCDF may rise with m by rounding: 1e-6 + 1e-14 m0/min(T, T1)."""
    return 1e-6 + 1e-14 * p.m0 / min(p.t_low, p.t_high)


def quantile(model: NormalizedModel, p: float) -> float:
    """Income m with ccdf(m) = p, to about 1e-12 relative in the smaller of p and 1 - p.

    Safeguarded Halley steps in y = log m on g(y) = logccdf(e^y) - log p, whose slope
    -exp(r), r = y + logpdf - logccdf, and second derivative -exp(r) r'(y), r' = 1 +
    m d log k/dm + exp(r) with k the branch kernel at m, need no quadrature: one log
    CCDF per step.  Where the Halley factor 1 + newton r'/2 is not finite or is <= 1/2,
    the Newton step stands.  It starts from the sampling table's cubic at log p and
    keeps the bracket that the signs of g show.  A step that would leave the bracket
    bisects it, and one without a usable slope moves one unit in y; when |g| has not
    halved it bisects, or doubles the last step toward a side still open.  It ends when
    |g| <= 1e-12 min(1, (1 - p)/p), floored at 1e-15, or when a step stalls below
    1e-15 max(1, |y|), as near p = 1 (where g is flat) or where the log CCDF's
    noise, 1e-6 + 1e-14 m0/min(T, T1), or its steps far below m0 hide the root; the
    stall returns the bracket end of smaller |g| if that is within 1e-6.

    Raises
    ------
    DomainError
        If p is not in (0, 1), or the answer lies outside the float range.
    QuadratureError
        If the sampling table does not build, a log CCDF exceeds ``quad_tol`` or rises
        with m by more than noise, or a stalled search misses log p by more than 1e-6.
    """
    p, params = _real(p, "quantile probability", DomainError, 0.0, 1.0), model.params
    target = math.log(p)
    y = float(_inverse_log_ccdf(model._sample_table, np.array([target]))[0])
    noise = _log_ccdf_noise(params)
    lo, hi, g_lo, g_hi, g_last, step = -math.inf, math.inf, math.inf, -math.inf, math.inf, 0.5
    for _ in range(100):
        m = math.exp(y)
        log_ccdf = logccdf(model, m)
        g = log_ccdf - target
        if not (log_ccdf <= model.quad_tol and max(g - g_lo, g_hi - g) <= noise):
            raise QuadratureError(f"log CCDF {log_ccdf!r} at m = {m!r} is positive or rises with m")
        if abs(g) <= max(1e-12 * min(1.0, (1.0 - p) / p), 1e-15):
            return m
        if y in _LOG_FLOAT_RANGE and (g > 0.0) == (y > 0.0):
            raise DomainError(f"quantile({p!r}) lies outside the float range")
        lo, g_lo, hi, g_hi = (y, g, hi, g_hi) if g > 0.0 else (lo, g_lo, y, g)
        # The branch logpdf picks at m; its log density has logpdf's bits.
        beta, alpha, log_c = ((params.m0 / params.t_low, params.alpha, model.log_c_low) if m < params.m1
                              else (params.m0 / params.t_high, params.alpha1, model.log_c_high))
        r = y + float(_log_kernel(m, params.m0, beta, alpha) + log_c) - log_ccdf  # g'(y) = -exp(r)
        if abs(r) < 700.0:
            # Halley: g''/g' = r'(y) = 1 + m d log k/dm + exp(r), with q = m/m0 and
            # m d log k/dm = -(beta q + (alpha + 1) q^2)/(1 + q^2).  Where the factor is not
            # finite (q^2 overflows) or would more than double the step, Newton's step stands.
            newton = g * math.exp(-r)
            q = m / params.m0
            factor = 1.0 + 0.5 * newton * (1.0 - (beta * q + (alpha + 1.0) * q * q) / (1.0 + q * q)
                                           + math.exp(r))
            if 0.5 < factor < math.inf:
                newton /= factor
        else:
            newton = math.copysign(1.0, g)
        if abs(g) > 0.5 * abs(g_last):  # too slow: bisect, or double the step toward an open side
            step = 0.5 * (lo + hi) - y if math.isfinite(lo + hi) else math.copysign(2.0 * step, g)
        else:
            step = newton if lo < y + newton < hi else 0.5 * (lo + hi) - y
        if abs(step) <= 1e-15 * max(1.0, abs(y)):
            if min(g_lo, -g_hi) <= 1e-6:
                return math.exp(lo if g_lo < -g_hi else hi)
            raise QuadratureError(f"log CCDF jumps past log({p!r}) by {min(g_lo, -g_hi):.3g} "
                                  f"at m = {m!r}")
        y, g_last = min(max(y + step, _LOG_FLOAT_RANGE[0]), _LOG_FLOAT_RANGE[1]), g
    raise QuadratureError(f"quantile({p!r}) did not converge in 100 steps")


def sample(model: NormalizedModel, n: int, seed) -> np.ndarray:
    """Draw n independent incomes by inverse-CCDF of seeded uniforms.

    The inverse is the sampling table's cubic Hermite interpolant of log m in
    log CCDF (about 1,100 knots from one log CCDF sweep, slopes from the
    analytic density), evaluated for the uniforms in ascending order and the
    draws put back in the order drawn, with the bits each uniform gets on its
    own; equal seeds give bitwise-equal output.  Probed at 7 interior
    fractions of every interval, the CDF error is at most 1.6e-10 on the 2010
    row and at alpha1 = 0.2 and 0.05 (the linear 4,096-point table it replaced
    missed by 9.5e-6 to 8.0e-4), and at most 2e-9 where the hypothesis box of
    the tests keeps m0/T and m0/T1 below 1e5 (ROADMAP item 11).
    Raises :class:`QuadratureError` if the table does not build, or if its log
    CCDF rises with m by more than the noise :func:`quantile` allows, and
    :class:`DomainError` for a seed that is not a non-negative integer or a
    sequence of them (None too: its draws would not repeat).
    """
    n = _integer(n, "sample size n", DomainError, 1)
    try:
        if seed is None or isinstance(seed, bool):  # numpy would draw fresh entropy, or take 0 or 1
            raise TypeError
        u = np.random.default_rng(seed).random(n)
    except (TypeError, ValueError):
        raise DomainError(f"seed must be a non-negative integer or a sequence of them, got {seed!r}") from None
    table = model._sample_table
    log_s = table[0]
    if not np.all(log_s >= np.maximum.accumulate(log_s) - _log_ccdf_noise(model.params)):
        raise QuadratureError("the sampling table's log CCDF rises with m")
    with np.errstate(divide="ignore"):
        log_u = np.log(u, out=u)
    order = np.argsort(log_u)
    log_u[order] = _inverse_log_ccdf(table, log_u[order])
    return np.exp(log_u, out=log_u)


def _inverse_log_ccdf(table, x):
    """log m at ascending log CCDF values ``x`` from the sampling table's cubics, clamped
    to its knots; ``x`` is overwritten.  A value's interval is the last that starts at or
    below it (the last interval also takes the last knot), so its bits do not depend on
    the other values; the ascending order lets each interval's coefficients be repeated
    over its run of values rather than gathered one by one."""
    _log_s, knots, coef = table
    np.clip(x, knots[0], knots[-1], out=x)
    counts = np.diff(np.searchsorted(x, knots[1:-1]), prepend=0, append=x.size)
    x -= np.repeat(knots[:-1], counts)
    y = np.repeat(coef[3], counts)
    for c in coef[2::-1]:  # Horner's rule, in place
        y *= x
        y += np.repeat(c, counts)
    return y


_PARAM_KEYS = {"T": "t_low", "T1": "t_high", "m0": "m0", "m1": "m1",
               "alpha": "alpha", "alpha1": "alpha1"}


def params_to_dict(params: Params) -> dict:
    """Flat JSON-ready mapping with keys T, T1, m0, m1, alpha, alpha1."""
    return {key: getattr(params, attr) for key, attr in _PARAM_KEYS.items()}


def params_from_dict(doc: Mapping) -> Params:
    """Inverse of :func:`params_to_dict`; unknown keys are ignored."""
    if not isinstance(doc, Mapping):
        raise DataFormatError(f"parameter document must be a mapping, got {type(doc).__name__}")
    missing = [key for key in _PARAM_KEYS if key not in doc]
    if missing:
        raise DataFormatError(f"parameter document lacks keys: {', '.join(missing)}")
    try:
        if any(isinstance(doc[key], (bool, str, bytes)) for key in _PARAM_KEYS):  # JSON true, false, "38000"
            raise TypeError("a boolean or a string is no number")
        kwargs = {attr: float(doc[key]) for key, attr in _PARAM_KEYS.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"parameter value is not a float: {exc}") from None
    return Params(**kwargs)

