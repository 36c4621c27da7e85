"""Adaptive quadrature for the two-branch income density kernels.

The unnormalized branch kernel is

    k(m) = exp(-(m0/T) * arctan(m/m0)) / (1 + (m/m0)^2)^((alpha+1)/2)

on [0, inf).  Substituting u = arctan(m/m0) turns a kernel integral into

    integral k(m) dm = m0 * integral exp(-beta*u) * cos(u)^(alpha-1) du,

with beta = m0/T, which maps the improper tail to the finite endpoint
u = pi/2.  For alpha < 1 the integrand has an integrable singularity
there, so internally we work in the reflected variable v = pi/2 - u:

    integral = m0 * exp(-beta*pi/2) * integral exp(beta*v) * sin(v)^(alpha-1) dv

where the singular endpoint sits at v = 0 and the tail of the income
axis maps to small v with full floating point resolution (v = arctan(m0/m)).
Near v = 0 the integral is evaluated by a truncated series with a
rigorously small cutoff; elsewhere by Gauss-Kronrod panels that are
subdivided until an embedded error estimate passes.  All kernel masses
are carried as logarithms, because realistic parameters produce
exponents of order m0/T * pi/2 that overflow in linear arithmetic.

Module surface: :class:`QuadResult` and :func:`integrate_adaptive` form
a general-purpose scalar integrator; :func:`branch_mass` integrates one
branch kernel between income bounds.  The lower-level ``kernel_log_*``
functions are shared with :mod:`incomedist.model` and return log masses.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DomainError, NonNormalizableError, QuadratureError

if TYPE_CHECKING:  # pragma: no cover
    from .model import Params

__all__ = ["QuadResult", "integrate_adaptive", "branch_mass"]

_HALF_PI = math.pi / 2.0

# Smallest magnitude that participates in the relative-tolerance test, so
# that integrals which are exactly zero still converge.
_ABS_FLOOR = 1e-300

# 15-point Kronrod extension of 7-point Gauss (nodes for the positive
# half interval, weights aligned; Gauss weights cover nodes 1, 3, 5, 7).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full symmetric 15-node arrays, ascending in [-1, 1].
_GK_NODES = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])
_GK_W = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_G7_W = np.zeros(15)
_G7_W[1:14:2] = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])

_SERIES_ORDER = 9          # coefficients d_0 .. d_8
_SERIES_REL_ERR = 1e-13    # truncation budget enforced by the cutoff
_MAX_SPLIT_ROUNDS = 60
_MAX_BATCH_PANELS = 200_000


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one adaptive integration.

    ``converged`` is honest: it is set only when the accumulated error
    estimate is below ``rel_tol * max(|value|, floor)``, and a result
    that ran out of panel budget comes back with ``converged=False``
    rather than raising.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


def _gk15(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float):
    """One plain Gauss-Kronrod panel; returns (value, error_estimate)."""
    h = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo) + h * _GK_NODES
    fv = np.asarray(f(nodes), dtype=float)
    if not np.all(np.isfinite(fv)):
        # A node landed where the integrand is not finite; claim nothing
        # for this panel and let the infinite estimate block convergence.
        return 0.0, math.inf
    resk = float(fv @ _GK_W)
    resg = float(fv @ _G7_W)
    resasc = float(np.abs(fv - 0.5 * resk) @ _GK_W) * abs(h)
    value = resk * h
    err = abs((resk - resg) * h)
    if resasc > 0.0 and err > 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return value, err


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_panels: int = 4096,
) -> QuadResult:
    """Integrate ``f`` over [a, b] by globally adaptive Gauss-Kronrod panels.

    Parameters
    ----------
    f : callable
        Integrand; must accept a numpy array of abscissae and return
        values elementwise.  It is never evaluated at ``a`` or ``b``
        (all quadrature nodes are interior), so an integrable endpoint
        singularity at ``b`` is acceptable and is resolved by repeated
        bisection toward it.
    a, b : float
        Finite bounds with ``a <= b``.
    rel_tol : float
        Target relative tolerance.
    max_panels : int
        Budget of evaluated panels; when exhausted the best estimate is
        returned with ``converged=False``.

    Returns
    -------
    QuadResult
    """
    if not (rel_tol > 0.0):
        raise DomainError("rel_tol must be positive")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integrate_adaptive requires finite bounds")
    if a > b:
        raise DomainError(f"inverted interval: a={a!r} > b={b!r}")
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)

    value, err = _gk15(f, a, b)
    evaluations = 15
    panels = 1
    # Heap of (-error, tiebreak, lo, hi, value, error).
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value = value
    total_err = err

    while panels < max_panels:
        if total_err <= rel_tol * max(abs(total_value), _ABS_FLOOR):
            break
        if math.isnan(total_err) or math.isnan(total_value):
            break
        neg_err, _, lo, hi, val, er = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating point resolution; keep as is.
            heapq.heappush(heap, (0.0, counter + 1, lo, hi, val, er))
            counter += 1
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evaluations += 30
        panels += 1
        total_value += v1 + v2 - val
        total_err += e1 + e2 - er
        counter += 2
        heapq.heappush(heap, (-e1, counter - 1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))

    # Recompute the totals from the heap to shed accumulated cancellation.
    total_value = math.fsum(entry[4] for entry in heap)
    total_err = math.fsum(entry[5] for entry in heap)
    converged = bool(total_err <= rel_tol * max(abs(total_value), _ABS_FLOOR))
    return QuadResult(total_value, total_err, evaluations, converged)


# ---------------------------------------------------------------------------
# Branch-kernel machinery in the reflected variable v = pi/2 - arctan(m/m0)
# ---------------------------------------------------------------------------


def _v_of_m(m, m0: float):
    """Map income to v = arctan(m0/m); m = 0 gives pi/2, m -> inf gives 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.arctan(m0 / np.asarray(m, dtype=float))


def _series_cutoff(beta: float, alpha: float) -> float:
    """Largest v for which the order-8 series keeps ~1e-13 relative accuracy."""
    cut = min(0.05, 0.1 / max(beta, 1.0))
    w = abs(alpha - 1.0)
    if w > 1.0:
        cut = min(cut, math.sqrt(0.024 / w))
    return cut


def _series_coefficients(beta: float, alpha: float) -> np.ndarray:
    """Taylor coefficients d_j of exp(beta*v) * (sin v / v)^(alpha-1)."""
    w = alpha - 1.0
    c = np.zeros(_SERIES_ORDER)
    c[0] = 1.0
    c[2] = -w / 6.0
    c[4] = w * w / 72.0 - w / 180.0
    c[6] = -(w**3) / 1296.0 + w * w / 1080.0 - w / 2835.0
    c[8] = (
        (w**4) / 31104.0
        - (w**3) / 12960.0
        + w * w * (1.0 / 17010.0 + 1.0 / 64800.0)
        - w / 37800.0
    )
    e = np.array([beta**k / math.factorial(k) for k in range(_SERIES_ORDER)])
    return np.convolve(e, c)[:_SERIES_ORDER]


def _log_series_primitive(x, beta: float, alpha: float, d: np.ndarray):
    """log S(x) with S(x) = integral_0^x exp(beta*v) sin(v)^(alpha-1) dv.

    Valid for 0 <= x <= the series cutoff.  Returns -inf at x = 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(x.shape, -np.inf)
    pos = x > 0.0
    if np.any(pos):
        xp = x[pos]
        js = np.arange(_SERIES_ORDER)
        poly = (d / (alpha + js)) * xp[:, None] ** js[None, :]
        out[pos] = alpha * np.log(xp) + np.log(poly.sum(axis=1))
    return out


def _log_series_increment(x_lo, x_hi, beta: float, alpha: float, d: np.ndarray):
    """log(S(x_hi) - S(x_lo)) for points inside the series region."""
    x_lo = np.atleast_1d(np.asarray(x_lo, dtype=float))
    hi = _log_series_primitive(x_hi, beta, alpha, d)
    out = hi.copy()
    inner = x_lo > 0.0
    if np.any(inner):
        lo = _log_series_primitive(x_lo[inner], beta, alpha, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = -np.expm1(lo - hi[inner])
            out[inner] = hi[inner] + np.log(np.where(delta > 0.0, delta, 0.0))
    return out


def _gk_panel_batch(lo, hi, beta, alpha, rel_tol):
    """Evaluate one Gauss-Kronrod panel per segment, scaled by exp(-beta*hi).

    Returns (log_value, log_error, accepted) where log_value and
    log_error already include the +beta*hi exponent, so contributions
    from different panels combine directly via logaddexp.
    """
    h = 0.5 * (hi - lo)
    v = 0.5 * (hi + lo)[:, None] + h[:, None] * _GK_NODES[None, :]
    with np.errstate(divide="ignore"):
        logf = beta * (v - hi[:, None]) + (alpha - 1.0) * np.log(np.sin(v))
    f = np.exp(logf)
    resk = f @ _GK_W
    resg = f @ _G7_W
    resasc = (np.abs(f - 0.5 * resk[:, None]) @ _GK_W) * h
    val = resk * h
    err = np.abs(resk - resg) * h
    scale = resasc > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        shrunk = resasc * np.minimum(1.0, (200.0 * err / np.where(scale, resasc, 1.0)) ** 1.5)
    err = np.where(scale & (err > 0.0), shrunk, err)
    tiny = (hi - lo) <= 8.0 * np.finfo(float).eps * np.maximum(hi, 1.0)
    accepted = (err <= 0.5 * rel_tol * val) | (val == 0.0) | tiny
    with np.errstate(divide="ignore"):
        log_val = beta * hi + np.log(val)
        log_err = beta * hi + np.log(err)
    return log_val, log_err, accepted


def _gk_log_segments(lo, hi, beta, alpha, rel_tol):
    """Adaptively integrate exp(beta*v) sin(v)^(alpha-1) over many segments.

    Segments must lie inside [series cutoff, pi/2].  Returns per-segment
    (log_value, log_error) arrays.
    """
    nseg = lo.size
    if nseg == 0:
        return np.empty(0), np.empty(0)
    cur_lo, cur_hi = lo.astype(float), hi.astype(float)
    cur_id = np.arange(nseg)
    got_id, got_val, got_err = [], [], []
    spent = 0
    for _ in range(_MAX_SPLIT_ROUNDS):
        if cur_lo.size == 0:
            break
        spent += cur_lo.size
        log_val, log_err, ok = _gk_panel_batch(cur_lo, cur_hi, beta, alpha, rel_tol)
        if spent > _MAX_BATCH_PANELS:
            ok = np.ones_like(ok)
        got_id.append(cur_id[ok])
        got_val.append(log_val[ok])
        got_err.append(log_err[ok])
        bad = ~ok
        if not np.any(bad):
            cur_lo = np.empty(0)
            break
        blo, bhi, bid = cur_lo[bad], cur_hi[bad], cur_id[bad]
        mid = 0.5 * (blo + bhi)
        cur_lo = np.concatenate([blo, mid])
        cur_hi = np.concatenate([mid, bhi])
        cur_id = np.concatenate([bid, bid])
    else:  # pragma: no cover - depth exhausted, keep best estimates
        log_val, log_err, _ = _gk_panel_batch(cur_lo, cur_hi, beta, alpha, rel_tol)
        got_id.append(cur_id)
        got_val.append(log_val)
        got_err.append(log_err)

    ids = np.concatenate(got_id)
    vals = np.concatenate(got_val)
    errs = np.concatenate(got_err)
    order = np.argsort(ids, kind="stable")
    ids, vals, errs = ids[order], vals[order], errs[order]
    starts = np.searchsorted(ids, np.arange(nseg))
    out_val = np.logaddexp.reduceat(vals, starts)
    out_err = np.logaddexp.reduceat(errs, starts)
    # reduceat on an empty group would misbehave, but every segment is
    # accepted at least once by construction.
    return out_val, out_err


def kernel_log_cumulative(start_v, points_v, beta, alpha, rel_tol=1e-12):
    """Cumulative log kernel masses in v from ``start_v`` to each point.

    Computes log( integral_{start_v}^{p_k} exp(beta*v) sin(v)^(alpha-1) dv )
    for an increasing array of points.  Zero-width segments contribute
    -inf and are harmless.  Returns (log_cumulative, achieved_rel_error).
    """
    points_v = np.asarray(points_v, dtype=float)
    knots = np.concatenate([[start_v], points_v])
    seg_lo, seg_hi = knots[:-1], knots[1:]
    nseg = seg_lo.size
    log_inc = np.full(nseg, -np.inf)
    log_err = np.full(nseg, -np.inf)

    cut = _series_cutoff(beta, alpha)
    d = _series_coefficients(beta, alpha)

    width = seg_hi > seg_lo
    in_series = width & (seg_hi <= cut)
    straddle = width & (seg_lo < cut) & (seg_hi > cut)
    in_gk = width & (seg_lo >= cut)

    if np.any(in_series):
        log_inc[in_series] = _log_series_increment(
            seg_lo[in_series], seg_hi[in_series], beta, alpha, d
        )
        log_err[in_series] = log_inc[in_series] + math.log(_SERIES_REL_ERR)
    if np.any(straddle):
        head = _log_series_increment(
            seg_lo[straddle], np.full(straddle.sum(), cut), beta, alpha, d
        )
        gk_val, gk_err = _gk_log_segments(
            np.full(straddle.sum(), cut), seg_hi[straddle], beta, alpha, rel_tol
        )
        log_inc[straddle] = np.logaddexp(head, gk_val)
        log_err[straddle] = np.logaddexp(head + math.log(_SERIES_REL_ERR), gk_err)
    if np.any(in_gk):
        gk_val, gk_err = _gk_log_segments(seg_lo[in_gk], seg_hi[in_gk], beta, alpha, rel_tol)
        log_inc[in_gk] = gk_val
        log_err[in_gk] = gk_err

    cum_val = np.logaddexp.accumulate(log_inc)
    cum_err = np.logaddexp.accumulate(log_err)
    finite = cum_val > -np.inf
    achieved = 0.0
    if np.any(finite):
        achieved = float(np.exp(np.max(cum_err[finite] - cum_val[finite])))
    return cum_val, achieved


def kernel_log_mass(m0, temperature, alpha, a, b, rel_tol=1e-12):
    """log of integral_a^b of one branch kernel in income space.

    ``b`` may be inf.  Raises :class:`QuadratureError` if the requested
    relative tolerance is not met and :class:`NonNormalizableError` for
    a divergent improper integral (alpha <= 0 with b = inf).
    """
    if a < 0.0 or b < a:
        raise DomainError(f"invalid kernel bounds [{a!r}, {b!r}]")
    if a == b:
        return -np.inf
    beta = m0 / temperature
    if alpha <= 0.0 and np.isinf(b):
        raise NonNormalizableError(
            f"kernel tail exponent alpha={alpha!r} gives a divergent integral"
        )
    v_hi = float(_v_of_m(a, m0))
    v_lo = 0.0 if np.isinf(b) else float(_v_of_m(b, m0))
    cum, achieved = kernel_log_cumulative(v_lo, np.array([v_hi]), beta, alpha, rel_tol)
    if achieved > rel_tol:
        raise QuadratureError(
            f"kernel mass on [{a!r}, {b!r}] reached relative error "
            f"{achieved:.3e} (requested {rel_tol:.3e})",
            achieved_tol=achieved,
        )
    return math.log(m0) - beta * _HALF_PI + float(cum[0])


def branch_mass(params: "Params", branch: str, a: float, b: float, rel_tol: float = 1e-12) -> float:
    """Unnormalized mass of one branch kernel over the income interval [a, b].

    Parameters
    ----------
    params : Params
        Distribution parameters; only the scale ``m0`` and the selected
        branch's temperature and exponent are used, so the interval may
        lie anywhere in [0, inf) regardless of the breakpoint.
    branch : {"low", "high"}
        Which branch kernel to integrate.
    a, b : float
        Income bounds, ``0 <= a <= b``; ``b`` may be ``inf``.
    rel_tol : float
        Relative tolerance for the underlying quadrature.

    Returns
    -------
    float
        The kernel integral in EUR units (the kernel itself is
        dimensionless).
    """
    if branch == "low":
        temperature, alpha = params.t_low, params.alpha
    elif branch == "high":
        temperature, alpha = params.t_high, params.alpha1
    else:
        raise DomainError(f"unknown branch {branch!r}; expected 'low' or 'high'")
    log_mass = kernel_log_mass(params.m0, temperature, alpha, a, b, rel_tol)
    return float(np.exp(log_mass))
