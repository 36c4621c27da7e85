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

A sweep's ascending knots split, by one binary search for the cutoff,
into contiguous runs: series segments, at most one segment straddling the
cutoff (series head, then a one-panel batch of its own) and Gauss-Kronrod
segments.  The series primitive is taken once per knot and once at the
cutoff.  A panel batch that passes in its first round returns as it is.
No panel moves between batches: BLAS may round a row differently elsewhere.

No other module knows the substitution: :func:`branch_log_masses` maps
incomes to v, checks the sweep's tolerance and returns log masses in
income space, scaled back by m0 * exp(-beta*pi/2).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonNormalizableError, QuadratureError

__all__ = ["branch_log_masses", "kernel_log_cumulative", "kernel_log_mass"]

_HALF_PI = math.pi / 2.0

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
_LOG_SERIES_REL_ERR = math.log(_SERIES_REL_ERR)
_TINY_WIDTH = 8.0 * np.finfo(float).eps  # relative panel width below which a panel passes
_MAX_BATCH_PANELS = 200_000


# ---------------------------------------------------------------------------
# Branch-kernel machinery in the reflected variable v = pi/2 - arctan(m/m0)
# ---------------------------------------------------------------------------


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
    c[8] = ((w**4) / 31104.0 - (w**3) / 12960.0 + w * w * (1.0 / 17010.0 + 1.0 / 64800.0)
            - w / 37800.0)
    e = np.array([beta**k / math.factorial(k) for k in range(_SERIES_ORDER)])
    return np.convolve(e, c)[:_SERIES_ORDER]


def _log_series_primitive(x, alpha: float, d: np.ndarray):
    """log S(x) with S(x) = integral_0^x exp(beta*v) sin(v)^(alpha-1) dv.

    Valid for 0 <= x <= the series cutoff; ``d`` carries beta.  Returns -inf at x = 0.
    """
    js = np.arange(_SERIES_ORDER)
    poly = (d / (alpha + js)) * x[:, None] ** js[None, :]
    return alpha * np.log(x) + np.log(poly.sum(axis=1))


def _log_series_increment(log_lo, log_hi):
    """log(S(x_hi) - S(x_lo)) from log S at both ends; -inf unless the increment is positive."""
    delta = -np.expm1(log_lo - log_hi)
    return np.where(delta > 0.0, log_hi + np.log(delta), -np.inf)


def _gk_panel_batch(lo, hi, beta, alpha, rel_tol):
    """Evaluate one Gauss-Kronrod panel per segment, scaled by exp(-beta*hi).

    Returns (log_value, log_error, accepted) where log_value and
    log_error already include the +beta*hi exponent, so contributions
    from different panels combine directly via logaddexp.
    """
    width = hi - lo
    h = 0.5 * width
    # In place on the (panel, node) arrays: the plain expressions' arithmetic, fewer large allocations.
    v = h[:, None] * _GK_NODES
    v += (0.5 * (hi + lo))[:, None]
    f = v - hi[:, None]
    f *= beta
    v = np.log(np.sin(v, out=v), out=v)
    v *= alpha - 1.0
    f += v
    f = np.exp(f, out=f)
    resk = f @ _GK_W
    resg = f @ _G7_W
    v = np.abs(np.subtract(f, (0.5 * resk)[:, None], out=v), out=v)
    resasc = (v @ _GK_W) * h
    val = resk * h
    err = np.abs(resk - resg) * h
    scale = resasc > 0.0
    shrunk = resasc * np.minimum(1.0, (200.0 * err / np.where(scale, resasc, 1.0)) ** 1.5)
    err = np.where(scale & (err > 0.0), shrunk, err)
    tiny = width <= _TINY_WIDTH * np.maximum(hi, 1.0)
    accepted = (err <= 0.5 * rel_tol * val) | (val == 0.0) | tiny
    log_scale = beta * hi
    return log_scale + np.log(val), log_scale + np.log(err), accepted


def _gk_log_segments(lo, hi, beta, alpha, rel_tol):
    """Adaptively integrate exp(beta*v) sin(v)^(alpha-1) over many segments.

    Segments (at least one, none of zero width) must lie inside [series
    cutoff, pi/2].  A failing panel is halved; the width test of
    ``_gk_panel_batch`` passes any panel within about 51 halvings, and past
    ``_MAX_BATCH_PANELS`` panels all are taken.  Returns per-segment
    (log_value, log_error) arrays.
    """
    cur_lo, cur_hi, cur_id = lo, hi, np.arange(lo.size)
    got = []
    spent = 0
    while cur_lo.size:
        spent += cur_lo.size
        log_val, log_err, ok = _gk_panel_batch(cur_lo, cur_hi, beta, alpha, rel_tol)
        if spent > _MAX_BATCH_PANELS:
            ok = np.ones_like(ok)
        if spent == lo.size and ok.all():
            return log_val, log_err  # every panel passed in the first round
        got.append((cur_id[ok], log_val[ok], log_err[ok]))
        bad = ~ok
        blo, bhi, bid = cur_lo[bad], cur_hi[bad], cur_id[bad]
        mid = 0.5 * (blo + bhi)
        cur_lo = np.concatenate([blo, mid])
        cur_hi = np.concatenate([mid, bhi])
        cur_id = np.concatenate([bid, bid])

    ids, vals, errs = map(np.concatenate, zip(*got))
    order = np.argsort(ids, kind="stable")
    ids, vals, errs = ids[order], vals[order], errs[order]
    starts = np.searchsorted(ids, np.arange(lo.size))
    # Every segment is accepted at least once, so reduceat meets no empty group.
    return np.logaddexp.reduceat(vals, starts), np.logaddexp.reduceat(errs, starts)


def kernel_log_cumulative(start_v, points_v, beta, alpha, rel_tol=1e-12):
    """Cumulative log kernel masses in v from ``start_v`` to each point.

    Computes log( integral_{start_v}^{p_k} exp(beta*v) sin(v)^(alpha-1) dv )
    for an increasing array of points.  Zero-width segments contribute
    -inf and are harmless.  Returns (log_cumulative, achieved_rel_error).
    """
    knots = np.concatenate([[start_v], np.asarray(points_v, dtype=float)])
    nseg = knots.size - 1
    cut = _series_cutoff(beta, alpha)
    d = _series_coefficients(beta, alpha)
    # The knots ascend: knots[:n_low] lie at or below the cutoff, so segments [0, n_low - 1)
    # are series segments, segment n_low - 1 straddles the cutoff if it starts below it, and
    # segments from first_gk on start at or above it.
    n_low = int(knots.searchsorted(cut, side="right"))
    straddle = 0 < n_low <= nseg and bool(knots[n_low - 1] < cut)
    first_gk = max(n_low - 1, 0) + straddle
    parts = [(np.empty(0), np.empty(0))]  # (log increments, log errors) of each run
    # divide: log(0) at v = 0 and of panels that sum to 0.  invalid: an overflowed beta (inf) times
    # hi meets log(0) = -inf; the NaN masses make normalize raise a QuadratureError.
    with np.errstate(divide="ignore", invalid="ignore"):
        if first_gk:
            # One primitive per knot and one at the cutoff; neighbours share theirs.
            log_s = _log_series_primitive(np.append(knots[:n_low], cut), alpha, d)
            head = _log_series_increment(log_s[:-1], log_s[1:])
            parts.append((head[:n_low - 1], head[:n_low - 1] + _LOG_SERIES_REL_ERR))
        if straddle:
            gk_val, gk_err = _gk_log_segments(np.array([cut]), knots[n_low:n_low + 1],
                                              beta, alpha, rel_tol)
            parts.append((np.logaddexp(head[-1:], gk_val),
                          np.logaddexp(head[-1:] + _LOG_SERIES_REL_ERR, gk_err)))
        if first_gk < nseg:
            lo, hi = knots[first_gk:-1], knots[first_gk + 1:]
            width = hi > lo
            if width.all():
                gk_val, gk_err = _gk_log_segments(lo, hi, beta, alpha, rel_tol)
            else:  # zero-width segments add -inf and stay out of the panel batch
                gk_val, gk_err = np.full((2, lo.size), -np.inf)
                if width.any():
                    gk_val[width], gk_err[width] = _gk_log_segments(lo[width], hi[width], beta,
                                                                    alpha, rel_tol)
            parts.append((gk_val, gk_err))
    cum_val, cum_err = (np.logaddexp.accumulate(np.concatenate(logs)) for logs in zip(*parts))
    finite = cum_val > -np.inf
    achieved = np.max(cum_err[finite] - cum_val[finite], initial=-np.inf)
    return cum_val, float(np.exp(achieved))


def branch_log_masses(m0, temperature, alpha, top, m, rel_tol):
    """Log kernel masses in income space from each income of ``m`` up to ``top``.

    ``m`` ascends below ``top`` (inf or the breakpoint).  One kernel_log_cumulative
    sweep in v = arctan(m0/m) from v(top) through every v(m), none for an empty ``m``;
    the masses are log m0 - beta*pi/2 plus the sweep, in the order of ``m``.  Raises
    :class:`QuadratureError` if the sweep misses ``rel_tol``.
    """
    if m.size == 0:
        return np.empty(0)
    beta = m0 / temperature
    with np.errstate(divide="ignore", over="ignore"):  # m = 0 maps to pi/2, inf to 0
        v_top = float(np.arctan(m0 / np.asarray(top, dtype=float)))
        v = np.maximum(np.arctan(m0 / np.asarray(m, dtype=float))[::-1], v_top)
    cum, achieved = kernel_log_cumulative(v_top, v, beta, alpha, rel_tol)
    if achieved > rel_tol:
        raise QuadratureError(f"kernel mass up to {top!r} reached relative error "
                              f"{achieved:.3e} (requested {rel_tol:.3e})", achieved_tol=achieved)
    return math.log(m0) - beta * _HALF_PI + cum[::-1]


def kernel_log_mass(m0, temperature, alpha, a, b, rel_tol=1e-12):
    """log of integral_a^b of one branch kernel in income space.

    ``b`` may be inf.  Raises :class:`QuadratureError` if the requested
    relative tolerance is not met and :class:`NonNormalizableError` for
    a divergent improper integral (alpha <= 0 with b = inf).
    """
    if not (0.0 <= a <= b):
        raise DomainError(f"invalid kernel bounds [{a!r}, {b!r}]")
    if not (rel_tol > 0.0):
        raise DomainError(f"rel_tol must be positive, got {rel_tol!r}")
    if a == b:
        return -np.inf
    if alpha <= 0.0 and np.isinf(b):
        raise NonNormalizableError(f"kernel tail exponent alpha={alpha!r} gives a divergent integral")
    return float(branch_log_masses(m0, temperature, alpha, b, np.array([float(a)]), rel_tol)[0])
