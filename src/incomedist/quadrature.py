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

With ``moments`` a sweep also carries the integrals of (pi/2 - v) and of
-log sin v times the integrand: two more weighted sums per panel and, in
the head, two more series primitives, one of them from the alpha-derivative
of the coefficients.  Both weights are positive, so they accumulate in log
space like the masses, with no log of a signed quantity; over the mass they
give the kernel-weighted means behind the derivatives of a branch log mass
by log T (beta times the mean of u = pi/2 - v) and by alpha (the mean of
log sin v).

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


def _series_coefficients(beta: float, alpha: float, by_alpha: bool = False) -> np.ndarray:
    """Taylor coefficients d_j of exp(beta*v) (sin v / v)^(alpha-1), or their alpha-derivatives."""
    w = alpha - 1.0
    c = np.zeros(_SERIES_ORDER)
    if by_alpha:
        c[2] = -1.0 / 6.0
        c[4] = w / 36.0 - 1.0 / 180.0
        c[6] = -w * w / 432.0 + w / 540.0 - 1.0 / 2835.0
        c[8] = (w**3) / 7776.0 - w * w / 4320.0 + 101.0 * w / 680400.0 - 1.0 / 37800.0
    else:
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


def _log_series_moments(x, beta: float, alpha: float, d: np.ndarray):
    """log of integral_0^x g(v) exp(beta*v) sin(v)^(alpha-1) dv for g = pi/2 - v and g = -log sin v.

    Both integrands are positive; same range and -inf at x = 0 as _log_series_primitive.
    """
    js = np.arange(_SERIES_ORDER)
    a = alpha + js
    xj = x[:, None] ** js[None, :]
    log_x = np.log(x)
    log_u = alpha * log_x + np.log(xj @ (_HALF_PI * d / a) - x * (xj @ (d / (a + 1.0))))
    poly = xj @ (d / (a * a) - _series_coefficients(beta, alpha, by_alpha=True) / a)
    log_g = np.where(x > 0.0, alpha * log_x + np.log(poly - log_x * (xj @ (d / a))), -np.inf)
    return log_u, log_g


def _log_series_increment(log_lo, log_hi):
    """log(S(x_hi) - S(x_lo)) from log S at both ends; -inf unless the increment is positive."""
    delta = -np.expm1(log_lo - log_hi)
    return np.where(delta > 0.0, log_hi + np.log(delta), -np.inf)


def _gk_panel_batch(lo, hi, beta, alpha, rel_tol, moments=False):
    """Evaluate one Gauss-Kronrod panel per segment, scaled by exp(-beta*hi).

    Returns ([log_value, log_error], accepted) where log_value and
    log_error already include the +beta*hi exponent, so contributions
    from different panels combine directly via logaddexp.  With
    ``moments`` the list goes on with the logs of the panel integrals of
    (pi/2 - v) and -log sin v times the integrand, scaled alike.
    """
    width = hi - lo
    h = 0.5 * width
    # In place on the (panel, node) arrays: the plain expressions' arithmetic, fewer large allocations.
    v = h[:, None] * _GK_NODES
    v += (0.5 * (hi + lo))[:, None]
    f = v - hi[:, None]
    f *= beta
    if moments:
        u = _HALF_PI - v
    v = np.log(np.sin(v, out=v), out=v)
    if moments:
        neg_log_sin = -v
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
    logs = [log_scale + np.log(val), log_scale + np.log(err)]
    if moments:
        logs += [log_scale + np.log(((f * g) @ _GK_W) * h) for g in (u, neg_log_sin)]
    return logs, accepted


def _gk_log_segments(lo, hi, beta, alpha, rel_tol, moments=False):
    """Adaptively integrate exp(beta*v) sin(v)^(alpha-1) over many segments.

    Segments (at least one, none of zero width) must lie inside [series
    cutoff, pi/2].  A failing panel is halved; the width test of
    ``_gk_panel_batch`` passes any panel within about 51 halvings, and past
    ``_MAX_BATCH_PANELS`` panels all are taken.  Returns the per-segment
    arrays of ``_gk_panel_batch``'s list: (log_value, log_error[, moments]).
    """
    cur_lo, cur_hi, cur_id = lo, hi, np.arange(lo.size)
    got = []
    spent = 0
    while cur_lo.size:
        spent += cur_lo.size
        logs, ok = _gk_panel_batch(cur_lo, cur_hi, beta, alpha, rel_tol, moments)
        if spent > _MAX_BATCH_PANELS:
            ok = np.ones_like(ok)
        if spent == lo.size and ok.all():
            return logs  # every panel passed in the first round
        got.append([cur_id[ok]] + [a[ok] for a in logs])
        bad = ~ok
        blo, bhi, bid = cur_lo[bad], cur_hi[bad], cur_id[bad]
        mid = 0.5 * (blo + bhi)
        cur_lo = np.concatenate([blo, mid])
        cur_hi = np.concatenate([mid, bhi])
        cur_id = np.concatenate([bid, bid])

    ids, *logs = map(np.concatenate, zip(*got))
    order = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[order], np.arange(lo.size))
    # Every segment is accepted at least once, so reduceat meets no empty group.
    return [np.logaddexp.reduceat(a[order], starts) for a in logs]


def kernel_log_cumulative(start_v, points_v, beta, alpha, rel_tol=1e-12, moments=False):
    """Cumulative log kernel masses in v from ``start_v`` to each point.

    Computes log( integral_{start_v}^{p_k} exp(beta*v) sin(v)^(alpha-1) dv )
    for an increasing array of points.  Zero-width segments contribute
    -inf and are harmless.  Returns (log_cumulative, achieved_rel_error).
    With ``moments`` a third element follows: the kernel-weighted means of
    pi/2 - v and of -log sin v over each point's interval, as a (2, n)
    array (NaN where the mass is zero).  They ride on the panels the masses
    accepted, with no error estimate of their own (within 1e-8 relative in
    the tests).  The first two elements are unchanged.
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
    # Per run, the log increments, log errors and (with moments) log moment increments.
    parts = [[np.empty(0)] * (4 if moments else 2)]
    # divide: log(0) at v = 0 and of panels that sum to 0.  invalid: an overflowed beta (inf) times
    # hi meets log(0) = -inf; the NaN masses make normalize raise a QuadratureError.
    with np.errstate(divide="ignore", invalid="ignore"):
        if first_gk:
            # One primitive per knot and one at the cutoff; neighbours share theirs.
            ends = np.append(knots[:n_low], cut)
            log_s = _log_series_primitive(ends, alpha, d)
            head = _log_series_increment(log_s[:-1], log_s[1:])
            heads = [head, head + _LOG_SERIES_REL_ERR]
            if moments:
                heads += [_log_series_increment(log_m[:-1], log_m[1:])
                          for log_m in _log_series_moments(ends, beta, alpha, d)]
            parts.append([a[:n_low - 1] for a in heads])
        if straddle:
            gk = _gk_log_segments(np.array([cut]), knots[n_low:n_low + 1], beta, alpha, rel_tol,
                                  moments)
            parts.append([np.logaddexp(a[-1:], b) for a, b in zip(heads, gk)])
        if first_gk < nseg:
            lo, hi = knots[first_gk:-1], knots[first_gk + 1:]
            width = hi > lo
            if width.all():
                gk = _gk_log_segments(lo, hi, beta, alpha, rel_tol, moments)
            else:  # zero-width segments add -inf and stay out of the panel batch
                gk = np.full((len(parts[0]), lo.size), -np.inf)
                if width.any():
                    gk[:, width] = _gk_log_segments(lo[width], hi[width], beta, alpha, rel_tol,
                                                    moments)
            parts.append(gk)
        cum_val, cum_err, *cum_moments = (np.logaddexp.accumulate(np.concatenate(logs))
                                          for logs in zip(*parts))
        finite = cum_val > -np.inf
        achieved = np.max(cum_err[finite] - cum_val[finite], initial=-np.inf)
        if moments:
            return cum_val, float(np.exp(achieved)), np.exp(np.array(cum_moments) - cum_val)
    return cum_val, float(np.exp(achieved))


def branch_log_masses(m0, temperature, alpha, top, m, rel_tol, moments=False):
    """Log kernel masses in income space from each income of ``m`` up to ``top``.

    ``m`` ascends below ``top`` (inf or the breakpoint).  One kernel_log_cumulative
    sweep in v = arctan(m0/m) from v(top) through every v(m), none for an empty ``m``;
    the masses are log m0 - beta*pi/2 plus the sweep, in the order of ``m``.  Raises
    :class:`QuadratureError` if the sweep misses ``rel_tol``.

    With ``moments``, returns (masses, grad): ``grad`` is a (4, m.size) array of the
    masses' derivatives by log T, by alpha, by log m (the lower end) and by log top,
    each with the others and m0 held.  The masses scale with (T, m0, m, top) together,
    so the derivative by log m0 is 1 minus the sum of the other three scale rows.  A
    zero mass gets zero derivatives.
    """
    if m.size == 0:
        return (np.empty(0), np.empty((4, 0))) if moments else np.empty(0)
    beta = m0 / temperature
    with np.errstate(divide="ignore", over="ignore"):  # m = 0 maps to pi/2, inf to 0
        v_top = float(np.arctan(m0 / np.asarray(top, dtype=float)))
        v = np.maximum(np.arctan(m0 / np.asarray(m, dtype=float))[::-1], v_top)
    cum, achieved, *means = kernel_log_cumulative(v_top, v, beta, alpha, rel_tol,
                                                   moments=moments)
    if achieved > rel_tol:
        raise QuadratureError(f"kernel mass up to {top!r} reached relative error "
                              f"{achieved:.3e} (requested {rel_tol:.3e})", achieved_tol=achieved)
    masses = math.log(m0) - beta * _HALF_PI + cum[::-1]
    if not moments:
        return masses
    mean_u, mean_neg_log_sin = means[0]

    def leibniz(x):  # integrand times sin v cos v = -dv/dlog m at an end, over the mass
        return np.exp(beta * x + alpha * np.log(np.sin(x)) + np.log(np.cos(x)) - cum)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grad = np.array([beta * mean_u, -mean_neg_log_sin, -leibniz(v), leibniz(v_top)])
    return masses, np.where(cum > -np.inf, grad, 0.0)[:, ::-1]


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
