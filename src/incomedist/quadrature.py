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

One call integrates a batch of sweeps, each with its own beta, alpha and
start: the branches of one model, or the trial points of many fit runs.  Each
sweep makes one series evaluation, of its segments' parts below its cutoff,
taking the series primitives once per knot up to the cutoff and once at it;
the parts above the cutoffs, of every sweep, go into one batch of
Gauss-Kronrod panels per round, and a segment that straddles its cutoff adds
its two parts.  As in QUADPACK, a panel may pass against its segment's whole
mass, so panels that carry none stop early; each sweep has its own panel
budget and its own achieved tolerance.  The head's sums over its power table
and a panel's sums over its nodes are plain row reductions, not BLAS
products, so a knot's or a panel's bits do not depend on its place in a batch
(numpy does not document this for ``einsum`` or ``sum``;
``TestSeriesHeadBatch``, ``TestPanelBatch`` and ``TestSweepBatch`` check it,
verified on numpy 2.4.6 only).  So a sweep gets the bits it gets alone, and a
sweep that misses its tolerance or overflows is flagged alone.  A first round
whose panels all pass returns as is.

With ``moments`` a sweep also carries the integrals of (pi/2 - v) and of
-log sin v times the integrand: two more weighted sums per panel and, in
the head, two more series primitives, one of them from the coefficients'
alpha-derivative, the series of log(sin v / v) times theirs.  Both weights
are positive, so they accumulate in log space like the masses, with no log
of a signed quantity; over the mass they give the kernel-weighted means
behind the derivatives of a branch log mass by log T (beta times the mean
of u = pi/2 - v) and by alpha (the mean of log sin v).

No other module knows the substitution: :func:`branch_log_masses` maps
incomes to v, checks each sweep's tolerance and returns log masses in
income space, scaled back by m0 * exp(-beta*pi/2); :func:`kernel_log_mass`
is its batch of one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonNormalizableError, QuadratureError, _raised, _real

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
_ROUNDOFF = 50.0 * np.finfo(float).eps  # QUADPACK's (dqk15) floor on a panel's relative error
_TOL_RANGE = (2.0 * max(_ROUNDOFF, _SERIES_REL_ERR), 1e-6)  # twice a sweep's larger error floor
_MAX_BATCH_PANELS = 200_000
_FACTORIALS = [float(math.factorial(k)) for k in range(_SERIES_ORDER)]
_POWERS = np.arange(float(_SERIES_ORDER))  # the series' powers j = 0 .. 8
# ell = -log(sin v / v) = v^2/6 + v^4/180 + v^6/2835 + v^8/37800 + O(v^10).  The series head's
# coefficients d are those of exp(beta*v - (alpha-1)*ell), so their alpha-derivative is -(ell * d).
_NEG_LOG_SINC = np.array([0.0, 0.0, 1.0 / 6.0, 0.0, 1.0 / 180.0, 0.0, 1.0 / 2835.0, 0.0, 1.0 / 37800.0])


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
    """Taylor coefficients d_j of exp(beta*v) (sin v / v)^(alpha-1)."""
    w = alpha - 1.0
    c = np.zeros(_SERIES_ORDER)  # (sin v / v)^w is even in v
    c[0] = 1.0
    c[2] = -w / 6.0
    c[4] = w * w / 72.0 - w / 180.0
    c[6] = -(w**3) / 1296.0 + w * w / 1080.0 - w / 2835.0
    c[8] = ((w**4) / 31104.0 - (w**3) / 12960.0 + w * w * (1.0 / 17010.0 + 1.0 / 64800.0)
            - w / 37800.0)
    e = np.array([beta**k / f for k, f in enumerate(_FACTORIALS)])
    return np.convolve(e, c)[:_SERIES_ORDER]


def _series_rows(d: np.ndarray, alpha: float, moments=False) -> np.ndarray:
    """The head's coefficient rows for :func:`_log_series_primitives` from one sweep's
    coefficients ``d``, as a (rows, 1, 9) array: the mass row d_j / (alpha + j) and, with
    ``moments``, the rows of the (pi/2 - v) and -log sin v primitives, the latter by the
    alpha-derivative of d."""
    a = alpha + _POWERS
    rows = [d / a]
    if moments:  # two (pi/2 - v) rows and a -log sin v row
        d_alpha = -np.convolve(_NEG_LOG_SINC, d)[:_SERIES_ORDER]
        rows += [_HALF_PI * d / a, d / (a + 1.0), d / (a * a) - d_alpha / a]
    return np.array(rows)[:, None, :]


def _log_series_primitives(x, alpha, rows):
    """log S(x) with S(x) = integral_0^x exp(beta*v) sin(v)^(alpha-1) dv, as a (1, x.size) array;
    with the moment rows of :func:`_series_rows`, rows of the same integral of (pi/2 - v)
    and of -log sin v times the integrand follow.

    Valid for 0 <= x <= the series cutoff; ``rows``, from :func:`_series_rows`, carry beta.
    All are -inf at x = 0 and positive above it.  Each is x^alpha times row sums over one
    table of x^j.
    """
    s = np.add.reduce(rows * x[:, None] ** _POWERS, axis=2)
    log_x = np.log(x)
    if rows.shape[0] > 1:  # at x = 0 the -log sin v row would be -inf + inf: log 0 makes it -inf
        s = np.array([s[0], s[1] - x * s[2], np.where(x > 0.0, s[3] - log_x * s[0], 0.0)])
    return alpha * log_x + np.log(s)


def _gk_panel_batch(lo, hi, beta, alpha, rel_tol, moments=False):
    """Evaluate one Gauss-Kronrod panel per segment, scaled by exp(-beta*hi).

    ``beta`` and ``alpha`` hold one value per panel.  Returns (logs, accepted): ``logs`` is
    a (rows, panels) array whose rows, log_value and log_error, already include the +beta*hi
    exponent, so contributions from different panels combine directly via logaddexp.  With
    ``moments`` two rows follow: the logs of the panel integrals of (pi/2 - v) and -log sin v
    times the integrand, scaled alike.
    """
    width = hi - lo
    h = 0.5 * width
    # In place on the (panel, node) arrays: the plain expressions' arithmetic, fewer large allocations.
    v = h[:, None] * _GK_NODES
    v += (0.5 * (hi + lo))[:, None]
    f = v - hi[:, None]
    f *= beta[:, None]
    if moments:
        u = _HALF_PI - v
    v = np.log(np.sin(v, out=v), out=v)
    if moments:
        neg_log_sin = -v
    v *= (alpha - 1.0)[:, None]
    f += v
    f = np.exp(f, out=f)
    resk = np.einsum("pn,n->p", f, _GK_W)
    resg = np.einsum("pn,n->p", f, _G7_W)
    v = np.abs(np.subtract(f, (0.5 * resk)[:, None], out=v), out=v)
    resasc = np.einsum("pn,n->p", v, _GK_W) * h
    val = resk * h
    err = np.abs(resk - resg) * h
    scale = resasc > 0.0
    shrunk = resasc * np.minimum(1.0, (200.0 * err / np.where(scale, resasc, 1.0)) ** 1.5)
    err = np.where(scale & (err > 0.0), shrunk, err)
    np.maximum(err, _ROUNDOFF * val, out=err)  # in place, so a large batch's peak memory does not grow
    tiny = width <= _TINY_WIDTH * np.maximum(hi, 1.0)
    accepted = (err <= 0.5 * rel_tol * val) | tiny
    rows = [val, err]
    if moments:
        rows += [np.einsum("pn,n->p", f * g, _GK_W) * h for g in (u, neg_log_sin)]
    return beta * hi + np.log(np.array(rows)), accepted


def _gk_log_segments(lo, hi, counts, beta, alpha, rel_tol, moments=False):
    """Adaptively integrate exp(beta*v) sin(v)^(alpha-1) over many segments.

    Segments (at least one) lie inside [series cutoff, pi/2]; ``beta`` and ``alpha`` hold
    each segment's kernel parameters, and the segments come in sweeps, the next
    ``counts[s]`` of them in sweep s.  One of zero width passes at once with mass -inf.  A
    panel passes its own test, or when its error is within its width's share of half
    ``rel_tol`` times its segment's mass so far (the accepted panels and this round's), so a
    segment's errors sum to about ``rel_tol`` of its mass at most.  A failing panel is
    halved; the width test passes any panel within about 51 halvings, and once a sweep has
    spent ``_MAX_BATCH_PANELS`` panels in all, every panel of it is taken.  So no segment's
    panels depend on another sweep's.  Returns the running sums, per segment, of the
    accepted panels' (log_value, log_error[, moments]) from ``_gk_panel_batch``.
    """
    logs, ok = _gk_panel_batch(lo, hi, beta, alpha, rel_tol, moments)
    if ok.all():  # a first-round panel is its segment: its own test is the share test
        return logs
    log_share = math.log(0.5 * rel_tol) - np.log(hi - lo)  # per unit width, before the mass
    sums = np.full((logs.shape[0], lo.size), -np.inf)
    sweep = np.arange(len(counts)).repeat(counts)
    spent = np.zeros(len(counts), dtype=int)
    cur_lo, cur_hi, cur_id, owner = lo, hi, np.arange(lo.size), sweep
    while True:
        spent += np.bincount(owner, minlength=spent.size)
        ok |= (spent > _MAX_BATCH_PANELS)[owner]
        np.logaddexp.at(sums, (slice(None), cur_id[ok]), logs[:, ok])
        blo, bhi, bid = (a[~ok] for a in (cur_lo, cur_hi, cur_id))
        if not bid.size:
            return sums
        mid = 0.5 * (blo + bhi)
        cur_lo, cur_hi, cur_id = (np.concatenate(pair) for pair in ((blo, mid), (mid, bhi), (bid, bid)))
        owner = sweep[cur_id]
        logs, ok = _gk_panel_batch(cur_lo, cur_hi, beta[cur_id], alpha[cur_id], rel_tol, moments)
        if not ok.all():
            mass = sums[0].copy()
            np.logaddexp.at(mass, cur_id, logs[0])
            ok |= logs[1] - np.log(cur_hi - cur_lo) <= (log_share + mass)[cur_id]


def kernel_log_cumulative(start_v, points_v, beta, alpha, rel_tol=1e-12, moments=False, *, sizes):
    """Cumulative log kernel masses in v, for a batch of sweeps.

    Sweep s computes log( integral_{start_s}^{p_k} exp(beta_s*v) sin(v)^(alpha_s-1) dv )
    for each of its points, the next ``sizes[s]`` entries of ``points_v``, which increase
    from ``start_v[s]``.  ``start_v``, ``beta`` and ``alpha`` hold one value per sweep.
    Zero-width segments contribute -inf and are harmless.  A sweep gets the bits it gets
    alone: its series head, its panels and its panel budget are its own.  Returns
    (log_cumulative, achieved, achieved_per_sweep): the cumulative masses in the order of
    ``points_v``, the worst relative error the batch achieved and a list of each sweep's (0
    for a sweep with no points or no mass, else about 50 eps at least, the panels' roundoff
    floor, or 1e-13, the series head's budget, if it covers a segment).  A sweep whose head
    would overflow (beta from 1e38, inf included, or |alpha - 1| from 1e76) is not
    integrated: its masses are NaN, it achieves inf, and the worst is over the others.  With
    ``moments`` a fourth element follows: the kernel-weighted means of pi/2 - v and of
    -log sin v over each point's interval, as a (2, n) array (NaN where the mass is zero).
    They ride on the panels the masses accepted, with no error estimate of their own (within
    1e-8 relative in the tests).  The masses and errors are the same without them.
    """
    points = np.asarray(points_v, dtype=float)
    # Per segment, the log increment, log error and (with moments) log moment increments;
    # each sweep's cumulative sums then replace its increments.
    logs = np.full((4 if moments else 2, points.size), -np.inf)
    achieved = [0.0] * len(sizes)
    runs, panels, end = [], [], 0  # the sweeps integrated, as (sweep, first point, end)
    # divide: log(0) at v = 0 and of zero widths and sums.  invalid: inf - inf in a zero width's
    # share test and in a zero mass's error gap.
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, (size, start, b, al) in enumerate(zip(sizes, start_v, beta, alpha)):
            a, end, b, al = end, end + size, float(b), float(al)
            if not size:
                continue
            if not (b < 1e38 and abs(al - 1.0) < 1e76):  # beta**8 and (alpha - 1)**4 stay finite
                logs[:, a:end], achieved[s] = np.nan, math.inf
                continue
            runs.append((s, a, end))
            knots = np.concatenate([[start], points[a:end]])
            cut = _series_cutoff(b, al)
            # The knots ascend and knots[:n_low] lie at or below the cutoff: segment k takes the
            # series up to min(knots[k + 1], cut) if k < n_low and panels from max(knots[k], cut)
            # if k >= n_low - 1.
            n_low = int(knots.searchsorted(cut, side="right"))
            if n_low:
                # One primitive per knot up to the cutoff and one at it, if a knot lies past it.
                rows = _series_rows(_series_coefficients(b, al), al, moments)
                log_s = _log_series_primitives(np.minimum(knots[:n_low + 1], cut), al, rows)
                # log(S(x_hi) - S(x_lo)) from log S at both ends; -inf unless the increment is positive.
                delta = -np.expm1(log_s[:, :-1] - log_s[:, 1:])
                head = np.where(delta > 0.0, log_s[:, 1:] + np.log(delta), -np.inf)
                logs[:, a:a + head.shape[1]] = [head[0], head[0] + _LOG_SERIES_REL_ERR, *head[1:]]
            first = max(n_low - 1, 0)
            if first < size:
                panels.append((a + first, np.maximum(knots[first:-1], cut), knots[first + 1:], b, al))
        if panels:  # one batch of panels for every sweep; a segment that straddles adds its two parts
            firsts, lo, hi, b, al = zip(*panels)
            counts = [x.size for x in lo]
            ends = np.concatenate(lo + hi)  # every lower end, then every upper end
            parts = _gk_log_segments(ends[:ends.size // 2], ends[ends.size // 2:], counts,
                                     *np.array([b, al]).repeat(counts, axis=1), rel_tol, moments)
            p = 0
            for a, count in zip(firsts, counts):
                logs[:, a:a + count] = np.logaddexp(logs[:, a:a + count], parts[:, p:p + count])
                p += count
        for _s, a, end in runs:
            np.logaddexp.accumulate(logs[:, a:end], axis=1, out=logs[:, a:end])
        if runs:  # a sweep's worst error gap over its nonzero masses; a later sweep's gaps are -inf
            gap = np.where(logs[0] > -np.inf, logs[1] - logs[0], -np.inf)
            gaps = np.maximum.reduceat(gap, [a for _s, a, _end in runs])
            for (s, _a, _end), x in zip(runs, np.exp(gaps).tolist()):
                achieved[s] = x
        means = np.exp(logs[2:] - logs[0]) if moments else None
    worst = max((achieved[s] for s, _a, _end in runs), default=0.0)
    return (logs[0], worst, achieved, means) if moments else (logs[0], worst, achieved)


def branch_log_masses(m0, temperature, alpha, top, m, sizes, rel_tol, moments=False):
    """Log kernel masses in income space, for a batch of branch sweeps.

    Sweep s takes the kernel of ``m0[s]``, ``temperature[s]`` and ``alpha[s]`` from each of
    its incomes, the next ``sizes[s]`` entries of ``m``, which ascend below ``top[s]`` (inf or
    the breakpoint), up to ``top[s]``.  One kernel_log_cumulative call in v = arctan(m0/m)
    from v(top) through every v(m) serves every sweep; the masses are log m0 - beta*pi/2
    plus the sweep, in the order of ``m``.  Returns one entry per sweep: its masses or, if it
    misses ``rel_tol``, the :class:`QuadratureError` it raises alone.

    With ``moments``, an entry is (masses, grad): ``grad`` is a (4, size) array of the
    masses' derivatives by log T, by alpha, by log m (the lower end) and by log top, each
    with the others and m0 held.  The masses scale with (T, m0, m, top) together, so the
    derivative by log m0 is 1 minus the sum of the other three scale rows.  A zero mass gets
    zero derivatives.
    """
    betas = [a / b for a, b in zip(m0, temperature)]
    with np.errstate(divide="ignore", over="ignore"):  # m = 0 maps to pi/2, inf to 0
        v_top = np.arctan(np.divide(m0, top))
        v_tops = v_top.repeat(sizes)
        v = np.maximum(np.arctan(np.array(m0).repeat(sizes) / m), v_tops)
    # The sweeps run in v, which falls as m rises: reversing the whole batch reverses each
    # sweep's incomes and the order of the sweeps.
    cum, _worst, achieved, *means = kernel_log_cumulative(
        v_top[::-1], v[::-1], betas[::-1], alpha[::-1], rel_tol, moments, sizes=sizes[::-1])
    cum = cum[::-1]
    masses = np.array([math.log(a) - b * _HALF_PI for a, b in zip(m0, betas)]).repeat(sizes) + cum
    if moments:
        mean_u, mean_neg_log_sin = means[0][:, ::-1]
        beta_m, alpha_m = np.array([betas, alpha]).repeat(sizes, axis=1)

        def leibniz(x):  # integrand times sin v cos v = -dv/dlog m at an end, over the mass
            return np.exp(beta_m * x + alpha_m * np.log(np.sin(x)) + np.log(np.cos(x)) - cum)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grad = np.array([beta_m * mean_u, -mean_neg_log_sin, -leibniz(v), leibniz(v_tops)])
        grad = np.where(cum > -np.inf, grad, 0.0)
    out, end = [], 0
    for beta, top_one, size, sweep_achieved in zip(betas, top, sizes, achieved[::-1]):
        start, end = end, end + size
        if sweep_achieved > rel_tol:
            out.append(QuadratureError(f"kernel mass up to {top_one!r} at beta = {beta!r} reached "
                                       f"relative error {sweep_achieved:.3e} "
                                       f"(requested {rel_tol:.3e})"))
        else:
            out.append((masses[start:end], grad[:, start:end]) if moments else masses[start:end])
    return out


def kernel_log_mass(m0, temperature, alpha, a, b, rel_tol=1e-12):
    """log of integral_a^b of one branch kernel in income space.

    ``b`` may be inf.  Raises :class:`QuadratureError` if ``rel_tol``, in [2e-13, 1e-6],
    is not met, :class:`NonNormalizableError` for a divergent improper integral (alpha <= 0
    with b = inf) and :class:`DomainError` for any other bound or parameter out of range.
    """
    a, b = (x if isinstance(x, float) and x == math.inf else _real(x, name, DomainError, 0.0, closed="left")
            for x, name in ((a, "a"), (b, "b")))
    if not a <= b:
        raise DomainError(f"invalid kernel bounds [{a!r}, {b!r}]")
    rel_tol = _real(rel_tol, "rel_tol", DomainError, *_TOL_RANGE, closed="both")
    if b == math.inf and _real(alpha, "alpha", DomainError) <= 0.0:
        raise NonNormalizableError(f"kernel tail exponent alpha={alpha!r} gives a divergent integral")
    m0, temperature, alpha = (_real(x, name, DomainError, 0.0) for x, name in
                              ((m0, "m0"), (temperature, "temperature"), (alpha, "alpha")))
    masses = branch_log_masses([m0], [temperature], [alpha], [b], np.array([a]), [1], rel_tol)
    return float(_raised(masses[0])[0])
