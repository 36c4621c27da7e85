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
Below a small cutoff, where the integrand is close to v^(alpha-1), it is
integrated in t = log v, where it falls like e^(alpha t) toward v = 0 and
has no singularity; above it, in v.  Both run on the same Gauss-Kronrod
panels, subdivided until an embedded error estimate passes.  All kernel masses
are carried as logarithms, because realistic parameters produce
exponents of order m0/T * pi/2 that overflow in linear arithmetic.

One call integrates a batch of sweeps, each with its own beta, alpha and
start: the branches of one model, or the trial points of many fit runs.  The
segments of every sweep go into one batch of panels per round: a segment's
part above its sweep's cutoff as one panel in v, and its part below the cutoff
as a run of panels in t, placed in advance down to where the part has no mass
left and narrow enough that each passes its own test in the first round; a
segment that straddles its cutoff adds its two parts.  As in QUADPACK, a
halved panel may pass against its segment's whole mass, so panels that carry
none stop early; each sweep has its own panel budget and its own achieved
tolerance.  A panel's sums over its nodes are plain row reductions, not BLAS
products, so its bits do not depend on its place in a batch (numpy does not
document this for ``einsum``; ``TestPanelBatch`` and ``TestSweepBatch`` check
it, verified on numpy 2.4.6 only).  So a sweep gets the bits it gets alone,
and a sweep that misses its tolerance or is refused is flagged alone.

With ``moments`` a sweep also carries the integrals of (pi/2 - v) and of
-log sin v times the integrand: two more weighted sums per panel.  Both
weights are positive, so they accumulate in log space like the masses, with
no log of a signed quantity; over the mass they give the kernel-weighted
means behind the derivatives of a branch log mass by log T (beta times the
mean of u = pi/2 - v) and by alpha (the mean of log sin v).

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

_TINY_WIDTH = 8.0 * np.finfo(float).eps  # relative panel width below which a panel passes
_ROUNDOFF = 50.0 * np.finfo(float).eps  # QUADPACK's (dqk15) floor on a panel's relative error
# The tolerances every entry point accepts (normalize, FitConfig, FitProblem, kernel_log_mass): all six
# published rows and 204 of model-sweep seed 1's 206 points meet 2e-13 (and 202 meet 2.2e-14).
_TOL_RANGE = (2e-13, 1e-6)
_MAX_BATCH_PANELS = 200_000
# A t-part's first-round panels end min(_T_CAPS, _T_DEPTHS / alpha) below its top: every 3.725 e-folds
# of e^(alpha t) (a panel that wide passes at 2.6e-14), and within the first also at t-widths 2 to 32,
# where beta*v and log(sin v / v) still bend the integrand.  37.25 e-folds leave out 6.6e-17 of the mass.
_T_CAPS = np.array([0.0, 2.0, 4.0, 8.0, 16.0, 32.0] + [np.inf] * 10)
_T_DEPTHS = 3.725 * np.array([0.0] + [1.0] * 5 + list(range(1, 11)))
# No float near 1 falls inside the exp(beta*v) layer, 1/beta wide, past beta = 1/eps, nor inside the
# sin(v)^(alpha-1) layer at pi/2, |alpha - 1|^(-1/2) wide, past |alpha - 1| = 1/eps^2.
_V_RESOLVED = 1.0 / np.finfo(float).eps
_LOG_TINY = math.log(5e-324)  # the least positive double, a t-panel's least v: sin v / v is 1 there


# ---------------------------------------------------------------------------
# Branch-kernel machinery in the reflected variable v = pi/2 - arctan(m/m0)
# ---------------------------------------------------------------------------


def _t_cutoff(beta: float, alpha: float) -> float:
    """The v below which a sweep integrates in t = log v: there beta*v <= 0.1 and
    |alpha - 1| * v^2 / 6 <= 0.004, so the integrand is close to e^(alpha t)."""
    return min(0.05, 0.1 / max(beta, 1.0), math.sqrt(0.024 / max(abs(alpha - 1.0), 1.0)))


def _t_pieces(lo, hi, alpha):
    """The first-round t-panels of t-parts [lo, hi] in v (0 <= lo <= hi <= the cutoff, hi > 0)
    with exponents ``alpha``, as (t_lo, t_hi, panels per part): runs from log hi down to the
    offsets of ``_T_CAPS`` and ``_T_DEPTHS``, cut at log lo."""
    top = np.log(hi)
    offsets = np.minimum(_T_CAPS, _T_DEPTHS / alpha[:, None])
    np.minimum(offsets, (top - np.log(lo))[:, None], out=offsets)
    keep = offsets[:, 1:] > offsets[:, :-1]  # no zero widths ...
    keep[:, 0] = True  # ... but one panel to a part as thin as rounding
    edges = top[:, None] - offsets
    return edges[:, 1:][keep], edges[:, :-1][keep], keep.sum(axis=1)


def _gk_panel_batch(lo, hi, n_t, beta, alpha, rel_tol, moments=False):
    """Evaluate one Gauss-Kronrod panel per segment, scaled at its upper end.

    ``beta`` and ``alpha`` hold one value per panel.  A panel integrates exp(beta*v)
    sin(v)^(alpha-1) over [lo, hi] in v, scaled by exp(-beta*hi); the last ``n_t`` panels
    lie in t = log v instead, where they integrate exp(beta*v + alpha*t + (alpha-1) *
    log(sin v / v)) with v = e^t, scaled by exp(-beta*e^hi - alpha*hi), and with v held at
    5e-324 where e^t underflows.  Returns (logs, accepted): ``logs`` is a (rows, panels)
    array whose rows, log_value and log_error, already include the scale, so contributions
    from different panels combine directly via logaddexp.  With ``moments`` two rows follow:
    the logs of the panel integrals of (pi/2 - v) and -log sin v times the integrand,
    scaled alike.
    """
    width = hi - lo
    h = 0.5 * width
    # In place on the (panel, node) arrays: the plain expressions' arithmetic, fewer large allocations.
    v = h[:, None] * _GK_NODES
    v += (0.5 * (hi + lo))[:, None]
    k, v_hi = hi.size - n_t, hi  # the t-panels are rows k:
    if n_t:
        t = v[k:].copy()
        v[k:] = v_t = np.exp(np.maximum(t, _LOG_TINY))  # no 0/0 in sin v / v below
        v_hi = np.concatenate((hi[:k], np.exp(hi[k:])))
    f = v - v_hi[:, None]
    f *= beta[:, None]
    if moments:
        u = _HALF_PI - v
    v = np.sin(v, out=v)
    if n_t:
        v[k:] /= v_t
    v = np.log(v, out=v)
    if moments:
        neg_log_sin = -v
    v *= (alpha - 1.0)[:, None]
    f += v
    scale = beta * v_hi
    if n_t:
        f[k:] += alpha[k:, None] * (t - hi[k:, None])
        scale[k:] += alpha[k:] * hi[k:]
        if moments:
            neg_log_sin[k:] -= t
    f = np.exp(f, out=f)
    resk = np.einsum("pn,n->p", f, _GK_W)
    resg = np.einsum("pn,n->p", f, _G7_W)
    v = np.abs(np.subtract(f, (0.5 * resk)[:, None], out=v), out=v)
    resasc = np.einsum("pn,n->p", v, _GK_W) * h
    val = resk * h
    err = np.abs(resk - resg) * h
    positive = resasc > 0.0
    shrunk = resasc * np.minimum(1.0, (200.0 * err / np.where(positive, resasc, 1.0)) ** 1.5)
    err = np.where(positive & (err > 0.0), shrunk, err)
    np.maximum(err, _ROUNDOFF * val, out=err)  # in place, so a large batch's peak memory does not grow
    tiny = width <= _TINY_WIDTH * np.maximum(np.abs(hi) if n_t else hi, 1.0)
    accepted = (err <= 0.5 * rel_tol * val) | tiny
    rows = [val, err]
    if moments:
        rows += [np.einsum("pn,n->p", f * g, _GK_W) * h for g in (u, neg_log_sin)]
    return scale + np.log(np.array(rows)), accepted


def _gk_log_segments(lo, hi, n_t, sweep, beta, alpha, rel_tol, moments=False):
    """Adaptively integrate exp(beta*v) sin(v)^(alpha-1) over many segments.

    Segment j is one first-round panel, [lo[j], hi[j]] in v, or in t = log v for the last
    ``n_t`` (see :func:`_gk_panel_batch`), of sweep ``sweep[j]``, whose kernel parameters
    are ``beta`` and ``alpha`` at that index.  One of zero width passes at once with mass
    -inf.  A panel passes its own test, or when its error is within its width's share of
    half ``rel_tol`` times its segment's mass so far (the accepted panels and this round's),
    so a segment's errors sum to about ``rel_tol`` of its mass at most.  A failing panel is
    halved, the halves of t-panels last; the width test passes any panel within about 51
    halvings, and once a sweep has spent ``_MAX_BATCH_PANELS`` panels in all, every panel
    of it is taken.  So no segment's panels depend on another sweep's.  Returns the running
    sums, per segment, of the accepted panels' (log_value, log_error[, moments]) from
    ``_gk_panel_batch``.
    """
    logs, ok = _gk_panel_batch(lo, hi, n_t, beta[sweep], alpha[sweep], rel_tol, moments)
    if ok.all():  # a first-round panel is its segment: its own test is the share test
        return logs
    log_share = math.log(0.5 * rel_tol) - np.log(hi - lo)  # per unit width, before the mass
    cur_lo, cur_hi, cur_id, owner, sums, owners = lo, hi, np.arange(lo.size), sweep, None, []
    while True:
        owners.append(owner)
        if sum(map(len, owners)) > _MAX_BATCH_PANELS:  # else no sweep has spent its budget
            ok |= (np.bincount(np.concatenate(owners), minlength=beta.size) > _MAX_BATCH_PANELS)[owner]
        if sums is None:  # a first-round panel that passes is its segment's sum
            sums = np.where(ok, logs, -np.inf)
        else:
            np.logaddexp.at(sums, (slice(None), cur_id[ok]), logs[:, ok])
        n_t = np.count_nonzero(~ok[ok.size - n_t:]) if n_t else 0  # the failing t-panels, last
        bad = ~ok
        blo, bhi, bid = cur_lo[bad], cur_hi[bad], cur_id[bad]
        if not bid.size:
            return sums
        mid = 0.5 * (blo + bhi)
        halves = ((blo, mid), (mid, bhi), (bid, bid))
        if n_t:
            k = bid.size - n_t
            halves = ((x[:k], y[:k], x[k:], y[k:]) for x, y in halves)
        cur_lo, cur_hi, cur_id = (np.concatenate(pair) for pair in halves)
        n_t, owner = 2 * n_t, sweep[cur_id]
        logs, ok = _gk_panel_batch(cur_lo, cur_hi, n_t, beta[owner], alpha[owner], rel_tol, moments)
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
    alone: its panels and its panel budget are its own.  Returns (log_cumulative, achieved,
    achieved_per_sweep): the cumulative masses in the order of ``points_v``, the worst
    relative error the batch achieved and a list of each sweep's (0 for a sweep with no
    points or no mass, else about 50 eps at least, the panels' roundoff floor).  A sweep
    is not integrated if beta is inf, if |alpha - 1| reaches the square of ``_V_RESOLVED``,
    or if it has a part above its cutoff and beta reaches ``_V_RESOLVED``: its masses are
    NaN, it achieves inf, and the worst is over the others.  With ``moments`` a fourth
    element follows: the kernel-weighted means of pi/2 - v and of -log sin v over each
    point's interval, as a (2, n) array (NaN where the mass is zero).  They ride on the
    panels the masses accepted, with no error estimate of their own (within 1e-8 relative
    in the tests).  The masses and errors are the same without them.
    """
    points = np.asarray(points_v, dtype=float)
    # Per segment, the log increment, log error and (with moments) log moment increments;
    # each sweep's cumulative sums then replace its increments.
    logs = np.full((4 if moments else 2, points.size), -np.inf)
    achieved = [0.0] * len(sizes)
    # The sweeps integrated, as (sweep, first point, end), and their v- and t-parts, as (lower
    # ends, upper ends, columns) in v.
    runs, v_parts, t_parts, end = [], [], [], 0
    # divide: log(0) at v = 0 and of zero widths and sums.  invalid: inf - inf in a zero width's
    # share test and in a zero mass's error gap.
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, (size, start, b, al) in enumerate(zip(sizes, start_v, beta, alpha)):
            a, end, b, al = end, end + size, float(b), float(al)
            if not size:
                continue
            knots = np.concatenate([[start], points[a:end]])
            cut = _t_cutoff(b, al)
            # The knots ascend and knots[:n_low] lie at or below the cutoff: segment k takes a
            # t-part up to min(knots[k + 1], cut) if k < n_low and a v-part from max(knots[k], cut)
            # if k >= n_low - 1.
            n_low = int(knots.searchsorted(cut, side="right"))
            first = max(n_low - 1, 0)
            if not (b < (_V_RESOLVED if first < size else math.inf) and abs(al - 1.0) < _V_RESOLVED**2):
                logs[:, a:end], achieved[s] = np.nan, math.inf
                continue
            runs.append((s, a, end))
            if first < size:
                v_parts.append((np.maximum(knots[first:-1], cut), knots[first + 1:],
                                np.arange(a + first, end)))
            # A t-part that ends at v = 0 has no mass, and no t-panel: they start at the last knot at 0.
            z = 0 if knots[1] > 0.0 else int(knots.searchsorted(0.0, side="right")) - 1
            if z < n_low and z < size:
                hi = np.minimum(knots[z + 1:n_low + 1], cut)
                t_parts.append((knots[z:z + hi.size], hi, np.arange(a + z, a + z + hi.size)))
        if v_parts or t_parts:  # one batch for every sweep: the v-parts, then each t-part's run of t-panels
            lo, hi, cols = (np.concatenate([p[i] for p in v_parts + t_parts]) for i in range(3))
            beta, alpha = np.asarray(beta, dtype=float), np.asarray(alpha, dtype=float)
            sweep_of = np.arange(len(sizes)).repeat(sizes)  # each point's sweep
            n_v = sum(p[2].size for p in v_parts)
            if t_parts:
                t_lo, t_hi, pieces = _t_pieces(lo[n_v:], hi[n_v:], alpha[sweep_of[cols[n_v:]]])
                lo, hi, cols = (np.concatenate((x[:n_v], y)) for x, y in (
                    (lo, t_lo), (hi, t_hi), (cols, cols[n_v:].repeat(pieces))))
            sums = _gk_log_segments(lo, hi, lo.size - n_v, sweep_of[cols], beta, alpha, rel_tol, moments)
            if v_parts:
                logs[:, cols[:n_v]] = sums[:, :n_v]
            if t_parts:  # a t-part adds its panels, and a segment that straddles its cutoff its two parts
                np.logaddexp.at(logs, (slice(None), cols[n_v:]), sums[:, n_v:])
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
