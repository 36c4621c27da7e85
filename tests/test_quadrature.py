import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incomedist as idist
from incomedist import quadrature
from incomedist.quadrature import (_gk_log_segments, _gk_panel_batch, _log_series_primitives,
                                   _series_coefficients, _series_cutoff, _series_rows,
                                   kernel_log_cumulative, kernel_log_mass)

from conftest import year_params

HALF_PI = math.pi / 2.0
EPS = np.finfo(float).eps


def _mass(p, branch, a, b, rel_tol=1e-12):
    """Mass of one branch kernel of ``p`` over the income interval [a, b]."""
    temperature, alpha = (p.t_low, p.alpha) if branch == "low" else (p.t_high, p.alpha1)
    return math.exp(kernel_log_mass(p.m0, temperature, alpha, a, b, rel_tol))


def _one_sweep(start, points, beta, alpha, rel_tol, moments=False):
    """kernel_log_cumulative of the one sweep from ``start`` through ``points``."""
    return kernel_log_cumulative([start], points, [beta], [alpha], rel_tol, moments, sizes=[len(points)])


def _log_exp_integral(beta, x):
    """log of integral_0^x exp(beta*v) dv = (exp(beta*x) - 1)/beta, without overflow.

    This is the v-space kernel integrand for alpha = 1.
    """
    return beta * x + math.log(-math.expm1(-beta * x)) - math.log(beta)


# Knots over the whole v range, so each sweep crosses the series region
# near v = 0, plain Gauss-Kronrod panels, and the exp(beta*v) boundary
# layer of width 1/beta below pi/2.
_KNOTS = np.linspace(0.0, HALF_PI, 9)[1:]
_BETAS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 900.0)


class TestIntegrateAdaptive:
    """Integrals with known values, run through the adaptive engine.

    The v-space integrand is exp(beta*v) * sin(v)^(alpha-1); v = pi/2 - u
    turns sin(v) into cos(u), and beta = 1e-15 makes exp(beta*v) equal
    to 1 within 2e-15 on (0, pi/2], which leaves the bare power.
    """

    def test_exponential_decay(self):
        # alpha = 1 leaves exp(beta*v); beta = 40/pi spans 20 e-folds over
        # [0, pi/2], the v-space image of integral_{-20}^0 e^u du.
        beta = 40.0 / math.pi
        exact = 20.0 - math.log(beta) + math.log(-math.expm1(-20.0))
        cum, achieved = _one_sweep(0.0, [HALF_PI], beta, 1.0, 1e-10)[:2]
        assert achieved <= 1e-10
        assert abs(math.expm1(cum[0] - exact)) <= 1e-10
        # The same integral in income space: m0 * (1 - e^-20) / beta.
        m0 = 155000.0
        got = kernel_log_mass(m0, m0 / beta, 1.0, 0.0, np.inf, rel_tol=1e-10)
        assert abs(math.expm1(got - (math.log(m0) + exact - 20.0))) <= 1e-10

    def test_empty_interval_is_zero(self):
        cum, achieved = _one_sweep(0.3, [0.3], 2.0, 1.5, 1e-12)[:2]
        assert cum[0] == -np.inf
        assert achieved == 0.0
        # A repeated knot adds nothing to the running mass.
        cum, _ = _one_sweep(0.0, [0.3, 0.3, 1.0], 2.0, 1.5, 1e-12)[:2]
        assert cum[0] == cum[1] < cum[2]
        for a in (0.0, 5000.0, np.inf):
            assert kernel_log_mass(100.0, 50.0, 2.0, a, a) == -np.inf

    def test_inverted_interval_rejected(self):
        nan = float("nan")
        for a, b in [(1.0, 0.0), (np.inf, 5.0), (nan, 5.0), (1.0, nan), (nan, nan)]:
            with pytest.raises(idist.DomainError):
                kernel_log_mass(100.0, 50.0, 2.0, a, b)

    def test_bad_tolerance_rejected(self):
        for rel_tol in (0.0, -1e-10, float("nan")):
            with pytest.raises(idist.DomainError):
                kernel_log_mass(100.0, 50.0, 2.0, 0.0, np.inf, rel_tol=rel_tol)

    def test_integrable_endpoint_singularity(self):
        """sin(v)^(-0.3) from 0, unbounded at the lower end.

        integral_0^x sin(v)^(alpha-1) dv = B(alpha/2, 1/2) * I(sin(x)^2) / 2,
        with I the regularized incomplete Beta function.
        """
        alpha = 0.7
        cum, achieved = _one_sweep(0.0, _KNOTS, 1e-15, alpha, 1e-9)[:2]
        exact = (
            0.5
            * scipy.special.beta(0.5 * alpha, 0.5)
            * scipy.special.betainc(0.5 * alpha, 0.5, np.sin(_KNOTS) ** 2)
        )
        assert achieved <= 1e-9
        assert np.max(np.abs(np.exp(cum) - exact) / exact) <= 5e-9

    def test_singular_cosine_power_against_midpoint_oracle(self):
        """(cos u)^(alpha1 - 1) with alpha1 = 0.77 on [0, pi/2).

        The oracle is a brute-force midpoint rule with 1e8 nodes, computed
        in chunks.  The midpoint rule converges slowly near the singular
        endpoint (error ~ h^0.77), so its own accuracy is estimated by
        Richardson comparison with an 8x coarser pass and the assertion
        allows for it explicitly.
        """
        expo = 0.77 - 1.0

        def midpoint(n):
            h = HALF_PI / n
            total = 0.0
            chunk = 2_000_000
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                u = (np.arange(start, stop, dtype=float) + 0.5) * h
                total += float(np.sum(np.cos(u) ** expo))
            return total * h

        oracle = midpoint(100_000_000)
        coarse = midpoint(12_500_000)
        oracle_self_err = abs(oracle - coarse)

        cum, achieved = _one_sweep(0.0, [HALF_PI], 1e-15, 0.77, 1e-10)[:2]
        value = math.exp(cum[0])
        assert achieved <= 1e-10
        assert abs(value - oracle) <= max(1e-8 * oracle, 2.0 * oracle_self_err)


class TestErrorHonesty:
    def test_estimates_bound_true_error(self):
        """True error stays within 10x the achieved tolerance reported.

        Checked against the alpha = 1 closed form at every knot of the
        sweep.  The absolute floor 5e-16 covers results that land on the
        exact value; the eps * |log| term is the rounding of a log mass
        of that size (1413 at beta = 900), which no log-space result can
        beat.
        """
        failures = []
        for beta in _BETAS:
            exact = np.array([_log_exp_integral(beta, x) for x in _KNOTS])
            for rel_tol in (1e-6, 1e-10, 1e-12):
                cum, achieved = _one_sweep(0.0, _KNOTS, beta, 1.0, rel_tol)[:2]
                true_err = np.abs(np.expm1(cum - exact))
                allowed = 10.0 * achieved + 5e-16 + 4.0 * EPS * np.abs(exact)
                if np.any(true_err > allowed):
                    failures.append((beta, rel_tol, float(np.max(true_err)), achieved))
        assert not failures, failures

    def test_no_sweep_reports_less_than_roundoff(self):
        """A panel's error estimate carries QUADPACK's floor of 50 eps times its value, so a
        sweep whose panels agree to the last bit still reports that much, and a tolerance
        below it is refused rather than met: the entry points refuse it before any sweep."""
        assert _one_sweep(0.5, [1.0], 2.0, 1.5, 1e-20)[1] == pytest.approx(50.0 * EPS, rel=1e-9)
        with pytest.raises(idist.DomainError):
            kernel_log_mass(1e5, 1e4, 2.0, 1e3, 1e4, 1e-20)

    def test_converged_flag_matches_tolerance(self):
        for beta in _BETAS:
            exact = np.array([_log_exp_integral(beta, x) for x in _KNOTS])
            cum, achieved = _one_sweep(0.0, _KNOTS, beta, 1.0, 1e-10)[:2]
            assert achieved <= 1e-10
            assert np.max(np.abs(np.expm1(cum - exact))) <= 1e-9


def _oracle_log_mass(beta, alpha, a, b, weight=None):
    """log of integral_a^b weight(v) exp(beta*v) sin(v)^(alpha-1) dv at 30 digits.

    Without a weight, alpha = 1 and alpha = 2 use the closed forms
    (exp(beta*v)/beta and exp(beta*v) (beta sin v - cos v)/(1 + beta^2));
    any other case uses mpmath.quad, split at a + k/beta inside the
    exp(beta*v) layer.
    """
    with mpmath.workdps(30):
        beta, a, b = mpmath.mpf(beta), mpmath.mpf(a), mpmath.mpf(b)
        if alpha == 1.0 and weight is None:
            mass = (mpmath.exp(beta * b) - mpmath.exp(beta * a)) / beta
        elif alpha == 2.0 and weight is None:
            def primitive(v):
                return mpmath.exp(beta * v) * (beta * mpmath.sin(v) - mpmath.cos(v)) / (1 + beta**2)
            mass = primitive(b) - primitive(a)
        else:
            g = weight or (lambda v: 1)
            splits = [a + k / beta for k in (1, 2, 4, 8, 16) if a + k / beta < b]
            mass = mpmath.quad(lambda v: g(v) * mpmath.exp(beta * v) * mpmath.sin(v) ** (alpha - 1.0),
                               [a, *splits, b])
        return float(mpmath.log(mass)) if mass > 0 else -math.inf


def _region_layouts(cut):
    """(start, points) sweeps placed around the series cutoff ``cut``."""
    return {
        "knots at the cutoff": (0.0, [cut / 2, cut, 2 * cut, 0.5, HALF_PI]),
        "repeated knot at the cutoff": (0.0, [cut / 2, cut, cut, 3 * cut, HALF_PI]),
        "start inside the series region": (cut / 3, [cut / 2, 5 * cut, HALF_PI]),
        "wholly below the cutoff": (cut / 5, [cut / 4, cut / 2, cut]),
        "wholly above the cutoff": (2 * cut, [3 * cut, 0.7, HALF_PI]),
        "one segment straddling the cutoff": (cut / 2, [4 * cut]),
        "a straddle, then a repeated knot": (cut / 2, [4 * cut, 4 * cut]),
    }


class TestPanelBatch:
    @pytest.mark.parametrize("moments", [False, True])
    def test_panel_bits_do_not_depend_on_the_batch(self, moments):
        """A panel gives the same bits alone, first in a batch, or shifted inside one.

        So a sweep may put any of its panels into one batch: the straddling panel,
        zero-width ones, or chunks of a large batch.
        """
        rng = np.random.default_rng(19)
        lo = rng.uniform(0.01, 1.5, 300)
        hi = lo + rng.uniform(0.0, 1.0, 300) * (HALF_PI - lo)
        beta, alpha = 30.0, 2.6

        def rows(lo, hi):
            with np.errstate(divide="ignore"):  # log 0 of an error estimate that is exactly 0
                logs, accepted = _gk_panel_batch(lo, hi, np.full(lo.size, beta),
                                                 np.full(lo.size, alpha), 1e-12, moments)
            return np.vstack([logs, accepted])

        alone = np.column_stack([rows(lo[i:i + 1], hi[i:i + 1]) for i in range(lo.size)])
        first = np.column_stack([rows(lo[i:], hi[i:])[:, 0] for i in range(lo.size)])
        whole = rows(lo, hi)
        shifted = rows(np.append(lo[-3:], lo), np.append(hi[-3:], hi))[:, 3:]
        for batched in (first, whole, shifted):
            assert np.array_equal(batched, alone)


class TestSeriesHeadBatch:
    @pytest.mark.parametrize("beta, alpha", [(0.5, 2.6), (30.0, 0.3), (1e3, 5.0), (2.0, 12.0)])
    def test_head_bits_do_not_depend_on_the_batch(self, beta, alpha):
        """A knot's series primitives (the mass and both moments) give the same bits
        alone as inside a 300-knot call, as a panel does in its batch."""
        x = np.random.default_rng(23).uniform(0.0, _series_cutoff(beta, alpha), 300)
        rows = _series_rows(_series_coefficients(beta, alpha), alpha, moments=True)
        whole = _log_series_primitives(x, alpha, rows)
        alone = np.column_stack([_log_series_primitives(x[i:i + 1], alpha, rows)
                                 for i in range(x.size)])
        assert np.isfinite(whole).all()
        assert np.array_equal(whole, alone)


class TestSeriesHeadCoefficients:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 3.0, 40.0])
    @pytest.mark.parametrize("alpha", [0.05, 0.77, 1.0, 2.0, 7.0, 12.0])
    def test_coefficients_and_alpha_derivative_match_mpmath(self, beta, alpha):
        """The head's d_j are the Taylor coefficients of exp(beta*v) (sin v / v)^(alpha-1),
        and -(ell * d) those of log(sin v / v) times it, its alpha-derivative: to 1e-15
        relative in the head's sum, with entry j weighted by the cutoff's j-th power."""
        with mpmath.workdps(40):
            def f(v):
                return mpmath.exp(beta * v) * mpmath.sinc(v) ** (alpha - 1)

            want = [mpmath.taylor(f, 0, quadrature._SERIES_ORDER - 1),
                    mpmath.taylor(lambda v: mpmath.log(mpmath.sinc(v)) * f(v), 0,
                                  quadrature._SERIES_ORDER - 1)]
        d = _series_coefficients(beta, alpha)
        got = [d, -np.convolve(quadrature._NEG_LOG_SINC, d)[:quadrature._SERIES_ORDER]]
        weight = _series_cutoff(beta, alpha) ** np.arange(quadrature._SERIES_ORDER)
        for g, w in zip(got, want):
            w = np.array([float(c) for c in w])
            assert np.max(np.abs(g - w) * weight) <= 1e-15 * np.sum(np.abs(w) * weight)


class TestPanelBudget:
    """Past the panel budget a sweep's panels are taken as they are.  A panel
    also passes within its width's share of its segment's mass, so the
    segments far from the kernel's peak no longer spend the budget that the
    segment straddling the series cutoff needs."""

    BETA, ALPHA = 1e4, 2.0

    def _segments(self, lo, hi):
        with np.errstate(divide="ignore"):
            return _gk_log_segments(np.asarray(lo), np.asarray(hi), [len(lo)],
                                    np.full(len(lo), self.BETA), np.full(len(lo), self.ALPHA), 1e-12)

    @staticmethod
    def _count_panels(monkeypatch):
        sizes = []

        def counted(lo, hi, *args):
            sizes.append(lo.size)
            return _gk_panel_batch(lo, hi, *args)

        monkeypatch.setattr(quadrature, "_gk_panel_batch", counted)
        return sizes

    def test_straddling_segment_keeps_its_alone_bits_beside_the_others(self, monkeypatch):
        # The segment from the series cutoff converges alone in 29 panels over
        # 11 rounds; the 200 others need 2,600 panels in 5 rounds.  Under a
        # budget of 3,000 for the batch all converge together, and the first
        # segment gets the bits it gets alone.
        cut = _series_cutoff(self.BETA, self.ALPHA)
        knots = np.linspace(0.3, 1.5, 201)
        monkeypatch.setattr(quadrature, "_MAX_BATCH_PANELS", 3_000)
        sizes = self._count_panels(monkeypatch)
        alone = self._segments([cut], [0.3])
        assert sum(sizes) <= 29
        together = self._segments(np.append(cut, knots[:-1]), np.append(0.3, knots[1:]))
        assert [a[0] for a in together] == [a[0] for a in alone]
        assert np.all(together[1] - together[0] < math.log(1e-12))

    def test_sweep_from_below_the_cutoff_converges_under_a_lowered_budget(self, monkeypatch):
        cut = _series_cutoff(self.BETA, self.ALPHA)
        points = np.linspace(0.3, 1.5, 201)
        monkeypatch.setattr(quadrature, "_MAX_BATCH_PANELS", 3_000)
        _, achieved = _one_sweep(0.5 * cut, points, self.BETA, self.ALPHA, 1e-12)[:2]
        assert achieved <= 1e-12

    def test_budget_bounds_the_rounds(self, monkeypatch):
        knots = np.linspace(0.3, 1.5, 201)
        monkeypatch.setattr(quadrature, "_MAX_BATCH_PANELS", 1_000)
        sizes = self._count_panels(monkeypatch)
        self._segments(knots[:-1], knots[1:])
        assert max(sizes) <= 2 * 1_000 and sum(sizes) <= 3 * 1_000


class TestSweepBatch:
    """One kernel_log_cumulative call sweeps many (beta, alpha, start) at once; each sweep in the
    batch gives its masses, means and achieved tolerance bit for bit as it does alone."""

    PARAMS = [(1e-3, 0.77), (0.1, 2.0), (10.0, 5.0), (1e3, 0.3), (1e4, 12.0)]

    @staticmethod
    def sweep(sweeps, moments, rel_tol=1e-12):
        """kernel_log_cumulative of (start, points, beta, alpha) sweeps in one call, split back
        into (masses, achieved[, means]) per sweep."""
        starts, points, betas, alphas = zip(*sweeps)
        sizes = [len(p) for p in points]
        cum, worst, achieved, *means = kernel_log_cumulative(
            np.array(starts), np.concatenate(points), np.array(betas), np.array(alphas), rel_tol,
            moments=moments, sizes=sizes)
        assert worst == max(a for a in achieved if a < np.inf)
        ends = np.cumsum(sizes)
        return [(cum[end - n:end], achieved[k], *(m[:, end - n:end] for m in means))
                for k, (end, n) in enumerate(zip(ends, sizes))]

    def batch(self):
        sweeps = []
        for beta, alpha in self.PARAMS:
            layouts = _region_layouts(_series_cutoff(beta, alpha))
            for name in ("knots at the cutoff", "start inside the series region",
                         "wholly above the cutoff"):
                start, points = layouts[name]
                sweeps.append((start, np.array(points), beta, alpha))
        return sweeps

    @staticmethod
    def assert_same(together, alone):
        for got, want in zip(together, alone):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize("moments", [False, True])
    def test_sweeps_keep_their_alone_bits(self, moments):
        sweeps = self.batch()
        alone = [self.sweep([s], moments)[0] for s in sweeps]
        self.assert_same(self.sweep(sweeps, moments), alone)
        self.assert_same(self.sweep(sweeps[::-1], moments), alone[::-1])

    def test_an_exhausted_budget_and_a_missed_tolerance_stay_with_their_sweep(self, monkeypatch):
        # Under a budget of 20 panels the sweep from below the cutoff at beta = 1e4 is cut
        # short and reaches only 1.3e-10.  The batch's sweeps that converge alone under that
        # budget converge beside it, though together they spend far more than 20 panels.
        cut = _series_cutoff(1e4, 2.0)
        heavy = (0.5 * cut, np.array([0.3]), 1e4, 2.0)
        monkeypatch.setattr(quadrature, "_MAX_BATCH_PANELS", 20)
        light = [s for s in self.batch() if self.sweep([s], False)[0][1] <= 1e-12]
        alone = [self.sweep([s], False)[0] for s in [heavy, *light]]
        assert alone[0][1] > 1e-12 and len(light) >= 8
        self.assert_same(self.sweep([heavy, *light], False), alone)
        self.assert_same(self.sweep([*light, heavy], False), alone[1:] + alone[:1])

    def test_an_overflowing_sweep_is_flagged_alone(self):
        # beta = 1e300, beta = inf and alpha = 1e77 lie past the series head's range: those
        # sweeps are not integrated, their masses are NaN and they achieve inf, and the others
        # keep their bits.
        sweeps = self.batch()
        points = np.array([0.5, 1.0])
        out = self.sweep([sweeps[0], (0.0, points, 1e300, 2.0), (0.0, points, math.inf, 2.0),
                          (0.0, points, 2.0, 1e77), sweeps[1]], True)
        for masses, achieved, _means in out[1:4]:
            assert np.isnan(masses).all() and achieved == np.inf
        self.assert_same([out[0], out[4]], [self.sweep([s], True)[0] for s in sweeps[:2]])

    def test_branch_masses_flag_only_the_sweep_that_misses(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_BATCH_PANELS", 20)
        # m0 = 1e4 T and m0 / m = tan(0.3): the heavy sweep above, in income space.
        m0, temperature = 1e4, 1.0
        top = m0 / math.tan(0.5 * _series_cutoff(1e4, 2.0))
        masses = quadrature.branch_log_masses(
            [m0, 135000.0], [temperature, 38000.0], [2.0, 3.153], [top, 450000.0],
            np.array([m0 / math.tan(0.3), 1e4, 1e5]), [1, 2], 1e-12)
        assert isinstance(masses[0], idist.QuadratureError)
        want = quadrature.branch_log_masses([135000.0], [38000.0], [3.153], [450000.0],
                                            np.array([1e4, 1e5]), [2], 1e-12)[0]
        assert np.array_equal(masses[1], want)


class TestSweepRegions:
    """A sweep splits its segments at the series cutoff; each split must be seamless.

    beta stops at 1e4: from about 1.5e5 on, the v-space sweep is known to
    depend on its other knots, which the u-side sweep of ROADMAP item 2 is to remove.
    """

    BETAS = (1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.77])
    def test_cumulative_masses_match_oracle(self, alpha):
        """Within 1e-12 relative, plus one rounding of a log mass that large (1.5e4 at beta = 1e4)."""
        failures = []
        for beta in self.BETAS:
            for name, (start, points) in _region_layouts(_series_cutoff(beta, alpha)).items():
                cum, achieved = _one_sweep(start, points, beta, alpha, 1e-12)[:2]
                exact = np.array([_oracle_log_mass(beta, alpha, start, p) for p in points])
                error = np.abs(np.expm1(cum - exact))
                if achieved > 1e-12 or np.any(error > 1e-12 + EPS * np.abs(exact)):
                    failures.append((beta, name, float(np.max(error)), achieved))
        assert not failures, failures

    @pytest.mark.parametrize("alpha", [2.0, 0.77])
    def test_moments_match_oracle(self, alpha):
        """The weighted means of pi/2 - v and -log sin v within 1e-8 relative; the masses
        keep every bit.

        The means ride on the panels the masses accepted, with no error estimate of
        their own: -log sin v is the less smooth weight, and near v = pi/2 log(sin v)
        keeps only 1e-16 absolute.  The worst measured here is 1.5e-9.
        """
        weights = (lambda v: mpmath.pi / 2 - v, lambda v: -mpmath.log(mpmath.sin(v)))
        failures = []
        for beta in (1e-3, 10.0, 1e4):
            for name, (start, points) in _region_layouts(_series_cutoff(beta, alpha)).items():
                cum, achieved, _, means = _one_sweep(start, points, beta, alpha, 1e-12, moments=True)
                plain, plain_achieved = _one_sweep(start, points, beta, alpha, 1e-12)[:2]
                if not (np.array_equal(cum, plain) and achieved == plain_achieved):
                    failures.append((beta, name, "masses moved"))
                for k, p in enumerate(points):
                    log_mass = _oracle_log_mass(beta, alpha, start, p)
                    exact = [math.exp(_oracle_log_mass(beta, alpha, start, p, g) - log_mass)
                             for g in weights]
                    error = np.max(np.abs(means[:, k] / exact - 1.0))
                    if error > 1e-8:
                        failures.append((beta, name, p, float(error)))
        assert not failures, failures

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.77])
    def test_increments_match_segments_swept_alone(self, alpha):
        """Each increment, recovered from two running masses, is the segment's mass swept alone.

        The recovery loses the ratio (running mass / increment) in relative
        precision, so the 1e-14 bound is scaled by it.  A repeated knot adds
        exactly nothing.
        """
        failures = []
        for beta in self.BETAS:
            for name, (start, points) in _region_layouts(_series_cutoff(beta, alpha)).items():
                cum, _ = _one_sweep(start, points, beta, alpha, 1e-12)[:2]
                knots = np.concatenate([[start], points])
                alone = np.array([_one_sweep(lo, [hi], beta, alpha, 1e-12)[0][0]
                                  for lo, hi in zip(knots[:-1], knots[1:])])
                before = np.concatenate([[-np.inf], cum[:-1]])
                repeated = knots[1:] == knots[:-1]
                if np.any(alone[repeated] != -np.inf) or np.any(cum[repeated] != before[repeated]):
                    failures.append((beta, name, "repeated knot"))
                grown = ~repeated
                increment = cum[grown] + np.log(-np.expm1(before[grown] - cum[grown]))
                error = np.abs(np.expm1(increment - alone[grown]))
                if np.any(error > 1e-14 * np.exp(cum[grown] - alone[grown])):
                    failures.append((beta, name, float(np.max(error))))
        assert not failures, failures


def _scipy_branch_mass(m0, temperature, alpha, a, b):
    """Independent income-space reference for the kernel integral.

    Integrates the kernel directly with QUADPACK.  For an infinite upper
    bound the tail is folded through y = 1/m, which turns the power-law
    decay into an algebraic endpoint singularity QUADPACK handles well.
    ``epsabs=0`` makes every call stop on the relative tolerance alone:
    with QUADPACK's default absolute tolerance (1.49e-8) a mass far below
    it, such as 2e-22, is returned at its first estimate.
    """
    beta = m0 / temperature

    def kern(m):
        r = m / m0
        return math.exp(-beta * math.atan(r)) * (1.0 + r * r) ** (-0.5 * (alpha + 1.0))

    split = max(a, 10.0 * m0)
    if np.isinf(b):
        head, _ = scipy.integrate.quad(kern, a, split, limit=400, epsabs=0.0)

        def tail_y(y):
            return kern(1.0 / y) / (y * y)

        tail, _ = scipy.integrate.quad(tail_y, 0.0, 1.0 / split, limit=400, epsabs=0.0)
        return head + tail
    head, _ = scipy.integrate.quad(kern, a, min(b, split), limit=400, epsabs=0.0)
    tail = 0.0
    if b > split:
        tail, _ = scipy.integrate.quad(kern, split, b, limit=400, epsabs=0.0)
    return head + tail


class TestBranchMass:
    def test_closed_form_full_mass(self):
        # With alpha = 3 and temperature = m0 the full kernel mass has the
        # closed form m0 * (3 - 2 exp(-pi/2)) / 5.
        for m0 in (1.0, 155000.0):
            p = idist.Params(t_low=m0, t_high=m0, m0=m0, m1=4.0 * m0, alpha=3.0, alpha1=3.0)
            got = _mass(p, "low", 0.0, np.inf)
            exact = m0 * (3.0 - 2.0 * math.exp(-HALF_PI)) / 5.0
            assert abs(got - exact) <= 1e-12 * exact

    def test_empty_interval(self):
        p = year_params(2010)
        assert kernel_log_mass(p.m0, p.t_low, p.alpha, 5000.0, 5000.0) == -np.inf

    def test_inverted_bounds_rejected(self):
        p = year_params(2010)
        for a, b in [(10.0, 5.0), (-1.0, 5.0)]:
            with pytest.raises(idist.DomainError):
                kernel_log_mass(p.m0, p.t_low, p.alpha, a, b)

    def test_divergent_tail_rejected(self):
        p = idist.Params(t_low=1.0, t_high=1.0, m0=1.0, m1=10.0, alpha=3.0, alpha1=0.5)
        # The high kernel with alpha1 > 0 converges; the mass routine itself
        # must refuse alpha <= 0 over an infinite range.
        assert _mass(p, "high", 0.0, np.inf) > 0.0
        with pytest.raises(idist.NonNormalizableError):
            kernel_log_mass(p.m0, p.t_high, 0.0, 0.0, np.inf)

    def test_singular_endpoint_matches_beta_function(self):
        """sin(v)^(alpha - 1) on (0, pi/2], singular at v = 0 for alpha < 1.

        At T = 1e15 * m0 the factor exp(beta*v) is 1 to within 2e-15, so
        the full kernel mass is m0 * integral_0^(pi/2) sin(v)^(alpha-1) dv
        = m0 * B(alpha/2, 1/2) / 2.
        """
        m0 = 3.0
        for alpha in (0.05, 0.1, 0.3, 0.5, 0.77, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0):
            got = math.exp(kernel_log_mass(m0, 1e15 * m0, alpha, 0.0, np.inf, rel_tol=1e-12))
            exact = m0 * scipy.special.beta(0.5 * alpha, 0.5) / 2.0
            assert abs(got - exact) <= 1e-12 * exact, alpha

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (1.0, 2.0)])
    def test_infinite_beta_is_refused(self, a, b):
        # m0 / T overflows to inf, where no series head can be formed: the mass raises rather
        # than return NaN.
        with pytest.raises(idist.QuadratureError):
            kernel_log_mass(1e300, 1e-10, 2.0, a, b)

    def test_subnormal_income_is_the_zero_income(self):
        # m0/m overflows to inf for m = 5e-324; v = arctan(inf) = pi/2 is
        # still exact, so the call must return quietly with the m = 0 mass.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_log_mass(100.0, 50.0, 2.0, 5e-324, np.inf)
        assert got == kernel_log_mass(100.0, 50.0, 2.0, 0.0, np.inf)

    @pytest.mark.parametrize("m0, temperature, alpha", [
        (-1.0, 50.0, 2.0), (0.0, 50.0, 2.0), (math.inf, 50.0, 2.0), (math.nan, 50.0, 2.0),
        (100.0, 0.0, 2.0), (100.0, -1.0, 2.0), (100.0, math.inf, 2.0), (100.0, math.nan, 2.0),
        (100.0, 50.0, 0.0), (100.0, 50.0, -1.0), (100.0, 50.0, math.inf), (100.0, 50.0, math.nan),
    ])
    def test_bad_kernel_parameters_rejected(self, m0, temperature, alpha):
        for b in (5000.0, 0.0):
            with pytest.raises(idist.DomainError):
                kernel_log_mass(m0, temperature, alpha, 0.0, b)

    def test_additivity_at_breakpoint(self):
        for year in (2005, 2009, 2010):
            p = year_params(year)
            for branch in ("low", "high"):
                left = _mass(p, branch, 0.0, p.m1)
                right = _mass(p, branch, p.m1, np.inf)
                total = _mass(p, branch, 0.0, np.inf)
                assert abs((left + right) - total) <= 1e-12 * total

    def test_finite_windows_match_quadpack(self):
        p = year_params(2010)
        for a, b in [(0.0, 38000.0), (12000.0, 450000.0), (450000.0, np.inf)]:
            got = _mass(p, "low", a, b)
            ref = _scipy_branch_mass(p.m0, p.t_low, p.alpha, a, b)
            assert abs(got - ref) <= 1e-9 * ref

    @given(
        log_m0=st.floats(min_value=2.0, max_value=6.0),
        t_ratio=st.floats(min_value=0.02, max_value=100.0),
        alpha=st.floats(min_value=0.3, max_value=4.0),
        frac=st.floats(min_value=0.0, max_value=0.98),
    )
    @settings(max_examples=25)
    @example(log_m0=2.0, t_ratio=0.0234375, alpha=1.0, frac=0.5)
    def test_matches_quadpack_reference(self, log_m0, t_ratio, alpha, frac):
        """Dual-route check of the substitution-based engine.

        The in-package route integrates in the reflected-angle variable;
        the reference works in income space with an independent library
        integrator.  t_ratio = temperature / m0 is kept >= 0.02 so the
        reference's linear-space integrand stays well above underflow.
        The pinned example has a mass of about 2e-22, which the reference
        resolves only because it integrates with ``epsabs=0``; with the
        default absolute tolerance it was off by 4.8e-8 relative to the
        alpha = 1 closed form m0*(exp(-beta*atan(a/m0)) -
        exp(-beta*pi/2))/beta, which the engine matches to 5e-15.
        """
        m0 = 10.0**log_m0
        temperature = t_ratio * m0
        a = frac * 5.0 * m0
        got = float(np.exp(kernel_log_mass(m0, temperature, alpha, a, np.inf, rel_tol=1e-12)))
        ref = _scipy_branch_mass(m0, temperature, alpha, a, np.inf)
        assert abs(got - ref) <= 1e-8 * ref
