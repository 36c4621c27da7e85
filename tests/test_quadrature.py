import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incomedist as idist
from incomedist.quadrature import integrate_adaptive, kernel_log_mass

from conftest import year_params

HALF_PI = math.pi / 2.0


class TestIntegrateAdaptive:
    def test_constant_is_exact(self):
        res = integrate_adaptive(lambda u: np.ones_like(u), 0.0, 1.0, rel_tol=1e-12)
        assert res.value == 1.0
        assert res.converged

    def test_exponential_decay(self):
        res = integrate_adaptive(np.exp, -20.0, 0.0, rel_tol=1e-10)
        exact = 1.0 - math.exp(-20.0)
        assert res.converged
        assert abs(res.value - exact) <= 1e-10 * exact

    def test_empty_interval_is_zero(self):
        res = integrate_adaptive(np.exp, 3.0, 3.0)
        assert res.value == 0.0
        assert res.abs_error_estimate == 0.0
        assert res.converged

    def test_inverted_interval_rejected(self):
        with pytest.raises(idist.DomainError):
            integrate_adaptive(np.exp, 1.0, 0.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(idist.DomainError):
            integrate_adaptive(np.exp, 0.0, np.inf)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(idist.DomainError):
            integrate_adaptive(np.exp, 0.0, 1.0, rel_tol=0.0)

    def test_budget_exhaustion_reports_nonconvergence(self):
        # Oscillation far too fast for a 4-panel budget.
        f = lambda u: np.sin(1000.0 * u)
        res = integrate_adaptive(f, 0.0, 1.0, rel_tol=1e-12, max_panels=4)
        assert not res.converged
        assert res.abs_error_estimate > 0.0

    def test_integrable_endpoint_singularity(self):
        # (1 - u)^(-0.3) on [0, 1): integrable, unbounded at the upper end.
        f = lambda u: (1.0 - u) ** (-0.3)
        res = integrate_adaptive(f, 0.0, 1.0, rel_tol=1e-9)
        exact = 1.0 / 0.7
        assert res.converged
        assert abs(res.value - exact) <= 5e-9 * exact

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

        res = integrate_adaptive(
            lambda u: np.cos(u) ** expo, 0.0, HALF_PI, rel_tol=1e-10
        )
        assert res.converged
        assert abs(res.value - oracle) <= max(1e-8 * oracle, 2.0 * oracle_self_err)


def _upper_singular(u):
    with np.errstate(divide="ignore"):
        return (1.0 - u) ** (-0.3)


# Closed-form corpus reused for the error-honesty check: (f, a, b, exact).
_CORPUS = [
    (lambda u: np.exp(-u), 0.0, 20.0, 1.0 - math.exp(-20.0)),
    (np.cos, 0.0, HALF_PI, 1.0),
    (lambda u: u**7, 0.0, 1.0, 0.125),
    (lambda u: 1.0 / (1.0 + u * u), 0.0, 1.0, math.pi / 4.0),
    (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
    (_upper_singular, 0.0, 1.0, 1.0 / 0.7),
    (lambda u: np.exp(-0.5 * u * u), 0.0, 6.0, math.sqrt(HALF_PI) * math.erf(6.0 / math.sqrt(2.0))),
    (lambda u: np.sin(3.0 * u), 0.0, 2.0, (1.0 - math.cos(6.0)) / 3.0),
    (lambda u: u * np.exp(-u), 0.0, 30.0, 1.0 - 31.0 * math.exp(-30.0)),
    (lambda u: np.log1p(u), 0.0, 4.0, 5.0 * math.log(5.0) - 4.0),
]


class TestErrorHonesty:
    def test_estimates_bound_true_error(self):
        """True error stays within 10x the reported estimate.

        Requirement is >= 99% of cases; over this 30-case corpus that
        means at most zero failures, so every case must hold (with a tiny
        absolute floor for results that land on the exact value).
        """
        failures = []
        for f, a, b, exact in _CORPUS:
            for rel_tol in (1e-6, 1e-10, 1e-12):
                res = integrate_adaptive(f, a, b, rel_tol=rel_tol)
                true_err = abs(res.value - exact)
                allowed = 10.0 * res.abs_error_estimate + 5e-16 * abs(exact)
                if true_err > allowed:
                    failures.append((f, rel_tol, true_err, res.abs_error_estimate))
        assert not failures, failures

    def test_converged_flag_matches_tolerance(self):
        for f, a, b, exact in _CORPUS:
            res = integrate_adaptive(f, a, b, rel_tol=1e-10)
            assert res.converged
            assert res.abs_error_estimate <= 1e-10 * max(abs(res.value), 1e-300)
            assert abs(res.value - exact) <= 1e-9 * abs(exact)


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
            got = idist.branch_mass(p, "low", 0.0, np.inf, rel_tol=1e-12)
            exact = m0 * (3.0 - 2.0 * math.exp(-HALF_PI)) / 5.0
            assert abs(got - exact) <= 1e-12 * exact

    def test_empty_interval(self):
        p = year_params(2010)
        assert idist.branch_mass(p, "low", 5000.0, 5000.0) == 0.0

    def test_unknown_branch_rejected(self):
        with pytest.raises(idist.DomainError):
            idist.branch_mass(year_params(2010), "middle", 0.0, 1.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(idist.DomainError):
            idist.branch_mass(year_params(2010), "low", 10.0, 5.0)

    def test_divergent_tail_rejected(self):
        p = idist.Params(t_low=1.0, t_high=1.0, m0=1.0, m1=10.0, alpha=3.0, alpha1=0.5)
        bad = idist.Params(t_low=1.0, t_high=1.0, m0=1.0, m1=10.0, alpha=3.0, alpha1=1e-12)
        # The high kernel with alpha1 > 0 converges; the mass routine itself
        # must refuse alpha <= 0 over an infinite range.
        assert idist.branch_mass(p, "high", 0.0, np.inf) > 0.0
        with pytest.raises(idist.NonNormalizableError):
            kernel_log_mass(bad.m0, bad.t_high, 0.0, 0.0, np.inf)

    def test_subnormal_income_is_the_zero_income(self):
        # m0/m overflows to inf for m = 5e-324; v = arctan(inf) = pi/2 is
        # still exact, so the call must return quietly with the m = 0 mass.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_log_mass(100.0, 50.0, 2.0, 5e-324, np.inf)
        assert got == kernel_log_mass(100.0, 50.0, 2.0, 0.0, np.inf)

    def test_additivity_at_breakpoint(self):
        for year in (2005, 2009, 2010):
            p = year_params(year)
            for branch in ("low", "high"):
                left = idist.branch_mass(p, branch, 0.0, p.m1)
                right = idist.branch_mass(p, branch, p.m1, np.inf)
                total = idist.branch_mass(p, branch, 0.0, np.inf)
                assert abs((left + right) - total) <= 1e-12 * total

    def test_finite_windows_match_quadpack(self):
        p = year_params(2010)
        for a, b in [(0.0, 38000.0), (12000.0, 450000.0), (450000.0, np.inf)]:
            got = idist.branch_mass(p, "low", a, b, rel_tol=1e-12)
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
