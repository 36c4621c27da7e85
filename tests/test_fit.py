import itertools
import json
import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incomedist as idist
import incomedist.fit as fit_mod
from incomedist.data import Dataset, EmpiricalCcdf, empirical_ccdf
from incomedist.errors import (
    ConfigError,
    DomainError,
    InsufficientDataError,
    QuadratureError,
    UnreliableErrorsError,
)
from conftest import YEAR_ROWS, year_params
from incomedist.fit import (
    FitConfig,
    FitProblem,
    FitResult,
    bootstrap_errors,
    fit,
    fit_result_document,
    initial_guess,
    objective,
)
from incomedist.errors import _raised
from incomedist.model import _normalize_on

PARAM_KEYS = {"T", "T1", "m0", "m1", "alpha", "alpha1"}

# Objectives the Nelder-Mead fitter reached on the fit_2010 and fit_2009
# fixtures at commit ab13ba7, the last before the least-squares fitter.
NELDER_MEAD_OBJECTIVE = {2010: 5.457527587591457e-05, 2009: 2.0749572840538694e-05}


def small_curve(n_points=40, span=(200.0, 2e6)):
    m = np.geomspace(span[0], span[1], n_points)
    p = np.geomspace(0.9, 1e-4, n_points)
    return EmpiricalCcdf(m=m, p=p)


class TestFitConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_points": 9},
            {"grid_points": 12.5},
            {"restarts": 0},
            {"bootstrap_resamples": -1},
            {"bootstrap_resamples": 19},
            {"opt_tol": 0.0},
            {"opt_tol": 1.5},
            {"quad_tol": 1e-3},
            {"quad_tol": 0.0},
            {"seed": -1},
            {"seed": 2.0},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigError):
            FitConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = FitConfig()
        assert cfg.grid_points == 200

    def test_result_rejects_negative_objective(self):
        with pytest.raises(DomainError):
            FitResult(
                params=idist.Params(1.0, 1.0, 1.0, 2.0, 1.0, 1.0),
                objective=-1.0, iterations=1, converged=True, restarts_used=1,
            )


class TestObjective:
    def test_generator_params_score_low_on_their_own_sample(self, ccdf_2010_100k):
        value = objective(year_params(2010), ccdf_2010_100k, 200)
        # Sampling noise on 1e5 records leaves a small but real floor.
        assert 1e-6 < value < 1e-3

    def test_model_evaluated_curve_scores_zero(self, models):
        grid = np.geomspace(500.0, 2e6, 150)
        p = idist.ccdf(models[2010], grid)
        # A trailing point 40x below the last model value puts every grid
        # point above 20x the final position, so the objective's grid
        # stops at 2e6 and is the curve's own grid.
        curve = EmpiricalCcdf(m=np.append(grid, 4e6), p=np.append(p, p[-1] / 40.0))
        assert np.array_equal(FitProblem(curve, 150).grid, grid)
        value = objective(year_params(2010), curve, 150)
        # Only the round trip through stored linear-space p remains.
        assert value <= 1e-30

    def test_grid_of_a_short_curve_reaches_its_largest_income(self):
        # Fewer than 20 records put every plotting position below 20 times the last one,
        # so no point passes the tail-floor test and the grid runs to the largest income.
        ccdf = empirical_ccdf(Dataset(values=np.geomspace(300.0, 3e5, 10)))
        assert FitProblem(ccdf, 30).grid[-1] == ccdf.m[-1]

    def test_wrong_tail_exponent_scores_much_worse(self, ccdf_2010_100k):
        truth = objective(year_params(2010), ccdf_2010_100k, 200)
        bent = replace(year_params(2010), alpha1=year_params(2010).alpha1 + 1.0)
        assert objective(bent, ccdf_2010_100k, 200) > 100.0 * truth

    def test_scale_equivariance(self, ccdf_2010_100k):
        lam = 7.3
        scaled_curve = EmpiricalCcdf(m=ccdf_2010_100k.m * lam, p=ccdf_2010_100k.p)
        p = year_params(2010)
        scaled_params = idist.Params(
            t_low=p.t_low * lam, t_high=p.t_high * lam,
            m0=p.m0 * lam, m1=p.m1 * lam,
            alpha=p.alpha, alpha1=p.alpha1,
        )
        base = objective(p, ccdf_2010_100k, 120)
        moved = objective(scaled_params, scaled_curve, 120)
        assert moved == pytest.approx(base, rel=1e-7)

    def test_tiny_grid_rejected(self):
        with pytest.raises(DomainError):
            objective(year_params(2010), small_curve(), 1)

    def test_problem_curve_matches_composed_logccdf(self, ccdf_2010_100k):
        # The fit's fused sweep against normalize followed by logccdf.
        problem = FitProblem(ccdf_2010_100k, 200)
        scale = math.sqrt(problem.grid.size)
        for year in YEAR_ROWS:
            p = year_params(year)
            curve = idist.logccdf(idist.normalize(p, problem.quad_tol), problem.grid)
            want = (curve / math.log(10.0) - problem.log10_emp) / scale
            gap = np.max(np.abs(problem.residuals(p)[0] - want))
            assert gap <= 2.0 * problem.quad_tol / (math.log(10.0) * scale), (year, gap)


class TestInitialGuess:
    def test_ballpark_on_large_sample(self, ccdf_2010_100k):
        guess = initial_guess(ccdf_2010_100k)
        assert guess.t_high == guess.m1
        assert abs(guess.alpha - 3.153) < 1.0
        assert 135000.0 / 3.0 < guess.m0 < 135000.0 * 3.0
        assert 38000.0 / 3.0 < guess.t_low < 38000.0 * 3.0
        assert 0.0 < guess.alpha1 < guess.alpha

    def test_exponential_data_brackets_the_temperature(self):
        # The guess regresses the lowest decade of incomes, where an
        # exponential CCDF has barely moved off 1; expect the right
        # scale, not the right value.
        rng = np.random.default_rng(6)
        ds = Dataset(values=rng.exponential(30000.0, 20000))
        guess = initial_guess(empirical_ccdf(ds))
        assert 30000.0 / 2.5 < guess.t_low < 30000.0 * 2.5

    @staticmethod
    def assert_inside_the_bounds(guess, ccdf):
        for name, (lo, hi) in fit_mod._derive_bounds(ccdf).items():
            assert lo < getattr(guess, name) < hi, name

    def test_ties_at_the_bottom_leave_the_whole_curve_to_the_knee(self):
        # 10,000 records tied at the smallest income put every other CCDF point below
        # 10/(n + 1) of its 31 points: no point is solid enough to hold the knee.
        ds = Dataset(values=np.concatenate([np.full(10_000, 100.0), np.geomspace(200.0, 1e6, 30)]))
        ccdf = empirical_ccdf(ds)
        self.assert_inside_the_bounds(initial_guess(ccdf), ccdf)

    def test_knee_at_the_top_of_a_sparse_curve(self):
        # A smooth curve, 25 points over 12 decades, steepest in its top decade: no slope
        # jump above 0.4 places m1, the 90% fallback lies below the knee, so m1 = 3 m0,
        # and too few points lie near [m0, m1] to fit alpha, which comes from the slopes.
        m = np.geomspace(1.0, 1e12, 25)
        x = np.log10(m)
        ccdf = EmpiricalCcdf(m=m, p=0.999 * 10.0 ** (-0.01 * x - 0.8 * np.maximum(0.0, x - 11.0)))
        guess = initial_guess(ccdf)
        assert guess.m1 == 3.0 * guess.m0
        self.assert_inside_the_bounds(guess, ccdf)

    def test_overflowing_temperature_fit_falls_back_to_the_income_at_1_over_e(self):
        # Past about 1e154 the straight-line fit of the lowest decade would square the incomes
        # and overflow; t_low falls back to the income whose plotting position lies nearest
        # 1/e, with no warning on the way.
        ccdf = EmpiricalCcdf(m=np.geomspace(1e300, 1e306, 30), p=np.linspace(0.95, 0.01, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            guess = initial_guess(ccdf)
        assert guess.t_low == ccdf.m[np.argmin(np.abs(ccdf.p - math.exp(-1.0)))]
        self.assert_inside_the_bounds(guess, ccdf)

    @pytest.mark.parametrize("lo, hi", [(1e154, 1e160), (1e-170, 1e-160)])
    def test_incomes_far_from_1_take_the_fallback_without_a_warning(self, lo, hi):
        # Between these the squares of the lowest decade's incomes sum to a normal float
        # and the straight-line fit runs; outside they overflow or underflow, polyfit would
        # warn (a RuntimeWarning, then a RankWarning), and t_low comes from the 1/e point.
        ccdf = empirical_ccdf(Dataset(values=np.geomspace(lo, hi, 500)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            guess = initial_guess(ccdf)
        assert guess.t_low == ccdf.m[np.argmin(np.abs(ccdf.p - math.exp(-1.0)))]
        self.assert_inside_the_bounds(guess, ccdf)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            initial_guess(small_curve(n_points=10))

    def test_too_narrow_span(self):
        with pytest.raises(InsufficientDataError):
            initial_guess(small_curve(n_points=30, span=(100.0, 900.0)))


class TestFit:
    def test_tie_holds_exactly(self, fit_2010):
        assert fit_2010.params.t_high == fit_2010.params.m1
        assert fit_2010.converged
        assert fit_2010.objective < 1e-3

    def test_reports_grid_points_above_m1(self, fit_2010, ccdf_2010_100k):
        # How much of the curve backs alpha1: 30 of 200 grid points here,
        # 7 for a 10k-record sample of the same row.
        grid = FitProblem(ccdf_2010_100k, FitConfig().grid_points).grid
        count = fit_2010.diagnostics["grid_points_above_m1"]
        assert count == np.count_nonzero(grid >= fit_2010.params.m1) == 30

    @pytest.mark.parametrize("year", [2010, 2009])
    def test_work_and_quality_guard(self, request, year):
        result = request.getfixturevalue(f"fit_{year}")
        curve = request.getfixturevalue(f"ccdf_{year}_100k")
        # Hardware-independent work bound, twice the 182 and 248 calls that scipy's trf
        # took here with separate Jacobian calls; the own loop takes 81 and 144 sweeps.
        # Nelder-Mead needed about 7,300 and 7,900, forward differences 510 and 727.
        assert result.diagnostics["misfit_calls"] <= 500
        cfg = FitConfig()
        recomputed = objective(result.params, curve, cfg.grid_points, cfg.quad_tol)
        assert result.objective == pytest.approx(recomputed, rel=1e-12, abs=0.0)
        assert result.objective <= NELDER_MEAD_OBJECTIVE[year]

    def test_jacobian_spectrum_of_the_2009_fixture(self, fit_2009):
        # 14 grid points back alpha1 here, so the weakest direction is the bulk's
        # (T, m0, alpha), not the high branch's.
        singular = fit_2009.diagnostics["jacobian_singular_values"]
        weights = fit_2009.diagnostics["weakest_direction"]
        assert len(singular) == 5 and singular == sorted(singular, reverse=True)
        assert list(weights) == ["T", "m0", "m1", "alpha", "alpha1"]
        assert max(weights.values(), key=abs) == weights["m0"] > 0.0
        assert np.linalg.norm(list(weights.values())) == pytest.approx(1.0)

    def test_weakest_direction_names_a_high_branch_the_grid_cannot_see(self, ccdf_2009_100k,
                                                                       monkeypatch):
        # The 2009 fixture with m1 held above the grid's last point, as when the
        # high-income class has all but vanished: alpha1 and m1 carry the weakest
        # direction, whose singular value is 0 to rounding.
        real = fit_mod._derive_bounds
        top = FitProblem(ccdf_2009_100k, 200).grid[-1]
        monkeypatch.setattr(fit_mod, "_derive_bounds",
                            lambda ccdf: {**real(ccdf), "m1": (1.5 * top, 3.0 * top)})
        res = fit(ccdf_2009_100k, FitConfig(tie_t1_m1=True, seed=7, restarts=1))
        assert res.diagnostics["grid_points_above_m1"] == 0
        singular = res.diagnostics["jacobian_singular_values"]
        assert singular[-1] <= 1e-6 * singular[0]
        weights = res.diagnostics["weakest_direction"]
        assert sorted(weights, key=lambda key: -abs(weights[key]))[:2] == ["alpha1", "m1"]
        assert weights["alpha1"] > 0.9

    def test_run_started_at_the_alpha_bound_leaves_it(self, fit_2010, ccdf_2010_100k):
        # A loop that clips its steps onto the box stays on alpha's lower bound from here;
        # the scaled steps leave it and reach the fixture's interior minimum.
        cfg = FitConfig(tie_t1_m1=True, seed=7, restarts=5)
        names, fold, log_bounds = fit_mod._space(ccdf_2010_100k, cfg)
        k = names.index("alpha")
        x0 = np.log([getattr(initial_guess(ccdf_2010_100k), n) for n in names])
        x0[k] = log_bounds[k, 0] + 1e-6
        problem = FitProblem(ccdf_2010_100k, cfg.grid_points, cfg.quad_tol)
        x, value, converged = fit_mod._lockstep([problem], fold, [x0], log_bounds, cfg.opt_tol)[0][:3]
        assert converged
        assert math.exp(x[k]) == pytest.approx(fit_2010.params.alpha, rel=1e-3)
        assert value == pytest.approx(fit_2010.objective, rel=1e-9, abs=0.0)

    def test_diagnostics_count_every_evaluation(self, models, monkeypatch):
        values = idist.sample(models[2010], 800, seed=13)
        curve = empirical_ccdf(Dataset(values=values))
        calls = itertools.count()
        real = fit_mod.model_mod._normalize_on

        def counted(points, quad_tol, grad=False):
            for _point in points:
                next(calls)
            return real(points, quad_tol, grad)

        monkeypatch.setattr(fit_mod.model_mod, "_normalize_on", counted)
        cfg = FitConfig(grid_points=80, tie_t1_m1=True, restarts=3, seed=5, quad_tol=1e-8)
        res = fit(curve, cfg)
        assert res.diagnostics["misfit_calls"] == next(calls)
        assert 0 < res.iterations < res.diagnostics["misfit_calls"]
        spread = res.diagnostics["restart_objectives"]
        assert len(spread) == 3 and min(spread) == res.objective

    def test_exhausted_step_budget_is_not_converged(self, models, monkeypatch):
        values = idist.sample(models[2010], 800, seed=13)
        curve = empirical_ccdf(Dataset(values=values))
        monkeypatch.setattr(fit_mod, "_MAX_STEPS", 2)
        cfg = FitConfig(grid_points=80, tie_t1_m1=True, restarts=1, seed=5, quad_tol=1e-8)
        res = fit(curve, cfg)
        assert res.converged is False
        assert np.isfinite(res.objective)

    def test_penalised_region_is_avoided(self, models, monkeypatch):
        # The quadrature refuses alpha < 1.9, where the unhindered fit of
        # this sample ends (alpha near 1.77): the fit must settle outside.
        values = idist.sample(models[2010], 800, seed=13)
        curve = empirical_ccdf(Dataset(values=values))
        refusals = itertools.count()
        monkeypatch.setattr(fit_mod.model_mod, "_normalize_on", refusing_below(1.9, refusals))
        cfg = FitConfig(grid_points=80, tie_t1_m1=True, restarts=3, seed=5, quad_tol=1e-8)
        res = fit(curve, cfg)
        assert next(refusals) > 0
        assert np.all(np.isfinite(list(idist.params_to_dict(res.params).values())))
        assert res.params.alpha >= 1.9
        assert res.objective < 1e-3

    def test_seeded_runs_identical(self, models):
        values = idist.sample(models[2010], 800, seed=13)
        curve = empirical_ccdf(Dataset(values=values))
        cfg = FitConfig(grid_points=80, tie_t1_m1=True, restarts=2,
                        bootstrap_resamples=0, seed=5, opt_tol=1e-3,
                        quad_tol=1e-8)
        first = fit(curve, cfg)
        second = fit(curve, cfg)
        assert idist.params_to_dict(first.params) == idist.params_to_dict(second.params)
        assert first.objective == second.objective
        assert first.iterations == second.iterations

    def test_sparse_curve_raises(self):
        cfg = FitConfig(grid_points=80, restarts=1, bootstrap_resamples=0)
        with pytest.raises(InsufficientDataError):
            fit(small_curve(n_points=10), cfg)

    def test_single_branch_data_is_reported_degenerate(self):
        raw = idist.Params(t_low=30000.0, t_high=30000.0, m0=120000.0,
                           m1=300000.0, alpha=2.5, alpha1=2.5)
        gen = idist.normalize(raw)
        values = idist.sample(gen, 2000, seed=9)
        curve = empirical_ccdf(Dataset(values=values))
        cfg = FitConfig(grid_points=140, tie_t1_m1=False, restarts=2,
                        bootstrap_resamples=0, seed=3, opt_tol=5e-4,
                        quad_tol=1e-9)
        res = fit(curve, cfg)
        assert res.converged
        # Six free parameters on one-branch data: the optimizer beats the
        # generator by bending the spare branch into the noise, yet the
        # law it lands on matches the generator's over the observed bulk.
        # The parameters themselves are unidentifiable there.
        assert res.objective <= objective(raw, curve, 140)
        fitted = idist.normalize(res.params)
        grid = np.geomspace(curve.m[0], np.quantile(values, 0.99), 200)
        gap = np.abs(np.log10(idist.ccdf(fitted, grid))
                     - np.log10(idist.ccdf(gen, grid)))
        assert gap.max() < 0.3

    ONE_BRANCH = idist.Params(t_low=30000.0, t_high=30000.0, m0=120000.0,
                              m1=300000.0, alpha=2.5, alpha1=2.5)

    @staticmethod
    def weakest_and_ratio(res):
        singular = res.diagnostics["jacobian_singular_values"]
        weights = res.diagnostics["weakest_direction"]
        return max(weights, key=lambda key: abs(weights[key])), singular[-1] / singular[0]

    def test_spectrum_flags_one_branch_data_inside_a_pinning_box(self, monkeypatch):
        # One law on both sides of m1: the spare branch's T1 and alpha1 are free to rounding.
        values = idist.sample(idist.normalize(self.ONE_BRANCH), 1500, seed=9)
        curve = empirical_ccdf(Dataset(values=values))
        box = {
            "t_low": (29500.0, 30500.0),
            "t_high": (29500.0, 30500.0),
            "m0": (115000.0, 125000.0),
            "m1": (295000.0, 305000.0),
            "alpha": (2.45, 2.55),
            "alpha1": (2.45, 2.55),
        }
        monkeypatch.setattr(fit_mod, "_derive_bounds", lambda ccdf: box)
        cfg = FitConfig(grid_points=100, tie_t1_m1=False, restarts=1,
                        bootstrap_resamples=0, seed=3, opt_tol=1e-3,
                        quad_tol=1e-8)
        weakest, ratio = self.weakest_and_ratio(fit(curve, cfg))
        assert ratio < 1e-12
        assert weakest in ("T1", "alpha1")

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_spectrum_of_one_branch_data_fitted_freely(self, seed):
        # T1 or alpha1 carries the weakest direction of every fit.  Its singular value is 0
        # to rounding where the fit puts m1 above the grid's last point (seeds 1-7 and 12);
        # where it keeps grid points above m1 and splits the sample's noise into two
        # branches (2-13 points on seeds 8-11), it is 6e-5 to 8e-3 of the largest.
        values = idist.sample(idist.normalize(self.ONE_BRANCH), 30_000, seed=seed)
        res = fit(empirical_ccdf(Dataset(values=values)), FitConfig(seed=7, restarts=5))
        assert res.converged
        weakest, ratio = self.weakest_and_ratio(res)
        assert weakest in ("T1", "alpha1")
        assert (ratio < 1e-12) == (res.diagnostics["grid_points_above_m1"] == 0)


FIELDS = tuple(f.name for f in fields(idist.Params))


def refusing_below(alpha, refusals=None):
    """A stand-in for the batched ``_normalize_on`` that refuses each point with alpha below
    ``alpha`` alone, as the quadrature would, counting the refusals on ``refusals``."""
    real = _normalize_on

    def normalize(points, quad_tol, grad=False):
        out = real(points, quad_tol, grad)
        for k, (params, _m) in enumerate(points):
            if params.alpha < alpha:
                out[k] = QuadratureError("refused")
                if refusals is not None:
                    next(refusals)
        return out

    return normalize


def normalize_on(params, quad_tol, m, grad=False):
    """One point of the batched ``_normalize_on``, raised as the point alone raises it."""
    return _raised(_normalize_on([(params, m)], quad_tol, grad)[0])


def central_differences(f, params, h=1e-5):
    """Columns of d f / d log(parameter) by central differences, in Params field order."""
    def at(name, sign):
        return f(replace(params, **{name: getattr(params, name) * math.exp(sign * h)}))
    return np.array([(at(name, 1) - at(name, -1)) / (2.0 * h) for name in FIELDS]).T


def column_gaps(exact, reference, floor=0.0):
    """Per-column norm of exact - reference over the reference column's norm, floored at
    ``floor`` times the largest reference column's norm."""
    norms = np.linalg.norm(reference, axis=0)
    return np.linalg.norm(exact - reference, axis=0) / np.maximum(norms, floor * norms.max())


class TestJacobian:
    @pytest.mark.parametrize("year", YEAR_ROWS)
    @pytest.mark.parametrize("t_high_over_m1", [1.0, 0.6])
    def test_published_rows_match_central_differences(self, ccdf_2010_100k, year,
                                                       t_high_over_m1):
        problem = FitProblem(ccdf_2010_100k, 200, quad_tol=1e-12)
        params = replace(year_params(year), t_high=t_high_over_m1 * year_params(year).m1)
        gaps, exact = problem.residuals(params)
        curve = normalize_on(params, problem.quad_tol, problem.grid)[1]
        scale = math.sqrt(problem.grid.size)
        assert np.array_equal(gaps, (curve / math.log(10.0) - problem.log10_emp) / scale)
        assert exact.shape == (200, 6)
        reference = central_differences(lambda p: problem.residuals(p)[0], params)
        assert column_gaps(exact, reference).max() <= 1e-6

    # m0/T and m0/T1 stop at 1e4: far above it the low side's panels underflow
    # (ROADMAP item 2), which is to widen the range to 1e9.
    @settings(max_examples=40)
    @given(log_beta=st.floats(math.log(1e-3), math.log(1e4)),
           log_beta1=st.floats(math.log(1e-3), math.log(1e4)),
           log_m1=st.floats(math.log(1e-2), math.log(1e2)),
           alpha=st.floats(0.05, 12.0), alpha1=st.floats(0.05, 12.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_central_differences_over_the_box(self, log_beta, log_beta1, log_m1,
                                                      alpha, alpha1, seed):
        m0 = 1e5
        params = idist.Params(t_low=m0 / math.exp(log_beta), t_high=m0 / math.exp(log_beta1),
                              m0=m0, m1=m0 * math.exp(log_m1), alpha=alpha, alpha1=alpha1)
        grid = np.sort(m0 * np.exp(np.random.default_rng(seed).uniform(-7.0, 7.0, 40)))
        _model, curve, exact = normalize_on(params, 1e-12, grid, grad=True)
        assert np.array_equal(curve, normalize_on(params, 1e-12, grid)[1])
        reference = central_differences(lambda p: normalize_on(p, 1e-12, grid)[1], params)
        # A column 1e4 times shorter than the longest holds mostly the differences' rounding.
        assert column_gaps(exact, reference, floor=1e-4).max() <= 1e-4

    @pytest.mark.parametrize("t_low, t_high, m0, m1, alpha, alpha1", [
        (3.85e6, 0.0326, 3.51e5, 4.39e5, 6.55, 4.20), (2.99e4, 0.422, 6.25e9, 5.49e9, 7.94, 1.55)])
    def test_overflowed_gradient_is_nan_without_a_warning(self, t_low, t_high, m0, m1, alpha,
                                                          alpha1):
        """With T1 << m0, inside the fitter's box but out of a tied fit's reach, a branch's share
        of the mass underflows to 0 where its m0 derivative overflows: the curve stays finite,
        the Jacobian is NaN, which the fit's evaluator penalises, and no RuntimeWarning escapes."""
        params = idist.Params(t_low=t_low, t_high=t_high, m0=m0, m1=m1, alpha=alpha, alpha1=alpha1)
        _model, curve, jac = normalize_on(params, 1e-10, np.geomspace(0.37, 5.3e7, 200), grad=True)
        assert np.isfinite(curve).all()
        assert np.isnan(jac).any()

    @staticmethod
    def fitter_evaluation(models, monkeypatch, config):
        """(x0, evaluate) of one fit of a 2010 sample: where it starts and the sweep it steps on."""
        seen = []
        real = fit_mod._evaluator

        def spy(fold):
            evaluate = real(fold)

            def batch(problems, xs):
                if not seen:  # the first round: the one run's start
                    seen.extend([np.copy(xs[0]), lambda x: evaluate(problems[:1], [x])[0]])
                return evaluate(problems, xs)

            return batch

        monkeypatch.setattr(fit_mod, "_evaluator", spy)
        fit(empirical_ccdf(Dataset(values=idist.sample(models[2010], 800, seed=13))), config)
        return tuple(seen)

    @pytest.mark.parametrize("tie", [True, False])
    def test_loop_steps_on_the_jacobian_of_its_residuals(self, models, monkeypatch, tie):
        # In packed log-parameters, a tied T1 folded into m1, where the fit starts.
        x0, evaluate = self.fitter_evaluation(
            models, monkeypatch, FitConfig(grid_points=80, tie_t1_m1=tie, restarts=1,
                                           quad_tol=1e-12))
        h = 1e-5
        reference = np.array([(evaluate(x0 + e)[0] - evaluate(x0 - e)[0]) / (2.0 * h)
                              for e in np.eye(x0.size) * h]).T
        jac = evaluate(x0)[1]
        assert jac.shape == (80, 5 if tie else 6)
        assert column_gaps(jac, reference).max() <= 1e-6

    def test_penalised_point_gets_a_zero_jacobian(self, models, monkeypatch):
        _x0, evaluate = self.fitter_evaluation(
            models, monkeypatch, FitConfig(grid_points=80, tie_t1_m1=True, restarts=1))
        x = np.log([30000.0, 100000.0, 400000.0, 3.0, 1.0])
        assert np.all(evaluate(x)[1])

        monkeypatch.setattr(fit_mod.model_mod, "_normalize_on", refusing_below(math.inf))
        residuals, jac = evaluate(x)
        assert residuals @ residuals == pytest.approx(fit_mod._PENALTY)
        assert jac.shape == (80, 5) and not np.any(jac)


class TestLockstep:
    """A fit's restarts and a bootstrap's refits run in lockstep, each round's trial points
    evaluated by one batched sweep; each run takes the steps it takes alone."""

    @staticmethod
    def runs(models):
        """(problems, fold, starts, log_bounds, opt_tol): two restarts each on two curves."""
        cfg = FitConfig(grid_points=80, tie_t1_m1=True, quad_tol=1e-8)
        curves = [empirical_ccdf(Dataset(values=idist.sample(models[year], 800, seed=13)))
                  for year in (2010, 2005)]
        names, fold, log_bounds = fit_mod._space(curves[0], cfg)
        x0 = np.log([getattr(initial_guess(curves[0]), n) for n in names])
        starts = [x0, x0 + 0.3 * np.random.default_rng(4).standard_normal(x0.size)] * 2
        problems = [FitProblem(c, cfg.grid_points, cfg.quad_tol) for c in curves for _ in (0, 1)]
        return problems, fold, starts, log_bounds, cfg.opt_tol

    @staticmethod
    def assert_same(together, alone):
        for (x, value, converged, calls, jac), want in zip(together, alone):
            assert np.array_equal(x, want[0]) and np.array_equal(jac, want[4])
            assert (value, converged, calls) == want[1:4]

    @pytest.mark.parametrize("live", [64, 3])
    def test_runs_end_where_they_end_alone(self, models, monkeypatch, live):
        # With 3 live runs at most, the fourth starts when the first of them ends.
        monkeypatch.setattr(fit_mod, "_LIVE_RUNS", live)
        problems, fold, starts, log_bounds, opt_tol = self.runs(models)
        together = fit_mod._lockstep(problems, fold, starts, log_bounds, opt_tol)
        alone = [fit_mod._lockstep([p], fold, [s], log_bounds, opt_tol)[0]
                 for p, s in zip(problems, starts)]
        assert len({run[3] for run in together}) > 1  # runs of different lengths
        self.assert_same(together, alone)

    def test_a_penalised_point_leaves_the_other_runs_alone(self, models, monkeypatch):
        # The model refuses alpha < 2.5: points of some runs are penalised in rounds that
        # also evaluate other runs' points, and every run still ends as it ends alone.
        problems, fold, starts, log_bounds, opt_tol = self.runs(models)
        refused_beside_others = []
        refuse = refusing_below(2.5)

        def normalize(points, quad_tol, grad=False):
            out = refuse(points, quad_tol, grad)
            if len(points) > 1:
                refused_beside_others.extend(isinstance(x, QuadratureError) for x in out)
            return out

        monkeypatch.setattr(fit_mod.model_mod, "_normalize_on", normalize)
        together = fit_mod._lockstep(problems, fold, starts, log_bounds, opt_tol)
        assert any(refused_beside_others)
        alone = [fit_mod._lockstep([p], fold, [s], log_bounds, opt_tol)[0]
                 for p, s in zip(problems, starts)]
        self.assert_same(together, alone)


def _bump_refit(x0, log_bounds, opt_tol):
    """A refit that moves only T (the first log-parameter), by the resample's mean residual
    at the center."""
    residuals, _jac = yield x0
    return x0 + np.eye(x0.size)[0] * np.log1p(float(np.mean(residuals))), 0.0, True, 1


def _stalled_refit(converged):
    """Refits that evaluate their start once and end there, converged as ``converged()`` says."""
    def refit(x0, log_bounds, opt_tol):
        yield x0
        return x0, 0.0, converged(), 1
    return refit


class TestBootstrapErrors:
    @pytest.fixture()
    def tiny_ds(self, models):
        return Dataset(values=idist.sample(models[2010], 500, seed=17))

    @pytest.fixture()
    def cfg(self):
        return FitConfig(grid_points=80, tie_t1_m1=True, restarts=1,
                         bootstrap_resamples=20, seed=5, opt_tol=1e-3,
                         quad_tol=1e-8)

    def test_real_resampling_spreads_the_touched_parameter(
        self, tiny_ds, cfg, monkeypatch
    ):
        monkeypatch.setattr(fit_mod, "_minimize_from", _bump_refit)
        errs = bootstrap_errors(tiny_ds, cfg, year_params(2010))
        assert errs["T"] > 1.0
        center = idist.params_to_dict(year_params(2010))
        for key in PARAM_KEYS - {"T"}:
            assert errs[key] <= 8.0 * np.finfo(float).eps * center[key]

    def test_tied_refits_give_t1_the_error_of_m1(self, tiny_ds, cfg):
        errs = bootstrap_errors(tiny_ds, cfg, year_params(2010))
        assert errs["T1"] == errs["m1"]
        assert set(errs) == PARAM_KEYS
        assert all(math.isfinite(e) and e >= 0.0 for e in errs.values())

    @pytest.mark.parametrize("weighted", [False, True])
    def test_resamples_are_the_draws_of_choice_sorted(self, weighted):
        # Generator.choice(n, n, p=...) searches the cumulative probabilities for each of
        # random(n); the resampler searches them for the sorted uniforms, so it draws the
        # same index multiset in ascending order.  choice's arithmetic is numpy's own, so
        # this runs on every numpy the package supports.
        rng = np.random.default_rng(21)
        ds = Dataset(values=rng.lognormal(10.0, 1.0, 3000),
                     weights=rng.uniform(0.1, 3.0, 3000) if weighted else None)
        probs = ds.weights / ds.weights.sum()
        for seed in (0, 5, 11):
            cfg = FitConfig(bootstrap_resamples=20, seed=seed)
            for k, idx in enumerate(fit_mod._resamples(ds, cfg)):
                drawn = np.random.default_rng((seed, 2, k)).choice(len(ds), size=len(ds),
                                                                   replace=True, p=probs)
                assert np.array_equal(idx, np.sort(drawn))
                assert np.array_equal(Dataset(values=ds.values[idx]).values,
                                      Dataset(values=ds.values[drawn]).values)

    def test_too_few_resamples_rejected(self, tiny_ds, cfg):
        with pytest.raises(ConfigError):
            bootstrap_errors(tiny_ds, replace(cfg, bootstrap_resamples=0),
                             year_params(2010))

    def test_mostly_failed_refits_raise(self, tiny_ds, cfg, monkeypatch):
        monkeypatch.setattr(fit_mod, "_minimize_from", _stalled_refit(lambda: False))
        with pytest.raises(UnreliableErrorsError, match="failed to converge"):
            bootstrap_errors(tiny_ds, cfg, year_params(2010))

    def test_half_failed_refits_tolerated(self, tiny_ds, cfg, monkeypatch):
        calls = itertools.count()
        monkeypatch.setattr(fit_mod, "_minimize_from", _stalled_refit(lambda: next(calls) % 2 == 0))
        errs = bootstrap_errors(tiny_ds, cfg, year_params(2010))
        assert set(errs) == PARAM_KEYS

    @pytest.mark.slow
    def test_error_magnitudes_match_sampling_noise(self, models):
        # Full-strength run; the windows sit a factor ~3 around values
        # measured with this exact configuration.
        values = idist.sample(models[2010], 30_000, seed=4)
        ds = Dataset(values=values)
        cfg = FitConfig(tie_t1_m1=True, seed=7, restarts=1,
                        bootstrap_resamples=20, grid_points=140,
                        opt_tol=5e-4)
        errs = bootstrap_errors(ds, cfg, year_params(2010))
        assert errs["T1"] == errs["m1"]
        assert 1000.0 < errs["T"] < 9000.0
        assert 20000.0 < errs["m0"] < 210000.0
        assert 40000.0 < errs["m1"] < 400000.0
        assert 0.4 < errs["alpha"] < 4.0
        assert 0.06 < errs["alpha1"] < 0.7


class TestFitResultDocument:
    def test_document_shape(self):
        result = FitResult(
            params=year_params(2010),
            objective=0.5, iterations=42, converged=True, restarts_used=3,
            diagnostics={"bound_saturated": ["m1"], "misfit_calls": 812,
                         "restart_objectives": [0.5, 0.7, 0.5],
                         "grid_points_above_m1": 17},
        )
        cfg = FitConfig(grid_points=120, tie_t1_m1=True, bootstrap_resamples=0)
        doc = fit_result_document(result, cfg, {k: 1.0 for k in PARAM_KEYS})
        assert set(doc) >= {"params", "errors", "objective", "iterations",
                            "converged", "restarts_used", "diagnostics", "config"}
        assert set(doc["params"]) == PARAM_KEYS
        assert doc["errors"] == {k: 1.0 for k in PARAM_KEYS}
        assert doc["config"]["grid_points"] == 120
        assert doc["config"]["tie_t1_m1"] is True
        assert doc["diagnostics"]["bound_saturated"] == ["m1"]
        assert doc["diagnostics"]["misfit_calls"] == 812
        assert doc["diagnostics"]["restart_objectives"] == [0.5, 0.7, 0.5]
        assert doc["diagnostics"]["grid_points_above_m1"] == 17
        # The document holds its own lists, not the frozen result's.
        doc["diagnostics"]["bound_saturated"].append("t1")
        assert result.diagnostics["bound_saturated"] == ["m1"]

    def test_real_fit_document_keys(self, fit_2010):
        # The document echoes fit()'s diagnostics and FitConfig as they are,
        # so their key sets are the fit JSON's.
        cfg = FitConfig(tie_t1_m1=True, seed=7, restarts=5)
        doc = fit_result_document(fit_2010, cfg, {})
        assert json.loads(json.dumps(doc)) == doc  # JSON-native values only
        assert set(doc["diagnostics"]) == {"bound_saturated", "misfit_calls",
                                           "restart_objectives", "grid_points_above_m1",
                                           "jacobian_singular_values", "weakest_direction"}
        assert set(doc["config"]) == {"grid_points", "tie_t1_m1", "restarts",
                                      "bootstrap_resamples", "seed", "opt_tol", "quad_tol"}

    def test_numpy_and_fraction_settings_give_the_plain_document(self):
        """FitConfig stores what its checks return, so numpy integers and a Fraction tolerance
        give the fit JSON of the same plain Python values."""
        ds = Dataset(values=idist.sample(idist.normalize(year_params(2010)), 2000, 1))
        docs = []
        for cfg in (FitConfig(grid_points=50, restarts=1, seed=3, quad_tol=1e-8, opt_tol=1e-3),
                    FitConfig(grid_points=np.int64(50), restarts=np.int64(1), seed=np.int64(3),
                              quad_tol=Fraction(1, 10**8), opt_tol=Fraction(1, 1000))):
            result = fit(empirical_ccdf(ds), cfg)
            docs.append(json.dumps(fit_result_document(result, cfg, {}), sort_keys=True))
        assert docs[0] == docs[1]
