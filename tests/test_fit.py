import itertools
import json
import math
from dataclasses import fields, replace

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
        for year in YEAR_ROWS:
            p = year_params(year)
            want = idist.logccdf(idist.normalize(p, problem.quad_tol), problem.grid)
            gap = np.max(np.abs(problem.logccdf(p) - want))
            assert gap <= 2.0 * problem.quad_tol, (year, gap)


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
        names = fit_mod._pack_names(True)
        log_bounds = np.log([fit_mod._derive_bounds(ccdf_2010_100k)[n] for n in names])
        k = names.index("alpha")
        x0 = np.log([getattr(initial_guess(ccdf_2010_100k), n) for n in names])
        x0[k] = log_bounds[k, 0] + 1e-6
        problem = FitProblem(ccdf_2010_100k, cfg.grid_points, cfg.quad_tol)
        x, value, converged = fit_mod._minimize_from(problem, x0, log_bounds, cfg)[:3]
        assert converged
        assert math.exp(x[k]) == pytest.approx(fit_2010.params.alpha, rel=1e-3)
        assert value == pytest.approx(fit_2010.objective, rel=1e-9, abs=0.0)

    def test_diagnostics_count_every_evaluation(self, models, monkeypatch):
        values = idist.sample(models[2010], 800, seed=13)
        curve = empirical_ccdf(Dataset(values=values))
        calls = itertools.count()
        real = FitProblem.logccdf
        monkeypatch.setattr(FitProblem, "logccdf",
                            lambda self, params, grad=False: (next(calls), real(self, params, grad))[1])
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
        real = FitProblem.logccdf
        refusals = itertools.count()

        def refuse(self, params, grad=False):
            if params.alpha < 1.9:
                next(refusals)
                raise QuadratureError("refused")
            return real(self, params, grad)

        monkeypatch.setattr(FitProblem, "logccdf", refuse)
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

    def test_ridge_flag_fires_inside_a_pinning_box(self, monkeypatch):
        raw = idist.Params(t_low=30000.0, t_high=30000.0, m0=120000.0,
                           m1=300000.0, alpha=2.5, alpha1=2.5)
        values = idist.sample(idist.normalize(raw), 1500, seed=9)
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
        res = fit(curve, cfg)
        assert res.diagnostics["degenerate_ridge"] is True


FIELDS = tuple(f.name for f in fields(idist.Params))


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
        gaps, exact = problem.residuals(params, grad=True)
        assert np.array_equal(gaps, problem.residuals(params))
        assert exact.shape == (200, 6)
        assert column_gaps(exact, central_differences(problem.residuals, params)).max() <= 1e-6

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
        _model, curve, exact = _normalize_on(params, 1e-12, grid, grad=True)
        assert np.array_equal(curve, _normalize_on(params, 1e-12, grid)[1])
        reference = central_differences(lambda p: _normalize_on(p, 1e-12, grid)[1], params)
        # A column 1e4 times shorter than the longest holds mostly the differences' rounding.
        assert column_gaps(exact, reference, floor=1e-4).max() <= 1e-4

    @staticmethod
    def fitter_evaluation(models, monkeypatch, config):
        """(x0, evaluate) of one fit of a 2010 sample: where it starts and the sweep it steps on."""
        seen = []
        real = fit_mod._evaluator

        def spy(problem, cfg):
            evaluate = real(problem, cfg)
            seen.append(evaluate)
            return lambda x: (seen.append(np.copy(x)), evaluate(x))[1]

        monkeypatch.setattr(fit_mod, "_evaluator", spy)
        fit(empirical_ccdf(Dataset(values=idist.sample(models[2010], 800, seed=13))), config)
        evaluate, x0 = seen[:2]
        return x0, evaluate

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

        def refuse(self, params, grad=False):
            raise QuadratureError("refused")

        monkeypatch.setattr(FitProblem, "logccdf", refuse)
        residuals, jac = evaluate(x)
        assert residuals @ residuals == pytest.approx(fit_mod._PENALTY)
        assert jac.shape == (80, 5) and not np.any(jac)


def _bump_refit(problem, x0, log_bounds, config):
    """A refit that moves only T (the first log-parameter), by the resample's mean CCDF."""
    wiggle = float(np.mean(10.0 ** problem.log10_emp))
    return x0 + np.eye(x0.size)[0] * np.log1p(wiggle), 0.0, True, 1


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

    def test_too_few_resamples_rejected(self, tiny_ds, cfg):
        with pytest.raises(ConfigError):
            bootstrap_errors(tiny_ds, replace(cfg, bootstrap_resamples=19),
                             year_params(2010))

    def test_mostly_failed_refits_raise(self, tiny_ds, cfg, monkeypatch):
        monkeypatch.setattr(fit_mod, "_minimize_from",
                            lambda problem, x0, log_bounds, config: (x0, 0.0, False, 1))
        with pytest.raises(UnreliableErrorsError, match="failed to converge"):
            bootstrap_errors(tiny_ds, cfg, year_params(2010))

    def test_half_failed_refits_tolerated(self, tiny_ds, cfg, monkeypatch):
        calls = itertools.count()

        def flaky(problem, x0, log_bounds, config):
            return x0, 0.0, next(calls) % 2 == 0, 1

        monkeypatch.setattr(fit_mod, "_minimize_from", flaky)
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
            diagnostics={"bound_saturated": ["m1"], "degenerate_ridge": False,
                         "misfit_calls": 812, "restart_objectives": [0.5, 0.7, 0.5],
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
        assert doc["diagnostics"]["degenerate_ridge"] is False
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
        assert set(doc["diagnostics"]) == {"bound_saturated", "degenerate_ridge", "misfit_calls",
                                           "restart_objectives", "grid_points_above_m1",
                                           "jacobian_singular_values", "weakest_direction"}
        assert set(doc["config"]) == {"grid_points", "tie_t1_m1", "restarts",
                                      "bootstrap_resamples", "seed", "opt_tol", "quad_tol"}
