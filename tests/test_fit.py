import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import incomedist as idist
import incomedist.fit as fit_mod
from incomedist.data import Dataset, EmpiricalCcdf, empirical_ccdf
from incomedist.errors import (
    ConfigError,
    DomainError,
    InsufficientDataError,
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

PARAM_KEYS = {"T", "T1", "m0", "m1", "alpha", "alpha1"}


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
            {"bounds": {"sigma": (1.0, 2.0)}},
            {"bounds": {"m0": (5.0, 2.0)}},
            {"bounds": {"m0": (-1.0, 2.0)}},
            {"bounds": {"m0": (1.0, math.inf)}},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigError):
            FitConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = FitConfig()
        assert cfg.grid_points == 200 and cfg.bounds is None

    def test_result_rejects_negative_objective(self):
        with pytest.raises(DomainError):
            FitResult(
                params=idist.Params(1.0, 1.0, 1.0, 2.0, 1.0, 1.0),
                errors={}, objective=-1.0, iterations=1,
                converged=True, restarts_used=1,
            )

    def test_result_rejects_negative_errors(self):
        with pytest.raises(DomainError):
            FitResult(
                params=idist.Params(1.0, 1.0, 1.0, 2.0, 1.0, 1.0),
                errors={"T": -0.5}, objective=0.0, iterations=1,
                converged=True, restarts_used=1,
            )


class TestObjective:
    def test_generator_params_score_low_on_their_own_sample(self, ccdf_2010_100k):
        value = objective(year_params(2010), ccdf_2010_100k, 200)
        # Sampling noise on 1e5 records leaves a small but real floor.
        assert 1e-6 < value < 1e-3

    def test_model_evaluated_curve_scores_zero(self, models):
        grid = np.geomspace(500.0, 2e6, 150)
        curve = EmpiricalCcdf(m=grid, p=idist.ccdf(models[2010], grid))
        value = objective(year_params(2010), curve, 150, tail_floor=0)
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
        assert set(fit_2010.errors) == PARAM_KEYS
        assert fit_2010.objective < 1e-3

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

    def test_ridge_flag_fires_inside_a_pinning_box(self):
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
        cfg = FitConfig(grid_points=100, tie_t1_m1=False, restarts=1,
                        bootstrap_resamples=0, seed=3, opt_tol=1e-3,
                        quad_tol=1e-8, bounds=box)
        res = fit(curve, cfg)
        assert res.diagnostics["degenerate_ridge"] is True


def _bump_refit(center, curve, bounds, config):
    wiggle = float(curve.p.mean())
    return replace(center, t_low=center.t_low * (1.0 + wiggle)), True


class TestBootstrapErrors:
    @pytest.fixture()
    def tiny_ds(self, models):
        return Dataset(values=idist.sample(models[2010], 500, seed=17))

    @pytest.fixture()
    def cfg(self):
        return FitConfig(grid_points=80, tie_t1_m1=True, restarts=1,
                         bootstrap_resamples=20, seed=5, opt_tol=1e-3,
                         quad_tol=1e-8)

    def test_identity_resampler_gives_zero_spread(
        self, tiny_ds, cfg, monkeypatch
    ):
        monkeypatch.setattr(fit_mod, "_refit_from", _bump_refit)
        errs = bootstrap_errors(
            tiny_ds, cfg, year_params(2010),
            index_sampler=lambda k, rng: np.arange(len(tiny_ds)),
        )
        assert set(errs) == PARAM_KEYS
        # All twenty draws are identical; only the rounding of their
        # mean survives, so allow a few ulp rather than literal zero.
        center = idist.params_to_dict(year_params(2010))
        for key, value in errs.items():
            assert value <= 8.0 * np.finfo(float).eps * center[key]

    def test_real_resampling_spreads_the_touched_parameter(
        self, tiny_ds, cfg, monkeypatch
    ):
        monkeypatch.setattr(fit_mod, "_refit_from", _bump_refit)
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
        monkeypatch.setattr(fit_mod, "_refit_from",
                            lambda center, curve, bounds, config: (center, False))
        with pytest.raises(UnreliableErrorsError, match="failed to converge"):
            bootstrap_errors(tiny_ds, cfg, year_params(2010))

    def test_half_failed_refits_tolerated(self, tiny_ds, cfg, monkeypatch):
        calls = itertools.count()

        def flaky(center, curve, bounds, config):
            return center, next(calls) % 2 == 0

        monkeypatch.setattr(fit_mod, "_refit_from", flaky)
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
            errors={k: 1.0 for k in PARAM_KEYS},
            objective=0.5, iterations=42, converged=True, restarts_used=3,
            diagnostics={"bound_saturated": ("m1",), "degenerate_ridge": False},
        )
        cfg = FitConfig(grid_points=120, tie_t1_m1=True, bootstrap_resamples=0)
        doc = fit_result_document(result, cfg)
        assert set(doc) >= {"params", "errors", "objective", "iterations",
                            "converged", "restarts_used", "diagnostics", "config"}
        assert set(doc["params"]) == PARAM_KEYS
        assert doc["config"]["grid_points"] == 120
        assert doc["config"]["tie_t1_m1"] is True
        assert doc["diagnostics"]["bound_saturated"] == ["m1"]
        assert doc["diagnostics"]["degenerate_ridge"] is False
