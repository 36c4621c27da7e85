import csv
import math
import threading

import numpy as np
import pytest

import incomedist as idist
from incomedist import langevin
from incomedist.langevin import (
    EnsembleSnapshot,
    SimConfig,
    ks_distance,
    relaxation_reached,
    simulate_ensemble,
    write_snapshots_csv,
)

from conftest import year_params


def euler_maruyama_oracle(config):
    """The one-draw-per-step loop that ``simulate_ensemble`` must reproduce bit for bit."""
    c = config.coeffs
    n = int(config.n_agents)
    dt = float(config.dt)
    root_dt = math.sqrt(dt)
    if config.initial_incomes is not None:
        m = config.initial_incomes.copy()
    else:
        m = np.full(n, c.b0 / c.a0_low)

    rng = np.random.default_rng(config.seed)
    snapshots = [EnsembleSnapshot(time=0.0, incomes=m.copy())]
    recorded = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, int(config.n_steps) + 1):
            below = m < config.m1
            drift = np.where(below, c.a0_low + c.a_low * m, c.a0_high + c.a_high * m)
            sigma = np.sqrt(2.0 * (c.b0 + c.b * m * m))
            m -= drift * dt
            m += sigma * (root_dt * rng.standard_normal(n))
            np.abs(m, out=m)
            if not np.all(np.isfinite(m)):
                raise idist.NumericalBlowupError(
                    f"non-finite income at step {step} (dt={dt:g})", step=step
                )
            if config.record_stride and step % config.record_stride == 0:
                snapshots.append(EnsembleSnapshot(time=step * dt, incomes=m.copy()))
                recorded = step
    if recorded != config.n_steps and config.n_steps > 0:
        snapshots.append(EnsembleSnapshot(time=config.n_steps * dt, incomes=m.copy()))
    return snapshots


def runaway_config():
    # a_high < 0 and large makes incomes above m1 grow by ~9.6% per
    # step; the state overflows after a few thousand steps while the
    # formal stability product stays just under the bound.
    coeffs = idist.FpCoefficients(
        a0_low=1.0, a_low=0.01, a0_high=1.0, a_high=-24.0, b0=1.0, b=1e-6
    )
    return SimConfig(coeffs=coeffs, m1=0.5, n_agents=50, dt=0.004, n_steps=20000, seed=2)


def unit_2010_config(**overrides):
    coeffs = idist.fp_coefficients_for(year_params(2010), b=1.0)
    base = dict(coeffs=coeffs, m1=450000.0, n_agents=100, dt=0.004, n_steps=10, seed=1)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_rejects_bad_fields(self):
        coeffs = idist.fp_coefficients_for(year_params(2010))
        good = dict(coeffs=coeffs, m1=450000.0, n_agents=10, dt=0.004, n_steps=5, seed=0)
        for key, bad in [
            ("m1", 0.0),
            ("m1", math.inf),
            ("n_agents", 0),
            ("dt", 0.0),
            ("dt", -1.0),
            ("n_steps", -1),
            ("record_stride", -2),
            ("coeffs", "not-coefficients"),
        ]:
            kwargs = dict(good, **{key: bad})
            with pytest.raises(idist.ConfigError):
                SimConfig(**kwargs)

    def test_rejects_unstable_timestep(self):
        # alpha = 3.153 with b = 1 puts the fastest rate at b0-independent
        # a_low = 2.153, so dt = 0.05 crosses the 0.1 stability product.
        with pytest.raises(idist.ConfigError):
            unit_2010_config(dt=0.05)

    def test_rejects_mismatched_initial_state(self):
        with pytest.raises(idist.ConfigError):
            unit_2010_config(initial_incomes=np.ones(7))
        with pytest.raises(idist.ConfigError):
            unit_2010_config(initial_incomes=np.full(100, -1.0))


class TestSimulateEnsemble:
    def test_zero_steps_returns_initial_state(self):
        cfg = unit_2010_config(n_steps=0)
        snaps = simulate_ensemble(cfg)
        assert len(snaps) == 1
        assert snaps[0].time == 0.0
        expected = cfg.coeffs.b0 / cfg.coeffs.a0_low
        assert np.all(snaps[0].incomes == expected)

    def test_recording_schedule(self):
        cfg = unit_2010_config(n_steps=10, record_stride=4)
        times = [s.time for s in simulate_ensemble(cfg)]
        dt = cfg.dt
        assert times == [0.0, 4 * dt, 8 * dt, 10 * dt]

    def test_deterministic_for_a_seed(self):
        a = simulate_ensemble(unit_2010_config(n_steps=50, seed=5))[-1].incomes
        b = simulate_ensemble(unit_2010_config(n_steps=50, seed=5))[-1].incomes
        c = simulate_ensemble(unit_2010_config(n_steps=50, seed=6))[-1].incomes
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_state_stays_finite_and_nonnegative(self):
        cfg = unit_2010_config(n_agents=500, n_steps=200, record_stride=50)
        for snap in simulate_ensemble(cfg):
            assert snap.incomes.shape == (500,)
            assert np.all(np.isfinite(snap.incomes))
            assert np.all(snap.incomes >= 0.0)

    def test_continuation_from_snapshot(self):
        first = simulate_ensemble(unit_2010_config(n_steps=20, seed=3))[-1].incomes
        cont = simulate_ensemble(
            unit_2010_config(n_steps=0, seed=4, initial_incomes=first)
        )
        assert np.array_equal(cont[0].incomes, first)
        assert cont[0].incomes is not first  # defensive copy

    def test_runaway_drift_reports_blowup_step(self):
        with pytest.raises(idist.NumericalBlowupError) as excinfo:
            simulate_ensemble(runaway_config())
        assert excinfo.value.step > 0

    def test_additive_regime_relaxes_to_exponential(self):
        """With state-independent drift and diffusion the stationary law
        is exponential with mean B0/A0; an equivalent closed-form model
        (crossover scale pushed far above the populated range) serves as
        the reference CDF."""
        coeffs = idist.FpCoefficients(
            a0_low=1.0, a_low=0.0, a0_high=1.0, a_high=0.0, b0=1.0, b=1e-12
        )
        burn = SimConfig(
            coeffs=coeffs, m1=5.0, n_agents=40_000, dt=0.02, n_steps=600, seed=21
        )
        relaxed = simulate_ensemble(burn)[-1].incomes
        polish = SimConfig(
            coeffs=coeffs, m1=5.0, n_agents=40_000, dt=0.002, n_steps=1000, seed=22,
            initial_incomes=relaxed,
        )
        final = simulate_ensemble(polish)[-1].incomes
        model = idist.normalize(
            idist.Params(t_low=1.0, t_high=1.0, m0=1e6, m1=5.0, alpha=1.0, alpha1=1.0)
        )
        assert abs(final.mean() - 1.0) <= 0.03
        assert ks_distance(final, model) < 0.02

    def test_two_branch_equilibrium_matches_model(self, models):
        """Reduced-size version of the dynamics-vs-analytics check: a
        coarse burn-in reaches the stationary state, a short fine-step
        polish removes most of the O(sqrt(dt)) boundary bias."""
        coeffs = idist.fp_coefficients_for(year_params(2010), b=1.0)
        burn = SimConfig(
            coeffs=coeffs, m1=450000.0, n_agents=30_000, dt=0.004, n_steps=2500, seed=31
        )
        state = simulate_ensemble(burn)[-1].incomes
        polish = SimConfig(
            coeffs=coeffs, m1=450000.0, n_agents=30_000, dt=0.0004, n_steps=1250, seed=32,
            initial_incomes=state,
        )
        final = simulate_ensemble(polish)[-1].incomes
        assert ks_distance(final, models[2010]) < 0.03


class TestPrefetchedNoise:
    """The prefetch thread and reused buffers leave the integration unchanged."""

    @staticmethod
    def assert_same_snapshots(got, want):
        assert [s.time for s in got] == [s.time for s in want]
        for a, b in zip(got, want):
            assert a.incomes.tobytes() == b.incomes.tobytes()

    @pytest.mark.parametrize("n_agents", [7, 1000, 65537])
    def test_matches_oracle_across_block_boundaries(self, n_agents):
        rows = max(1, langevin._NOISE_BLOCK // n_agents)
        # Two full blocks and a short last one; with one row per block the
        # count is simply small.
        n_steps = 2 * rows + 3 if rows > 1 else 5
        for stride in (0, 2):
            cfg = unit_2010_config(
                n_agents=n_agents, n_steps=n_steps, record_stride=stride, seed=n_agents
            )
            self.assert_same_snapshots(simulate_ensemble(cfg), euler_maruyama_oracle(cfg))

    def test_matches_oracle_from_initial_incomes(self):
        start = simulate_ensemble(unit_2010_config(n_agents=1000, n_steps=40, seed=3))[-1].incomes
        cfg = unit_2010_config(
            n_agents=1000, n_steps=77, record_stride=10, seed=4, initial_incomes=start
        )
        self.assert_same_snapshots(simulate_ensemble(cfg), euler_maruyama_oracle(cfg))

    def test_matches_oracle_with_no_steps(self):
        cfg = unit_2010_config(n_agents=1000, n_steps=0, record_stride=3)
        self.assert_same_snapshots(simulate_ensemble(cfg), euler_maruyama_oracle(cfg))

    def test_blowup_step_matches_oracle(self):
        with pytest.raises(idist.NumericalBlowupError) as want:
            euler_maruyama_oracle(runaway_config())
        with pytest.raises(idist.NumericalBlowupError) as got:
            simulate_ensemble(runaway_config())
        assert got.value.step == want.value.step

    def test_worker_thread_is_joined(self):
        before = threading.active_count()
        simulate_ensemble(unit_2010_config(n_agents=1000, n_steps=200))
        assert threading.active_count() == before
        with pytest.raises(idist.NumericalBlowupError):
            simulate_ensemble(runaway_config())
        assert threading.active_count() == before


class TestKsDistance:
    def test_single_point_at_median(self, models):
        model = models[2010]
        med = idist.quantile(model, 0.5)
        assert abs(ks_distance([med], model) - 0.5) <= 1e-9

    def test_permutation_invariant(self, models):
        draws = idist.sample(models[2010], 400, seed=8)
        shuffled = draws[np.random.default_rng(1).permutation(400)]
        assert ks_distance(draws, models[2010]) == ks_distance(shuffled, models[2010])

    def test_model_sample_is_close(self, models):
        draws = idist.sample(models[2009], 2000, seed=12)
        assert ks_distance(draws, models[2009]) < 1.63 / math.sqrt(2000)

    def test_empty_sample_rejected(self, models):
        with pytest.raises(idist.DomainError):
            ks_distance([], models[2010])


class TestRelaxation:
    def test_detects_stationarity(self):
        coeffs = idist.FpCoefficients(
            a0_low=1.0, a_low=0.0, a0_high=1.0, a_high=0.0, b0=1.0, b=1e-12
        )
        warm = simulate_ensemble(
            SimConfig(coeffs=coeffs, m1=5.0, n_agents=20_000, dt=0.02, n_steps=800, seed=41)
        )[-1].incomes
        steady = simulate_ensemble(
            SimConfig(
                coeffs=coeffs, m1=5.0, n_agents=20_000, dt=0.02, n_steps=800, seed=42,
                record_stride=200, initial_incomes=warm,
            )
        )
        assert relaxation_reached(steady, threshold=0.02)

    def test_detects_transient(self):
        coeffs = idist.fp_coefficients_for(year_params(2010), b=1.0)
        cold = simulate_ensemble(
            SimConfig(
                coeffs=coeffs, m1=450000.0, n_agents=20_000, dt=0.004, n_steps=800,
                seed=43, record_stride=400,
            )
        )
        assert not relaxation_reached(cold, threshold=0.005)

    def test_two_sample_statistic_at_its_extremes(self):
        def snaps(*incomes):
            return [EnsembleSnapshot(time=float(t), incomes=np.array(m)) for t, m in enumerate(incomes)]

        # Identical snapshots: KS 0, below any positive threshold.
        assert relaxation_reached(snaps([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), threshold=1e-300)
        # Disjoint snapshots: KS exactly 1.
        disjoint = snaps([1.0, 2.0], [10.0, 20.0])
        assert not relaxation_reached(disjoint, threshold=1.0)
        assert relaxation_reached(disjoint, threshold=math.nextafter(1.0, 2.0))
        with pytest.raises(idist.DomainError):
            relaxation_reached(snaps([], [1.0]))

    def test_needs_two_snapshots(self):
        snaps = simulate_ensemble(unit_2010_config(n_steps=0))
        with pytest.raises(idist.DomainError):
            relaxation_reached(snaps)


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        cfg = unit_2010_config(n_agents=7, n_steps=6, record_stride=3)
        snaps = simulate_ensemble(cfg)
        path = tmp_path / "run.csv"
        write_snapshots_csv(path, snaps)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 * len(snaps)
        times = sorted({float(r["time"]) for r in rows})
        assert times == [s.time for s in snaps]
        assert all(float(r["income"]) >= 0.0 for r in rows)
