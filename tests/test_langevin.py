import csv
import io
import math
import sys
import threading

import numpy as np
import pytest
import scipy.stats

import incomedist as idist
from incomedist.langevin import (
    EnsembleSnapshot,
    SimConfig,
    ks_distance,
    relaxation_reached,
    simulate_ensemble,
    write_snapshots_csv,
)

from conftest import year_params


def sharded_oracle(config):
    """The loop that ``simulate_ensemble`` must reproduce bit for bit.

    Each shard, agents [0, n//2) and [n//2, n), draws one normal per agent
    and step from its own child of ``SeedSequence(seed)``; the whole
    ensemble then takes one Euler-Maruyama step with dt folded into the
    coefficients.
    """
    c = config.coeffs
    n = int(config.n_agents)
    dt = float(config.dt)
    if config.initial_incomes is not None:
        m = config.initial_incomes.copy()
    else:
        m = np.full(n, c.b0 / c.a0_low)
    keep_low, push_low = 1.0 - c.a_low * dt, c.a0_low * dt
    keep_high, push_high = 1.0 - c.a_high * dt, c.a0_high * dt
    s0, s2 = 2.0 * dt * c.b0, 2.0 * dt * c.b
    cut = [0, n // 2, n]
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(config.seed).spawn(2)]

    snapshots = [EnsembleSnapshot(time=0.0, incomes=m.copy())]
    recorded = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, int(config.n_steps) + 1):
            xi = np.concatenate([
                rng.standard_normal(hi - lo) for rng, lo, hi in zip(rngs, cut, cut[1:]) if hi > lo
            ])
            high = m >= config.m1
            keep = np.where(high, keep_high, keep_low)
            push = np.where(high, push_high, push_low)
            m = np.abs((m * keep - push) + np.sqrt(s0 + s2 * (m * m)) * xi)
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
            ("seed", -1),
            ("seed", 1.5),
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


class TestShards:
    """Two seeded shards on two threads give the one-draw-per-shard loop's output."""

    @staticmethod
    def assert_same_snapshots(got, want):
        assert [s.time for s in got] == [s.time for s in want]
        for a, b in zip(got, want):
            assert a.incomes.tobytes() == b.incomes.tobytes()

    @pytest.mark.parametrize("n_agents", [1, 2, 7, 1000, 65537])
    def test_matches_oracle(self, n_agents):
        for stride in (0, 2):
            cfg = unit_2010_config(
                n_agents=n_agents, n_steps=7, record_stride=stride, seed=n_agents
            )
            self.assert_same_snapshots(simulate_ensemble(cfg), sharded_oracle(cfg))

    def test_matches_oracle_from_initial_incomes(self):
        start = simulate_ensemble(unit_2010_config(n_agents=1000, n_steps=40, seed=3))[-1].incomes
        cfg = unit_2010_config(
            n_agents=1000, n_steps=77, record_stride=10, seed=4, initial_incomes=start
        )
        self.assert_same_snapshots(simulate_ensemble(cfg), sharded_oracle(cfg))

    def test_matches_oracle_with_no_steps(self):
        cfg = unit_2010_config(n_agents=1000, n_steps=0, record_stride=3)
        self.assert_same_snapshots(simulate_ensemble(cfg), sharded_oracle(cfg))

    def test_blowup_step_matches_oracle(self):
        with pytest.raises(idist.NumericalBlowupError) as want:
            sharded_oracle(runaway_config())
        with pytest.raises(idist.NumericalBlowupError) as got:
            simulate_ensemble(runaway_config())
        assert got.value.step == want.value.step

    @staticmethod
    def count_draws(monkeypatch, hold_shard_0=0):
        """Count each shard's draws; with ``hold_shard_0`` = k, shard 0's first
        draw waits until shard 1 has made k draws."""
        draws = {0: 0, 1: 0}
        shard_1_ahead = threading.Event()
        real_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, child):
                self.rng = real_rng(child)
                self.shard = child.spawn_key[-1]

            def standard_normal(self, *args, **kwargs):
                if self.shard == 0 and draws[0] == 0 and hold_shard_0:
                    assert shard_1_ahead.wait(timeout=60)
                draws[self.shard] += 1
                if self.shard == 1 and draws[1] == hold_shard_0:
                    shard_1_ahead.set()
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        return draws

    @staticmethod
    def runaway_from(shard_0_start, shard_1_start):
        start = np.where(np.arange(50) < 25, shard_0_start, shard_1_start)
        cfg = SimConfig(**{**vars(runaway_config()), "initial_incomes": start})
        with pytest.raises(idist.NumericalBlowupError) as want:
            sharded_oracle(cfg)
        return cfg, want.value.step

    def test_healthy_shard_stops_after_the_blowup(self, monkeypatch):
        # Shard 1 starts near the overflow and blows up within about a
        # hundred steps; shard 0 starts where the runaway config does and
        # would run until that config's blow-up, thousands of steps later.
        _, alone = self.runaway_from(1.0, 1.0)
        cfg, first = self.runaway_from(1.0, 1e150)
        # Held until shard 1 has drawn its blow-up step, shard 0 cannot run
        # to its own blow-up before the pool thread gets scheduled.
        draws = self.count_draws(monkeypatch, hold_shard_0=first)
        with pytest.raises(idist.NumericalBlowupError) as got:
            simulate_ensemble(cfg)
        assert got.value.step == first < alone
        assert draws[1] == first
        assert draws[0] < alone

    def test_earliest_step_wins_when_both_shards_blow_up(self, monkeypatch):
        # Shard 0 blows up first in model time but is held back until shard
        # 1 has drawn for its own, later, blow-up step.
        _, later = self.runaway_from(1.0, 1e150)
        cfg, first = self.runaway_from(1e153, 1e150)
        assert first < later
        draws = self.count_draws(monkeypatch, hold_shard_0=later)
        with pytest.raises(idist.NumericalBlowupError) as got:
            simulate_ensemble(cfg)
        assert got.value.step == first
        assert draws == {0: first, 1: later}

    def test_worker_thread_is_joined(self):
        before = threading.active_count()
        simulate_ensemble(unit_2010_config(n_agents=1000, n_steps=200))
        assert threading.active_count() == before
        with pytest.raises(idist.NumericalBlowupError):
            simulate_ensemble(runaway_config())
        assert threading.active_count() == before

    def test_output_ignores_thread_switching(self):
        cfg = unit_2010_config(n_agents=1001, n_steps=300, record_stride=100, seed=9)
        default = simulate_ensemble(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            switching = simulate_ensemble(cfg)
        finally:
            sys.setswitchinterval(interval)
        self.assert_same_snapshots(switching, default)


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


def snaps(*incomes):
    """Snapshots at times 0, 1, ...; with two, the first is the half-time one."""
    return [EnsembleSnapshot(time=float(t), incomes=np.array(m)) for t, m in enumerate(incomes)]


_RNG = np.random.default_rng(20131210)


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

    def test_default_threshold_follows_the_snapshot_sizes(self):
        # Two independent samples of one law at the simulate benchmark's size: their
        # statistic, 0.00576 on this seed, fails a fixed 0.005 but passes Smirnov's 5%
        # critical value 1.36 sqrt(2 / 1e5) = 0.00608.
        rng = np.random.default_rng(3)
        pair = snaps(rng.exponential(1.0, 100_000), rng.exponential(1.0, 100_000))
        assert not relaxation_reached(pair, threshold=0.005)
        assert relaxation_reached(pair)
        assert not relaxation_reached(pair, threshold=0.0057)

    def test_two_sample_statistic_at_its_extremes(self):
        # Identical snapshots: KS 0, below any positive threshold.
        assert relaxation_reached(snaps([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), threshold=1e-300)
        # Disjoint snapshots: KS exactly 1.
        disjoint = snaps([1.0, 2.0], [10.0, 20.0])
        assert not relaxation_reached(disjoint, threshold=1.0)
        assert relaxation_reached(disjoint, threshold=math.nextafter(1.0, 2.0))
        with pytest.raises(idist.DomainError):
            relaxation_reached(snaps([], [1.0]))

    @pytest.mark.parametrize(
        "half, final",
        [
            (_RNG.lognormal(0.0, 1.0, 400), _RNG.lognormal(0.05, 1.1, 400)),
            (_RNG.normal(5.0, 1.0, 250), _RNG.normal(5.0, 1.0, 250)),
            (_RNG.integers(0, 6, 300).astype(float), _RNG.integers(0, 6, 300).astype(float)),
            (_RNG.integers(0, 4, 37), _RNG.integers(1, 5, 1000)),
            (_RNG.exponential(1.0, 1), _RNG.exponential(1.0, 777)),
            (_RNG.exponential(1.0, 1000), _RNG.exponential(1.3, 3)),
            ([2.0], [3.0]),
            ([2.0], [2.0]),
            ([1.0, 2.0, 2.0, 5.0], [1.0, 2.0, 2.0, 5.0]),
            ([1.0, 2.0, 3.0], [10.0, 20.0]),
        ],
        ids=[
            "lognormal", "same-law", "integer-ties", "integer-ties-unequal",
            "1-vs-777", "1000-vs-3", "1-vs-1", "1-vs-1-tied", "identical", "disjoint",
        ],
    )
    def test_statistic_equals_scipy(self, half, final):
        # The asymptotic p-value divides by zero at n1 = n2 = 1; only the
        # statistic is compared.
        with np.errstate(divide="ignore"):
            s = float(scipy.stats.ks_2samp(half, final, method="asymp").statistic)
        pair = snaps(half, final)
        if s > 0.0:
            assert not relaxation_reached(pair, threshold=s)
        assert relaxation_reached(pair, threshold=math.nextafter(s, math.inf))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_incomes(self, bad):
        with pytest.raises(idist.DomainError):
            relaxation_reached(snaps([1.0, bad, 3.0], [1.0, 2.0, 3.0]))
        with pytest.raises(idist.DomainError):
            relaxation_reached(snaps([1.0, 2.0, 3.0], [bad, 2.0, 3.0]))

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0, 0.0, -0.0, "0.01", None])
    def test_rejects_bad_threshold(self, threshold):
        with pytest.raises(idist.DomainError):
            relaxation_reached(snaps([1.0, 2.0], [1.0, 2.0]), threshold=threshold)

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

    def test_same_bytes_as_per_value_formatting(self):
        values = np.array([
            0.0, -0.0, 1e-300, 5e-324, 1e300, 1.7976931348623157e308, math.inf, math.nan,
            0.1234567890125, 1.0000000000005, 9.9999999999995, 999999999999.5,
            123456789012.5, 2.5, 1.0 / 3.0, -7.25e-5,
        ])
        snaps = [EnsembleSnapshot(time=0.0, incomes=values),
                 EnsembleSnapshot(time=0.1 + 0.2, incomes=values[::-1].copy())]
        buf = io.StringIO()
        write_snapshots_csv(buf, snaps)
        want = "time,income\n" + "".join(
            f"{snap.time:.12g},{v:.12g}\n" for snap in snaps for v in snap.incomes.tolist()
        )
        assert buf.getvalue() == want
