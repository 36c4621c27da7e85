"""Ensemble simulation of the income Langevin dynamics.

The stationary density implemented in :mod:`.model` solves the
Fokker-Planck equation of the Ito process

    dm = -A(m) dt + sqrt(2 B(m)) dW,

with piecewise-linear drift A(m) = A0 + a*m below its own breakpoint m1
(A0' + a'*m above) and quadratic diffusion B(m) = B0 + b*m**2.  This
module integrates that process for an agent ensemble with the
Euler-Maruyama scheme and a reflecting boundary at m = 0 (m <- |m|
after each step), providing a brute-force consistency check against the
closed-form distribution: after relaxation the ensemble histogram must
converge to it up to discretization bias of order sqrt(dt).

Agents start at m = B0/A0 (the bulk temperature) unless explicit
initial incomes are supplied; restarting from a previous snapshot with
a smaller dt polishes the boundary-layer bias away without paying the
fine step for the whole relaxation.

The ensemble is stepped as two fixed shards, agents [0, n//2) and
[n//2, n), each with its own seeded stream, buffers and thread (the
calling thread and one pool thread).  Numpy's generator and ufuncs
release the GIL, so the shards draw and step on two cores without
synchronising per step; the output depends only on the seed.  The
relaxation check computes its two-sample KS statistic in numpy, with the
operations of ``scipy.stats.ks_2samp``, so the two agree bit for bit.
Snapshot CSV goes through the writer and row formatter of :mod:`.data`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import csv_rows, open_output
from .errors import ConfigError, DomainError, NumericalBlowupError, _integer, _nonnegative_array, _real
from .model import FpCoefficients, NormalizedModel, ccdf

__all__ = [
    "SimConfig",
    "EnsembleSnapshot",
    "simulate_ensemble",
    "ks_distance",
    "relaxation_reached",
    "write_snapshots_csv",
]

_STABILITY_LIMIT = 0.1


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Ensemble integration plan; the drift ``coeffs`` carries its own breakpoint m1.

    ``record_stride`` k keeps every k-th step (plus the initial and
    final states); 0 keeps only those two.  ``initial_incomes``
    overrides the default all-agents-at-temperature start, which is how
    a run continues from an earlier snapshot.
    """

    coeffs: FpCoefficients
    n_agents: int
    dt: float
    n_steps: int
    seed: int
    record_stride: int = 0
    initial_incomes: Optional[np.ndarray] = None

    def __post_init__(self):
        c = self.coeffs
        if not isinstance(c, FpCoefficients):
            raise ConfigError(f"coeffs must be FpCoefficients, got {type(c).__name__}")
        for name, least in (("n_agents", 1), ("n_steps", 0), ("record_stride", 0), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError, least))
        object.__setattr__(self, "dt", _real(self.dt, "dt", ConfigError, 0.0))
        rate = max(abs(c.a_low), abs(c.a_high), c.b)
        if self.dt * rate >= _STABILITY_LIMIT:
            raise ConfigError(
                f"dt*max(|a|, |a'|, b) = {self.dt * rate:.4g} breaks the "
                f"stability bound {_STABILITY_LIMIT}"
            )
        if self.initial_incomes is not None:
            arr = _nonnegative_array(self.initial_incomes, "initial_incomes", ConfigError)
            if arr.shape != (self.n_agents,):
                raise ConfigError(f"initial_incomes must have shape ({self.n_agents},), got {arr.shape}")
            object.__setattr__(self, "initial_incomes", arr)


@dataclass(frozen=True, eq=False)
class EnsembleSnapshot:
    """Agent incomes at one recorded model time."""

    time: float
    incomes: np.ndarray


def simulate_ensemble(config: SimConfig) -> list[EnsembleSnapshot]:
    """Integrate the ensemble SDE and return recorded snapshots.

    Euler-Maruyama with reflection: each step applies
    m <- |m (1 - a dt) - A0 dt + sqrt(2 dt B0 + 2 dt b m**2) * xi| with
    standard normal xi, the drift branch (a, A0) chosen by the current
    income against the drift's breakpoint ``coeffs.m1``.  Shard k (agents
    [0, n//2), then [n//2, n)) draws its xi from child k of
    ``SeedSequence(seed).spawn(2)``; shard 1 runs on a pool thread that is
    joined before the call returns or raises.  Output is deterministic for
    a fixed (seed, n_agents, n_steps).

    Raises
    ------
    NumericalBlowupError
        If any income turns non-finite; carries the first such step over
        the whole ensemble.  A shard stops once it has passed the other
        shard's first non-finite step.
    """
    c = config.coeffs
    n, n_steps, stride, dt = config.n_agents, config.n_steps, config.record_stride, config.dt
    record_steps = sorted({0, n_steps, *(range(stride, n_steps, stride) if stride else ())})
    row_of = {step: row for row, step in enumerate(record_steps)}
    records = np.empty((len(record_steps), n))
    records[0] = c.b0 / c.a0_low if config.initial_incomes is None else config.initial_incomes
    # dt folded in: per branch, m -> m*keep - push + sqrt(s0 + s2*m*m)*xi.
    keep_low, push_low = 1.0 - c.a_low * dt, c.a0_low * dt
    keep_high, push_high = 1.0 - c.a_high * dt, c.a0_high * dt
    s0, s2 = 2.0 * dt * c.b0, 2.0 * dt * c.b
    cut = [0, n // 2, n]
    streams = np.random.SeedSequence(config.seed).spawn(2)
    # First non-finite step of each shard; n_steps + 1 while there is none.
    bad = [n_steps + 1, n_steps + 1]

    def run(shard: int) -> None:
        rng = np.random.default_rng(streams[shard])
        cols = slice(cut[shard], cut[shard + 1])
        m = records[0, cols].copy()
        xi, scale, high = np.empty_like(m), np.empty_like(m), np.empty(m.size, dtype=bool)
        # The finiteness check turns overflow into NumericalBlowupError; keep
        # numpy from warning on the way (the error state is per thread).
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, n_steps + 1):
                if step > bad[1 - shard]:
                    return
                rng.standard_normal(out=xi)
                np.multiply(m, m, out=scale)
                np.multiply(s2, scale, out=scale)
                np.add(s0, scale, out=scale)
                np.sqrt(scale, out=scale)
                np.multiply(scale, xi, out=xi)
                np.greater_equal(m, c.m1, out=high)
                np.multiply(m, keep_low, out=scale)
                np.subtract(scale, push_low, out=scale)
                np.multiply(m, keep_high, out=scale, where=high)
                np.subtract(scale, push_high, out=scale, where=high)
                np.add(scale, xi, out=m)
                np.abs(m, out=m)
                if not math.isfinite(m.max()):
                    bad[shard] = step
                    return
                if step in row_of:
                    records[row_of[step], cols] = m

    with ThreadPoolExecutor(max_workers=1) as pool:
        other = pool.submit(run, 1)
        try:
            if cut[1] > cut[0]:
                run(0)
        except BaseException:
            bad[0] = 0  # an interrupted shard 0 stops shard 1 before the join
            raise
        other.result()
    step = min(bad)
    if step <= n_steps:
        raise NumericalBlowupError(f"non-finite income at step {step} (dt={dt:g})", step=step)
    return [EnsembleSnapshot(time=s * dt, incomes=row) for s, row in zip(record_steps, records)]


def ks_distance(sample: Sequence[float], model: NormalizedModel) -> float:
    """Sup-norm distance between a sample's empirical CDF and the model CDF."""
    arr = np.sort(_nonnegative_array(sample, "a KS sample", DomainError).ravel())
    n = arr.size
    if n == 0:
        raise DomainError("KS distance needs a non-empty sample")
    cdf = 1.0 - ccdf(model, arr)
    steps = np.arange(n + 1) / n
    d_plus = np.max(steps[1:] - cdf)
    d_minus = np.max(cdf - steps[:-1])
    return float(max(d_plus, d_minus))


def _ks_two_sample(a, b) -> float:
    """Two-sample KS statistic, max |F_a - F_b| over the pooled values (``ks_2samp``'s)."""
    a, b = np.sort(np.ravel(a)), np.sort(np.ravel(b))
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") / a.size
           - np.searchsorted(b, pooled, side="right") / b.size)
    return float(np.max(np.abs(gap)))


def relaxation_reached(snapshots: Sequence[EnsembleSnapshot]) -> bool:
    """Whether the half-time and final snapshots are two samples of one law.

    Compares the last snapshot with the recorded one closest to half its
    time: a two-sample KS statistic below Smirnov's 5% critical value
    1.36 sqrt((n1 + n2) / (n1 n2)) for the two snapshot sizes declares the
    ensemble stationary, so two samples of one law pass 95% of the time at
    any ensemble size.  Fewer than two snapshots, a time that is not a finite
    number >= 0, or an empty snapshot or one whose incomes are not finite
    numbers >= 0 raises ``DomainError``.
    """
    if len(snapshots) < 2:
        raise DomainError("relaxation check needs at least two snapshots")
    times = [_real(s.time, "snapshot time", DomainError, 0.0, closed="left") for s in snapshots]
    half = snapshots[min(range(len(times) - 1), key=lambda k: abs(times[k] - times[-1] / 2.0))]
    a, b = (_nonnegative_array(s.incomes, "snapshot incomes", DomainError).ravel()
            for s in (half, snapshots[-1]))
    if a.size == 0 or b.size == 0:
        raise DomainError("relaxation check needs non-empty snapshots")
    return _ks_two_sample(a, b) < 1.36 * math.sqrt((a.size + b.size) / (a.size * b.size))


def write_snapshots_csv(dest, snapshots: Sequence[EnsembleSnapshot]) -> None:
    """Write recorded snapshots as CSV rows (time, income), one per agent.

    ``dest`` is a path or an open text stream, which is left open.  Snapshots are formatted one
    at a time.
    """
    with open_output(dest) as fh:
        fh.write("time,income\n")
        for snap in snapshots:
            fh.write(csv_rows(snap.time, snap.incomes))
