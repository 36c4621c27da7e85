"""Ensemble simulation of the income Langevin dynamics.

The stationary density implemented in :mod:`.model` solves the
Fokker-Planck equation of the Ito process

    dm = -A(m) dt + sqrt(2 B(m)) dW,

with piecewise-linear drift A(m) = A0 + a*m below the threshold m1
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
from .errors import ConfigError, DomainError, NumericalBlowupError
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
_SMIRNOV = object()  # relaxation_reached's default: the threshold follows the snapshot sizes


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Ensemble integration plan.

    ``record_stride`` k keeps every k-th step (plus the initial and
    final states); 0 keeps only those two.  ``initial_incomes``
    overrides the default all-agents-at-temperature start, which is how
    a run continues from an earlier snapshot.
    """

    coeffs: FpCoefficients
    m1: float
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
        if not (isinstance(self.m1, (int, float)) and math.isfinite(self.m1) and self.m1 > 0):
            raise ConfigError(f"m1 must be a positive number, got {self.m1!r}")
        for name, least in (("n_agents", 1), ("n_steps", 0), ("record_stride", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (isinstance(self.dt, (int, float)) and math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        rate = max(abs(c.a_low), abs(c.a_high), c.b)
        if self.dt * rate >= _STABILITY_LIMIT:
            raise ConfigError(
                f"dt*max(|a|, |a'|, b) = {self.dt * rate:.4g} breaks the "
                f"stability bound {_STABILITY_LIMIT}"
            )
        if self.initial_incomes is not None:
            arr = np.asarray(self.initial_incomes, dtype=float)
            if arr.shape != (self.n_agents,):
                raise ConfigError(
                    f"initial_incomes must have shape ({self.n_agents},), got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ConfigError("initial_incomes must be finite and >= 0")
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
    income against m1.  Shard k (agents [0, n//2), then [n//2, n)) draws
    its xi from child k of ``SeedSequence(seed).spawn(2)``; shard 1 runs
    on a pool thread that is joined before the call returns or raises.
    Output is deterministic for a fixed (seed, n_agents, n_steps).

    Raises
    ------
    NumericalBlowupError
        If any income turns non-finite; carries the first such step over
        the whole ensemble.  A shard stops once it has passed the other
        shard's first non-finite step.
    """
    c = config.coeffs
    n = int(config.n_agents)
    n_steps = int(config.n_steps)
    stride = int(config.record_stride)
    dt = float(config.dt)
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
                np.greater_equal(m, config.m1, out=high)
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
    arr = np.sort(np.asarray(sample, dtype=float).ravel())
    n = arr.size
    if n == 0:
        raise DomainError("KS distance needs a non-empty sample")
    cdf = 1.0 - ccdf(model, arr)
    steps = np.arange(n + 1) / n
    d_plus = np.max(steps[1:] - cdf)
    d_minus = np.max(cdf - steps[:-1])
    return float(max(d_plus, d_minus))


def relaxation_reached(snapshots: Sequence[EnsembleSnapshot], threshold: float = _SMIRNOV) -> bool:
    """Whether the half-time and final snapshots agree to the KS threshold.

    Compares the last snapshot with the recorded one closest to half its
    time; a two-sample KS statistic (max |F1 - F2| over the pooled incomes,
    equal to ``scipy.stats.ks_2samp``'s) below ``threshold`` declares the
    ensemble stationary.  By default the threshold is Smirnov's 5% critical
    value 1.36 sqrt((n1 + n2) / (n1 n2)) for the two snapshot sizes, so two
    samples of one law pass 95% of the time at any ensemble size.  An explicit
    threshold that is not a finite number > 0, or an empty or non-finite
    snapshot, raises ``DomainError``.
    """
    explicit = threshold is not _SMIRNOV
    if explicit and not (isinstance(threshold, (int, float)) and math.isfinite(threshold)
                         and threshold > 0):
        raise DomainError(f"threshold must be a finite number > 0, got {threshold!r}")
    if len(snapshots) < 2:
        raise DomainError("relaxation check needs at least two snapshots")
    final = snapshots[-1]
    half = min(snapshots[:-1], key=lambda s: abs(s.time - final.time / 2.0))
    a, b = np.sort(np.ravel(half.incomes)), np.sort(np.ravel(final.incomes))
    pooled = np.concatenate([a, b])
    if a.size == 0 or b.size == 0 or not np.all(np.isfinite(pooled)):
        raise DomainError("relaxation check needs non-empty snapshots of finite incomes")
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    gap = cdf_a - np.searchsorted(b, pooled, side="right") / b.size
    critical = threshold if explicit else 1.36 * math.sqrt((a.size + b.size) / (a.size * b.size))
    return float(np.max(np.abs(gap))) < critical


def write_snapshots_csv(dest, snapshots: Sequence[EnsembleSnapshot]) -> None:
    """Write recorded snapshots as CSV rows (time, income), one per agent.

    ``dest`` is a path or an open text stream, which is left open.  Snapshots are formatted one
    at a time.
    """
    with open_output(dest) as fh:
        fh.write("time,income\n")
        for snap in snapshots:
            fh.write(csv_rows(snap.time, snap.incomes))
