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

The normal draws dominate a step, so one prefetch thread per
simulation draws them a block ahead while the calling thread steps the
ensemble in preallocated buffers.  The seeded stream and the per-agent
arithmetic are those of one ``standard_normal(n_agents)`` call per
step: the output is the same bit for bit as without the thread.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import ks_2samp

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
# Normals per prefetched block: rows of n_agents draws, one row per step,
# so that small ensembles pay one thread handoff per block, not per step.
_NOISE_BLOCK = 2**16


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
        if not isinstance(self.n_agents, (int, np.integer)) or self.n_agents < 1:
            raise ConfigError(f"n_agents must be >= 1, got {self.n_agents!r}")
        if not (isinstance(self.dt, (int, float)) and math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 0:
            raise ConfigError(f"n_steps must be >= 0, got {self.n_steps!r}")
        if not isinstance(self.record_stride, (int, np.integer)) or self.record_stride < 0:
            raise ConfigError(f"record_stride must be >= 0, got {self.record_stride!r}")
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
    m <- |m - A(m) dt + sqrt(2 B(m) dt) * xi| with standard normal xi,
    the drift branch chosen by the current income against m1.  Output is
    deterministic for a fixed (seed, n_agents, n_steps).

    One prefetch thread, joined before the call returns or raises, draws
    the normals a block of steps ahead while this thread advances the
    ensemble.  It is the only user of the seeded generator and draws the
    stream in the same order as one ``standard_normal(n_agents)`` per
    step, so the output does not depend on the threading.

    Raises
    ------
    NumericalBlowupError
        If any income turns non-finite; carries the offending step.
    """
    c = config.coeffs
    n = int(config.n_agents)
    n_steps = int(config.n_steps)
    dt = float(config.dt)
    root_dt = math.sqrt(dt)
    if config.initial_incomes is not None:
        m = config.initial_incomes.copy()
    else:
        m = np.full(n, c.b0 / c.a0_low)

    rng = np.random.default_rng(config.seed)
    snapshots = [EnsembleSnapshot(time=0.0, incomes=m.copy())]
    recorded = 0
    rows = max(1, _NOISE_BLOCK // n)
    blocks = [np.empty((rows, n)), np.empty((rows, n))]
    drift = np.empty(n)
    sigma = np.empty(n)
    high = np.empty(n, dtype=bool)

    def draw(block: int, start: int) -> np.ndarray:
        xi = blocks[block % 2][: min(rows, n_steps - start)]
        rng.standard_normal(out=xi)
        return xi

    # Overflow to inf is caught by the finiteness check below and turned
    # into a NumericalBlowupError; keep numpy from warning on the way.
    with ThreadPoolExecutor(max_workers=1) as pool, np.errstate(over="ignore", invalid="ignore"):
        pending = pool.submit(draw, 0, 0) if n_steps else None
        for block, start in enumerate(range(0, n_steps, rows)):
            noise = pending.result()
            if start + rows < n_steps:
                pending = pool.submit(draw, block + 1, start + rows)
            for step, xi in enumerate(noise, start + 1):
                np.multiply(c.a_low, m, out=drift)
                np.add(c.a0_low, drift, out=drift)
                np.greater_equal(m, config.m1, out=high)
                np.multiply(c.a_high, m, out=drift, where=high)
                np.add(c.a0_high, drift, out=drift, where=high)
                np.multiply(c.b, m, out=sigma)
                np.multiply(sigma, m, out=sigma)
                np.add(c.b0, sigma, out=sigma)
                np.multiply(2.0, sigma, out=sigma)
                np.sqrt(sigma, out=sigma)
                np.multiply(drift, dt, out=drift)
                np.subtract(m, drift, out=m)
                np.multiply(root_dt, xi, out=xi)
                np.multiply(sigma, xi, out=sigma)
                np.add(m, sigma, out=m)
                np.abs(m, out=m)
                if not math.isfinite(m.max()):
                    raise NumericalBlowupError(
                        f"non-finite income at step {step} (dt={dt:g})", step=step
                    )
                if config.record_stride and step % config.record_stride == 0:
                    snapshots.append(EnsembleSnapshot(time=step * dt, incomes=m.copy()))
                    recorded = step
    if recorded != n_steps and n_steps > 0:
        snapshots.append(EnsembleSnapshot(time=n_steps * dt, incomes=m.copy()))
    return snapshots


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


def relaxation_reached(snapshots: Sequence[EnsembleSnapshot], threshold: float = 0.005) -> bool:
    """Whether the half-time and final snapshots agree to the KS threshold.

    Compares the last snapshot with the recorded one closest to half its
    time; a two-sample KS statistic below ``threshold`` declares the
    ensemble stationary.
    """
    if len(snapshots) < 2:
        raise DomainError("relaxation check needs at least two snapshots")
    final = snapshots[-1]
    half = min(snapshots[:-1], key=lambda s: abs(s.time - final.time / 2.0))
    if half.incomes.size == 0 or final.incomes.size == 0:
        raise DomainError("KS distance needs non-empty snapshots")
    return float(ks_2samp(half.incomes, final.incomes, method="asymp").statistic) < threshold


def write_snapshots_csv(dest, snapshots: Sequence[EnsembleSnapshot]) -> None:
    """Write recorded snapshots as CSV rows (time, income), one per agent.

    ``dest`` is a path or an open text stream; a stream is left open.
    """
    if isinstance(dest, io.TextIOBase):
        target = nullcontext(dest)
    else:
        target = open(dest, "w", encoding="utf-8", newline="")
    with target as fh:
        fh.write("time,income\n")
        for snap in snapshots:
            t = format(snap.time, ".12g")
            fh.write("".join(f"{t},{value:.12g}\n" for value in snap.incomes.tolist()))
