"""The four workloads: seeded inputs, one op each, and the op's checks.

Every input comes from the benchmark's seed through ``reflaw``; the
package under test receives only files and parameter values.  An op
returns ``Unit`` records, one per thing it attempted (an op for the
CLI workloads, a parameter point for ``model-sweep``), each with its
wall time and a verdict:

* ``ok``: the output passed every check;
* ``rejected``: the package refused cleanly (an ``IncomeDistError``, or
  CLI exit code 3);
* ``failed``: any other exception, CLI exit code 2, or a failed check.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from reflaw import ReferenceLaw

# Published rows: (T, m0, alpha, m1, alpha1), with T1 = m1.
YEAR_ROWS = {
    2005: (36000.0, 155000.0, 2.907, 430000.0, 0.795),
    2006: (37000.0, 145000.0, 2.892, 445000.0, 0.86),
    2007: (37000.0, 160000.0, 2.735, 480000.0, 0.79),
    2008: (38000.0, 120000.0, 2.965, 450000.0, 0.890),
    2009: (37000.0, 145000.0, 2.974, 290000.0, 2.608),
    2010: (38000.0, 135000.0, 3.153, 450000.0, 0.77),
}


def year_params(year: int) -> dict:
    t, m0, alpha, m1, alpha1 = YEAR_ROWS[year]
    return {"T": t, "T1": m1, "m0": m0, "m1": m1, "alpha": alpha, "alpha1": alpha1}


@dataclass(frozen=True)
class Sizes:
    survey_records: int = 30_000
    bootstrap_records: int = 10_000
    bootstrap_resamples: int = 20
    sweep_random_points: int = 200
    sweep_grid: int = 200
    sweep_draws: int = 10_000
    sim_agents: int = 100_000
    sim_steps: int = 2500
    sim_stride: int = 500
    fit_flags: tuple = ()


FULL = Sizes()
# Smoke sizes: plumbing only.  One restart and a coarse grid keep a fit
# to about a second; the bootstrap still needs its minimum 20 resamples.
TINY = Sizes(survey_records=2000, bootstrap_records=2000, sweep_random_points=10,
             sweep_grid=50, sweep_draws=1000, sim_agents=1000, sim_steps=250,
             sim_stride=50, fit_flags=("--restarts", "1", "--grid-points", "20"))

QUANTILE_PS = (0.5, 1e-2, 1e-4)
SWEEP_ALPHA = (0.05, 12.0)


@dataclass
class Unit:
    seconds: float
    verdict: str  # ok | rejected | failed
    detail: str = ""


@dataclass
class OpResult:
    units: list
    output: bytes = b""  # compared byte for byte between repeats
    out_bytes: int = 0
    values: dict = field(default_factory=dict)  # fit_objective, ks_final, ...

    @property
    def seconds(self) -> float:
        return sum(u.seconds for u in self.units)


def _rng(seed, *stream):
    return np.random.default_rng([int(seed), *stream])


def write_income_csv(path, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("income\n")
        fh.write("".join(f"{v:.6f}\n" for v in values))


def invoke_cli(pkg, args) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, error kind)."""
    try:
        pkg.cli.main.main(args=list(args), prog_name="incomedist", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
        return (0 if code is None else int(code)), ""
    except pkg.errors.IncomeDistError as exc:
        return 3, type(exc).__name__
    except Exception as exc:  # a bare numpy/scipy/click error is a failure
        return 2, type(exc).__name__
    return 0, ""


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0


class FitWorkload:
    """``incomedist fit --incomes <csv> --tie-t1-m1 --seed 7`` on seeded records.

    ``bootstrap`` > 0 adds ``--bootstrap``; op k of a run fits its own
    record set, drawn from stream (seed, k).
    """

    def __init__(self, name, year, records, bootstrap, sizes, workdir, seed):
        self.name = name
        self.law = ReferenceLaw(year_params(year))
        self.records = records
        self.bootstrap = bootstrap
        self.sizes = sizes
        self.workdir = workdir
        self.seed = seed
        self.inputs = {}

    def input_csv(self, k: int) -> str:
        if k not in self.inputs:
            path = os.path.join(self.workdir, f"{self.name}-{k}.csv")
            records = self.law.sample(self.records, _rng(self.seed, 1, k), stratified=True)
            write_income_csv(path, records)
            self.inputs[k] = path
        return self.inputs[k]

    def run_op(self, pkg, k: int, call=None) -> OpResult:
        out = os.path.join(self.workdir, f"{self.name}-{k}.json")
        if os.path.exists(out):
            os.remove(out)
        args = ["fit", "--incomes", self.input_csv(k), "--tie-t1-m1", "--seed", "7",
                "--out", out, *self.sizes.fit_flags]
        if self.bootstrap:
            args += ["--bootstrap", str(self.bootstrap)]
        run = call or (lambda a: invoke_cli(pkg, a))
        t0 = time.perf_counter()
        code, err = run(args)
        seconds = time.perf_counter() - t0
        output = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                output = fh.read()
        verdict, detail, values = self._check(code, err, output)
        return OpResult(units=[Unit(seconds, verdict, detail)], output=output,
                        out_bytes=len(output), values=values)

    def _check(self, code, err, output):
        if code == 3:
            return "rejected", f"exit 3 {err}".strip(), {}
        if code != 0:
            return "failed", f"exit {code} {err}".strip(), {}
        try:
            doc = json.loads(output)
        except ValueError:
            return "failed", "output is not JSON", {}
        params = doc.get("params", {})
        if len(params) != 6 or not all(_finite_positive(v) for v in params.values()):
            return "failed", f"params not finite and positive: {params}", {}
        if not _finite_positive(doc.get("objective")):
            return "failed", f"objective not finite and positive: {doc.get('objective')}", {}
        if self.bootstrap:
            errs = doc.get("errors", {})
            if len(errs) != 6 or not all(
                    isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0
                    for v in errs.values()):
                return "failed", f"bootstrap errors not finite and >= 0: {errs}", {}
        return "ok", "", {"fit_objective": float(doc["objective"])}


def latin_hypercube(n, dims, rng):
    """n points in [0, 1)^dims, one in each of n equal slices of every axis."""
    slots = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (slots + rng.random((n, dims))) / n


class SweepWorkload:
    """206 parameter points: the six published rows and seeded draws.

    The draws are log-uniform for T, T1, m0, m1 over [m_min/30, 30 m_max]
    of the fit-survey input (the box the fitter's derived bounds search)
    and uniform for alpha, alpha1 on [0.05, 12], placed as a Latin
    hypercube so every slice of each axis is visited once per sweep.
    """

    def __init__(self, sizes, workdir, seed):
        law = ReferenceLaw(year_params(2010))
        incomes = law.sample(sizes.survey_records, _rng(seed, 1, 0), stratified=True)
        incomes = np.round(incomes, 6)  # as written to the fit-survey CSV
        incomes = incomes[incomes > 0.0]
        self.m_min, self.m_max = float(incomes.min()), float(incomes.max())
        self.grid = np.geomspace(self.m_min, self.m_max, sizes.sweep_grid)
        self.sizes = sizes
        self.seed = seed
        u = latin_hypercube(sizes.sweep_random_points, 6, _rng(seed, 3))
        lo, hi = math.log(self.m_min / 30.0), math.log(30.0 * self.m_max)
        scale = np.exp(lo + (hi - lo) * u[:, :4])
        expo = SWEEP_ALPHA[0] + (SWEEP_ALPHA[1] - SWEEP_ALPHA[0]) * u[:, 4:]
        self.points = [year_params(y) for y in sorted(YEAR_ROWS)]
        self.points += [
            {"T": s[0], "T1": s[1], "m0": s[2], "m1": s[3], "alpha": e[0], "alpha1": e[1]}
            for s, e in zip(scale.tolist(), expo.tolist())
        ]

    def run_op(self, pkg, k: int, call=None) -> OpResult:
        del k, call  # every op sweeps the same points
        model = pkg.model
        original_logccdf = getattr(model.logccdf, "__wrapped__", model.logccdf)
        units, digest = [], []
        for i, point in enumerate(self.points):
            params = model.params_from_dict(point)
            t0 = time.perf_counter()
            try:
                mod = model.normalize(params)
                on_grid = model.logccdf(mod, self.grid)
                at_zero = model.logccdf(mod, 0.0)
                quantiles = [model.quantile(mod, p) for p in QUANTILE_PS]
                draws = model.sample(mod, self.sizes.sweep_draws, (self.seed, 4, i))
                gap = mod.continuity_gap()
            except pkg.errors.IncomeDistError as exc:
                units.append(Unit(time.perf_counter() - t0, "rejected", type(exc).__name__))
                continue
            except Exception as exc:
                units.append(Unit(time.perf_counter() - t0, "failed", type(exc).__name__))
                continue
            seconds = time.perf_counter() - t0
            problem = _sweep_problem(original_logccdf, mod, on_grid, at_zero,
                                     quantiles, draws, gap)
            units.append(Unit(seconds, "failed" if problem else "ok", problem))
            digest.append([quantiles, float(np.sum(on_grid)), float(np.sum(draws))])
        output = json.dumps([[u.verdict, u.detail] for u in units] + digest).encode()
        return OpResult(units=units, output=output)


def _sweep_problem(logccdf, mod, on_grid, at_zero, quantiles, draws, gap) -> str:
    """Empty when a point's outputs hold; otherwise the first violation."""
    if not abs(at_zero) <= 1e-8:
        return f"|logccdf(0)| = {abs(at_zero):.3g} > 1e-8"
    if not (np.all(np.isfinite(on_grid)) and np.all(on_grid <= 1e-9)):
        return "logccdf on the grid not finite or above 1e-9"
    if not gap <= 1e-8:
        return f"continuity gap {gap:.3g} > 1e-8"
    for p, q in zip(QUANTILE_PS, quantiles):
        if not (math.isfinite(q) and q >= 0.0):
            return f"quantile({p}) = {q!r}"
        try:
            with np.errstate(all="ignore"):
                ratio = math.exp(logccdf(mod, q)) / p
        except Exception as exc:
            return f"ccdf(quantile({p})) raised {type(exc).__name__}"
        if not abs(ratio - 1.0) <= 1e-6:
            return f"ccdf(quantile({p}))/p = {ratio:.9g}"
    if not (np.all(np.isfinite(draws)) and np.all(draws >= 0.0)):
        return "sample draws not finite and >= 0"
    return ""


class SimulateWorkload:
    """``incomedist simulate`` on the 2010 row, then KS and relaxation.

    Op k integrates with ensemble seed (seed, k) folded to one integer.
    """

    YEAR = 2010

    def __init__(self, sizes, workdir, seed):
        self.sizes = sizes
        self.workdir = workdir
        self.seed = seed
        self.params = year_params(self.YEAR)
        self.law = ReferenceLaw(self.params)
        self.params_path = os.path.join(workdir, "simulate-params.json")
        with open(self.params_path, "w", encoding="utf-8") as fh:
            json.dump(self.params, fh)

    def run_op(self, pkg, k: int, call=None) -> OpResult:
        s = self.sizes
        out = os.path.join(self.workdir, f"simulate-{k}.csv")
        if os.path.exists(out):
            os.remove(out)
        sim_seed = int(_rng(self.seed, 5, k).integers(2**31))
        args = ["simulate", "--params", self.params_path, "--agents", str(s.sim_agents),
                "--dt", "0.004", "--steps", str(s.sim_steps), "--stride", str(s.sim_stride),
                "--seed", str(sim_seed), "--out", out]
        run = call or (lambda a: invoke_cli(pkg, a))
        t0 = time.perf_counter()
        code, err = run(args)
        seconds = time.perf_counter() - t0
        if code != 0:
            verdict = "rejected" if code == 3 else "failed"
            return OpResult(units=[Unit(seconds, verdict, f"exit {code} {err}".strip())])
        with open(out, "rb") as fh:
            output = fh.read()
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        times, starts = np.unique(table[:, 0], return_index=True)
        bounds = list(np.sort(starts)) + [table.shape[0]]
        snapshots = [pkg.langevin.EnsembleSnapshot(time=float(table[a, 0]), incomes=table[a:b, 1])
                     for a, b in zip(bounds[:-1], bounds[1:])]
        lang, model = pkg.langevin, pkg.model
        t1 = time.perf_counter()
        try:
            mod = model.normalize(model.params_from_dict(self.params))
            ks = lang.ks_distance(snapshots[-1].incomes, mod)
            relaxed = lang.relaxation_reached(snapshots)
        except pkg.errors.IncomeDistError as exc:
            seconds += time.perf_counter() - t1
            return OpResult(units=[Unit(seconds, "rejected", type(exc).__name__)])
        seconds += time.perf_counter() - t1
        values = {"ks_final": ks, "relaxed": bool(relaxed)}
        expected_snaps = s.sim_steps // s.sim_stride + 1
        ks_ref = self.law.ks(snapshots[-1].incomes)
        tolerance = self.law.stated_error + mod.quad_tol
        if table.shape[0] != s.sim_agents * expected_snaps or len(times) != expected_snaps:
            problem = f"{table.shape[0]} rows in {len(times)} snapshots"
        elif not (np.all(np.isfinite(table[:, 1])) and np.all(table[:, 1] >= 0.0)):
            problem = "incomes not finite and >= 0"
        elif not abs(ks - ks_ref) <= tolerance:
            problem = f"KS {ks:.9g} differs from reference {ks_ref:.9g} by more than {tolerance:.2g}"
        else:
            problem = ""
        return OpResult(units=[Unit(seconds, "failed" if problem else "ok", problem)],
                        output=output, out_bytes=len(output), values=values)


def make(name, sizes, workdir, seed):
    if name == "fit-survey":
        return FitWorkload(name, 2010, sizes.survey_records, 0, sizes, workdir, seed)
    if name == "fit-bootstrap":
        return FitWorkload(name, 2009, sizes.bootstrap_records, sizes.bootstrap_resamples,
                           sizes, workdir, seed)
    if name == "model-sweep":
        return SweepWorkload(sizes, workdir, seed)
    if name == "simulate":
        return SimulateWorkload(sizes, workdir, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fit-survey", "fit-bootstrap", "model-sweep", "simulate")
