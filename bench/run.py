"""Benchmark for the incomedist package: four workloads, measured from outside.

Run from the root of a source checkout (the package is imported from
``./src``)::

    python3 bench/run.py --workload fit-survey --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` the run measures the end-to-end metrics over at
least ``--seconds`` of ops; with ``--trace 1`` it runs one op untraced
and the same op traced, and reports the per-layer metrics of the traced
one.  Report lines start with ``#``; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs every workload at tiny sizes and checks
that each metric is emitted with its unit and that count metrics repeat
exactly at a fixed seed.  See README.md for what each workload is for.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS pool before numpy loads.  The package is single-threaded;
# one BLAS thread keeps the shared cores quiet and the timings steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

# (name, unit, better) of the metrics a --trace 0 run reports.  A unit
# is a parameter point on model-sweep and an op elsewhere.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ok_frac", "1", "higher"),
    ("sound_frac", "1", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
# Printed by every run and reported by --trace 1 runs beside the layer
# metrics, without a bound: each is 0 on some workload or moves with
# the seed by more than any bound the benchmark may set (see README).
OUTCOMES = [
    ("point_p95_ms", "ms", "lower"),
    ("failed_frac", "1", "lower"),
    ("rejected_frac", "1", "lower"),
    ("fit_objective", "1", "lower"),
    ("ks_final", "1", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
PER_LAYER = tracing.PER_LAYER + OUTCOMES

# Ops per untraced run, whatever --seconds says.
MIN_OPS = {"fit-survey": 3, "fit-bootstrap": 1, "model-sweep": 1, "simulate": 1}
SETUP_REPEATS = 3
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import incomedist.cli; "
    "print(repr(time.perf_counter() - t))"
)


def log(line: str = "") -> None:
    print(f"# {line}", flush=True)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def measure_setup(repeats: int) -> float:
    """Median time to import ``incomedist.cli`` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Package:
    """The modules of the package under test, imported from ./src."""

    def __init__(self):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        for name in ("cli", "data", "errors", "fit", "langevin", "model", "quadrature"):
            setattr(self, name, importlib.import_module(f"incomedist.{name}"))


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def outcome_fracs(units) -> tuple[float, float, float]:
    n = len(units)
    failed = sum(u.verdict == "failed" for u in units) / n
    rejected = sum(u.verdict == "rejected" for u in units) / n
    return failed, rejected, 1.0 - failed - rejected


def op_correct(name, op) -> bool:
    """An op passes when all its units are ok.

    On model-sweep only the six published rows must be ok: the failures
    and rejections of the random points are what failed_frac and
    rejected_frac measure.
    """
    units = op.units[: len(workloads.YEAR_ROWS)] if name == "model-sweep" else op.units
    return all(u.verdict == "ok" for u in units)


def p95_ms(units) -> float:
    return 1e3 * float(np.percentile([u.seconds for u in units], 95))


def median_value(ops, key):
    """Median of an op value over the ops that produced one, else None."""
    vals = [op.values[key] for op in ops if key in op.values]
    return float(statistics.median(vals)) if vals else None


def report_ops(name, ops) -> None:
    for k, op in enumerate(ops):
        log(f"op {k}: {'ok' if op_correct(name, op) else 'FAILED'} in {op.seconds:.3f} s")
        if name == "model-sweep":
            counts = {v: sum(u.verdict == v for u in op.units) for v in ("ok", "rejected", "failed")}
            log(f"  points: {counts}")
            for i, u in enumerate(op.units):
                if u.verdict != "ok":
                    log(f"  point {i}: {u.verdict} {u.detail}")
        elif op.units[0].detail:
            log(f"  {op.units[0].verdict}: {op.units[0].detail}")
        if op.values:
            log(f"  {json.dumps(op.values, sort_keys=True)}")


def run_untraced(name, seed, seconds, sizes, workdir, setup_repeats):
    setup = measure_setup(setup_repeats)
    pkg = Package()
    wl = workloads.make(name, sizes, workdir, seed)
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS[name] or time.perf_counter() - start < seconds:
        ops.append(wl.run_op(pkg, len(ops)))
    report_ops(name, ops)
    failed_ops = sum(not op_correct(name, op) for op in ops)
    if name == "model-sweep" and len({op.output for op in ops}) > 1:
        log("repeated sweeps disagree")  # every sweep of a run covers the same points
        failed_ops = max(failed_ops, 1)
    units = [u for op in ops for u in op.units]
    failed, rejected, ok = outcome_fracs(units)
    metrics = {
        "setup_s": setup,
        "wall_s": float(statistics.median(u.seconds for u in units)),
        "ok_frac": ok,
        "sound_frac": 1.0 - failed,
        "peak_rss_mb": peak_rss_mb(),
    }
    shown = dict(metrics, point_p95_ms=p95_ms(units), failed_frac=failed, rejected_frac=rejected,
                 fit_objective=median_value(ops, "fit_objective"),
                 ks_final=median_value(ops, "ks_final"))
    units_of = dict((n, u) for n, u, _ in END_TO_END + OUTCOMES)
    for key, value in shown.items():
        log(f"{key} = n/a" if value is None else f"{key} = {value:.6g} {units_of[key]}")
    return failed_ops == 0, len(ops), failed_ops, {k: (v, units_of[k]) for k, v in metrics.items()}


def run_traced(name, seed, sizes, workdir):
    pkg = Package()
    wl = workloads.make(name, sizes, workdir, seed)
    base = wl.run_op(pkg, 0)
    recorder = tracing.Recorder()
    recorder.op_id = 1
    with tracing.Patched(pkg, recorder):
        traced = wl.run_op(
            pkg, 0, call=lambda a: recorder.span("cli", workloads.invoke_cli, pkg, a))
    report_ops(name, [base, traced])
    identical = base.output == traced.output
    log(f"traced output identical to untraced: {identical}")
    log(f"untraced {base.seconds:.4f} s, traced {traced.seconds:.4f} s, "
        f"{len(recorder.spans)} spans")
    metrics = tracing.layer_metrics(recorder.spans, traced.out_bytes)
    failed, rejected, _ = outcome_fracs(base.units + traced.units)
    metrics.update({
        "point_p95_ms": p95_ms(base.units),
        "failed_frac": failed,
        "rejected_frac": rejected,
        "fit_objective": median_value([base, traced], "fit_objective") or 0.0,
        "ks_final": median_value([base, traced], "ks_final") or 0.0,
        "trace.overhead_s": traced.seconds - base.seconds,
    })
    units_of = {n: u for n, u, _ in PER_LAYER}
    for key, value in metrics.items():
        log(f"{key} = {value:.6g} {units_of[key]}")
    failed_ops = (not op_correct(name, base)) + (not (op_correct(name, traced) and identical))
    return failed_ops == 0, 2, failed_ops, {k: (v, units_of[k]) for k, v in metrics.items()}


def run(name, seed, seconds, trace, sizes=workloads.FULL, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the result object printed as the last line."""
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        if trace:
            correct, attempted, failed, metrics = run_traced(name, seed, sizes, workdir)
        else:
            correct, attempted, failed, metrics = run_untraced(
                name, seed, seconds, sizes, workdir, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> bool:
    """Every workload at tiny sizes: metric names, units and count repeats."""
    ok = True
    count_units = {"count", "bytes"}
    for name in workloads.WORKLOADS:
        log(f"smoke {name}")
        plain = run(name, 1, 0, False, workloads.TINY, setup_repeats=1)
        first = run(name, 1, 0, True, workloads.TINY)
        second = run(name, 1, 0, True, workloads.TINY)
        problems = []
        for result, spec in ((plain, END_TO_END), (first, PER_LAYER), (second, PER_LAYER)):
            if not result["correct"]:
                problems.append("a run reported correct = false")
            want = {n: u for n, u, _ in spec}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"metrics differ from the spec: {sorted(set(got) ^ set(want))}")
        for n, unit, _ in PER_LAYER:
            a, b = first["metrics"][n]["value"], second["metrics"][n]["value"]
            if unit in count_units and a != b:
                problems.append(f"{n} did not repeat: {a} vs {b}")
        for p in problems:
            log(f"  SMOKE PROBLEM: {p}")
        ok = ok and not problems
    log(f"smoke {'passed' if ok else 'FAILED'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "incomedist", "__init__.py")):
        print(f"error: no package source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke() else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    log("env " + json.dumps(environment(args), sort_keys=True))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
