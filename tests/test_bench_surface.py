"""The package names that the benchmark under bench/ reaches for.

``bench/tracing.py`` wraps module attributes by name and
``bench/workloads.py`` calls others directly.  A rename or deletion in
the package that would break a benchmark run fails here first.
"""

import dataclasses
import importlib
import importlib.util
import pathlib
import sys
import types

import numpy as np
import pytest

from conftest import year_params

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# The modules bench/run.py imports as the package under test.
MODULES = ("cli", "data", "errors", "fit", "langevin", "model", "quadrature")

# (module, attribute) pairs that bench/workloads.py calls or reads.
WORKLOAD_NAMES = [
    ("cli", "main"),
    ("errors", "IncomeDistError"),
    ("model", "params_from_dict"),
    ("model", "normalize"),
    ("model", "logccdf"),
    ("model", "quantile"),
    ("model", "sample"),
    ("langevin", "EnsembleSnapshot"),
    ("langevin", "ks_distance"),
    ("langevin", "relaxation_reached"),
]


@pytest.fixture(scope="module")
def pkg():
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"incomedist.{name}") for name in MODULES}
    )


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves(pkg, tracing):
    points = tracing.patch_points(pkg)
    assert points
    missing = [f"{module.__name__}.{attr}" for module, attr, _name, _count in points
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_patched_calls_record_spans(pkg, tracing):
    recorder = tracing.Recorder()
    with tracing.Patched(pkg, recorder):
        model = pkg.model.normalize(year_params(2010))
        pkg.model.logccdf(model, [1e4, 1e6])
    names = {span.name for span in recorder.spans}
    assert {"model.normalize", "model.logccdf", "quadrature.kernel_log_cumulative"} <= names
    assert not hasattr(pkg.model.normalize, "__wrapped__")  # originals restored


def test_segment_counts_read_a_batched_sweep(pkg, tracing):
    # bench/tracing.py counts a kernel_log_cumulative call's segments as np.size(args[1]) and
    # its achieved tolerance as float(result[1]): a batched call must hold every sweep's
    # points in its second argument and put the batch's worst tolerance second.
    recorder = tracing.Recorder()
    grid = np.geomspace(1e3, 1e7, 50)
    points = [(year_params(year), grid) for year in (2005, 2009, 2010)]
    starts, v, betas, alphas = [0.0, 0.2], np.array([0.1, 0.5, 1.0, 0.3, 0.4]), [2.0, 30.0], [0.77, 3.0]
    with tracing.Patched(pkg, recorder):
        pkg.model._normalize_on(points, 1e-10, grad=True)
        result = pkg.quadrature.kernel_log_cumulative(np.array(starts), v, np.array(betas),
                                                      np.array(alphas), 1e-12, sizes=[3, 2])
    first, second = [s for s in recorder.spans if s.name == "quadrature.kernel_log_cumulative"]
    assert first.counts["segments"] == sum(m.size + 2 for _p, m in points)  # with 0 and m1
    assert second.counts["segments"] == 5
    assert second.counts["achieved"] == result[1] == max(result[2])


def test_simulate_span_counts_agent_steps(pkg, tracing):
    # bench/tracing.py counts a simulate_ensemble call's agent-steps as
    # args[0].n_agents * args[0].n_steps: the SimConfig must stay its first positional argument.
    recorder = tracing.Recorder()
    cfg = pkg.langevin.SimConfig(coeffs=pkg.model.fp_coefficients_for(year_params(2010)),
                                 n_agents=10, dt=0.004, n_steps=3, seed=0)
    with tracing.Patched(pkg, recorder):
        pkg.langevin.simulate_ensemble(cfg)
    spans = [s for s in recorder.spans if s.name == "langevin.simulate_ensemble"]
    assert len(spans) == 1
    assert spans[0].counts["agent_steps"] == 30


@pytest.mark.parametrize("module, attr", WORKLOAD_NAMES)
def test_workload_name_resolves(pkg, module, attr):
    assert hasattr(getattr(pkg, module), attr)


def test_workload_attributes(pkg):
    assert "quad_tol" in {f.name for f in dataclasses.fields(pkg.model.NormalizedModel)}
    assert callable(pkg.model.NormalizedModel.continuity_gap)
    snapshot_fields = {f.name for f in dataclasses.fields(pkg.langevin.EnsembleSnapshot)}
    assert {"time", "incomes"} <= snapshot_fields
    assert issubclass(pkg.errors.IncomeDistError, Exception)
