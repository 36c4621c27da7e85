"""Every public entry point that takes a number or an array refuses junk with its own error.

``ENTRIES`` lists each checked entry point with a call that fills in valid values and,
per numeric argument, the IncomeDistError subclass that argument's check raises.
``test_junk_is_refused`` feeds each such argument a string, digits as str and bytes, None,
True, NaN, +-inf, a negative number and a plain object (an array argument also each of
them as a one-element list and after a valid number, as in ``[1.0, True]``, in a list
and in an object array) and expects that class, never a bare exception or an answer.
``test_every_numeric_entry_point_is_listed`` keeps the table whole: a public callable
that takes a number or an array appears in ``ENTRIES``, or in ``UNCHECKED`` with the
reason its inputs need no check of their own.

``OPENERS`` lists each public argument that takes a path or an open text stream;
``test_not_a_path_or_stream_is_refused`` feeds each a bytes path, None, an int and a plain
object and expects DataFormatError with no file created, and
``test_every_path_argument_is_listed`` keeps that table whole.
"""

import importlib
import inspect
import math
import re

import numpy as np
import pytest

import incomedist as idist
from conftest import year_params
from incomedist import cli, data, fit, langevin, model, quadrature
from incomedist.errors import ConfigError, DataFormatError, DomainError, InvalidParamsError

MODULES = ("cli", "data", "errors", "fit", "langevin", "model", "quadrature")

JUNK = {"str": "x", "digits": "12", "digit bytes": b"12", "None": None, "True": True,
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "negative": -1.0, "object": object()}

P2010 = year_params(2010)
ROW = {name: getattr(P2010, name) for name in ("t_low", "t_high", "m0", "m1", "alpha", "alpha1")}
COEFFS = model.fp_coefficients_for(P2010)
MODEL = model.normalize(P2010)
CURVE = data.EmpiricalCcdf(m=np.geomspace(200.0, 2e6, 40), p=np.geomspace(0.9, 1e-4, 40))
SURVEY = data.Dataset(values=[10.0, 20.0])


def _snapshots(time=2.0, incomes=(1.0, 3.0)):
    return [langevin.EnsembleSnapshot(time=0.0, incomes=np.array([1.0, 2.0])),
            langevin.EnsembleSnapshot(time=1.0, incomes=np.array([1.0, 2.0])),
            langevin.EnsembleSnapshot(time=time, incomes=incomes)]


def _sim_config(**kw):
    base = dict(coeffs=COEFFS, m1=P2010.m1, n_agents=2, dt=1e-3, n_steps=1, seed=0)
    return langevin.SimConfig(**{**base, **kw})


def _fit_result(**kw):
    base = dict(params=P2010, objective=0.5, iterations=3, converged=True, restarts_used=1)
    return fit.FitResult(**{**base, **kw})


def _args(*names, error):
    return dict.fromkeys(names, error)


# name: (call with keyword overrides of valid defaults, {numeric argument: error class}).
ENTRIES = {
    "model.Params": (lambda **kw: model.Params(**{**ROW, **kw}), _args(*ROW, error=InvalidParamsError)),
    "model.FpCoefficients": (
        lambda **kw: model.FpCoefficients(**{**vars(COEFFS), **kw}),
        _args("a0_low", "a_low", "a0_high", "a_high", "b0", "b", error=InvalidParamsError)),
    "model.fp_coefficients_for": (lambda b=1.0: model.fp_coefficients_for(P2010, b),
                                  _args("b", error=InvalidParamsError)),
    "model.normalize": (lambda quad_tol=1e-10: model.normalize(P2010, quad_tol),
                        _args("quad_tol", error=DomainError)),
    "model.pdf": (lambda m=1e4: model.pdf(MODEL, m), _args("m", error=DomainError)),
    "model.logpdf": (lambda m=1e4: model.logpdf(MODEL, m), _args("m", error=DomainError)),
    "model.ccdf": (lambda m=1e4: model.ccdf(MODEL, m), _args("m", error=DomainError)),
    "model.logccdf": (lambda m=1e4: model.logccdf(MODEL, m), _args("m", error=DomainError)),
    "model.quantile": (lambda p=0.5: model.quantile(MODEL, p), _args("p", error=DomainError)),
    "model.sample": (lambda n=3, seed=0: model.sample(MODEL, n, seed),
                     _args("n", "seed", error=DomainError)),
    "data.Dataset": (lambda values=(1.0, 2.0), weights=None: data.Dataset(values, weights),
                     _args("values", "weights", error=DomainError)),
    "data.EmpiricalCcdf": (lambda m=(1.0, 2.0), p=(0.6, 0.3): data.EmpiricalCcdf(m, p),
                           _args("m", "p", error=DomainError)),
    "data.billionaire_effective_income": (
        lambda wealth_usd=(1e9,), usd_eur_rate=0.9, return_rate=0.05:
            data.billionaire_effective_income(wealth_usd, usd_eur_rate, return_rate),
        {"wealth_usd": DomainError, "usd_eur_rate": ConfigError, "return_rate": ConfigError}),
    "data.merge_datasets": (
        lambda top_incomes=(50.0,), top_weight=1.0: data.merge_datasets(SURVEY, top_incomes, top_weight),
        {"top_incomes": DomainError, "top_weight": ConfigError}),
    "fit.FitConfig": (fit.FitConfig, _args("grid_points", "restarts", "bootstrap_resamples", "seed",
                                           "opt_tol", "quad_tol", error=ConfigError)),
    "fit.FitResult": (_fit_result, _args("objective", error=DomainError)),
    "fit.FitProblem": (lambda grid_points=50, quad_tol=1e-10: fit.FitProblem(CURVE, grid_points, quad_tol),
                       _args("grid_points", "quad_tol", error=DomainError)),
    "fit.objective": (lambda grid_points=50, quad_tol=1e-10: fit.objective(P2010, CURVE, grid_points, quad_tol),
                      _args("grid_points", "quad_tol", error=DomainError)),
    "langevin.SimConfig": (_sim_config, _args("m1", "n_agents", "dt", "n_steps", "seed", "record_stride",
                                              "initial_incomes", error=ConfigError)),
    "langevin.ks_distance": (lambda sample=(1e4, 2e4): langevin.ks_distance(sample, MODEL),
                             _args("sample", error=DomainError)),
    "langevin.relaxation_reached": (lambda **kw: langevin.relaxation_reached(_snapshots(**kw)),
                                    _args("time", "incomes", error=DomainError)),
    "cli.crisis_indicator": (lambda threshold=2.0: cli.crisis_indicator(P2010, threshold),
                             _args("threshold", error=DomainError)),
    "quadrature.kernel_log_mass": (
        lambda m0=100.0, temperature=50.0, alpha=2.0, a=1.0, b=2.0, rel_tol=1e-12:
            quadrature.kernel_log_mass(m0, temperature, alpha, a, b, rel_tol),
        _args("m0", "temperature", "alpha", "a", "b", "rel_tol", error=DomainError)),
}

# Arguments that take arrays: each junk value is also fed as a one-element list and after 1.0
# in a list and in an object array.
ARRAYS = {("model.pdf", "m"), ("model.logpdf", "m"), ("model.ccdf", "m"), ("model.logccdf", "m"),
          ("data.Dataset", "values"), ("data.Dataset", "weights"), ("data.EmpiricalCcdf", "m"),
          ("data.EmpiricalCcdf", "p"), ("data.billionaire_effective_income", "wealth_usd"),
          ("data.merge_datasets", "top_incomes"), ("langevin.SimConfig", "initial_incomes"),
          ("langevin.ks_distance", "sample"), ("langevin.relaxation_reached", "incomes")}

# Junk that is a valid value of that argument.
ACCEPTED = {
    ("model.FpCoefficients", "a0_low"): {"negative"},  # drifts may take either sign
    ("model.FpCoefficients", "a_low"): {"negative"},
    ("model.FpCoefficients", "a0_high"): {"negative"},
    ("model.FpCoefficients", "a_high"): {"negative"},
    ("data.Dataset", "weights"): {"None"},  # every weight 1
    ("langevin.SimConfig", "initial_incomes"): {"None"},  # every agent at B0/A0
    ("cli.crisis_indicator", "threshold"): {"negative"},
    ("quadrature.kernel_log_mass", "b"): {"inf"},  # the tail mass
}

# Public callables that take numbers but check none of them, and why.
UNCHECKED = {
    "model.NormalizedModel": "built by normalize from checked Params; its fields are results",
    "langevin.EnsembleSnapshot": "a record of simulate_ensemble's output; relaxation_reached "
                                 "checks what it reads",
    "data.csv_rows": "formats numbers the package computed; NaN and negatives have a text form too",
    "quadrature.branch_log_masses": "the quadrature engine; normalize, logccdf and "
                                    "kernel_log_mass check its inputs",
    "quadrature.kernel_log_cumulative": "the quadrature engine; normalize, logccdf and "
                                        "kernel_log_mass check its inputs",
}

# Unannotated parameters that take no number.
NOT_NUMERIC = {"source", "dest", "exclude_labels"}


@pytest.mark.parametrize("entry, arg", [(entry, arg) for entry, (_, args) in ENTRIES.items()
                                        for arg in args])
def test_junk_is_refused(entry, arg):
    call, args = ENTRIES[entry]
    call()  # the defaults are valid
    leaks = []
    for name, junk in JUNK.items():
        if name in ACCEPTED.get((entry, arg), ()):
            continue
        mixed = ([junk], [1.0, junk], np.array([1.0, junk], dtype=object))
        for value in (*mixed, junk) if (entry, arg) in ARRAYS else (junk,):
            try:
                call(**{arg: value})
            except args[arg]:
                continue
            except Exception as exc:  # a bare exception is the leak this test reports
                leaks.append(f"{value!r}: {type(exc).__name__}: {exc}")
            else:
                leaks.append(f"{value!r}: accepted")
    assert not leaks, f"{entry}({arg}=...) expected {args[arg].__name__}: " + "; ".join(leaks)


@pytest.mark.parametrize("entry, arg", [(entry, arg) for entry, (_, args) in ENTRIES.items()
                                        for arg in args if arg in ("quad_tol", "rel_tol")])
def test_tolerance_outside_the_panels_range_is_refused_before_any_sweep(entry, arg, monkeypatch):
    """No sweep meets a tolerance below twice its larger error floor (50 eps of a panel's value,
    the series head's 1e-13 budget), so each entry refuses one with its own error before any
    sweep; both ends of the range pass."""
    call, args = ENTRIES[entry]
    for tol in quadrature._TOL_RANGE:  # accepted: the answer, or the QuadratureError of a sweep
        try:
            call(**{arg: tol})
        except idist.QuadratureError:
            pass

    def no_sweep(*_args, **_kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(quadrature, "kernel_log_cumulative", no_sweep)
    with pytest.raises(args[arg], match=arg):
        call(**{arg: 1e-15})


def _takes_numbers(obj) -> bool:
    """Whether a parameter is annotated with a number or array type, or unannotated and not
    known to take something else (a flag with a bool default takes none)."""
    for param in inspect.signature(obj).parameters.values():
        if param.annotation is inspect.Parameter.empty:
            if param.name not in NOT_NUMERIC and not isinstance(param.default, bool):
                return True
        elif re.search(r"\b(float|int|ndarray)\b", str(param.annotation)):
            return True
    return False


def _public() -> dict:
    """Every exported name of the package's modules, as ``module.name``."""
    return {f"{name}.{attr}": getattr(mod, attr)
            for name in MODULES
            for mod in [importlib.import_module(f"incomedist.{name}")]
            for attr in getattr(mod, "__all__", ())}


def test_every_numeric_entry_point_is_listed():
    public = _public()
    numeric = {name for name, obj in public.items() if callable(obj) and _takes_numbers(obj)}
    assert numeric - set(ENTRIES) - set(UNCHECKED) == set()
    assert set(ENTRIES) | set(UNCHECKED) <= set(public)  # no stale names
    assert not set(ENTRIES) & set(UNCHECKED)


def test_guard_sees_an_unlisted_function():
    def fresh(x: float) -> float:
        return x

    def unannotated(m):
        return m

    def flags(source, moments=False):
        return source

    assert _takes_numbers(fresh) and _takes_numbers(unannotated) and not _takes_numbers(flags)


# name: (call with the path-or-stream argument, that argument's name).
OPENERS = {
    "data.load_incomes": (data.load_incomes, "source"),
    "data.load_billionaires": (data.load_billionaires, "source"),
    "data.open_output": (data.open_output, "dest"),
    "langevin.write_snapshots_csv": (lambda dest: langevin.write_snapshots_csv(dest, _snapshots()), "dest"),
}

NOT_PATHS = {"bytes path": b"out.csv", "None": None, "int": 1, "object": object()}


@pytest.mark.parametrize("junk", NOT_PATHS)
@pytest.mark.parametrize("entry", OPENERS)
def test_not_a_path_or_stream_is_refused(entry, junk, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a bytes path would be created
    call, _ = OPENERS[entry]
    with pytest.raises(DataFormatError, match="expected a path or an open text stream"):
        call(NOT_PATHS[junk])
    assert list(tmp_path.iterdir()) == []


def test_every_path_argument_is_listed():
    takes_path = {name: arg for name, obj in _public().items() if callable(obj)
                  for arg in inspect.signature(obj).parameters if arg in ("source", "dest")}
    assert takes_path == {name: arg for name, (_, arg) in OPENERS.items()}


@pytest.mark.parametrize("params", [
    dict(t_low=1e-30, t_high=1e5, m0=1e10, m1=2e10, alpha=2.0, alpha1=2.0),  # beta**8 overflows
    dict(t_low=1.0, t_high=1.0, m0=1e-150, m1=1e10, alpha=2.0, alpha1=2.0),  # (m1/m0)**2 overflows
    dict(t_low=1.0, t_high=1.0, m0=1e-150, m1=1e10, alpha=2.0, alpha1=3.0),
    dict(t_low=1.0, t_high=1.0, m0=1.0, m1=1.0, alpha=1e100, alpha1=1.0),  # (alpha - 1)**4 overflows
], ids=["beta", "ratio-equal-alphas", "ratio", "alpha"])
def test_overflowing_parameters_raise_quadrature_error(params):
    with pytest.raises(idist.QuadratureError):
        idist.normalize(idist.Params(**params))

