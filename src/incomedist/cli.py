"""Command-line interface.

Batch subcommands around the library: ``fit`` estimates parameters from
a CSV income file (optionally extended with billionaire wealth records),
``plotdata`` emits plot-ready CCDF curves, ``sample`` draws synthetic
incomes from fitted parameters, ``simulate`` runs the Langevin ensemble,
and ``report`` assembles per-year fits into a parameter table with
aggregate means and crisis flags.

Every command is deterministic under fixed flags and seed and writes JSON
or CSV to stdout or ``--out`` through :func:`.data.open_output`; every JSON
input must hold an object.  ``_exits`` maps each outcome to an exit code:
0 success, 2 input problem (unreadable or malformed data, bad configuration),
3 convergence problem (the result, when one exists, is still emitted).
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, fields

import click
import numpy as np

from . import langevin as langevin_mod
from . import model as model_mod
from .data import (
    Dataset,
    _open,
    billionaire_effective_income,
    csv_rows,
    empirical_ccdf,
    load_billionaires,
    load_incomes,
    merge_datasets,
    open_output,
)
from .errors import (ConfigError, DataFormatError, DomainError, IncomeDistError, NumericalBlowupError,
                     QuadratureError, UnreliableErrorsError, _integer, _real)
from .fit import FitConfig, _positive_points, bootstrap_errors, fit, fit_result_document
from .model import Params, ccdf, normalize, params_from_dict, params_to_dict, sample

__all__ = ["main", "ReportRow", "crisis_indicator", "aggregate_params"]

# Exit 3 for these; exit 2 for any other package error and for unreadable input.
_CONVERGENCE_ERRORS = (UnreliableErrorsError, QuadratureError, NumericalBlowupError)
_KNOWN_ERRORS = (IncomeDistError, OSError, json.JSONDecodeError, UnicodeDecodeError)

_SCALE_KEYS = ("T", "T1", "m0", "m1")
_SAMPLE_CHUNK = 65536  # draws formatted per write: sample's memory stays flat in --n


@dataclass(frozen=True)
class ReportRow:
    """One labelled parameter set in a multi-year report."""

    label: str
    params: Params
    errors: dict
    crisis: bool


def crisis_indicator(params: Params, threshold: float = 2.0) -> bool:
    """Flag a parameter set for a high-income-class collapse.

    The tail exponent alpha1 sits well below 1 in normal years, while a
    collapsed top class pushes it far above.  The flag fires on alpha1
    strictly greater than ``threshold`` (default 2, the midpoint decade of
    the empirically empty band).
    """
    return params.alpha1 > _real(threshold, "crisis threshold", DomainError)


def aggregate_params(rows: list[ReportRow], exclude_labels=frozenset()) -> dict:
    """Arithmetic means of each parameter over non-excluded rows."""
    included = [r for r in rows if r.label not in set(exclude_labels)]
    if not included:
        raise DomainError("no rows left after exclusion")
    sums = {key: 0.0 for key in model_mod.params_to_dict(included[0].params)}
    for row in included:
        for key, value in model_mod.params_to_dict(row.params).items():
            sums[key] += value
    n = len(included)
    return {key: value / n for key, value in sums.items()}


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json_object(path) -> dict:
    """The object a JSON file holds; any other JSON value is a DataFormatError."""
    with _open(path, "r") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _load_config_overrides(config_path, flag_values: dict) -> dict:
    """Apply --config JSON on top of flag values (config wins).

    Each value converts as the same text would on the command line; one refused is a ConfigError.
    """
    if not config_path:
        return flag_values
    doc = _load_json_object(config_path)
    ctx = click.get_current_context()
    options = {param.name: param for param in ctx.command.params}
    merged = dict(flag_values)
    for key, value in doc.items():
        norm = key.replace("-", "_")
        if norm not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        option = options[norm]
        try:
            if value is not None:
                text = json.dumps(value) if isinstance(value, (bool, int, float)) else value
                value = option.type.convert(text, option, ctx)
            elif option.required or option.default is not None:
                raise ValueError("null where the flag needs a value")
        except (click.BadParameter, TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
        merged[norm] = value
    return merged


def _load_dataset(opts) -> tuple[Dataset, list[str]]:
    ds, diagnostics = load_incomes(opts["incomes"], str(opts.get("label") or ""))
    if opts.get("billionaires"):
        wealth, wealth_diag = load_billionaires(opts["billionaires"])
        diagnostics.extend(wealth_diag)
        top = billionaire_effective_income(
            wealth, opts["usd_eur"], opts["return_rate"]
        )
        ds = merge_datasets(ds, top, opts["top_weight"])
    return ds, diagnostics


def _load_params_file(path) -> tuple[Params, dict]:
    """Params from a bare params JSON or a fit result, plus the whole document."""
    doc = _load_json_object(path)
    return params_from_dict(doc.get("params", doc)), doc


def _exits(command):
    """Exit with the command's return code (None is 0); a known error is printed and exits 3 or 2."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            code = command(*args, **kwargs)
        except _KNOWN_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3 if isinstance(exc, _CONVERGENCE_ERRORS) else 2)
        sys.exit(code or 0)

    return run


@click.group()
def main():
    """Two-branch income distribution toolkit."""


def _dataset_options(fn):
    """Add the options that name a dataset, listed in this order."""
    for option in reversed((
        click.option("--incomes", required=True, type=click.Path(), help="Income CSV (column 'income', optional 'weight')."),
        click.option("--billionaires", type=click.Path(), default=None, help="Billionaire CSV (column 'wealth_usd') merged into the tail."),
        click.option("--usd-eur", type=float, default=1.0, show_default=True, help="USD to EUR conversion for billionaire wealth."),
        click.option("--return-rate", type=float, default=0.05, show_default=True, help="Annual return rate imputing income from wealth."),
        click.option("--top-weight", type=float, default=1.0, show_default=True, help="Statistical weight of each merged top income."),
        click.option("--label", default=None, help="Dataset label (defaults to none)."),
    )):
        fn = option(fn)
    return fn


@main.command("fit")
@_dataset_options
@click.option("--tie-t1-m1", is_flag=True, default=False, help="Constrain T1 = m1 during the fit.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bootstrap", type=int, default=0, show_default=True, help="Bootstrap resamples for error bars (0 skips; >= 20 otherwise).")
@click.option("--restarts", type=int, default=5, show_default=True)
@click.option("--grid-points", type=int, default=200, show_default=True)
@click.option("--opt-tol", type=float, default=2e-4, show_default=True)
@click.option("--quad-tol", type=float, default=1e-10, show_default=True, help="Relative quadrature tolerance, in [2e-13, 1e-6].")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here instead of stdout.")
@click.option("--config", "config_path", type=click.Path(), default=None, help="JSON file overriding any flag.")
@_exits
def cmd_fit(config_path, **flags):
    """Fit distribution parameters to an income CSV."""
    opts = _load_config_overrides(config_path, flags)
    opts["bootstrap_resamples"] = opts.pop("bootstrap")
    cfg = FitConfig(**{field.name: opts[field.name] for field in fields(FitConfig)})
    ds, diagnostics = _load_dataset(opts)
    result = fit(empirical_ccdf(ds), cfg)
    if cfg.bootstrap_resamples > 0:
        errors = bootstrap_errors(ds, cfg, result.params)
    else:
        errors = dict.fromkeys(params_to_dict(result.params), 0.0)
    doc = fit_result_document(result, cfg, errors)
    doc["data"] = {
        "label": ds.label,
        "records": len(ds),
        "rejected_rows": len(diagnostics),
    }
    with open_output(opts["out"] or sys.stdout) as fh:
        fh.write(_dump_json(doc))
    return 0 if result.converged else 3


@main.command("plotdata")
@click.option("--params", "params_path", required=True, type=click.Path(), help="Params JSON (bare or a fit result).")
@_dataset_options
@click.option("--curve-points", type=int, default=500, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None, help="JSON file overriding any flag.")
@_exits
def cmd_plotdata(config_path, params_path, **flags):
    """Emit empirical and model CCDF curves as plot-ready CSV."""
    opts = _load_config_overrides(config_path, flags)
    _integer(opts["curve_points"], "curve_points", ConfigError, 2)
    params, _ = _load_params_file(params_path)
    mod = normalize(params)
    ds, _ = _load_dataset(opts)
    m_emp, p_emp = _positive_points(empirical_ccdf(ds))
    grid = np.geomspace(m_emp[0], m_emp[-1], opts["curve_points"])
    text = "".join((
        "kind,m,p\n",
        csv_rows(m_emp, p_emp, label="empirical"),
        csv_rows(grid, ccdf(mod, grid), label="model"),
        csv_rows(params.m0, ccdf(mod, params.m0), label="marker_m0"),
        csv_rows(params.m1, ccdf(mod, params.m1), label="marker_m1"),
    ))
    with open_output(opts["out"] or sys.stdout) as fh:
        fh.write(text)


@main.command("sample")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--n", type=int, required=True, help="Number of incomes to draw.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_exits
def cmd_sample(params_path, n, seed, out):
    """Draw synthetic incomes from fitted parameters."""
    params, _ = _load_params_file(params_path)
    mod = normalize(params)
    values = sample(mod, n, seed)
    with open_output(out or sys.stdout) as fh:
        fh.write("income\n")
        for start in range(0, values.size, _SAMPLE_CHUNK):  # text for one chunk at a time
            fh.write(csv_rows(values[start:start + _SAMPLE_CHUNK]))


@main.command("simulate")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--b", type=float, default=1.0, show_default=True, help="Multiplicative diffusion coefficient fixing the time scale.")
@click.option("--agents", type=int, default=10000, show_default=True)
@click.option("--dt", type=float, default=0.004, show_default=True)
@click.option("--steps", type=int, default=5000, show_default=True)
@click.option("--stride", type=int, default=0, show_default=True, help="Record every this many steps (0: first and last only).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_exits
def cmd_simulate(params_path, b, agents, dt, steps, stride, seed, out):
    """Integrate the income Langevin ensemble and dump snapshots."""
    params, _ = _load_params_file(params_path)
    coeffs = model_mod.fp_coefficients_for(params, b=b)
    cfg = langevin_mod.SimConfig(
        coeffs=coeffs,
        m1=params.m1,
        n_agents=agents,
        dt=dt,
        n_steps=steps,
        seed=seed,
        record_stride=stride,
    )
    snapshots = langevin_mod.simulate_ensemble(cfg)
    langevin_mod.write_snapshots_csv(out or sys.stdout, snapshots)


@main.command("report")
@click.option("--fit-json", "fit_paths", multiple=True, required=True, type=click.Path(), help="Fit result JSON (repeatable); the row label is the file's 'label' or its stem.")
@click.option("--exclude", "excludes", multiple=True, help="Labels to drop from the aggregate means (repeatable).")
@click.option("--crisis-threshold", type=float, default=2.0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_exits
def cmd_report(fit_paths, excludes, crisis_threshold, out):
    """Combine fit results into a parameter table with aggregates."""
    rows = []
    for path in fit_paths:
        params, doc = _load_params_file(path)
        data, errors = doc.get("data") or {}, doc.get("errors") or {}
        if not (isinstance(data, dict) and isinstance(errors, dict)):
            raise DataFormatError(f"{path}: 'data' and 'errors' must be JSON objects")
        label = str(doc.get("label") or data.get("label") or _stem(path))
        rows.append(ReportRow(label=label, params=params, errors=errors,
                              crisis=crisis_indicator(params, crisis_threshold)))
    rows.sort(key=lambda r: r.label)
    table = []
    for row in rows:
        raw = params_to_dict(row.params)
        rounded = {
            key: (1000 * round(value / 1000.0) if key in _SCALE_KEYS else value)
            for key, value in raw.items()
        }
        table.append({
            "label": row.label,
            "params_rounded": rounded,
            "params": raw,
            "errors": dict(row.errors),
            "crisis": row.crisis,
        })
    doc = {
        "rows": table,
        "aggregates": {
            "all": aggregate_params(rows),
            "included_labels": [r.label for r in rows if r.label not in set(excludes)],
        },
        "crisis_threshold": crisis_threshold,
    }
    if excludes:
        doc["aggregates"]["excluding"] = aggregate_params(rows, set(excludes))
        doc["aggregates"]["excluded_labels"] = sorted(set(excludes))
    with open_output(out or sys.stdout) as fh:
        fh.write(_dump_json(doc))


def _stem(path: str) -> str:
    """The file name without its last extension, or whole if that would leave nothing."""
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] or name
