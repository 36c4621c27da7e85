"""Acceptance gate: one check per shipped claim, one verdict line each.

Every test computes its measured quantity, prints a single
``criterion N: PASS/FAIL`` line (echoed again in the terminal summary),
and asserts.  All nine criteria must pass.  Criterion 3 checks the
exponential bulk in the Boltzmann-Gibbs limit m << m0 where the formula
promises it, and checks that on the published rows (T/m0 = 0.23-0.32)
the deviation from exp(-m/T) is the formula's own (T/m0)^2 correction.
"""

import dataclasses
import math

import numpy as np
from click.testing import CliRunner

import incomedist as idist
from incomedist.cli import ReportRow, aggregate_params, crisis_indicator, main
from incomedist.data import Dataset, empirical_ccdf
from incomedist.langevin import (
    SimConfig,
    ks_distance,
    relaxation_reached,
    simulate_ensemble,
)
from incomedist.model import fp_coefficients_for

import conftest
from conftest import YEAR_ROWS, loglog_slope, year_params


def verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return line


def test_criterion_1_unit_mass_and_continuity(models):
    worst_mass = max(abs(idist.ccdf(mod, 0.0) - 1.0) for mod in models.values())
    # The density just below m1 is the low branch's, at m1 the high branch's.
    worst_jump = max(
        abs(math.expm1(idist.logpdf(mod, math.nextafter(mod.params.m1, 0.0))
                       - idist.logpdf(mod, mod.params.m1)))
        for mod in models.values()
    )
    ok = worst_mass < 1e-8 and worst_jump < 1e-9
    line = verdict(1, ok, "all six year rows: max |mass - 1| = "
                   f"{worst_mass:.2e} (tol 1e-08), max relative density jump "
                   f"at m1 = {worst_jump:.2e} (tol 1e-09)")
    assert ok, line


def test_criterion_2_tail_slope_matches_exponent(models):
    worst = 0.0
    for year, mod in models.items():
        m1 = mod.params.m1
        slope = loglog_slope(mod, 1e3 * m1, 1e5 * m1)
        worst = max(worst, abs(slope + mod.params.alpha1) / mod.params.alpha1)
    ok = worst < 0.01
    line = verdict(2, ok, "log-log CCDF slope on [1e3*m1, 1e5*m1] vs -alpha1: "
                   f"worst relative error {worst:.4%} (tol 1%)")
    assert ok, line


def _bulk_deviation(mod, grid):
    """pdf(m)/pdf(0) - exp(-m/T) on the grid, T the low-branch temperature."""
    return idist.pdf(mod, grid) / idist.pdf(mod, 0.0) - np.exp(-grid / mod.params.t_low)


def test_criterion_3_exponential_bulk_within_one_percent(models):
    """Exponential (Boltzmann-Gibbs) bulk with temperature T, to 1%.

    The low branch is exp(-m/T) only for m << m0.  Expanding the kernel,
    pdf(m)/pdf(0) - exp(-m/T) = exp(-m/T) (m/m0)^2 (m/(3T) - (alpha+1)/2)
    + O((T/m0)^4) on [0, T].  So (a) with m0 moved to 8T, 16T and 32T
    (each row's T, alpha, m1, alpha1 kept) the deviation must be under
    1% and fall fourfold per doubling of m0/T, and (b) on the published
    rows, where T/m0 = 0.23-0.32 puts [0, T] outside that regime, the
    deviation must be that leading term up to (T/m0)^4.
    """
    limit_scales = (8.0, 16.0, 32.0)
    published, limits, ratios, residuals = [], [], [], []
    for year, mod in sorted(models.items()):
        p = mod.params
        t = p.t_low
        grid = np.linspace(0.0, t, 201)
        devs = [
            float(np.max(np.abs(_bulk_deviation(
                idist.normalize(dataclasses.replace(p, m0=k * t)), grid))))
            for k in limit_scales
        ]
        limits.append(devs)
        ratios.append([hi / lo if lo > 0.0 else math.nan
                       for hi, lo in zip(devs, devs[1:])])
        dev = _bulk_deviation(mod, grid)
        x = grid / p.m0
        lead = np.exp(-grid / t) * x * x * (grid / (3.0 * t) - 0.5 * (p.alpha + 1.0))
        published.append((year, float(np.max(np.abs(dev)))))
        residuals.append(float(np.max(np.abs(dev - lead))) / (t / p.m0) ** 4)
    limit_ok = all(d < 0.01 for devs in limits for d in devs)
    ratio_ok = all(abs(r / 4.0 - 1.0) <= 0.1 for row in ratios for r in row)
    residual_ok = all(r <= 1.0 for r in residuals)
    ok = limit_ok and ratio_ok and residual_ok

    def span(values, fmt):
        return f"{min(values):{fmt}}-{max(values):{fmt}}"

    limit_text = ", ".join(
        f"{k:g}T: {span([devs[i] for devs in limits], '.5f')}"
        for i, k in enumerate(limit_scales)
    )
    ratio_text = span([r for row in ratios for r in row], ".3f")
    table = ", ".join(f"{year}: {dev:.4f}" for year, dev in published)
    line = verdict(3, ok, "max |pdf(m)/pdf(0) - exp(-m/T)| on [0, T] (tol 0.01) "
                   f"with m0 = {limit_text}; drop per doubling of m0/T "
                   f"{ratio_text} (4 +- 10%); published rows {table}, residual "
                   f"after the (T/m0)^2 term {span(residuals, '.2f')} x (T/m0)^4 "
                   "(tol 1)")
    assert ok, (
        line
        + f"\nlimit deviations under 0.01: {limit_ok}; fourfold drop: "
        f"{ratio_ok}; published-row residual within (T/m0)^4: {residual_ok}. "
        "A density whose bulk is exp(-m/T) with the m0 crossover of the "
        "extended formula passes all three."
    )


def test_criterion_4_printed_aggregates():
    rows = [
        ReportRow(label=str(year), params=year_params(year), errors={},
                  crisis=crisis_indicator(year_params(year)))
        for year in sorted(YEAR_ROWS)
    ]
    mean_all = aggregate_params(rows)
    mean_excl = aggregate_params(rows, exclude_labels={"2009"})
    ok = round(mean_all["m0"]) == 143333 and mean_excl["m1"] == 451000.0
    line = verdict(4, ok, f"mean m0 = {mean_all['m0']:.2f} EUR (rounds to "
                   f"143333), mean m1 excluding 2009 = {mean_excl['m1']!r} "
                   "(must equal 451000.0 exactly)")
    assert ok, line


def test_criterion_5_crisis_flag_only_2009():
    flagged = [year for year in sorted(YEAR_ROWS)
               if crisis_indicator(year_params(year))]
    ok = flagged == [2009]
    line = verdict(5, ok, f"alpha1-threshold indicator flags {flagged} "
                   "(must be exactly [2009])")
    assert ok, line


def test_criterion_6_round_trip_fit(fit_2010, fit_2009):
    truth = year_params(2010)
    got = fit_2010.params
    checks = [
        ("T", got.t_low, truth.t_low, 0.05),
        ("alpha", got.alpha, truth.alpha, 0.02),
        ("alpha1", got.alpha1, truth.alpha1, 0.10),
        ("m0", got.m0, truth.m0, 0.25),
        ("m1", got.m1, truth.m1, 0.25),
    ]
    failures = [name for name, est, ref, tol in checks
                if abs(est - ref) / ref >= tol]
    detail = ", ".join(f"{name} {abs(est - ref) / ref:.3%} (tol {tol:.0%})"
                       for name, est, ref, tol in checks)
    crisis_alpha1 = fit_2009.params.alpha1
    ok = not failures and crisis_alpha1 > 2.0
    line = verdict(6, ok, "1e5-sample 2010 round trip: " + detail
                   + f"; 2009 round trip alpha1 = {crisis_alpha1:.3f} (> 2)")
    assert ok, line


def test_criterion_7_langevin_reaches_equilibrium(models):
    coeffs = fp_coefficients_for(year_params(2010), b=1.0)
    burn = simulate_ensemble(SimConfig(
        coeffs=coeffs, n_agents=100_000, dt=0.004, n_steps=5000,
        seed=2010, record_stride=2500,
    ))
    polish = simulate_ensemble(SimConfig(
        coeffs=coeffs, n_agents=100_000, dt=0.0004, n_steps=2500,
        seed=2011, record_stride=1250, initial_incomes=burn[-1].incomes,
    ))
    relaxed = relaxation_reached(polish)
    ks = ks_distance(polish[-1].incomes, models[2010])
    ok = relaxed and ks < 0.02
    line = verdict(7, ok, f"1e5-agent ensemble: stationarity detected = "
                   f"{relaxed}, KS distance to analytic law = {ks:.4f} "
                   "(tol 0.02)")
    assert ok, line


def test_criterion_8_plotting_positions_exact():
    plain = empirical_ccdf(Dataset(values=np.array([10.0, 20.0, 30.0])))
    exact = list(plain.p) == [0.75, 0.5, 0.25]
    weighted = empirical_ccdf(Dataset(values=np.array([10.0, 20.0, 30.0]),
                                      weights=np.array([2.0, 2.0, 2.0])))
    reduces = (np.array_equal(weighted.p, plain.p)
               and np.array_equal(weighted.m, plain.m))
    ok = exact and reduces
    line = verdict(8, ok, f"{{10, 20, 30}} -> p = {tuple(float(v) for v in plain.p)} "
                   "(exactly (0.75, 0.5, 0.25)); equal-weight formula "
                   f"reduces to unweighted exactly = {reduces}")
    assert ok, line


def test_criterion_9_fit_command_deterministic(quick_income_csv):
    runner = CliRunner()
    args = ["fit", "--incomes", quick_income_csv, "--restarts", "2",
            "--grid-points", "120", "--seed", "7"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    ok = (first.exit_code == 0 and second.exit_code == 0
          and first.output == second.output)
    line = verdict(9, ok, "repeated fit runs with a fixed seed: exit codes "
                   f"({first.exit_code}, {second.exit_code}), outputs "
                   f"byte-identical = {first.output == second.output}")
    assert ok, line
