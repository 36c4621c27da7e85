import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import incomedist as idist
from incomedist import data as data_mod
from incomedist import fit as fit_mod

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")

# Published per-year parameter sets (EUR scales, dimensionless exponents)
# used as realistic anchors throughout the suite: (T, m0, alpha, m1, alpha1)
# with T1 equal to m1 in every year.
YEAR_ROWS = {
    2005: (36000.0, 155000.0, 2.907, 430000.0, 0.795),
    2006: (37000.0, 145000.0, 2.892, 445000.0, 0.86),
    2007: (37000.0, 160000.0, 2.735, 480000.0, 0.79),
    2008: (38000.0, 120000.0, 2.965, 450000.0, 0.890),
    2009: (37000.0, 145000.0, 2.974, 290000.0, 2.608),
    2010: (38000.0, 135000.0, 3.153, 450000.0, 0.77),
}

# Reported one-sigma uncertainties for the same years:
# (dT, dm0, dalpha, dm1, dalpha1); dT1 equals dm1.
YEAR_ERRORS = {
    2005: (3000.0, 20000.0, 0.003, 50000.0, 0.009),
    2006: (3000.0, 20000.0, 0.004, 50000.0, 0.01),
    2007: (3000.0, 20000.0, 0.004, 50000.0, 0.01),
    2008: (3000.0, 20000.0, 0.001, 50000.0, 0.007),
    2009: (3000.0, 20000.0, 0.001, 50000.0, 0.006),
    2010: (3000.0, 20000.0, 0.002, 50000.0, 0.01),
}


def year_params(year: int) -> idist.Params:
    t, m0, alpha, m1, alpha1 = YEAR_ROWS[year]
    return idist.Params(t_low=t, t_high=m1, m0=m0, m1=m1, alpha=alpha, alpha1=alpha1)


def loglog_slope(model, m_lo: float, m_hi: float, k: int = 64) -> float:
    """Least-squares slope of log10 CCDF against log10 m on k log-spaced points of [m_lo, m_hi]."""
    grid = np.geomspace(m_lo, m_hi, k)
    return float(np.polyfit(np.log10(grid), idist.logccdf(model, grid) / math.log(10.0), 1)[0])


@pytest.fixture(scope="session")
def models():
    return {year: idist.normalize(year_params(year)) for year in YEAR_ROWS}


@pytest.fixture(scope="session")
def sample_2010_100k(models):
    return idist.sample(models[2010], 100_000, 4)


@pytest.fixture(scope="session")
def ccdf_2010_100k(sample_2010_100k):
    return data_mod.empirical_ccdf(data_mod.Dataset(values=sample_2010_100k))


@pytest.fixture(scope="session")
def fit_2010(ccdf_2010_100k):
    cfg = fit_mod.FitConfig(tie_t1_m1=True, seed=7, restarts=5)
    return fit_mod.fit(ccdf_2010_100k, cfg)


@pytest.fixture(scope="session")
def ccdf_2009_100k(models):
    sample = idist.sample(models[2009], 100_000, 4)
    return data_mod.empirical_ccdf(data_mod.Dataset(values=sample))


@pytest.fixture(scope="session")
def fit_2009(ccdf_2009_100k):
    cfg = fit_mod.FitConfig(tie_t1_m1=True, seed=7, restarts=5)
    return fit_mod.fit(ccdf_2009_100k, cfg)


def _write_income_csv(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("income\n")
        for v in values:
            fh.write(f"{v:.6f}\n")


@pytest.fixture(scope="session")
def cli_income_csv(tmp_path_factory, models):
    """Medium synthetic income file: large enough to pin the tail exponent."""
    path = tmp_path_factory.mktemp("cli") / "incomes_2010.csv"
    _write_income_csv(path, idist.sample(models[2010], 30_000, 4))
    return str(path)


@pytest.fixture(scope="session")
def quick_income_csv(tmp_path_factory, models):
    """Small synthetic income file for fast CLI plumbing tests."""
    path = tmp_path_factory.mktemp("cliq") / "incomes_small.csv"
    _write_income_csv(path, idist.sample(models[2010], 3_000, 11))
    return str(path)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
