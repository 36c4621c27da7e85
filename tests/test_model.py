import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import incomedist as idist
from incomedist.langevin import ks_distance
from incomedist.model import _inverse_log_ccdf, _log_kernel_ratio_at_m1
from incomedist.quadrature import _TOL_RANGE, kernel_log_mass

from conftest import YEAR_ROWS, loglog_slope, year_params

EPS = np.finfo(float).eps
QUANTILE_GUARD_PS = (1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6)
# Points 54 and 136 of the benchmark's model-sweep at seed 4.
BROKEN_CCDF_POINTS = [
    {"T": 17066676388.244593, "T1": 24.330713664942582, "m0": 4507602.972567821,
     "m1": 0.3014174887028573, "alpha": 0.08968283851791221, "alpha1": 8.839743532091733},
    {"T": 718481697.931376, "T1": 49315.39554055578, "m0": 10578493106.94364,
     "m1": 4.947849635282888, "alpha": 3.360974245769672, "alpha1": 5.831643253558447},
]

# Points whose high-branch sampling sweep has about 900 segments at m0/T1 >= 2.8e5,
# the first from the series cutoff (model-sweep seed 8 point 87, seed 9 point 138).
# Refining every panel to its own tolerance, the sweep spent the whole panel budget
# while that segment still needed 6-8 rounds; with panels passing against their
# segment's mass it takes about 16,000 panels.
BUDGET_SHARING_POINTS = [
    {"T": 30768.848812443524, "T1": 0.02157863090478727, "m0": 8246.777840625895,
     "m1": 594.5877818732224, "alpha": 0.5879590582359273, "alpha1": 10.644913921986024},
    {"T": 60542.50355211886, "T1": 1.1911761997315373, "m0": 335178.77628665615,
     "m1": 4483.430837563299, "alpha": 7.123860773040563, "alpha1": 3.3525432145687626},
]

# Points whose sweeps spent the 200,000-panel budget on panels that carry no mass,
# each refined to its own tolerance, and so were rejected (model-sweep seeds 1-10).
# Their test also checks an income grid inside model-sweep's (about 0.2 to 8e7).
PANEL_SHARE_POINTS = [
    # seed 1 point 62
    {"T": 0.4776813101749794, "T1": 0.06932325204162422, "m0": 51785.441042543796,
     "m1": 14.635363363239557, "alpha": 3.816364110078688, "alpha1": 10.117468408760642},
    # seed 1 point 83
    {"T": 0.6566893193672275, "T1": 316.59246669790355, "m0": 213315114.4010529,
     "m1": 20474.259952354863, "alpha": 11.786014286338863, "alpha1": 6.484611381985215},
    # seed 3 point 26
    {"T": 0.023432172541430193, "T1": 0.031602240198449795, "m0": 12031.58711844169,
     "m1": 123.3280086215137, "alpha": 6.737620571694475, "alpha1": 8.249786648801406},
    # seed 3 point 122
    {"T": 1375.1313516686932, "T1": 188.46006971510445, "m0": 130779331.19869678,
     "m1": 103046993.26149882, "alpha": 11.29527970498581, "alpha1": 9.387605790716668},
    # seed 3 point 147
    {"T": 104.32876820996997, "T1": 7.045223562473199, "m0": 2696802.477252692,
     "m1": 7633.076995271658, "alpha": 3.119870456223438, "alpha1": 5.564130541164728},
    # seed 3 point 181
    {"T": 17.582596437804792, "T1": 0.00968612874288515, "m0": 6828.108708757358,
     "m1": 463.6889301140544, "alpha": 3.934451321890553, "alpha1": 0.41604886570596533},
    # seed 5 point 9
    {"T": 74.97866597004565, "T1": 0.4393257591460896, "m0": 251697.5516696922,
     "m1": 74.2543669571775, "alpha": 10.729605286417947, "alpha1": 1.4358546632388807},
    # seed 5 point 20
    {"T": 1017.3115106368051, "T1": 0.10197730384257019, "m0": 106252.59250121196,
     "m1": 84100.35811415, "alpha": 0.5443434167017177, "alpha1": 7.724505371179985},
    # seed 6 point 22
    {"T": 426104.681652444, "T1": 0.940802740827876, "m0": 617242.3689954324,
     "m1": 553074.7850896881, "alpha": 3.295591204134593, "alpha1": 3.8933758726143166},
    # seed 10 point 87
    {"T": 3174857.177845023, "T1": 6.788391597208916, "m0": 4900492.477042099,
     "m1": 26624.557894930444, "alpha": 0.5173941177438872, "alpha1": 0.6087721159218272},
    # seed 10 point 158
    {"T": 86.17904730824125, "T1": 0.07251700205904534, "m0": 47430.12492680744,
     "m1": 186.40072933339096, "alpha": 9.109913467997734, "alpha1": 8.472016214443624},
    # seed 10 point 185
    {"T": 1746357353.8505557, "T1": 0.20292012402179593, "m0": 81480.35112447367,
     "m1": 74.10345353261943, "alpha": 8.675252951898415, "alpha1": 0.4681267782649501},
]


# Points 73 and 188 of the benchmark's model-sweep at seed 1 (m0/T = 2.1e9 and 3.0e9), where
# the log CCDF's noise, 2.2e-5 and 3.1e-5, is above the 1e-6 that a stalled quantile may miss by.
NOISY_QUANTILE_POINTS = [
    {"T": 0.3405952830292243, "T1": 40.40308951820743, "m0": 730442779.1025089,
     "m1": 1906.5379002686552, "alpha": 6.496431418383684, "alpha1": 3.697715747504499},
    {"T": 0.06625384526253869, "T1": 31.224035494372444, "m0": 199378225.9356286,
     "m1": 31.684796271412992, "alpha": 2.0529479880647017, "alpha1": 4.262226970293265},
]


def quantile_noise(model):
    """The log CCDF noise the rising checks allow; a stalled ``quantile`` ends within 1e-6."""
    p = model.params
    return 1e-6 + 1e-14 * p.m0 / min(p.t_low, p.t_high)


def cubic_as_drawn(table, x):
    """The sampling table's cubic at each value of ``x`` on its own: a plain search for the
    last interval starting at or below it, then Horner's rule in _inverse_log_ccdf's order."""
    _log_s, knots, coef = table
    x = np.clip(x, knots[0], knots[-1])
    i = np.minimum(np.searchsorted(knots, x, side="right") - 1, coef.shape[1] - 1)
    t = x - knots[i]
    return ((coef[3, i] * t + coef[2, i]) * t + coef[1, i]) * t + coef[0, i]


def table_errors(model):
    """CDF error, and relative CCDF error where the CCDF is >= 1e-12, of the sampling
    table's cubics against logccdf at 7 interior fractions of every interval."""
    table = model._sample_table
    knots = table[1]
    h = np.diff(knots)
    x = (knots[:-1, None] + np.arange(1, 8) / 8.0 * h[:, None])[h > 0.0].ravel()
    log_s = idist.logccdf(model, np.exp(_inverse_log_ccdf(table, x.copy())))
    big = x >= math.log(1e-12)
    return (float(np.max(np.abs(np.exp(log_s) - np.exp(x)))),
            float(np.max(np.abs(np.expm1(log_s[big] - x[big])))))


class TestParams:
    def test_nonpositive_scale_rejected(self):
        for field in ("t_low", "t_high", "m0", "m1", "alpha"):
            kwargs = dict(t_low=1.0, t_high=1.0, m0=1.0, m1=1.0, alpha=1.0, alpha1=1.0)
            kwargs[field] = 0.0
            with pytest.raises(idist.InvalidParamsError):
                idist.Params(**kwargs)

    def test_nonfinite_rejected(self):
        with pytest.raises(idist.InvalidParamsError):
            idist.Params(t_low=math.nan, t_high=1.0, m0=1.0, m1=1.0, alpha=1.0, alpha1=1.0)

    def test_int_beyond_float_range_rejected(self):
        with pytest.raises(idist.InvalidParamsError, match="finite number"):
            idist.Params(t_low=10**400, t_high=1.0, m0=1.0, m1=1.0, alpha=1.0, alpha1=1.0)
        with pytest.raises(idist.InvalidParamsError, match="b must be"):
            idist.fp_coefficients_for(year_params(2010), b=10**400)

    def test_numpy_scalars_accepted(self):
        p = idist.Params(t_low=np.int64(38000), t_high=np.float32(450000.0), m0=np.int64(150000),
                         m1=np.float32(450000.0), alpha=np.float32(3.5), alpha1=np.int64(2))
        assert p == idist.Params(t_low=38000.0, t_high=450000.0, m0=150000.0, m1=450000.0,
                                 alpha=3.5, alpha1=2.0)
        assert all(type(v) is float for v in idist.params_to_dict(p).values())
        c = idist.FpCoefficients(a0_low=np.int64(1), a_low=np.float32(0.5), a0_high=np.int64(2),
                                 a_high=np.float32(0.25), b0=np.int64(3), b=np.float32(1.0),
                                 m1=np.int64(450000))
        assert (c.a0_low, c.a_low, c.b, c.m1) == (1.0, 0.5, 1.0, 450000.0)
        with pytest.raises(idist.InvalidParamsError, match="finite number"):
            idist.FpCoefficients(a0_low=np.float32("nan"), a_low=1.0, a0_high=1.0, a_high=1.0,
                                 b0=1.0, b=1.0, m1=1.0)

    def test_divergent_tail_rejected(self):
        for alpha1 in (0.0, -0.5):
            with pytest.raises(idist.NonNormalizableError):
                idist.Params(t_low=1.0, t_high=1.0, m0=1.0, m1=1.0, alpha=1.0, alpha1=alpha1)


def _params_from_coefficients(coeffs):
    """The README mapping: alpha = 1 + a/b, alpha1 = 1 + a'/b, T = B0/A0, T1 = B0/A0',
    m0 = sqrt(B0/b), and m1 the drift's breakpoint."""
    return idist.Params(t_low=coeffs.b0 / coeffs.a0_low, t_high=coeffs.b0 / coeffs.a0_high,
                        m0=math.sqrt(coeffs.b0 / coeffs.b), m1=coeffs.m1,
                        alpha=1.0 + coeffs.a_low / coeffs.b, alpha1=1.0 + coeffs.a_high / coeffs.b)


class TestFpMapping:
    def test_nonpositive_diffusion_rejected(self):
        with pytest.raises(idist.InvalidParamsError):
            idist.FpCoefficients(a0_low=1.0, a_low=1.0, a0_high=1.0, a_high=1.0, b0=1.0, b=0.0, m1=1.0)

    def test_nonpositive_breakpoint_rejected(self):
        for m1 in (0.0, -1.0):
            with pytest.raises(idist.InvalidParamsError, match="m1"):
                idist.FpCoefficients(a0_low=1.0, a_low=1.0, a0_high=1.0, a_high=1.0, b0=1.0, b=1.0, m1=m1)

    def test_round_trip_is_exact_on_published_rows(self):
        for year in YEAR_ROWS:
            p = year_params(year)
            back = _params_from_coefficients(idist.fp_coefficients_for(p, b=1.0))
            assert back == p

    @given(
        log_t=st.floats(min_value=3.0, max_value=6.0),
        log_m0=st.floats(min_value=3.0, max_value=6.5),
        alpha=st.floats(min_value=0.3, max_value=4.0),
        alpha1=st.floats(min_value=0.3, max_value=4.0),
        b=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60)
    def test_round_trip_stays_at_rounding_level(self, log_t, log_m0, alpha, alpha1, b):
        p = idist.Params(
            t_low=10.0**log_t,
            t_high=10.0 ** (log_t + 0.3),
            m0=10.0**log_m0,
            m1=3.0 * 10.0**log_m0,
            alpha=alpha,
            alpha1=alpha1,
        )
        back = _params_from_coefficients(idist.fp_coefficients_for(p, b=b))
        for name in ("t_low", "t_high", "m0", "m1", "alpha", "alpha1"):
            a, c = getattr(p, name), getattr(back, name)
            assert abs(c - a) <= 8.0 * EPS * abs(a)


def _composed_constants(p, quad_tol):
    """(log_c_low, log_c_high, log_ccdf_at_m1) from two kernel_log_mass calls.

    The reference for ``normalize``: one mass per branch on [0, m1] and
    [m1, inf), then continuity at m1 and unit total mass.
    """
    log_i_low = kernel_log_mass(p.m0, p.t_low, p.alpha, 0.0, p.m1, quad_tol)
    log_i_high = kernel_log_mass(p.m0, p.t_high, p.alpha1, p.m1, math.inf, quad_tol)
    log_ratio = _log_kernel_ratio_at_m1(p)
    log_c_low = -np.logaddexp(log_i_low, log_ratio + log_i_high)
    log_c_high = log_c_low + log_ratio
    if not (math.isfinite(log_c_low) and math.isfinite(log_c_high)):
        raise idist.QuadratureError("branch constants are not finite")
    return float(log_c_low), float(log_c_high), float(log_c_high + log_i_high)


def _fitter_box_params(n, seed):
    """Log-uniform scales and uniform exponents over the fitter's bounds
    for incomes spanning [100, 1e7] (scales in [100/30, 1e7*30], the
    breakpoint and T1 up to twice the top income, exponents in [0.05, 12])."""
    rng = np.random.default_rng(seed)
    lo, top, brk = math.log(100.0 / 30.0), math.log(3e8), math.log(2e7)
    for row in rng.random((n, 6)):
        yield idist.Params(
            t_low=math.exp(lo + row[0] * (top - lo)),
            t_high=math.exp(lo + row[1] * (brk - lo)),
            m0=math.exp(lo + row[2] * (top - lo)),
            m1=math.exp(lo + row[3] * (brk - lo)),
            alpha=0.05 + 11.95 * row[4],
            alpha1=0.05 + 11.95 * row[5],
        )


class TestNormalize:
    def test_constants_equal_composed_reference(self):
        cases = [(year_params(year), 1e-10) for year in YEAR_ROWS]
        cases += [(p, 1e-10) for p in _fitter_box_params(200, seed=8)]
        # Cases where the reference raises: a tolerance below the range a sweep can meet
        # (DomainError), and beta = m0/T so large that its series coefficients overflow
        # (QuadratureError).
        cases += [
            (year_params(2010), 1e-17),
            (idist.Params(t_low=1e-300, t_high=1.0, m0=1.0, m1=1.0, alpha=2.0, alpha1=2.0), 1e-10),
        ]
        raised = 0
        for p, quad_tol in cases:
            try:
                want = _composed_constants(p, quad_tol)
            except idist.IncomeDistError as exc:
                raised += 1
                with pytest.raises(type(exc)) as info:
                    idist.normalize(p, quad_tol)
                assert info.type is type(exc), p
                continue
            model = idist.normalize(p, quad_tol)
            assert (model.log_c_low, model.log_c_high, model.log_ccdf_at_m1) == want, p
        assert raised == 2

    @pytest.mark.parametrize("p", [
        # beta_high = m0/T1 overflows to inf: inf * v meets log(0) in a panel.
        idist.Params(t_low=1.0, t_high=1e-300, m0=1e10, m1=1e10, alpha=2.0, alpha1=2.0),
        # Both branch masses overflow: logaddexp of two infinities.
        idist.Params(t_low=1.0, t_high=1.0, m0=1e-10, m1=1e300, alpha=2.0, alpha1=2.0),
        # m1/m0 is finite, but its square overflows in the continuity ratio.
        idist.Params(t_low=1.0, t_high=1.0, m0=1.0, m1=1e160, alpha=2.0, alpha1=2.0),
    ])
    def test_overflowed_parameters_raise_quadrature_error(self, p):
        # The suite turns RuntimeWarning into an error, so a bare numpy
        # warning on the way would fail this test before the raise.
        with pytest.raises(idist.QuadratureError):
            idist.normalize(p)

    @pytest.mark.parametrize("year", sorted(YEAR_ROWS))
    def test_published_rows_meet_the_tolerance_floor(self, year):
        # A sweep books the series head's 1e-13 on each segment the head covers, so the floor
        # is twice that; at twice the panels' own floor (100 eps) five of the six rows fell short.
        p = year_params(year)
        model = idist.normalize(p, _TOL_RANGE[0])
        want = _composed_constants(p, _TOL_RANGE[0])  # kernel_log_mass of each branch
        assert (model.log_c_low, model.log_c_high, model.log_ccdf_at_m1) == want

    def test_unit_mass_on_published_rows(self, models):
        for model in models.values():
            assert abs(idist.ccdf(model, 0.0) - 1.0) <= 3e-10

    def test_continuity_gap_on_published_rows(self, models):
        for model in models.values():
            assert model.continuity_gap() <= 10.0 * EPS

    def test_single_kernel_constants_coincide(self):
        p = idist.Params(t_low=1.0, t_high=1.0, m0=1.0, m1=7.0, alpha=2.4, alpha1=2.4)
        model = idist.normalize(p)
        assert model.log_c_low == model.log_c_high

    def test_constant_against_trapezoid_oracle(self):
        """Brute-force check of the normalization constant.

        For one kernel (both branches identical) the constant must be the
        reciprocal of the kernel integral, here computed on a 1e7-point
        logarithmic trapezoid grid with analytic head and tail slivers.
        """
        p = idist.Params(t_low=1.0, t_high=1.0, m0=1.0, m1=1e6, alpha=3.0, alpha1=3.0)
        model = idist.normalize(p)
        grid = np.geomspace(1e-8, 1e8, 10_000_001)
        kern = np.exp(-np.arctan(grid)) / (1.0 + grid * grid) ** 2
        integral = float(np.trapezoid(kern, grid))
        integral += 1e-8  # [0, 1e-8] with kernel ~ 1 there
        integral += math.exp(-math.pi / 2.0) / (3.0 * 1e24)  # tail beyond 1e8
        assert abs(math.exp(model.log_c_low) * integral - 1.0) <= 1e-8

    def test_bad_tolerance_rejected(self, models):
        with pytest.raises(idist.DomainError):
            idist.normalize(year_params(2010), quad_tol=1e-3)

    @given(
        alpha=st.floats(min_value=0.3, max_value=4.0),
        alpha1=st.floats(min_value=0.3, max_value=4.0),
        log_tl=st.floats(min_value=3.0, max_value=7.0),
        log_th=st.floats(min_value=3.0, max_value=7.0),
        log_m0=st.floats(min_value=3.0, max_value=7.0),
        log_m1=st.floats(min_value=3.0, max_value=7.0),
    )
    @settings(max_examples=40)
    def test_unit_mass_property(self, alpha, alpha1, log_tl, log_th, log_m0, log_m1):
        p = idist.Params(
            t_low=10.0**log_tl,
            t_high=10.0**log_th,
            m0=10.0**log_m0,
            m1=10.0**log_m1,
            alpha=alpha,
            alpha1=alpha1,
        )
        model = idist.normalize(p)
        assert abs(idist.ccdf(model, 0.0) - 1.0) <= 3e-10
        # In log representation the branch constants can only agree to
        # about an ulp of their own magnitude, which for the most extreme
        # m0/T ratios here sits near 1e-12 (still far below the 1e-9
        # density-jump budget).
        assert model.continuity_gap() <= 5e-12


class TestPdf:
    def test_value_at_zero_is_low_constant(self, models):
        for model in models.values():
            assert idist.pdf(model, 0.0) == math.exp(model.log_c_low)

    def test_deep_tail_decade_ratio(self, models):
        # alpha1 = 0.77 means one decade of income costs 10**1.77 in density.
        ratio = idist.pdf(models[2010], 1e9) / idist.pdf(models[2010], 1e8)
        assert abs(ratio / 10.0**-1.77 - 1.0) <= 0.02

    def test_log_density_is_finite_up_to_the_float_limit(self, models):
        # Far above m0 the log kernel is -beta pi/2 - (alpha1 + 1) log(m/m0);
        # squaring m/m0 would overflow past 1e154.
        model, p = models[2010], models[2010].params
        for m in (1e200, 1e300):
            tail = (model.log_c_high - p.m0 / p.t_high * math.pi / 2
                    - (p.alpha1 + 1.0) * math.log(m / p.m0))
            assert idist.logpdf(model, m) == pytest.approx(tail, rel=1e-14)

    def test_strictly_decreasing(self, models):
        grid = np.geomspace(1.0, 1e10, 120)
        for model in models.values():
            dens = idist.pdf(model, grid)
            assert np.all(np.diff(dens) < 0.0)
            surv = idist.ccdf(model, grid)
            assert np.all(np.diff(surv) < 0.0)

    def test_negative_income_rejected(self, models):
        with pytest.raises(idist.DomainError):
            idist.pdf(models[2010], -1.0)
        with pytest.raises(idist.DomainError):
            idist.ccdf(models[2010], np.array([1.0, math.nan]))

    def test_unconvertible_income_rejected(self, models):
        with pytest.raises(idist.DomainError, match="must be numbers"):
            idist.logccdf(models[2010], "abc")

    def test_negative_zero_reads_as_zero(self):
        model = idist.normalize(idist.Params(t_low=6200.0, t_high=48000.0, m0=20000.0,
                                             m1=48000.0, alpha=2.6, alpha1=0.77))
        assert idist.logccdf(model, -0.0) == idist.logccdf(model, 0.0)
        np.testing.assert_array_equal(idist.logccdf(model, np.array([-0.0, 1.0])),
                                      idist.logccdf(model, np.array([0.0, 1.0])))

    def test_vector_matches_scalar(self, models):
        model = models[2009]
        grid = np.geomspace(1.0, 1e10, 40)
        vec_pdf = idist.logpdf(model, grid)
        vec_ccdf = idist.logccdf(model, grid)
        for i, m in enumerate(grid):
            assert abs(vec_pdf[i] - idist.logpdf(model, float(m))) <= 5e-15 * max(1.0, abs(vec_pdf[i]))
            assert abs(vec_ccdf[i] - idist.logccdf(model, float(m))) <= 5e-15 * max(1.0, abs(vec_ccdf[i]))

    def test_branch_extensions_meet_at_breakpoint(self, models):
        # The density just below m1 is the low branch's, at m1 the high branch's.
        model = models[2010]
        m1 = model.params.m1
        low = idist.logpdf(model, math.nextafter(m1, 0.0))
        high = idist.logpdf(model, m1)
        assert abs(low - high) <= 10.0 * EPS * max(1.0, abs(low))

    def test_no_probability_atom_at_breakpoint(self, models):
        # The two branch routes reconstruct the survival function at m1
        # through different log-space sums, so the step across the
        # breakpoint is rounding noise of either sign, never an atom.
        for model in models.values():
            m1 = model.params.m1
            below = idist.ccdf(model, np.nextafter(m1, 0.0))
            at = idist.ccdf(model, m1)
            assert abs(below - at) <= 16.0 * EPS * at


class TestExponentialBulk:
    """Near m = 0 the density is exponential with decay scale T.

    The relative deviation of pdf(m)/pdf(0) from exp(-m/T) at m = T grows
    like (T/m0)^2 * |1/3 - (alpha+1)/2|, so how small T must be relative
    to m0 for a 1% match depends on alpha; T <= m0/12 keeps the bound
    under 0.6% for every tail exponent up to 4.
    """

    @given(
        alpha=st.floats(min_value=0.3, max_value=4.0),
        log_t=st.floats(min_value=3.0, max_value=5.0),
    )
    @settings(max_examples=30)
    def test_small_temperature_matches_exponential(self, alpha, log_t):
        t = 10.0**log_t
        p = idist.Params(
            t_low=t, t_high=100.0 * t, m0=12.0 * t, m1=60.0 * t, alpha=alpha, alpha1=1.0
        )
        model = idist.normalize(p)
        m = np.linspace(0.0, t, 101)
        ratio = idist.pdf(model, m) / idist.pdf(model, 0.0)
        assert np.max(np.abs(ratio - np.exp(-m / t))) < 0.01

    def test_published_rows_sit_outside_the_1pc_regime(self, models):
        # With T/m0 ~ 0.25-0.32 the quadratic correction is no longer
        # negligible: the worst deviation on [0, T] is a few percent for
        # every published year.  Pin the 2010 value so a regression in
        # either direction is caught.
        model = models[2010]
        t = model.params.t_low
        dev = abs(idist.pdf(model, t) / idist.pdf(model, 0.0) - math.exp(-1.0))
        assert 0.04 < dev < 0.055


class TestQuantile:
    def test_inverse_round_trip(self, models):
        model = models[2010]
        for p in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6):
            q = idist.quantile(model, p)
            assert abs(idist.ccdf(model, q) / p - 1.0) <= 1e-9

    def test_median_round_trip_tight(self, models):
        for model in models.values():
            q = idist.quantile(model, 0.5)
            assert abs(idist.ccdf(model, q) - 0.5) <= 1e-9

    def test_strictly_decreasing_in_exceedance(self, models):
        model = models[2009]
        qs = [idist.quantile(model, p) for p in (0.9, 0.5, 0.1, 0.01)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_near_certain_exceedance_is_deep_in_the_bulk(self, models):
        model = models[2010]
        assert idist.quantile(model, 0.999999) < model.params.m0 / 100.0

    def test_bad_exceedance_rejected(self, models):
        for p in (0.0, 1.0, -0.2, 1.3, math.nan):
            with pytest.raises(idist.DomainError):
                idist.quantile(models[2010], p)

    def test_answer_beyond_float_range_is_domain_error(self, models):
        # ccdf ~ m^-0.77 puts the 2010 row's 1e-300 quantile near 1e390.
        with pytest.raises(idist.DomainError, match="float range"):
            idist.quantile(models[2010], 1e-300)
        q = idist.quantile(models[2009], 1e-300)
        assert q == pytest.approx(2.93e119, rel=1e-2)
        assert abs(idist.logccdf(models[2009], q) - math.log(1e-300)) <= 1e-12

    def test_precision_and_work_on_published_rows(self, models, monkeypatch):
        for model in models.values():
            model._sample_table  # shared with sample; not the solver's work
        real = idist.logccdf
        calls = []
        monkeypatch.setattr("incomedist.model.logccdf",
                            lambda model, m: (calls.append(m), real(model, m))[1])
        solved = [(model, p, idist.quantile(model, p))
                  for model in models.values() for p in QUANTILE_GUARD_PS]
        # Hardware-independent work bound: bracket doubling plus brentq
        # needed 13.1 calls per quantile here, Newton steps 2.89, Halley steps 2.33.
        assert len(calls) / len(solved) <= 2.5
        for model, p, q in solved:
            assert abs(real(model, q) - math.log(p)) <= 1e-12

    @pytest.mark.parametrize("year, q_ref", [(2009, 3.3252e-8), (2010, 3.3177e-8)])
    def test_near_certain_exceedance_ends_in_relative_accuracy(self, models, year, q_ref):
        # Here |g| is about 1 - p = 1e-12: an exit on |g| alone stops percents
        # away, so the exit must be relative to 1 - p.
        assert idist.quantile(models[year], 1.0 - 1e-12) == pytest.approx(q_ref, rel=1e-2)

    def test_stepped_log_ccdf_still_solves(self):
        # m0/T = 3.8e7 puts the quantiles far below m0, where arctan(m0/m)
        # resolves m only to about 1e-9 relative: |g| cannot reach 1e-12,
        # so the stalled-step exit must end the search.
        model = idist.normalize(idist.Params(
            t_low=0.08301075185946669, t_high=1423976.3890923504, m0=3166479.2789488123,
            m1=295.13765301056407, alpha=2.198429109220712, alpha1=8.06790626820205))
        for p in (0.5, 1e-2, 1e-4):
            q = idist.quantile(model, p)
            assert abs(idist.logccdf(model, q) - math.log(p)) <= quantile_noise(model)

    @pytest.mark.parametrize("point", BROKEN_CCDF_POINTS)
    def test_broken_ccdf_never_gives_a_wrong_answer(self, point):
        # Extreme m0/T points whose log CCDF turns positive on a sweep grid:
        # each quantile meets its round trip or raises QuadratureError.
        model = idist.normalize(idist.params_from_dict(point))
        for p in (0.5, 1e-2, 1e-4):
            try:
                q = idist.quantile(model, p)
            except idist.QuadratureError:
                continue
            assert abs(idist.logccdf(model, q) - math.log(p)) <= quantile_noise(model)

    @pytest.mark.parametrize("point", NOISY_QUANTILE_POINTS)
    def test_noisy_log_ccdf_meets_one_in_a_million_or_raises(self, point):
        # A stalled search ends only on a bracket end within 1e-6 of log p: the log CCDF's
        # noise alone would let it miss by 2.4e-6 here.
        model = idist.normalize(idist.params_from_dict(point))
        for p in (0.5, 1e-2, 1e-4):
            try:
                q = idist.quantile(model, p)
            except idist.QuadratureError:
                continue
            assert abs(idist.ccdf(model, q) / p - 1.0) <= 1e-6

    @pytest.mark.parametrize("p", [1e-14, 1e-16])
    def test_heavy_tail_root_past_the_square_overflow(self, monkeypatch, p):
        # At alpha1 = 0.05 these roots lie near 2.3e249 and 2.3e289, past the table's top,
        # where (m/m0)^2 overflows and the Halley factor is NaN: the Newton step must stand.
        # Without that fallback the NaN step bisects toward the float limit: 40-44 calls.
        model = idist.normalize(replace(year_params(2010), alpha1=0.05))
        model._sample_table
        real = idist.logccdf
        calls = []
        monkeypatch.setattr("incomedist.model.logccdf",
                            lambda model, m: (calls.append(m), real(model, m))[1])
        q = idist.quantile(model, p)
        assert len(calls) <= 3
        assert abs(real(model, q) - math.log(p)) <= 1e-12

    @given(alpha=st.floats(0.05, 12.0), alpha1=st.floats(0.05, 12.0),
           log_tl=st.floats(math.log(100.0 / 30.0), math.log(3e8)),
           log_th=st.floats(math.log(100.0 / 30.0), math.log(2e7)),
           log_m0=st.floats(math.log(100.0 / 30.0), math.log(3e8)),
           log_m1=st.floats(math.log(100.0 / 30.0), math.log(2e7)))
    @settings(max_examples=60)
    def test_round_trip_or_library_error_over_the_fitter_box(self, alpha, alpha1, log_tl, log_th,
                                                             log_m0, log_m1):
        # The box of _fitter_box_params.  Where the Halley factor is not finite or would more
        # than double the step, the Newton step must stand: no bare OverflowError or
        # ZeroDivisionError, and no NaN step, which would reach the log CCDF as a NaN income.
        p = idist.Params(t_low=math.exp(log_tl), t_high=math.exp(log_th), m0=math.exp(log_m0),
                         m1=math.exp(log_m1), alpha=alpha, alpha1=alpha1)
        try:
            model = idist.normalize(p)
            model._sample_table
        except idist.QuadratureError:
            return  # only draws that normalize (ROADMAP item 2)
        real = idist.logccdf
        asked = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("incomedist.model.logccdf",
                          lambda model, m: (asked.append(m), real(model, m))[1])
            for q in (0.5, 1e-2, 1e-4):
                try:
                    m = idist.quantile(model, q)
                except idist.DomainError:  # only for a root past the largest float
                    assert real(model, np.finfo(float).max) > math.log(q)
                except idist.IncomeDistError:
                    pass
                else:
                    assert abs(real(model, m) - math.log(q)) <= quantile_noise(model)
        assert all(math.isfinite(m) for m in asked)

    @pytest.mark.parametrize("fake", [lambda model, m: 0.5,
                                      lambda model, m: -3.0 + 0.1 * math.log(m)],
                             ids=["positive", "rising"])
    def test_impossible_log_ccdf_fails_fast(self, monkeypatch, fake):
        model = idist.normalize(year_params(2010))
        model._sample_table
        calls = []
        monkeypatch.setattr("incomedist.model.logccdf",
                            lambda model, m: (calls.append(m), fake(model, m))[1])
        with pytest.raises(idist.QuadratureError):
            idist.quantile(model, 0.5)
        assert len(calls) <= 3


class TestSample:
    def test_deterministic_for_a_seed(self, models):
        a = idist.sample(models[2010], 1000, seed=9)
        b = idist.sample(models[2010], 1000, seed=9)
        c = idist.sample(models[2010], 1000, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_agrees_with_model_by_ks(self, models, sample_2010_100k):
        n = sample_2010_100k.size
        assert ks_distance(sample_2010_100k, models[2010]) < 1.63 / math.sqrt(n)

    def test_lower_ninety_percent_mean(self, models, sample_2010_100k):
        """Trimmed mean against an independent integration route."""
        model = models[2010]
        q90 = idist.quantile(model, 0.1)
        kept = np.sort(sample_2010_100k)[: int(0.9 * sample_2010_100k.size)]
        integrand = lambda m: m * idist.pdf(model, m)
        oracle, _ = scipy.integrate.quad(
            integrand, 0.0, q90, limit=300, points=[model.params.t_low, model.params.m0]
        )
        oracle /= 0.9
        assert abs(kept.mean() / oracle - 1.0) <= 0.05

    @pytest.mark.parametrize("seed", [-1, (1, -2), 1.5, "7"])
    def test_bad_seed_is_domain_error(self, models, seed):
        with pytest.raises(idist.DomainError):
            idist.sample(models[2010], 10, seed=seed)

    def test_positive_and_finite(self, models):
        draws = idist.sample(models[2009], 5000, seed=3)
        assert np.all(np.isfinite(draws))
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("alpha1", [0.77, 0.05])
    def test_table_top_in_one_sweep(self, monkeypatch, alpha1):
        # The 2010 row, and its tail at alpha1 = 0.05, which falls to 1e-13 only
        # some 200 decades past m1: one log CCDF call takes every knot, the top among them.
        model = idist.normalize(replace(year_params(2010), alpha1=alpha1))
        real = idist.logccdf
        calls = []
        monkeypatch.setattr("incomedist.model.logccdf",
                            lambda model, m: (calls.append(m), real(model, m))[1])
        log_m_top = model._sample_table[2][0, 0]
        assert len(calls) == 1
        p = model.params
        decade = 10.0 * max(p.m1, p.m0, p.t_low, p.t_high)
        while real(model, decade) >= math.log(1e-13):
            decade *= 10.0
        assert decade < 1e280
        assert log_m_top == pytest.approx(math.log(decade), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 10_000, 1_000_000])
    def test_ordered_evaluation_equals_the_cubic_as_drawn(self, models, n):
        # sample evaluates its uniforms in ascending order; its draws must be the table's
        # cubic at each uniform as drawn, bit for bit.
        tail_heavy = idist.normalize(replace(year_params(2010), alpha1=0.05))
        for seed, model in enumerate([*models.values(), tail_heavy]):
            u = np.random.default_rng(seed).random(n)
            want = np.exp(cubic_as_drawn(model._sample_table, np.log(u)))
            assert np.array_equal(idist.sample(model, n, seed).view(np.int64), want.view(np.int64))

    def test_ordered_evaluation_takes_repeats_zero_and_knots(self, models):
        table = models[2010]._sample_table
        _log_s, knots, coef = table
        with np.errstate(divide="ignore"):
            x = np.log(np.array([0.5, 0.0, 0.25, 0.5, 1e-300, 0.0, 0.5, 0.999]))
        x = np.concatenate([x, knots[[0, 1, 500, -2, -1, -1]], [1.0]])  # knots, and above the last
        want = cubic_as_drawn(table, x)
        order = np.argsort(x)
        got = np.empty_like(x)
        got[order] = _inverse_log_ccdf(table, x[order])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got[1] == got[5] == coef[0, 0] and got[0] == got[3] == got[6]
        assert got[8] == coef[0, 0] and got[9] == coef[0, 1] and got[13] == got[14]

    @pytest.mark.parametrize("alpha1", [0.77, 0.2, 0.05])
    def test_table_error_on_published_tails(self, alpha1):
        # The 2010 row and its tail at alpha1 = 0.2 and 0.05, where the linear table
        # missed the CDF by 9.5e-6, 6.2e-5 and 8.0e-4.
        cdf_error, ccdf_error = table_errors(idist.normalize(replace(year_params(2010), alpha1=alpha1)))
        assert cdf_error <= 1e-8
        assert ccdf_error <= 1e-6

    @given(alpha=st.floats(0.05, 12.0), alpha1=st.floats(0.05, 12.0),
           log_tl=st.floats(math.log(100.0 / 30.0), math.log(3e8)),
           log_th=st.floats(math.log(100.0 / 30.0), math.log(2e7)),
           log_m0=st.floats(math.log(100.0 / 30.0), math.log(3e8)),
           log_m1=st.floats(math.log(100.0 / 30.0), math.log(2e7)))
    @settings(max_examples=40)
    def test_table_error_over_the_fitter_box(self, alpha, alpha1, log_tl, log_th, log_m0, log_m1):
        # The box of test_round_trip_or_library_error_over_the_fitter_box.  Wherever the
        # table builds, its draws are finite and >= 0.  From m0/T or m0/T1 = 1e5 the log
        # CCDF that the probe reads is itself off (ROADMAP item 2), so the probe stops there.
        p = idist.Params(t_low=math.exp(log_tl), t_high=math.exp(log_th), m0=math.exp(log_m0),
                         m1=math.exp(log_m1), alpha=alpha, alpha1=alpha1)
        try:
            model = idist.normalize(p)
            draws = idist.sample(model, 1000, 1)
        except idist.QuadratureError:
            return
        assert np.all(np.isfinite(draws) & (draws >= 0.0))
        if max(p.m0 / p.t_low, p.m0 / p.t_high) < 1e5:
            assert table_errors(model)[0] <= 1e-8

    @pytest.mark.parametrize("point", BROKEN_CCDF_POINTS)
    def test_broken_table_raises_quadrature_error(self, point):
        # The log CCDF turns positive on the table's knots here (up to 4.4 and 9.2):
        # draws would land where the CCDF is 0 (78.8% above m1 at the first).
        model = idist.normalize(idist.params_from_dict(point))
        with pytest.raises(idist.QuadratureError, match="positive"):
            model._sample_table
        with pytest.raises(idist.QuadratureError):
            idist.sample(model, 1000, seed=1)

    def test_rising_table_raises_quadrature_error(self, monkeypatch):
        # A log CCDF that rises with m by more than its noise on the table's knots.
        model = idist.normalize(year_params(2010))
        real = idist.logccdf
        monkeypatch.setattr("incomedist.model.logccdf",
                            lambda model, m: real(model, m) + 0.5 * (m > model.params.m0))
        with pytest.raises(idist.QuadratureError, match="rises"):
            idist.sample(model, 1000, seed=1)

    @pytest.mark.parametrize("point", BUDGET_SHARING_POINTS + PANEL_SHARE_POINTS)
    def test_budget_spent_by_other_segments_still_samples(self, point):
        model = idist.normalize(idist.params_from_dict(point))
        assert np.all(idist.logccdf(model, np.geomspace(1.0, 1e7, 200)) <= 1e-9)
        q = idist.quantile(model, 0.5)
        assert abs(idist.logccdf(model, q) - math.log(0.5)) <= quantile_noise(model)
        draws = idist.sample(model, 1000, seed=1)
        assert np.all(np.isfinite(draws) & (draws >= 0.0))

    def test_underflowed_low_anchor_raises_quadrature_error(self):
        # m0/T = 2e5 loses the low-branch mass to underflow, so the branch
        # constant is ~3e5 and the table's low anchor exp(-3e5) is 0.
        model = idist.normalize(
            idist.Params(t_low=1.0, t_high=1.0, m0=2e5, m1=1e7, alpha=2.0, alpha1=2.0)
        )
        with pytest.raises(idist.QuadratureError):
            idist.quantile(model, 0.5)
        with pytest.raises(idist.QuadratureError):
            idist.sample(model, 10, seed=1)


class TestTailSlope:
    def test_light_tail_year(self, models):
        assert abs(loglog_slope(models[2010], 1e7, 1e9, k=20) + 0.77) <= 0.02

    def test_heavy_tail_year(self, models):
        assert abs(loglog_slope(models[2009], 1e7, 1e9, k=20) + 2.608) <= 0.05

    def test_asymptotic_slope_matches_exponent(self, models):
        for year, model in models.items():
            m1 = model.params.m1
            slope = loglog_slope(model, 1e3 * m1, 1e5 * m1)
            alpha1 = model.params.alpha1
            assert abs(slope + alpha1) <= 0.01 * alpha1

    def test_single_exponent_slopes_agree_everywhere(self):
        # With one exponent and a negligible exponential factor the local
        # slope is the same in any window well above m0.
        p = idist.Params(t_low=1e7, t_high=1e7, m0=10.0, m1=50.0, alpha=2.5, alpha1=2.5)
        model = idist.normalize(p)
        near = loglog_slope(model, 1e3, 1e5)
        far = loglog_slope(model, 1e7, 1e9)
        assert abs(near / far - 1.0) <= 0.01


class TestSerialization:
    def test_round_trip(self):
        p = year_params(2007)
        doc = idist.params_to_dict(p)
        assert set(doc) == {"T", "T1", "m0", "m1", "alpha", "alpha1"}
        assert idist.params_from_dict(doc) == p

    def test_missing_key_rejected(self):
        doc = idist.params_to_dict(year_params(2007))
        del doc["m0"]
        with pytest.raises(idist.DataFormatError):
            idist.params_from_dict(doc)

    def test_non_numeric_rejected(self):
        doc = idist.params_to_dict(year_params(2007))
        doc["alpha"] = "three"
        with pytest.raises(idist.DataFormatError):
            idist.params_from_dict(doc)

    def test_boolean_rejected(self):
        doc = idist.params_to_dict(year_params(2007))
        doc["alpha"] = True  # JSON true, which float() would read as 1.0
        with pytest.raises(idist.DataFormatError, match="not a float"):
            idist.params_from_dict(doc)

    @pytest.mark.parametrize("value", ["38000", " 3.8e4 ", b"38000"])
    def test_digit_string_rejected(self, value):
        doc = idist.params_to_dict(year_params(2007))
        doc["T"] = value  # float() would read it as 38000.0
        with pytest.raises(idist.DataFormatError, match="not a float"):
            idist.params_from_dict(doc)

    def test_int_beyond_float_range_rejected(self):
        doc = idist.params_to_dict(year_params(2007))
        doc["T"] = 10**330
        with pytest.raises(idist.DataFormatError, match="not a float"):
            idist.params_from_dict(doc)

    @pytest.mark.parametrize("doc", [5, None, "T", [1.0, 2.0]])
    def test_non_mapping_rejected(self, doc):
        with pytest.raises(idist.DataFormatError, match="mapping"):
            idist.params_from_dict(doc)
