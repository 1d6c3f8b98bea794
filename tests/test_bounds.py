import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from widecap.bounds import (
    LN_PI,
    AlphaBracket,
    BoundsReport,
    CriticalBracket,
    OccupancyAboveOptimalWarning,
    alpha_brackets,
    bounds_report,
    coarse_peak_rate,
    coherence_requirement,
    critical_bracket,
    critical_coefficients,
    epsilon_for_error_pct,
    normalize_per_symbol_rate,
    optimal_occupancy,
    peak_gap,
    rate_derivative_terms,
    rate_lower_bound,
    rate_upper_bound,
    stationarity_residual,
    sublinear_rate_bound,
    sublinear_support_range,
)
from widecap.scenario import ChannelScenario, FadingFamily, OccupancyPoint, kurtosis

# Frozen 50-digit reference evaluations of the closed forms.
RLB_100_1X1_LC1E3_AT_100 = -0.69087547793152205852
RUB_100_1X1_LC1E3_AT_1E3 = 90.384879483158740549
OPT_2X2_1E7_LC1E3 = 120318256.01340967847
OPT_2X2_1E7_LC1E5 = 931981203.56931215059
GAP_2X2_LC1E3 = 0.17784840636884900917
GAP_2X2_LC1E5 = 0.022960130533869376939

FADINGS = [
    FadingFamily.rayleigh(),
    FadingFamily.rice(1.0),
    FadingFamily.nakagami(2.0),
    FadingFamily.nakagami(0.5),
]


def scenario(snr=100.0, nt=1, nr=1, lc=1e3, fading=None):
    return ChannelScenario(
        snr_density=snr,
        coherence_time=1e-3,
        coherence_bandwidth=lc / 1e-3,
        nt=nt,
        nr=nr,
        fading=fading or FadingFamily.rayleigh(),
    )


def brent_maximizer(s, lo, hi):
    """Independent bounded-Brent maximizer of the lower bound over ln(dB)."""
    result = optimize.minimize_scalar(
        lambda u: -rate_lower_bound(s, math.exp(u)),
        bounds=(math.log(lo), math.log(hi)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return math.exp(result.x)


def shape(s):
    return kurtosis(s.fading) - 2.0 + s.nt + s.nr


def closed_form_bracket(s):
    """Occupancies where the R_LB slope is provably positive and negative."""
    lc, k = s.coherence_product, shape(s)
    low = s.snr_density * k / (2.0 * s.nt)
    high = 4.0 * s.snr_density * lc * lc / (3.0 * s.nt * (lc - k))
    return low, high


def slope(s, occupancy):
    t1, t2, t3 = rate_derivative_terms(s, occupancy)
    return t1 - t2 + t3


def mpmath_maximizer(s):
    """50-digit root of K*y^2/(2*Lc) - ln(1+y) + y/(1+y), mapped to dB = P*Lc/(Nt*N0*y)."""
    with mpmath.workdps(50):
        lc, k = mpmath.mpf(s.coherence_product), mpmath.mpf(kurtosis(s.fading)) - 2 + s.nt + s.nr
        y = mpmath.findroot(
            lambda y: k * y * y / (2 * lc) - mpmath.log1p(y) + y / (1 + y),
            (mpmath.mpf(3) / 4 * (1 - k / lc), 2 * lc / k),
            solver="anderson",
        )
        return float(mpmath.mpf(s.snr_density) * lc / (s.nt * y))


class TestRateLowerBound:
    def test_frozen_value(self):
        assert rate_lower_bound(scenario(), 100.0) == pytest.approx(
            RLB_100_1X1_LC1E3_AT_100, rel=1e-12
        )

    def test_vanishes_far_beyond_optimal(self):
        s = scenario()
        opt = optimal_occupancy(s).occupancy_optimal
        value = rate_lower_bound(s, 1e6 * opt)
        assert abs(value) < 1e-3 * s.wideband_limit

    def test_remark_scale_gap(self):
        s = scenario(snr=1e7, nt=2, nr=2)
        assert rate_lower_bound(s, 1.203e8) >= 2e7 * (1 - 0.18)

    def test_negative_raw_at_small_occupancy(self):
        assert rate_lower_bound(scenario(), 1.0) < 0

    def test_rejects_nonpositive_occupancy(self):
        with pytest.raises(ValueError):
            rate_lower_bound(scenario(), 0.0)

    @pytest.mark.parametrize("occupancy", [math.inf, np.array([1e6, math.inf])])
    def test_rejects_nonfinite_occupancy(self, occupancy):
        with pytest.raises(ValueError, match="occupancy must be finite"):
            rate_lower_bound(scenario(), occupancy)
        with pytest.raises(ValueError, match="occupancy must be finite"):
            rate_upper_bound(scenario(), occupancy)

    def test_occupancy_only_dependence(self):
        s = scenario()
        x = 1700.0
        a = OccupancyPoint.of(1.0, x)
        b = OccupancyPoint.of(0.5, 2.0 * x)
        assert a.occupancy == b.occupancy
        assert rate_lower_bound(s, a.occupancy) == rate_lower_bound(s, b.occupancy)

    def test_array_broadcast(self):
        s = scenario()
        grid = np.geomspace(10.0, 1e6, 7)
        values = rate_lower_bound(s, grid)
        assert values.shape == grid.shape
        assert values[0] == rate_lower_bound(s, grid[0])


class TestRateUpperBound:
    def test_frozen_value(self):
        assert rate_upper_bound(scenario(), 1e3, 1.0) == pytest.approx(
            RUB_100_1X1_LC1E3_AT_1E3, rel=1e-12
        )

    def test_vanishes_at_large_occupancy(self):
        s = scenario()
        opt = optimal_occupancy(s).occupancy_optimal
        assert abs(rate_upper_bound(s, 1e6 * opt, 1.0)) < 1e-3 * s.wideband_limit

    def test_bell_shape_single_interior_maximum(self):
        s = scenario()
        opt = optimal_occupancy(s).occupancy_optimal
        grid = np.geomspace(opt / 1e3, opt * 1e3, 201)
        values = rate_upper_bound(s, grid, 1.0)
        diffs = np.diff(values)
        signs = np.sign(diffs[np.abs(diffs) > 1e-12 * s.wideband_limit])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1 and signs[0] > 0 and signs[-1] < 0
        peak = int(np.argmax(values))
        assert 0 < peak < len(grid) - 1

    def test_requires_rayleigh(self):
        with pytest.raises(ValueError):
            rate_upper_bound(scenario(fading=FadingFamily.rice(1.0)), 1e3, 1.0)

    def test_penalty_factor_domain(self):
        with pytest.raises(ValueError):
            rate_upper_bound(scenario(), 1e3, 0.0)
        with pytest.raises(ValueError):
            rate_upper_bound(scenario(), 1e3, 1.5)

    @pytest.mark.parametrize("pf", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (2, 1)])
    def test_orders_above_lower_bound(self, pf, nt, nr):
        s = scenario(nt=nt, nr=nr)
        opt = optimal_occupancy(s).occupancy_optimal
        grid = np.geomspace(opt / 1e3, opt * 1e3, 101)
        assert np.all(rate_lower_bound(s, grid) <= rate_upper_bound(s, grid, pf))


class TestBoundsReport:
    def test_fields(self):
        report = bounds_report(scenario(), 1e3)
        assert report.wideband_limit == 100.0
        assert report.gap_delta == pytest.approx(1 - report.rate_lower / 100.0, rel=1e-13)
        assert report.rate_upper == pytest.approx(RUB_100_1X1_LC1E3_AT_1E3, rel=1e-12)

    def test_no_upper_bound_outside_rayleigh(self):
        report = bounds_report(scenario(fading=FadingFamily.nakagami(2.0)), 1e3)
        assert report.rate_upper is None

    def test_inconsistent_gap_rejected(self):
        with pytest.raises(ValueError):
            BoundsReport(
                occupancy=1e3, rate_lower=50.0, wideband_limit=100.0, gap_delta=0.4
            )


class TestOptimalOccupancy:
    def test_remark_values(self):
        assert optimal_occupancy(
            scenario(snr=1e7, nt=2, nr=2)
        ).occupancy_optimal == pytest.approx(OPT_2X2_1E7_LC1E3, rel=1e-12)
        assert optimal_occupancy(
            scenario(snr=1e7, nt=2, nr=2, lc=1e5)
        ).occupancy_optimal == pytest.approx(OPT_2X2_1E7_LC1E5, rel=1e-12)

    def test_linear_in_snr_density(self):
        lo = optimal_occupancy(scenario(snr=1e6, nt=2, nr=2))
        hi = optimal_occupancy(scenario(snr=2e6, nt=2, nr=2))
        assert hi.occupancy_optimal == pytest.approx(2 * lo.occupancy_optimal, rel=1e-14)

    @pytest.mark.parametrize("lc", [1e3, 1e4, 1e5, 1e6])
    def test_exact_close_to_closed_form(self, lc):
        bracket = optimal_occupancy(scenario(lc=lc))
        gap = abs(bracket.occupancy_optimal_exact - bracket.occupancy_optimal)
        assert gap / bracket.occupancy_optimal < 0.1

    @pytest.mark.parametrize("lc", [1e3, 1e4, 1e5, 1e6])
    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (4, 2)])
    def test_exact_matches_independent_maximizer(self, lc, nt, nr):
        s = scenario(snr=1e7, nt=nt, nr=nr, lc=lc)
        bracket = optimal_occupancy(s)
        reference = brent_maximizer(
            s, bracket.occupancy_optimal / 100, bracket.occupancy_optimal * 100
        )
        # The value-based oracle can only localize the flat peak to ~1e-7
        # relative in float64; the stationarity test below pins it tighter.
        assert bracket.occupancy_optimal_exact == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("lc", [1e3, 1e4, 1e5, 1e6])
    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (2, 1), (4, 4)])
    def test_stationarity_residual(self, lc, nt, nr):
        s = scenario(snr=1e7, nt=nt, nr=nr, lc=lc)
        bracket = optimal_occupancy(s)
        assert stationarity_residual(s, bracket.occupancy_optimal_exact) < 1e-8

    def test_peak_rate_is_lower_bound_on_maximum(self):
        for lc in (1e3, 1e4, 1e5):
            s = scenario(snr=1e7, nt=2, nr=2, lc=lc)
            bracket = optimal_occupancy(s)
            assert rate_lower_bound(s, bracket.occupancy_optimal_exact) >= bracket.peak_rate_lower

    def test_requires_log_coherence(self):
        with pytest.raises(ValueError):
            optimal_occupancy(scenario(lc=2.0))

    # Regression pins: at Lc >= 1e3 the float64 maximizer does not depend on
    # the bracket the bisection starts from, so these bits move only when the
    # slope arithmetic does.
    @pytest.mark.parametrize("kwargs,bits", [
        (dict(snr=1e7, nt=2, nr=2, lc=1e3), "0x1.0616e72ae6566p+27"),
        (dict(snr=1e7, nt=2, nr=2, lc=1e5), "0x1.d1b1843c1dc86p+29"),
        (dict(snr=100.0, lc=1e4), "0x1.2babfd1ab08d9p+12"),
        (dict(snr=1e9, nt=8, nr=4, lc=1e8, fading=FadingFamily.rice(1.0)),
         "0x1.e2d24a8ee80e8p+39"),
        (dict(snr=1e3, nt=1, nr=8, lc=1e12, fading=FadingFamily.nakagami(0.5)),
         "0x1.24507266e8f78p+29"),
    ])
    def test_exact_pinned_bits(self, kwargs, bits):
        assert optimal_occupancy(scenario(**kwargs)).occupancy_optimal_exact.hex() == bits

    @pytest.mark.parametrize("fading", FADINGS, ids=lambda f: f.label)
    @pytest.mark.parametrize("lc_spec", [1.001, 1.01, 2.0, 10.0, "1e4", "1e9", "1e15"])
    def test_closed_form_bracket(self, fading, lc_spec):
        # Numbers are Lc/K ratios, strings absolute coherence products.
        for nt in (1, 2, 4, 8):
            for nr in (1, 2, 4, 8):
                k = kurtosis(fading) - 2.0 + nt + nr
                lc = float(lc_spec) if isinstance(lc_spec, str) else lc_spec * k
                if lc <= math.e:
                    continue  # below the e floor every solver call rejects
                for snr in (1e-3, 1.0, 1e6, 1e12):
                    s = scenario(snr=snr, nt=nt, nr=nr, lc=lc, fading=fading)
                    low, high = closed_form_bracket(s)
                    assert slope(s, low) > 0.0 > slope(s, high), (nt, nr, lc, snr)
                    exact = optimal_occupancy(s).occupancy_optimal_exact
                    assert low < exact < high
                    assert stationarity_residual(s, exact) < 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        nt=st.integers(1, 8),
        nr=st.integers(1, 8),
        fading=st.sampled_from(FADINGS),
        log_ratio=st.floats(math.log10(1.001), 12.0),
        log_snr=st.floats(-3.0, 12.0),
    )
    def test_bracket_property(self, nt, nr, fading, log_ratio, log_snr):
        lc = max(10.0 ** log_ratio * (kurtosis(fading) - 2.0 + nt + nr), 3.0)
        s = scenario(snr=10.0 ** log_snr, nt=nt, nr=nr, lc=lc, fading=fading)
        low, high = closed_form_bracket(s)
        assert slope(s, low) > 0.0 > slope(s, high)
        exact = optimal_occupancy(s).occupancy_optimal_exact
        assert stationarity_residual(s, exact) < 1e-8

    @pytest.mark.parametrize("ratio", [1.0002, 1.001, 1.01])
    @pytest.mark.parametrize("nt,nr", [(2, 2), (8, 8), (1, 4)])
    def test_maximum_just_above_shape(self, ratio, nt, nr):
        # The maximizer lies hundreds of times the closed form away, outside
        # any fixed window around it; the bisection still finds it.
        s = scenario(snr=1e6, nt=nt, nr=nr, lc=ratio * (nt + nr))
        bracket = optimal_occupancy(s)
        assert bracket.occupancy_optimal_exact > 100.0 * bracket.occupancy_optimal
        assert stationarity_residual(s, bracket.occupancy_optimal_exact) < 1e-8
        assert bracket.occupancy_optimal_exact == pytest.approx(mpmath_maximizer(s), rel=1e-6)

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.00005])
    def test_no_interior_maximum_raises(self, ratio):
        # Lc <= K: R_LB rises monotonically.  Lc just above K: the float64
        # slope's rounding can fake a sign change, so no value is made up.
        s = scenario(snr=1e6, nt=8, nr=8, lc=ratio * 16.0)
        with pytest.raises(ValueError, match="kappa-2\\+Nt\\+Nr"):
            optimal_occupancy(s)

    def test_bell_shape_of_lower_bound(self):
        s = scenario()
        opt = optimal_occupancy(s).occupancy_optimal
        grid = np.geomspace(opt / 1e3, opt * 1e3, 301)
        values = rate_lower_bound(s, grid)
        diffs = np.diff(values)
        signs = np.sign(diffs[np.abs(diffs) > 1e-12 * s.wideband_limit])
        assert np.count_nonzero(np.diff(signs)) == 1


class TestPeakGap:
    def test_remark_values(self):
        assert peak_gap(scenario(snr=1e7, nt=2, nr=2)) == pytest.approx(
            GAP_2X2_LC1E3, rel=1e-12
        )
        assert peak_gap(scenario(snr=1e7, nt=2, nr=2, lc=1e5)) == pytest.approx(
            GAP_2X2_LC1E5, rel=1e-12
        )

    def test_independent_of_snr_density(self):
        assert peak_gap(scenario(snr=1.0, nt=2, nr=2, lc=1e4)) == peak_gap(
            scenario(snr=1e9, nt=2, nr=2, lc=1e4)
        )


class TestCriticalBracket:
    def test_ratio_for_siso(self):
        bracket = critical_bracket(scenario())
        assert bracket.occupancy_high / bracket.occupancy_low == pytest.approx(
            8 * LN_PI, rel=1e-12
        )

    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (2, 1), (4, 2), (1, 4)])
    def test_ratio_general(self, nt, nr):
        bracket = critical_bracket(scenario(snr=1e7, nt=nt, nr=nr))
        expected = 4 * (nt + nr) * LN_PI / nt
        assert bracket.occupancy_high / bracket.occupancy_low == pytest.approx(
            expected, rel=1e-12
        )

    def test_bracket_contains_optimal(self):
        bracket = critical_bracket(scenario(snr=1e7, nt=2, nr=2))
        assert bracket.occupancy_low < bracket.occupancy_optimal < bracket.occupancy_high

    @pytest.mark.parametrize("nt", [1, 2, 4])
    @pytest.mark.parametrize("nr", [1, 2, 4])
    @pytest.mark.parametrize("lc", [1e3, 1e6])
    def test_exact_roots_inside_loose_bracket(self, nt, nr, lc):
        bracket = critical_bracket(scenario(snr=1e7, nt=nt, nr=nr, lc=lc))
        assert bracket.occupancy_low <= bracket.occupancy_low_exact
        assert bracket.occupancy_high_exact <= bracket.occupancy_high
        assert bracket.occupancy_low_exact < bracket.occupancy_high_exact

    def test_exact_roots_for_siso(self):
        # closed form: sqrt(Y)-+ = sqrt(2 ln pi) +- sqrt(2 ln pi - 1)
        low_exact, low_approx, high_exact, high_approx = critical_coefficients(1, 1)
        u = 2 * LN_PI
        assert low_exact == pytest.approx(1 / (math.sqrt(u) + math.sqrt(u - 1)), rel=1e-14)
        assert high_exact == pytest.approx(1 / (math.sqrt(u) - math.sqrt(u - 1)), rel=1e-14)

    def test_requires_rayleigh(self):
        with pytest.raises(ValueError):
            critical_bracket(scenario(fading=FadingFamily.rice(2.0)))

    def test_invariants_enforced_at_construction(self):
        with pytest.raises(ValueError):
            CriticalBracket(
                nt=1, nr=1,
                occupancy_optimal=1.0, occupancy_optimal_exact=1.0, peak_rate_lower=1.0,
                occupancy_low=2.0, occupancy_high=2.0 * 8 * LN_PI,
                occupancy_low_exact=2.5, occupancy_high_exact=10.0,
            )


class TestSublinearRateBound:
    def test_alpha_to_zero_limit(self):
        s = scenario(snr=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OccupancyAboveOptimalWarning)
            value = sublinear_rate_bound(s, 1e6, 1e-9)
        limit = s.wideband_limit * (1 - (2.0) / 1)
        assert value == pytest.approx(limit, rel=1e-6)

    def test_direct_substitution(self):
        s = scenario(snr=100.0)
        value = sublinear_rate_bound(s, 1e4, 0.5)  # SNR = 1e-2
        assert value == pytest.approx(0.8 * s.wideband_limit, rel=1e-12)

    def test_approaches_wideband_limit(self):
        s = scenario(snr=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OccupancyAboveOptimalWarning)
            value = sublinear_rate_bound(s, 1e12, 0.5)
        assert value == pytest.approx(s.wideband_limit, rel=1e-4)

    def test_rejects_snr_at_least_one(self):
        with pytest.raises(ValueError):
            sublinear_rate_bound(scenario(snr=100.0), 50.0, 0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            sublinear_rate_bound(scenario(), 1e4, 1.0)

    def test_warns_above_optimal_occupancy(self):
        s = scenario(snr=100.0)
        with pytest.warns(OccupancyAboveOptimalWarning):
            sublinear_rate_bound(s, 1e9, 0.9)

    def test_defined_without_interior_maximum(self):
        # Lc = 10 < K = 16: optimal_occupancy raises, but the polynomial
        # bound only compares against the closed-form (dB)* ~= 104.2.
        s = scenario(snr=100.0, nt=8, nr=8, lc=10.0)
        with pytest.raises(ValueError):
            optimal_occupancy(s)
        with pytest.warns(OccupancyAboveOptimalWarning):
            assert sublinear_rate_bound(s, 1e4, 0.5).hex() == "0x1.4000000000000p+9"
        with warnings.catch_warnings():
            warnings.simplefilter("error", OccupancyAboveOptimalWarning)
            value = sublinear_rate_bound(s, 1e3, 0.01)  # occupancy ~= 102.3
        assert value == s.wideband_limit * (1.0 - 0.1**0.01 * 16.0 / 8)


class TestAlphaBrackets:
    def test_frozen_alpha_max(self):
        bracket = alpha_brackets(scenario(), 1e-2, 0.5)
        assert bracket.alpha_max == pytest.approx(0.90051499783199059761, rel=1e-12)

    def test_definition_identity(self):
        for nt, nr, lc in [(1, 1, 1e3), (2, 2, 1e5), (4, 1, 1e4)]:
            s = scenario(snr=1e7, nt=nt, nr=nr, lc=lc)
            bracket = alpha_brackets(s, 1e-2, 0.3)
            residual = bracket.alpha_max * 2 * math.log(1 / 1e-2) - math.log(
                (nt + nr) ** 2 / nt**2 * lc
            )
            assert abs(residual) < 1e-12

    def test_epsilon_to_zero_collapses(self):
        s = scenario()
        for eps in (1e-2, 1e-6, 1e-12):
            bracket = alpha_brackets(s, 1e-2, eps)
            assert bracket.alpha_max - bracket.alpha_min <= eps + 1e-15

    def test_min_floored_at_half_max(self):
        bracket = alpha_brackets(scenario(lc=100.0), 1e-2, 1.0)
        assert bracket.alpha_min == bracket.alpha_max / 2

    @pytest.mark.parametrize("lc", [1e3, 1e4, 1e5, 1e6])
    def test_ordering(self, lc):
        bracket = alpha_brackets(scenario(lc=lc), 1e-2, 0.5)
        assert bracket.alpha_minus < bracket.alpha_plus < bracket.alpha_max

    def test_leading_term_scales_with_log_coherence(self):
        # alpha ~ ln(Lc)/(2 ln(1/SNR)) plus additive log corrections: doubling
        # ln(Lc) must grow each estimate by the leading increment within 5%.
        snr, lc = 1e-4, 1e7
        leading = math.log(lc) / (2 * math.log(1 / snr))
        a = alpha_brackets(scenario(lc=lc), snr, 0.1)
        b = alpha_brackets(scenario(lc=lc * lc), snr, 0.1)
        for lo, hi in [
            (a.alpha_max, b.alpha_max),
            (a.alpha_plus, b.alpha_plus),
            (a.alpha_minus, b.alpha_minus),
        ]:
            assert (hi - lo) / leading == pytest.approx(1.0, rel=0.05)

    def test_clamped_flag(self):
        assert alpha_brackets(scenario(lc=1e8), 0.5, 0.1).clamped
        assert not alpha_brackets(scenario(lc=1e3), 1e-2, 0.1).clamped

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_brackets(scenario(), 1.5, 0.1)
        with pytest.raises(ValueError):
            alpha_brackets(scenario(), 1e-2, 0.0)

    def test_floor_enforced_at_construction(self):
        with pytest.raises(ValueError):
            AlphaBracket(
                alpha_max=0.8, alpha_min=0.2, alpha_plus=0.7, alpha_minus=0.5,
                epsilon=0.6, sigma_range=(0.0, 0.6), snr=1e-2, clamped=False,
            )


class TestEpsilonForErrorPct:
    def test_full_error_gives_zero(self):
        assert epsilon_for_error_pct(100.0, 1e-2) == 0.0

    def test_one_percent(self):
        assert epsilon_for_error_pct(1.0, 1e-2) == pytest.approx(1.0, rel=1e-14)

    def test_ten_percent(self):
        assert epsilon_for_error_pct(10.0, 1e-2) == pytest.approx(0.5, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_for_error_pct(0.0, 1e-2)
        with pytest.raises(ValueError):
            epsilon_for_error_pct(10.0, 1.0)


class TestCoherenceRequirement:
    def test_direct_substitution(self):
        assert coherence_requirement(0.25, 0.25, 1e-2, 1, 1) == pytest.approx(25.0)

    def test_sigma_to_zero_gives_minimum(self):
        alpha, snr = 0.4, 1e-2
        minimum = 1 / 4 * snr ** (-2 * alpha)
        value = coherence_requirement(alpha, 1e-12, snr, 1, 1)
        assert value == pytest.approx(minimum, rel=1e-9)

    def test_monotone_in_sigma_plus_alpha(self):
        values = [
            coherence_requirement(0.3, sigma, 1e-2, 2, 2) for sigma in (0.1, 0.2, 0.4)
        ]
        assert values[0] < values[1] < values[2]

    def test_domain(self):
        with pytest.raises(ValueError):
            coherence_requirement(0.5, 0.0, 1e-2, 1, 1)
        with pytest.raises(ValueError):
            coherence_requirement(0.5, 0.1, 2.0, 1, 1)


class TestNormalization:
    def test_unit_conversion(self):
        s = scenario()  # Bc = 1e6 Hz
        assert normalize_per_symbol_rate(1.0, s) == 1e6

    def test_zero(self):
        assert normalize_per_symbol_rate(0.0, scenario()) == 0.0

    def test_snr_symbol_rate_algebra(self):
        # a*SNR nats/symbol with SNR = P/(N0*B) and B = M*Bc comes out as
        # a*(P/N0)/M nats/s.
        s = scenario(snr=100.0)
        m = 8
        a = 3.0
        per_symbol = a * s.snr_density / (m * s.coherence_bandwidth)
        assert normalize_per_symbol_rate(per_symbol, s) == pytest.approx(
            a * s.snr_density / m, rel=1e-12
        )


class TestSupportRangeAndCoarseRate:
    def test_support_range_formulas(self):
        s = scenario(snr=100.0, nt=2, nr=1)
        cap, floor = sublinear_support_range(s, 0.5)
        assert cap == pytest.approx(100.0 * 1.5 * math.sqrt(1e3), rel=1e-14)
        assert floor == pytest.approx(100.0**1.5 * 1.5 * math.sqrt(1e3), rel=1e-14)

    def test_coarse_peak_rate(self):
        s = scenario(snr=100.0, lc=1e4)
        assert coarse_peak_rate(s) == pytest.approx(100.0 * (1 - 0.01), rel=1e-14)
        assert coarse_peak_rate(s) <= s.wideband_limit
