import math
import sys
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from widecap import bounds
from widecap.bounds import (
    LN_PI,
    AlphaBracket,
    CriticalBracket,
    alpha_brackets,
    critical_bracket,
    critical_coefficients,
    epsilon_for_error_pct,
    optimal_occupancy,
    peak_gap,
    rate_lower_bound,
    rate_upper_bound,
)
from widecap.scenario import ChannelScenario, FadingFamily, kurtosis

from test_mcverify import scenario

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


def derivative_terms(s, occupancy):
    """The three terms of d(R_LB)/d(dB) / C_inf: (quadratic, log, rational).

    The oracle of the stationarity condition t1 - t2 + t3 = 0 at the maximizer.
    """
    snr, nt, lc, x = s.snr_density, s.nt, s.coherence_product, occupancy
    t1 = snr * shape(s) / (2.0 * x * x * nt)
    t2 = (nt / (snr * lc)) * math.log1p(snr * lc / (x * nt))
    t3 = 1.0 / (x * (1.0 + snr * lc / (nt * x)))
    return t1, t2, t3


def slope(s, occupancy):
    t1, t2, t3 = derivative_terms(s, occupancy)
    return t1 - t2 + t3


def stationarity_residual(s, occupancy):
    """|t1 - t2 + t3| relative to the largest derivative term at ``occupancy``."""
    t1, t2, t3 = derivative_terms(s, occupancy)
    return abs(t1 - t2 + t3) / max(abs(t1), abs(t2), abs(t3))


# Evaluations of g(y) that one solve may take, at any K and finite Lc > K.
EVALUATION_BUDGET = 24
# Lc/K ratios of the solver tests just above K and where log terms cancel.
BARELY_ABOVE_SHAPE = [1.0 + 2**-52, 1.0 + 2**-51, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.00005]
JUST_ABOVE_SHAPE = [1.0002, 1.001, 1.01]
LOG_TERMS_CANCEL = [1.1, 1.2, 1.3, 1.5, 2.0, 2.05, 3.0]


def counted_optimum_y(monkeypatch, shape, lc):
    """bounds._optimum_y(shape, lc) and the number of evaluations of g(y) it took."""
    calls = []
    build = bounds._iterated_function

    def counting(shape, lc):
        value_and_slope, *rest = build(shape, lc)

        def counted(y):
            calls.append(y)
            return value_and_slope(y)

        return (counted, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_iterated_function", counting)
        y = bounds._optimum_y(shape, lc)
    return y, len(calls)


def mpmath_maximizer(s):
    """50-digit root of g(y)/y^2 = K/(2*Lc), g(y) = ln(1+y) - y/(1+y), as dB = P*Lc/(Nt*N0*y).

    K is the float64 value the scenario defines: near Lc = K the root is as
    sensitive to the last bit of K as to that of Lc.  Ridder's bracketed
    method converges on the whole closed-form bracket for Lc/K from 1 + 1e-12
    to 1e14; it agrees with a 100-digit solve to 1e-33.
    """
    with mpmath.workdps(50):
        lc, k = mpmath.mpf(s.coherence_product), mpmath.mpf(shape(s))
        y = mpmath.findroot(
            lambda y: (mpmath.log1p(y) - y / (1 + y)) / (y * y) - k / (2 * lc),
            (mpmath.mpf(3) / 4 * (1 - k / lc), 2 * lc / k),
            solver="ridder",
        )
        return float(mpmath.mpf(s.snr_density) * lc / (s.nt * y))


def mpmath_maximizer_bisected(s):
    """mpmath_maximizer by 50-digit bisection in ln y, for any finite Lc > K.

    Bisection needs no starting point, and the closed-form bracket spans
    less than 750 in ln y, so 90 halvings pin y to about 6e-25 relative,
    whatever Lc is; mpmath_maximizer is checked only up to Lc/K = 1e14.
    """
    with mpmath.workdps(50):
        lc, k = mpmath.mpf(s.coherence_product), mpmath.mpf(shape(s))
        lo, hi = mpmath.log((lc - k) / (2 * lc)), mpmath.log(2 * lc / k)
        for _ in range(90):
            mid = (lo + hi) / 2
            y = mpmath.exp(mid)
            if (mpmath.log1p(y) - y / (1 + y)) / (y * y) > k / (2 * lc):
                lo = mid
            else:
                hi = mid
        y = mpmath.exp((lo + hi) / 2)
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

    @pytest.mark.parametrize("occupancy, message", [
        (math.nan, "occupancy must be > 0"),
        (np.array([1e6, math.nan]), "occupancy must be > 0"),
        (-math.inf, "occupancy must be > 0"),
        (0.0, "occupancy must be > 0"),
        (-0.0, "occupancy must be > 0"),
        (np.array([[1e6], [0]]), "occupancy must be > 0"),
    ])
    def test_occupancy_domain_messages(self, occupancy, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rate_lower_bound(scenario(), occupancy)

    @pytest.mark.parametrize("occupancy", [np.array([]), np.empty((0, 3)), 5, np.array([1, 10])])
    def test_empty_and_integer_occupancies_pass(self, occupancy):
        expected = rate_lower_bound(scenario(), np.asarray(occupancy, dtype=float))
        np.testing.assert_array_equal(rate_lower_bound(scenario(), occupancy), expected)

    def test_occupancy_only_dependence(self):
        s = scenario()
        x = 1700.0
        # delta*B of (1, x) and (0.5, 2x).
        a, b = 1.0 * x, 0.5 * (2.0 * x)
        assert a == b
        assert rate_lower_bound(s, a) == rate_lower_bound(s, b)

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

    # Regression pins: the root iteration is deterministic, so these bits move
    # only when its arithmetic does.  Each is within 1.4 ulps of the 50-digit
    # maximizer.
    @pytest.mark.parametrize("kwargs,bits", [
        (dict(snr=1e7, nt=2, nr=2, lc=1e3), "0x1.0616e72ae6571p+27"),
        (dict(snr=1e7, nt=2, nr=2, lc=1e5), "0x1.d1b1843c1dc8cp+29"),
        (dict(snr=100.0, lc=1e4), "0x1.2babfd1ab08e0p+12"),
        (dict(snr=1e9, nt=8, nr=4, lc=1e8, fading=FadingFamily.rice(1.0)),
         "0x1.e2d24a8ee80cbp+39"),
        (dict(snr=1e3, nt=1, nr=8, lc=1e12, fading=FadingFamily.nakagami(0.5)),
         "0x1.24507266e8f70p+29"),
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

    @pytest.mark.parametrize("ratio", JUST_ABOVE_SHAPE)
    @pytest.mark.parametrize("nt,nr", [(2, 2), (8, 8), (1, 4)])
    def test_maximum_just_above_shape(self, ratio, nt, nr):
        # The maximizer lies hundreds of times the closed form away, outside
        # any fixed window around it; the root iteration still finds it.
        s = scenario(snr=1e6, nt=nt, nr=nr, lc=ratio * (nt + nr))
        bracket = optimal_occupancy(s)
        assert bracket.occupancy_optimal_exact > 100.0 * bracket.occupancy_optimal
        assert stationarity_residual(s, bracket.occupancy_optimal_exact) < 1e-8
        assert bracket.occupancy_optimal_exact == pytest.approx(mpmath_maximizer(s), rel=2e-15)

    @pytest.mark.parametrize("ratio", BARELY_ABOVE_SHAPE)
    def test_maximum_barely_above_shape(self, ratio):
        # Lc just above K, down to one and two ulps above K = 16: the series
        # in y/(2+y) keeps the root well conditioned, so the maximizer is
        # exact to rounding.
        s = scenario(snr=1e6, nt=8, nr=8, lc=ratio * 16.0)
        assert s.coherence_product > 16.0
        exact = optimal_occupancy(s).occupancy_optimal_exact
        assert exact == pytest.approx(mpmath_maximizer(s), rel=2e-15)

    @pytest.mark.parametrize("ratio", LOG_TERMS_CANCEL)
    @pytest.mark.parametrize("nt,nr", [(1, 2), (2, 7), (8, 8)])
    def test_maximum_where_log_terms_cancel(self, ratio, nt, nr):
        # Lc/K from 1.1 to 3 puts y* between 0.1 and 1, where ln(1+y) and
        # y/(1+y) nearly cancel and 1/2 - g(y)/y^2 cancels again.
        s = scenario(snr=1e6, nt=nt, nr=nr, lc=ratio * (nt + nr))
        exact = optimal_occupancy(s).occupancy_optimal_exact
        assert exact == pytest.approx(mpmath_maximizer(s), rel=2e-15)

    @pytest.mark.parametrize("ratio", [0.5, 1.0])
    def test_no_interior_maximum_raises(self, ratio):
        # Lc <= K: R_LB rises monotonically, so there is no maximizer.
        s = scenario(snr=1e6, nt=8, nr=8, lc=ratio * 16.0)
        with pytest.raises(ValueError, match="kappa-2\\+Nt\\+Nr"):
            optimal_occupancy(s)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        nt=st.integers(1, 8),
        nr=st.integers(1, 8),
        fading=st.sampled_from(FADINGS),
        log_excess=st.floats(-12.0, 12.0),
        log_snr=st.floats(-3.0, 12.0),
    )
    def test_maximizer_matches_mpmath(self, nt, nr, fading, log_excess, log_snr):
        # Lc/K = 1 + 10**log_excess spans 1 + 1e-12 to about 1e12.
        lc = (1.0 + 10.0 ** log_excess) * (kurtosis(fading) - 2.0 + nt + nr)
        assume(lc > math.e)
        s = scenario(snr=10.0 ** log_snr, nt=nt, nr=nr, lc=lc, fading=fading)
        exact = optimal_occupancy(s).occupancy_optimal_exact
        assert exact == pytest.approx(mpmath_maximizer(s), rel=2e-15)

    @pytest.mark.parametrize("nt, nr, lc", [
        (2, 2, 8.043641874808262e110),  # the first 2x2 Lc whose slope underflowed
        (1, 1, 4.41e109),
        (2, 2, 1e306),  # the closed-form start Lc*ln(Lc) overflows
        (1, 1, sys.float_info.max),
    ])
    def test_largest_coherence_products(self, nt, nr, lc):
        # Up to 0.13.0 the Newton slope underflowed to 0 far above y* (a
        # ZeroDivisionError) and at Lc = 1e306 the iteration never ended.
        s = ChannelScenario(snr_density=1.0, coherence_time=1.0, coherence_bandwidth=lc,
                            nt=nt, nr=nr, fading=FadingFamily.rayleigh())
        exact = optimal_occupancy(s).occupancy_optimal_exact
        assert exact == pytest.approx(mpmath_maximizer_bisected(s), rel=2e-15)

    @pytest.mark.parametrize("lc, root", [
        (1e250, "0x1.c6d9be8ea780fp+418"),
        (1e300, "0x1.01850bf4f729fp+502"),
        (1.7e308, "0x1.9f6f94c2ab937p+515"),
    ])
    def test_underflowing_slope_stays_newton(self, monkeypatch, lc, root):
        # On 2x2 (K = 4) the Newton slope underflows to 0 near y* above about
        # Lc = 1e210.  Up to 0.15.0 each such step bisected: 463, 546 and 559
        # evaluations of g(y) here, against 5 to 7 at Lc = 1e3 to 1e12.
        y, evaluations = counted_optimum_y(monkeypatch, 4.0, lc)
        assert y.hex() == root
        assert evaluations <= EVALUATION_BUDGET

    @pytest.mark.parametrize("k", [1.0 + 1e-10, 1.5, 2.0, 3.0, 4.0, 16.0, 32.0])
    def test_evaluation_budget(self, monkeypatch, k):
        # Up to 0.16.0 a converged Newton step that rounded onto the bracket
        # end it had just set was refused and bisected, and the iteration
        # crawled back: 383 to 400 evaluations of g(y) at worst on this sweep.
        lcs = list(np.geomspace(max(k, math.e) * (1.0 + 1e-12), 1.7e308, 400))
        ratios = BARELY_ABOVE_SHAPE + JUST_ABOVE_SHAPE + LOG_TERMS_CANCEL
        lcs += [ratio * k for ratio in ratios if ratio * k > math.e]
        worst = max((counted_optimum_y(monkeypatch, k, float(lc))[1], float(lc)) for lc in lcs)
        assert worst[0] <= EVALUATION_BUDGET, worst

    @pytest.mark.parametrize("lc", [5.5001e15, 5.4e201])
    def test_converged_step_on_bracket_end_stops(self, monkeypatch, lc):
        # 1x1 Rayleigh (K = 2): 0.16.0 took 61 and 368 evaluations here.
        y, evaluations = counted_optimum_y(monkeypatch, 2.0, lc)
        assert evaluations <= 8
        s = ChannelScenario(snr_density=1.0, coherence_time=1.0, coherence_bandwidth=lc,
                            nt=1, nr=1, fading=FadingFamily.rayleigh())
        assert bounds._exact_optimum(s) == pytest.approx(mpmath_maximizer_bisected(s), rel=2e-15)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log2_shape=st.floats(0.0, 1000.0), log2_ratio=st.floats(1.0, 1023.9))
    @example(log2_shape=2.0, log2_ratio=1.0)  # c = 1/4 exactly
    def test_bracket_end_signs_without_guard(self, log2_shape, log2_ratio):
        # For c = K/(2*Lc) <= 1/4 the solver does not evaluate its bracket
        # ends: their signs follow from the closed forms.  Check them here,
        # for every K >= 1 (the smallest kurtosis is 1) and finite Lc.
        shape = 2.0 ** log2_shape
        lc = shape * 2.0 ** log2_ratio
        assume(math.e < lc < math.inf)
        value_and_slope, c, lo, hi = bounds._iterated_function(shape, lc)
        assume(c <= 0.25)
        assert value_and_slope(lo)[0] < 0.0 < value_and_slope(hi)[0]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        nt=st.integers(1, 8),
        nr=st.integers(1, 8),
        fading=st.sampled_from(FADINGS + [FadingFamily.nakagami(1e300)]),
        log_lc=st.floats(0.0, 308.25),
    )
    def test_maximizer_matches_mpmath_up_to_largest_lc(self, nt, nr, fading, log_lc):
        # Every finite Lc above K, K down to about 1 (Nakagami m = 1e300, 1x1),
        # where 2*Lc/K overflows near the top of the range.
        lc = 10.0 ** log_lc
        assume(lc > max(math.e, kurtosis(fading) - 2.0 + nt + nr))
        s = ChannelScenario(snr_density=1.0, coherence_time=1.0, coherence_bandwidth=lc,
                            nt=nt, nr=nr, fading=fading)
        exact = optimal_occupancy(s).occupancy_optimal_exact
        assert exact == pytest.approx(mpmath_maximizer_bisected(s), rel=2e-15)

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

    def test_fields(self):
        # Up to 0.13.0 it also held nt and nr, read only by construction-time
        # checks of the identities that the property below tests.
        assert [f.name for f in fields(CriticalBracket)] == [
            "occupancy_optimal", "occupancy_optimal_exact", "peak_rate_lower",
            "occupancy_low", "occupancy_high", "occupancy_low_exact", "occupancy_high_exact"]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        nt=st.integers(1, 64),
        nr=st.integers(1, 64),
        log_snr=st.floats(-300.0, 290.0),
        log_lc=st.floats(0.0, 300.0),
    )
    def test_bracket_identities(self, nt, nr, log_snr, log_lc):
        # The ratio, low <= optimal <= high and the exact roots inside the
        # loose bracket follow from critical_coefficients for any P/N0 and Lc.
        assume(log_snr + log_lc / 2.0 < 290.0)  # every occupancy finite
        lc = max(10.0 ** log_lc, 1.5 * (nt + nr), math.pi ** (4.0 / (nt + nr)))
        s = ChannelScenario(snr_density=10.0 ** log_snr, coherence_time=1.0,
                            coherence_bandwidth=lc, nt=nt, nr=nr,
                            fading=FadingFamily.rayleigh())
        b = critical_bracket(s)
        assert b.occupancy_high / b.occupancy_low == pytest.approx(
            4.0 * (nt + nr) * LN_PI / nt, rel=1e-12)
        assert b.occupancy_low <= b.occupancy_optimal <= b.occupancy_high
        assert b.occupancy_low <= b.occupancy_low_exact < b.occupancy_high_exact
        assert b.occupancy_high_exact <= b.occupancy_high


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

    def test_only_alpha_min_depends_on_epsilon(self):
        # ``widecap alpha`` reads alpha_max, alpha+ and alpha- from the bracket
        # of its first --p value.
        s = scenario(nt=2, nr=3, lc=1e5)
        one, other = alpha_brackets(s, 1e-2, 1.0), alpha_brackets(s, 1e-2, 0.25)
        assert [f.name for f in fields(AlphaBracket)] == [
            "alpha_max", "alpha_min", "alpha_plus", "alpha_minus"]
        assert replace(one, alpha_min=other.alpha_min) == other
        assert one.alpha_min != other.alpha_min

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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_brackets(scenario(), 1.5, 0.1)
        for epsilon in (-0.1, -1e-300, math.nan):
            with pytest.raises(ValueError, match="epsilon must be >= 0"):
                alpha_brackets(scenario(), 1e-2, epsilon)

    @pytest.mark.parametrize("snr", [1e-300, 1e-2, 0.5, 0.999999])
    def test_full_error_collapses_onto_alpha_max(self, snr):
        # p = 100 gives epsilon exactly 0: alpha_min is alpha_max, not an error.
        for s in (scenario(), scenario(nt=2, nr=2, lc=1.0000001), scenario(nt=4, nr=1, lc=1e300)):
            bracket = alpha_brackets(s, snr, epsilon_for_error_pct(100.0, snr))
            assert bracket.alpha_min == bracket.alpha_max

    @pytest.mark.parametrize("snr", [1e-320, 5e-324, 5.5e-309])
    def test_refuses_snr_whose_inverse_overflows(self, snr):
        # ln(1/SNR) is finite (736.8 at 1e-320) but 1/SNR is not; up to
        # 0.11.0 every alpha read 0.0.
        with pytest.raises(ValueError, match="below about 5.6e-309, where 1/snr overflows"):
            alpha_brackets(scenario(), snr, 0.1)

    @pytest.mark.parametrize("snr", [5.6e-309, 1e-300, 1e-2, 0.999999])
    def test_accepted_snr_keeps_its_bits(self, snr):
        s = scenario(nt=2, nr=3, lc=1e5)
        lc, two_l = s.coherence_product, 2.0 * math.log(1.0 / snr)
        assert alpha_brackets(s, snr, 0.0).alpha_max == math.log(25 / 4 * lc) / two_l


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

    @pytest.mark.parametrize("p, snr, message", [
        (1e-320, 1e-2, "p = 1e-320 is below about 5.6e-307, where 100/p overflows"),
        (5e-307, 1e-2, "p = 5e-307 is below about 5.6e-307, where 100/p overflows"),
        (10.0, 1e-320, "snr = 1e-320 is below about 5.6e-309, where 1/snr overflows"),
    ])
    def test_refuses_overflowing_quotients(self, p, snr, message):
        # Up to 0.11.0, p = 1e-320 gave inf (the true eps is about 161) and
        # snr = 1e-320 gave 0.0.
        with pytest.raises(ValueError, match=message):
            epsilon_for_error_pct(p, snr)

    @pytest.mark.parametrize("p, snr", [(5.6e-307, 1e-2), (1.0, 5.6e-309), (37.5, 0.3)])
    def test_accepted_inputs_keep_their_bits(self, p, snr):
        assert epsilon_for_error_pct(p, snr) == math.log(100.0 / p) / math.log(1.0 / snr)
