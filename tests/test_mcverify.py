import itertools
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import stats

from widecap import mcverify
from widecap.mcverify import (
    McConfig,
    McEstimate,
    _channel_draw,
    _estimate,
    _lag_table,
    _min_tap_power,
    _pilot_lags,
    _pilot_power,
    _record,
    _sandwich_record,
    _within,
    empirical_kurtosis,
    gram_logdet,
    penalty_sandwich,
    run_verification_suite,
    small_gram,
    toeplitz_logdet,
    trace_identity_expected,
)
from widecap.bounds import _coherent_term, _penalty_cap, optimal_occupancy, rate_lower_bound
from widecap.channel import pilot_gram, unit_fading_power, unit_fading_samples
from widecap.scenario import ChannelScenario, FadingFamily, kurtosis

CFG = McConfig(trials=100_000, base_seed=42)
SMALL = McConfig(trials=20_000, base_seed=42)


def scenario(snr=100.0, nt=1, nr=1, lc=1e3, fading=None):
    return ChannelScenario(
        snr_density=snr,
        coherence_time=1e-3,
        coherence_bandwidth=lc / 1e-3,
        nt=nt,
        nr=nr,
        fading=fading or FadingFamily.rayleigh(),
    )


def desk_scenario(nt=1, nr=1, snr=None):
    # One coherence block of K samples at B*Tc = K with integer Bc*Tc = 8.
    return ChannelScenario(
        snr_density=float(nt) if snr is None else snr,
        coherence_time=1.0,
        coherence_bandwidth=8.0,
        nt=nt,
        nr=nr,
        fading=FadingFamily.rayleigh(),
    )


def unit_pilots(rng, n, k_samples):
    x = rng.standard_normal((n, k_samples)) + 1j * rng.standard_normal((n, k_samples))
    return x * np.sqrt(k_samples / np.sum(np.abs(x) ** 2, axis=1, keepdims=True))


def pilot_spectrum(signal: np.ndarray, cols: int) -> np.ndarray:
    """|sum_k x[k] e^(-j2*pi*k*m/cols)|^2 for m = 0..cols-1, along the last axis.

    The oracle of the folded-pilot psi.  The phase depends on k only modulo
    cols, so this is the cols-point FFT of the signal folded modulo cols: its
    cols-blocks summed in order, a short last block onto the leading entries.
    Leading axes are batch axes.
    """
    folded = np.zeros(signal.shape[:-1] + (cols,), dtype=signal.dtype)
    for start in range(0, signal.shape[-1], cols):
        block = signal[..., start:start + cols]
        folded[..., :block.shape[-1]] += block
    return np.abs(np.fft.fft(folded, axis=-1)) ** 2


def mp_logdet(a, c=1.0, gram=False) -> float:
    """ln det(I + c A) at 50 digits, with A = a, or A = a a^H when ``gram``."""
    with mpmath.workdps(50):
        a = mpmath.matrix(a.tolist())
        if gram:
            a = a * a.H
        return float(mpmath.re(mpmath.log(mpmath.det(mpmath.eye(a.rows) + c * a))))


def assert_within(estimate: McEstimate, expected: float, sigmas: float = 4.0):
    z = (estimate.mean - expected) / max(estimate.std_error, 1e-300)
    assert abs(z) <= sigmas, f"z={z:.2f} mean={estimate.mean} expected={expected}"


def moments(values, cross=()) -> mcverify._Moments:
    """The moments of ``values`` (rows, n) as one part, which keeps numpy's two-pass bits."""
    values = np.array(values, dtype=float, ndmin=2)
    return merged_moments(values, [values.shape[1]], cross)


def coherent_estimate(s, occupancy, cfg) -> McEstimate:
    """The coherent term at one occupancy, from the coherent check's stream of H."""
    [estimate], _ = _channel_draw(s, [occupancy], cfg, mcverify._TAG_COHERENT)
    return estimate


def trace_estimate(s, cfg) -> McEstimate:
    """E[tr((H H^H)^2)] of the scenario's block, from a stream of H that the suite does not draw."""
    tag = (mcverify._TAG_TRACE, s.nt, s.nr, s.fading.kind)
    return _channel_draw(s, [], cfg, tag)[1][(s.nt, s.nr)]


def sandwich_records(s, grid, cfg) -> list:
    """The bound-sandwich record at each occupancy of ``grid``, from the coherent check's stream."""
    estimates, _ = _channel_draw(s, grid, cfg, mcverify._TAG_COHERENT)
    return [_sandwich_record(s, x, estimate, cfg.trials) for x, estimate in zip(grid, estimates)]


def kurtosis_estimate(x) -> McEstimate:
    """Kurtosis mean(x^2)/mean(x)^2 of the samples x, by the suite's formula."""
    x = np.asarray(x, dtype=float)
    return mcverify._kurtosis(moments(np.stack([x, x * x]), [(0, 1)]))


class TestEstimators:
    def test_std_error_definition(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000)
        est = _estimate(moments(values), {0: 1.0})
        expected = values.std(ddof=1) / math.sqrt(values.size)
        assert est.std_error == pytest.approx(expected, rel=1e-12)
        assert est.mean == pytest.approx(values.mean(), rel=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 4097, 100_000])
    def test_estimate_has_numpys_bits(self, n, offset):
        # One block's moments are numpy's two-pass sums; merged ones are not.
        values = np.random.default_rng(n).standard_normal(n) + offset
        est = _estimate(moments(values), {0: 1.0})
        sd = np.std(values, ddof=1) if n > 1 else 0.0
        assert est.mean.hex() == float(np.mean(values)).hex()
        assert est.std_error.hex() == float(sd / math.sqrt(n)).hex()

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 4097, 100_000])
    def test_kurtosis_has_the_bits_of_its_formula(self, n, offset):
        # The delta-method variance as a quadratic form in the two-pass
        # co-moments of (x, x^2), summed in the order of _estimate's pairs.
        x = np.random.default_rng(n).standard_exponential(n) + offset
        a = float(np.mean(x * x))
        b = float(np.mean(x))
        dx, dy = x - b, x * x - a
        w0, w1 = -2.0 * a / b**3, 1.0 / (b * b)
        var = (0.0 + w0 * w0 * float(np.sum(dx * dx)) + w1 * w1 * float(np.sum(dy * dy))
               + 2.0 * w0 * w1 * float(np.sum(dx * dy)))
        sd = math.sqrt(max(var, 0.0) / (n - 1)) if n > 1 else 0.0
        est = kurtosis_estimate(x)
        assert est.mean.hex() == (a / (b * b)).hex()
        assert est.std_error.hex() == float(sd / math.sqrt(n)).hex()

    def test_constant_phasor_kurtosis_is_exactly_one(self):
        est = kurtosis_estimate(np.ones(37))
        assert est.mean == 1.0
        assert est.std_error == 0.0


def merged_moments(values, sizes, cross):
    """The moments of ``values`` (rows, n) reduced in parts of ``sizes`` trials, merged in order."""
    pairs = tuple((i, i) for i in range(len(values))) + tuple(cross)
    means, residuals = np.empty((2, len(sizes), len(values)))
    comoments = np.empty((len(sizes), len(pairs)))
    edges = np.cumsum([0, *sizes])
    assert edges[-1] == values.shape[1]
    for k, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        mcverify._reduce(values[:, start:stop].copy(), pairs, means[k], residuals[k], comoments[k])
    return mcverify._Moments.merge(sizes, means, residuals, comoments, pairs)


def merge_rows(rng, n):
    """Rows of the merge tests: N(0, 1), 1e24 + 1e16 N(0, 1) (|mean| 1e8 SDs, like the
    coherent term's), and Exp(1) with its square for the kurtosis."""
    power = rng.standard_exponential(n)
    return np.stack([rng.standard_normal(n), 1e24 + 1e16 * rng.standard_normal(n),
                     power, power * power])


MERGE_CROSS = [(0, 1), (0, 2), (1, 2), (2, 3)]


class TestMomentMerge:
    """Chunk moments merged in order agree with two-pass numpy on the whole array."""

    @staticmethod
    def assert_two_pass(merged, kurtosis, values):
        n = values.shape[1]
        assert merged.count == n
        covariance = np.cov(values)
        for row in range(values.shape[0]):
            estimate = _estimate(merged, {row: 1.0})
            assert estimate.mean == pytest.approx(values[row].mean(), rel=1e-12)
            assert estimate.std_error**2 * n == pytest.approx(values[row].var(ddof=1), rel=1e-12)
        for (i, j), comoment in zip(merged.pairs, merged.comoment):
            scale = math.sqrt(covariance[i, i] * covariance[j, j])
            assert abs(comoment / (n - 1) - covariance[i, j]) <= 1e-12 * scale, (i, j)
        whole = kurtosis_estimate(values[2])
        assert kurtosis.mean == pytest.approx(whole.mean, rel=1e-12)
        assert kurtosis.std_error == pytest.approx(whole.std_error, rel=1e-12)

    @pytest.mark.parametrize("n, size", [(10_000, 4096), (37, 1), (9_999, 1000)],
                             ids=["short-last-chunk", "one-trial-chunks", "uneven"])
    def test_merged_splits_match_two_pass(self, n, size):
        values = merge_rows(np.random.default_rng(n), n)
        sizes = [min(size, n - start) for start in range(0, n, size)]
        kurtosis = mcverify._kurtosis(merged_moments(values[2:], sizes, [(0, 1)]))
        self.assert_two_pass(merged_moments(values, sizes, MERGE_CROSS), kurtosis, values)

    def test_chunk_schedule_matches_two_pass(self, monkeypatch):
        # The real schedule: 4096-trial chunks of 100 000 trials, on two threads.
        cfg = McConfig(100_000, 3)
        monkeypatch.setattr(mcverify, "_usable_cpus", lambda: 2)
        values = np.empty((4, cfg.trials))

        def keep(rng, start, n):
            values[:, start:start + n] = merge_rows(rng, n)

        def fill(rng, n, out):
            out[:] = merge_rows(rng, n)[-len(out):]

        mcverify._each_chunk(cfg, "merge", keep)
        merged = mcverify._draw(cfg, "merge", 4, fill, cross=MERGE_CROSS)
        kurtosis = mcverify._kurtosis(mcverify._draw(cfg, "merge", 2, fill, cross=[(0, 1)]))
        self.assert_two_pass(merged, kurtosis, values)

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # Up to 0.15.0 each check kept one float64 per trial and row: the
        # traced peak of this suite was 2.5 MB at 20 000 trials and 11.2 MB
        # at 200 000.  One CPU, so the peak does not depend on how two
        # threads' chunks overlap.
        monkeypatch.setattr(mcverify, "_usable_cpus", lambda: 1)
        s = scenario(snr=1e7, nt=2, nr=2)

        def peak(trials):
            tracemalloc.start()
            try:
                run_verification_suite(s, McConfig(trials, 42))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(20_000), peak(200_000)
        assert large - small <= 1_000_000, (small, large)


class TestEmpiricalKurtosis:
    def test_rayleigh(self):
        est = empirical_kurtosis(FadingFamily.rayleigh(), McConfig(10**6, 42))
        assert_within(est, 2.0)
        assert abs(est.mean - 2.0) < 0.01

    def test_rice_unit_factor(self):
        est = empirical_kurtosis(FadingFamily.rice(1.0), McConfig(10**6, 42))
        assert_within(est, 2.0 - 4.0 / 9.0)
        assert abs(est.mean - (2.0 - 4.0 / 9.0)) < 0.01

    def test_nakagami_two(self):
        est = empirical_kurtosis(FadingFamily.nakagami(2.0), McConfig(10**6, 42))
        assert_within(est, 1.5)
        assert abs(est.mean - 1.5) < 0.01

    def test_insufficient_trials(self):
        with pytest.raises(ValueError):
            empirical_kurtosis(FadingFamily.rayleigh(), McConfig(trials=100))


class TestMcConfig:
    def test_trial_floor(self):
        McConfig(trials=10_000)
        with pytest.raises(ValueError, match=r"^need at least 10000 trials$"):
            McConfig(trials=9_999)

    def test_trial_ceiling(self):
        # 10 to 18 minutes of the default suite; memory alone would not stop more.
        McConfig(trials=10**9)
        with pytest.raises(ValueError, match=r"^need at most 1000000000 trials$"):
            McConfig(trials=10**9 + 1)

    def test_negative_seed_is_named(self):
        McConfig(trials=10_000, base_seed=0)
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            McConfig(trials=10_000, base_seed=-1)


class TestTraceIdentity:
    @pytest.mark.parametrize("nt,nr,expected", [(1, 1, 2.0), (2, 2, 16.0), (2, 1, 6.0)])
    def test_rayleigh_cases(self, nt, nr, expected):
        est = trace_estimate(scenario(nt=nt, nr=nr), CFG)
        assert trace_identity_expected(nt, nr, 2.0) == expected
        assert_within(est, expected)

    def test_rice_case(self):
        fading = FadingFamily.rice(1.0)
        est = trace_estimate(scenario(nt=2, nr=2, fading=fading), CFG)
        assert_within(est, trace_identity_expected(2, 2, kurtosis(fading)))


class TestCoherentTerm:
    def test_zero_snr_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16))
        assert np.all(123.0 * gram_logdet(0.0 * small_gram(blocks)) == 0.0)

    def test_dominates_quadratic_expansion(self):
        s = scenario(snr=1e7, nt=2, nr=2)
        occupancy = optimal_occupancy(s).occupancy_optimal
        est = coherent_estimate(s, occupancy, CFG)
        quad = _coherent_term(s, occupancy)
        assert est.mean >= quad - 4.0 * est.std_error

    def test_deficit_shrinks_superlinearly_in_rho(self):
        # The gap to the linear term is O(rho^2): halving rho (doubling the
        # occupancy) should more than halve it.
        s = scenario(snr=100.0)
        occupancy = optimal_occupancy(s).occupancy_optimal
        c_inf = s.wideband_limit
        est1 = coherent_estimate(s, occupancy, CFG)
        est2 = coherent_estimate(s, 2 * occupancy, CFG)
        deficit1 = c_inf - est1.mean
        deficit2 = c_inf - est2.mean
        slack = 4.0 * (est1.std_error + est2.std_error)
        assert deficit2 < deficit1 / 2.0 + slack


class TestPenaltySandwich:
    def test_sandwich_at_unit_rho_k(self):
        record = penalty_sandwich(desk_scenario(), occupancy=32.0, k_samples=32, cfg=CFG)
        chains = record.bound_values
        assert record.z >= -4.0
        assert record.estimate <= chains["upper_chain"] + 4.0 * record.std_error
        assert chains["lower_chain"] <= record.estimate
        assert record.passed is True

    def test_mimo_sandwich(self):
        record = penalty_sandwich(
            desk_scenario(nt=2, nr=2), occupancy=64.0, k_samples=64, cfg=SMALL
        )
        assert record.z >= -4.0
        assert record.estimate <= record.bound_values["upper_chain"] + 4.0 * record.std_error
        assert record.params == {"k_samples": 64, "nt": 2, "nr": 2, "trials": SMALL.trials}

    def test_vanishes_with_snr(self):
        record = penalty_sandwich(
            desk_scenario(snr=1e-12), occupancy=32.0, k_samples=32, cfg=SMALL
        )
        assert abs(record.estimate) < 1e-10
        assert abs(record.bound_values["lower_chain"]) < 1e-10
        assert abs(record.bound_values["upper_chain"]) < 1e-10

    @pytest.mark.parametrize("nt", [2, 9])
    def test_first_order_term_is_the_gram_trace(self, nt):
        # At vanishing SNR the penalty is (delta/Tc) * nr * (rho/m) * tr(Gram)
        # = nr * snr: every one of the m * nt Gram diagonal entries is K.
        # nt = 9 gives 36 pilot columns against K = 32, so lags wrap modulo K.
        snr = 1e-9
        record = penalty_sandwich(
            desk_scenario(nt=nt, nr=2, snr=snr), occupancy=32.0, k_samples=32, cfg=SMALL
        )
        assert record.estimate == pytest.approx(2 * snr, rel=1e-7)
        if 4 * nt > 32:  # more columns than K: the Gram is singular, psi is 0
            assert record.bound_values["lower_chain"] == 0.0

    def test_cap_decreases_when_log_is_sublinear(self):
        # Doubling Bc*Tc at fixed occupancy raises the log argument but
        # halves the prefactor; in the saturated-log regime the cap drops.
        def cap(lc):
            s, occ, nt = 100.0, 100.0, 1
            return (occ * nt / lc) * math.log1p(s * lc / (occ * nt))

        assert cap(2e3) < cap(1e3)

    @pytest.mark.parametrize("cols, folded_violations", [(8, 53), (12, 55)])
    def test_k_point_psi_bounds_gram_minimum(self, cols, folded_violations):
        # Interlacing: the Gram is a principal submatrix of the K x K circulant
        # Gram with spectrum |FFT_K(x)|^2.  The folded cols-point minimum (the
        # paper's psi) is no bound; the counts are the ones the docs quote.
        k_samples = 32
        x = unit_pilots(np.random.default_rng(3), 2000, k_samples)
        grams = np.stack([pilot_gram(row, cols) for row in x])
        lam_min = np.linalg.eigvalsh(grams)[:, 0]
        tol = 1e-12 * k_samples
        psi_k = np.min(np.abs(np.fft.fft(x, axis=1)) ** 2, axis=1)
        assert np.count_nonzero(psi_k > lam_min + tol) == 0
        folded = np.min(pilot_spectrum(x, cols), axis=1)
        assert np.count_nonzero(folded > lam_min + tol) == folded_violations

    @pytest.mark.parametrize("nr,nt,m", [(1, 1, 1), (2, 2, 4), (2, 2, 16)])
    def test_min_tap_power_matches_tap_construction(self, nr, nt, m):
        # The direct draw against the minimum over Nr*Nt*m explicit taps of
        # power 1/m: equal means and one law (two-sample KS), both at 4 sigma.
        n = 50_000
        direct = _min_tap_power(np.random.default_rng(21), n, m, nr * nt * m)
        taps = unit_fading_samples(
            np.random.default_rng(22), FadingFamily.rayleigh(), (n, nr, nt, m)
        ) / math.sqrt(m)
        built = np.min(np.abs(taps) ** 2, axis=(1, 2, 3))
        se = math.sqrt((direct.var(ddof=1) + built.var(ddof=1)) / n)
        assert abs(direct.mean() - built.mean()) <= 4.0 * se
        four_sigma = math.erfc(4.0 / math.sqrt(2.0))
        assert stats.ks_2samp(direct, built).pvalue >= four_sigma

    @pytest.mark.parametrize("cols", [8, 12, 36])
    def test_pilot_draws_match_gaussian_pilots(self, cols):
        # The direct spectrum draw against normalized Gaussian pilots, per
        # trial: the penalty log-det has equal means and one law (two-sample
        # KS), both at 4 sigma.  cols = 12 does not divide K = 32, and cols =
        # 36 wraps the lags.
        k_samples, n, c = 32, 20_000, 1.0 / 128.0
        power, scale = _pilot_power(np.random.default_rng(23), n, k_samples)
        direct = toeplitz_logdet(_pilot_lags(power, scale, _lag_table(k_samples, cols, c)))
        x = unit_pilots(np.random.default_rng(24), n, k_samples)
        lags = np.arange(cols) % k_samples
        autocorr = np.fft.ifft(np.abs(np.fft.fft(x, axis=1)) ** 2, axis=1)[:, lags]
        built = toeplitz_logdet(np.ascontiguousarray(c * autocorr.T))
        se = math.sqrt((direct.var(ddof=1) + built.var(ddof=1)) / n)
        assert abs(direct.mean() - built.mean()) <= 4.0 * se
        four_sigma = math.erfc(4.0 / math.sqrt(2.0))
        assert stats.ks_2samp(direct, built).pvalue >= four_sigma

    # cols = 20 takes lags above K/2, and 36 wraps past K.
    @pytest.mark.parametrize("cols", [8, 12, 20, 36])
    def test_pilot_lags_match_inverse_fft(self, cols):
        k_samples, c = 32, 0.3
        # 1100 trials: whole product blocks (512 trials at cols = 8, 113 at 36)
        # and a short last one.
        power, scale = _pilot_power(np.random.default_rng(25), 1100, k_samples)
        lags = _pilot_lags(power, scale, _lag_table(k_samples, cols, c))
        expected = c * np.fft.ifft(power * scale, axis=0)[np.arange(cols) % k_samples]
        assert lags.shape == expected.shape
        # Relative to the largest lag, lag 0, which is K * c for every pilot.
        assert np.max(np.abs(lags - expected)) <= 1e-14 * k_samples * c
        assert np.all(lags[0].imag == 0.0)

    def test_requires_divisible_k(self):
        with pytest.raises(ValueError):
            penalty_sandwich(desk_scenario(), occupancy=30.0, k_samples=30, cfg=SMALL)

    def test_requires_rayleigh(self):
        bad = ChannelScenario(1.0, 1.0, 8.0, 1, 1, FadingFamily.rice(1.0))
        with pytest.raises(ValueError, match="Rayleigh"):
            penalty_sandwich(bad, occupancy=32.0, k_samples=32, cfg=SMALL)


class TestLogDetKernels:
    """Both log-det kernels against 50-digit mpmath ln det(I + c A)."""

    SCALES = (1e-10, 1e-4, 1 / 16, 1e3, 1e8)

    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("k_samples,cols", [(32, 8), (32, 12)])
    def test_toeplitz_levinson(self, c, k_samples, cols):
        x = unit_pilots(np.random.default_rng(11), 3, k_samples)
        autocorr = np.fft.ifft(np.abs(np.fft.fft(x, axis=1)) ** 2, axis=1)[:, :cols]
        autocorr[:, 0] = autocorr[:, 0].real
        column = c * autocorr
        lag = np.subtract.outer(np.arange(cols), np.arange(cols))
        for row, value in zip(column, toeplitz_logdet(np.ascontiguousarray(column.T))):
            toeplitz = np.where(lag >= 0, row[np.abs(lag)], row[np.abs(lag)].conj())
            exact = mp_logdet(toeplitz)
            assert abs(value - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("shape", [(1, 4), (4, 1), (2, 3), (3, 2), (2, 2),
                                       (3, 8), (8, 3), (8, 8)])
    def test_gram_elimination(self, c, shape):
        rng = np.random.default_rng(12)
        blocks = rng.standard_normal((*shape, 3)) + 1j * rng.standard_normal((*shape, 3))
        self.assert_gram_exact(blocks, c)

    def test_tall_block_at_huge_snr(self):
        # H H^H is 4x4 of rank one here: a full-size eigendecomposition puts
        # rounding-size eigenvalues where zeros belong, and rho = 1e12 turns
        # them into relative errors up to about 1e-4.  H^H H is the exact 1x1 norm.
        rng = np.random.default_rng(13)
        blocks = rng.standard_normal((4, 1, 3)) + 1j * rng.standard_normal((4, 1, 3))
        self.assert_gram_exact(blocks, 1e12)

    @staticmethod
    def assert_gram_exact(blocks, c):
        for block, value in zip(np.moveaxis(blocks, -1, 0), gram_logdet(c * small_gram(blocks))):
            exact = mp_logdet(block, c, gram=True)
            assert abs(value - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2), (4, 2), (3, 5), (8, 8)])
    def test_small_gram_matches_matmul(self, shape):
        rng = np.random.default_rng(15)
        blocks = rng.standard_normal((*shape, 512)) + 1j * rng.standard_normal((*shape, 512))
        stacked = np.moveaxis(blocks, -1, 0)
        herm = stacked.conj().swapaxes(-1, -2)
        expected = np.moveaxis(stacked @ herm if shape[0] <= shape[1] else herm @ stacked, 0, -1)
        gram = small_gram(blocks)
        assert gram.shape == expected.shape
        limit = 8.0 * np.finfo(float).eps * np.sum(np.abs(blocks) ** 2, axis=(0, 1))
        assert np.all(np.max(np.abs(gram - expected), axis=(0, 1)) <= limit)

    @pytest.mark.parametrize("nt", [2, 3])
    def test_psi_fold_fft_matches_phase_product(self, nt):
        # K = 32 samples at integer coherence length 8: cols = 4 * nt, which
        # divides K for nt = 2 (cols 8) and does not for nt = 3 (cols 12).
        k_samples, cols = 32, 4 * nt
        x = unit_pilots(np.random.default_rng(14), 256, k_samples)
        phases = np.exp(-2j * np.pi * np.outer(np.arange(k_samples), np.arange(cols)) / cols)
        product = np.min(np.abs(x @ phases) ** 2, axis=1) / k_samples
        psi = np.min(pilot_spectrum(x, cols), axis=1) / k_samples
        np.testing.assert_allclose(psi, product, rtol=1e-12)

    def test_no_eigendecomposition_on_mc_paths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh on a Monte-Carlo path")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        cfg = McConfig(trials=10_000, base_seed=1)
        coherent_estimate(scenario(nt=2, nr=3), 1e3, cfg)
        penalty_sandwich(desk_scenario(nt=2, nr=2), occupancy=32.0, k_samples=32, cfg=cfg)


class TestOccupancyDomain:
    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before validating the occupancy")

        monkeypatch.setattr(mcverify, "_each_chunk", refuse)

    # The messages of bounds._check_occupancy: nan fails the "> 0" test first.
    CASES = [
        pytest.param(math.inf, r"^occupancy must be finite$", id="inf"),
        pytest.param(math.nan, r"^occupancy must be > 0$", id="nan"),
        pytest.param(0.0, r"^occupancy must be > 0$", id="0.0"),
        pytest.param(-1.0, r"^occupancy must be > 0$", id="-1.0"),
    ]

    @pytest.mark.parametrize("occupancy, message", CASES)
    def test_penalty_sandwich(self, occupancy, message):
        with pytest.raises(ValueError, match=message):
            penalty_sandwich(desk_scenario(), occupancy=occupancy, k_samples=32, cfg=SMALL)

    @pytest.mark.parametrize("occupancy, message", CASES)
    def test_coherent_term(self, occupancy, message):
        with pytest.raises(ValueError, match=message):
            coherent_estimate(scenario(), occupancy, SMALL)


class TestBoundSandwichSweep:
    def test_three_point_grid(self):
        s = scenario(snr=100.0)
        opt = optimal_occupancy(s).occupancy_optimal
        records = sandwich_records(s, [opt / 10, opt, 10 * opt], SMALL)
        assert len(records) == 3
        for record in records:
            bound = record.bound_values
            tol = 4.0 * record.std_error
            assert bound["rate_lower"] - tol <= record.estimate, record
            assert record.estimate <= bound["rate_upper"] + tol + bound["upper_slack"], record
            assert record.passed, record

    def test_peak_point_reaches_lemma_gap(self):
        s = scenario(snr=100.0)
        opt = optimal_occupancy(s)
        [record] = sandwich_records(s, [opt.occupancy_optimal_exact], SMALL)
        floor = opt.peak_rate_lower - 4.0 * record.std_error
        assert record.estimate >= floor

    def test_empty_grid(self):
        # No points, but the draw still gives its trace identity, the same
        # estimate as under any grid.
        estimates, traces = _channel_draw(scenario(), [], SMALL, mcverify._TAG_COHERENT)
        assert (estimates, list(traces)) == ([], [(1, 1)])
        assert traces == _channel_draw(scenario(), [1e3, 1e5], SMALL, mcverify._TAG_COHERENT)[1]
        assert_within(traces[(1, 1)], trace_identity_expected(1, 1, 2.0))


class TestSharedCoherentDraw:
    # Single-occupancy bits at (dB)* of the coherent check's draw of H with
    # trials on the last axis (20 000 trials, seed 42): scenario options,
    # (dB)*, mean and standard error, as float.hex.
    PINS = [
        ({"nt": 2, "nr": 2}, "0x1.0616e72ae6571p+27",
         "0x1.1d4522d65434ep+24", "0x1.e4e74a3e84debp+15"),
        ({"nt": 3, "nr": 2}, "0x1.90903a6b81016p+26",
         "0x1.1c4fdf3b644dbp+24", "0x1.8928159813978p+15"),
        ({"nt": 2, "nr": 2, "fading": FadingFamily.rice(1.0)}, "0x1.e7fbde6151f85p+26",
         "0x1.1fb3b01d3a68dp+24", "0x1.6c86d938e7ae6p+15"),
    ]

    @pytest.mark.parametrize("options, optimum, mean, std_error", PINS)
    def test_single_occupancy_bits(self, options, optimum, mean, std_error):
        s = scenario(snr=1e7, **options)
        assert optimal_occupancy(s).occupancy_optimal_exact.hex() == optimum
        estimate = coherent_estimate(s, float.fromhex(optimum), SMALL)
        assert estimate.mean.hex() == mean
        assert estimate.std_error.hex() == std_error

    def test_list_equals_single_occupancies(self):
        s = scenario(snr=1e7, nt=2, nr=3)
        grid = [1e6, 3e7, 1e9]
        estimates, _ = _channel_draw(s, grid, SMALL, mcverify._TAG_COHERENT)
        assert estimates == [coherent_estimate(s, x, SMALL) for x in grid]

    @pytest.mark.parametrize("seed", [42, 7])
    def test_shared_sweep_matches_independent_draws(self, seed):
        s = scenario(snr=1e7, nt=2, nr=2)
        opt = optimal_occupancy(s).occupancy_optimal_exact
        cfg = McConfig(trials=100_000, base_seed=seed)
        grid = [opt * factor for factor in (0.1, 1.0, 10.0)]
        records = sandwich_records(s, grid, cfg)
        for index, (x, shared) in enumerate(zip(grid, records)):
            [independent], _ = _channel_draw(s, [x], cfg, ("independent", index))
            gap = shared.estimate - (independent.mean - float(_penalty_cap(s, x)))
            assert abs(gap) <= 4.0 * math.hypot(shared.std_error, independent.std_error)

    @staticmethod
    def _coherent_and_middle(s, cfg):
        records = {r.check: r for r in run_verification_suite(s, cfg)}
        coherent = records["coherent_expansion"]
        optimum = coherent.params["occupancy"]
        [middle] = [r for r in records.values()
                    if r.check.startswith("bound_sandwich") and r.params["occupancy"] == optimum]
        return records, coherent, middle, _penalty_cap(s, optimum)

    def test_rayleigh_middle_point_is_the_coherent_check(self):
        s = scenario(snr=1e7, nt=2, nr=2)
        _, coherent, middle, cap = self._coherent_and_middle(s, McConfig(10_000, 7))
        assert middle.estimate == coherent.estimate - cap
        assert middle.std_error == coherent.std_error

    def test_non_rayleigh_coherent_check_and_trace_share_one_draw(self, monkeypatch):
        laws = []

        def counted(s, *args, **kwargs):
            laws.append(s.fading.label)
            return _channel_draw(s, *args, **kwargs)

        monkeypatch.setattr(mcverify, "_channel_draw", counted)
        s = scenario(snr=1e7, nt=2, nr=2, fading=FadingFamily.rice(1.0))
        cfg = McConfig(10_000, 7)
        records, coherent, middle, cap = self._coherent_and_middle(s, cfg)
        # One Rayleigh draw and one of the scenario's own law.
        assert laws == ["rayleigh", "rice:1.0"]
        optimum = coherent.params["occupancy"]
        [own], own_traces = _channel_draw(s, [optimum], cfg, mcverify._TAG_COHERENT)
        assert (coherent.estimate, coherent.std_error) == (own.mean, own.std_error)
        trace, own_trace = records["trace_identity[2x2:rice:1.0]"], own_traces[(2, 2)]
        assert (trace.estimate, trace.std_error) == (own_trace.mean, own_trace.std_error)
        # The sweep keeps its Rayleigh draw.
        [shared], _ = _channel_draw(replace(s, fading=FadingFamily.rayleigh()), [optimum], cfg,
                                    mcverify._TAG_COHERENT)
        assert middle.estimate == shared.mean - cap


class TestSharedRayleighDraws:
    """One Rayleigh draw gives the sweep and every Rayleigh trace; each kurtosis law draws |h|^2."""

    @pytest.mark.parametrize("nt, nr", [(2, 2), (1, 1), (1, 2), (3, 2)])
    def test_one_rayleigh_draw_per_chunk(self, monkeypatch, nt, nr):
        draws = []

        def counted(rng, fading, shape):
            draws.append((fading.kind, tuple(shape)))
            return unit_fading_samples(rng, fading, shape)

        monkeypatch.setattr(mcverify, "unit_fading_samples", counted)
        cfg = McConfig(10_000, 42)
        run_verification_suite(scenario(snr=1e7, nt=nt, nr=nr), cfg)
        sizes = [min(mcverify._CHUNK, cfg.trials - start)
                 for start in range(0, cfg.trials, mcverify._CHUNK)]
        # The smallest block that holds the scenario's and the fixed 2x2 case.
        assert sorted(draws) == [("rayleigh", (max(nr, 2), max(nt, 2), n)) for n in sorted(sizes)]

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("nt, nr, snr", [(2, 2, 1e7), (1, 1, 100.0), (1, 2, 1e7)])
    def test_shared_estimates_match_independent_draws(self, seed, nt, nr, snr):
        # The standalone trace checks draw under tags the suite does not use,
        # and each sweep point is redrawn under a tag of its own, so every
        # pair below is independent.
        cfg = McConfig(trials=100_000, base_seed=seed)
        s = scenario(snr=snr, nt=nt, nr=nr)
        records = {r.check: r for r in run_verification_suite(s, cfg)}
        pairs = [(records[f"trace_identity[{t}x{r}:rayleigh]"],
                  trace_estimate(scenario(nt=t, nr=r), cfg), 0.0)
                 for t, r in dict.fromkeys([(nt, nr), (1, 1), (2, 2), (2, 1)])]
        sweep = [r for r in records.values() if r.check.startswith("bound_sandwich")]
        for index, record in enumerate(sweep):
            x = record.params["occupancy"]
            [independent], _ = _channel_draw(s, [x], cfg, ("independent", index))
            pairs.append((record, independent, float(_penalty_cap(s, x))))
        assert len(pairs) == len(dict.fromkeys([(nt, nr), (1, 1), (2, 2), (2, 1)])) + 3
        for record, other, cap in pairs:
            gap = record.estimate - (other.mean - cap)
            assert gap != 0.0, record.check
            assert abs(gap) <= 4.0 * math.hypot(record.std_error, other.std_error), record.check

    @pytest.mark.parametrize("nt, nr", [(2, 2), (3, 2)])
    def test_full_shape_sweep_keeps_its_standalone_bits(self, nt, nr):
        # The scenario's block holds the 2x2 case, so the shared draw has its
        # shape and the sweep reads the bits of a sweep of its own.
        cfg = McConfig(10_000, 42)
        s = scenario(snr=1e7, nt=nt, nr=nr)
        sweep = [r for r in run_verification_suite(s, cfg) if r.check.startswith("bound_sandwich")]
        standalone = sandwich_records(s, [r.params["occupancy"] for r in sweep], cfg)
        assert [r.as_dict() for r in sweep] == [r.as_dict() for r in standalone]

    def test_rayleigh_param_gives_the_canonical_records(self):
        cfg = McConfig(10_000, 42)
        odd = run_verification_suite(
            scenario(snr=1e7, nt=2, nr=2, fading=FadingFamily("rayleigh", 3.0)), cfg)
        canonical = run_verification_suite(scenario(snr=1e7, nt=2, nr=2), cfg)
        traces = [r.check for r in odd if r.check.startswith("trace_identity")]
        assert traces == ["trace_identity[2x2:rayleigh]", "trace_identity[1x1:rayleigh]",
                          "trace_identity[2x1:rayleigh]"]
        assert [r.as_dict() for r in odd] == [r.as_dict() for r in canonical]

    @pytest.mark.parametrize("fading", [
        FadingFamily.rayleigh(), FadingFamily.rice(1.0), FadingFamily.nakagami(3.0),
    ], ids=["rayleigh", "rice", "nakagami"])
    def test_every_kurtosis_record_is_empirical_kurtosis(self, fading):
        cfg = McConfig(10_000, 42)
        records = run_verification_suite(scenario(snr=1e7, nt=2, nr=2, fading=fading), cfg)
        kurtoses = [r for r in records if r.check.startswith("kurtosis")]
        laws = dict.fromkeys([fading, FadingFamily.rayleigh(), FadingFamily.rice(1.0),
                              FadingFamily.nakagami(2.0)])
        assert [r.check for r in kurtoses] == [f"kurtosis[{law.label}]" for law in laws]
        for record, law in zip(kurtoses, laws):
            estimate = empirical_kurtosis(law, cfg)
            assert (record.estimate.hex(), record.std_error.hex()) == (
                estimate.mean.hex(), estimate.std_error.hex()), record.check

    def test_sub_block_estimates(self):
        tag = mcverify._TAG_COHERENT
        _, traces = _channel_draw(scenario(nt=1, nr=2), [], SMALL, tag, blocks=[(2, 2), (1, 1)])
        assert list(traces) == [(1, 2), (2, 2), (1, 1)]
        # A 2x2 draw under the same tag is the same draw of H.
        _, square = _channel_draw(scenario(nt=2, nr=2), [], SMALL, tag, blocks=[(1, 1)])
        assert (traces[(2, 2)], traces[(1, 1)]) == (square[(2, 2)], square[(1, 1)])
        assert traces[(1, 2)] != _channel_draw(scenario(nt=1, nr=2), [], SMALL, tag)[1][(1, 2)]
        for (t, r), trace in traces.items():
            assert_within(trace, trace_identity_expected(t, r, 2.0))


class TestDeterminism:
    def test_bit_identical_across_runs(self):
        a = empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        b = empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        assert a == b

    def test_seed_changes_estimate(self):
        a = empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        b = empirical_kurtosis(FadingFamily.rayleigh(), McConfig(20_000, 43))
        assert a.mean != b.mean

    @pytest.mark.parametrize("options", [
        {"nt": 2, "nr": 2}, {"nt": 3, "nr": 2}, {"nt": 2, "nr": 2, "fading": FadingFamily.rice(1.0)},
    ])
    def test_records_do_not_depend_on_the_chunk_schedule(self, monkeypatch, options):
        s = scenario(snr=1e7, **options)
        cfg = McConfig(10_000, 42)

        def records():
            return [record.as_dict() for record in run_verification_suite(s, cfg)]

        monkeypatch.setattr(mcverify, "_usable_cpus", lambda: 1)
        serial = records()
        # _each_chunk pulls chunk starts from iter(range(...)); run them last first.
        monkeypatch.setattr(mcverify, "iter", reversed, raising=False)
        assert records() == serial
        monkeypatch.delattr(mcverify, "iter")
        monkeypatch.setattr(mcverify, "_usable_cpus", lambda: 2)
        # Frequent thread switches stress the chunk iterator both threads share.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert records() == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_chunk_failure_reaches_the_caller(self, monkeypatch, cpus):
        calls = itertools.count()

        def fail_third(*args):
            if next(calls) == 2:
                raise RuntimeError("third draw failed")
            return unit_fading_power(*args)

        monkeypatch.setattr(mcverify, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(mcverify, "unit_fading_power", fail_third)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third draw failed"):
            empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        assert threading.active_count() == threads

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_helper_has_left_the_os_on_return(self, monkeypatch):
        # Else the next helper can start before glibc frees this one's arena.
        # The gap shows when the CPUs are busy, so BLAS products run meanwhile.
        workers, each_chunk, done = set(), mcverify._each_chunk, threading.Event()
        main = threading.get_native_id()

        def record(*args):
            workers.add(threading.get_native_id())
            return unit_fading_power(*args)

        def each_chunk_then_look(*args):
            each_chunk(*args)
            assert not any(os.path.exists(f"/proc/self/task/{h}") for h in workers - {main})

        def load(a=np.ones((300, 300))):
            while not done.is_set():
                a @ a

        monkeypatch.setattr(mcverify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mcverify, "unit_fading_power", record)
        monkeypatch.setattr(mcverify, "_each_chunk", each_chunk_then_look)
        loader = threading.Thread(target=load)
        loader.start()
        try:
            for _ in range(50):
                empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        finally:
            done.set()
            loader.join()
        assert workers - {main}


class TestPassRule:
    """The one gate of every record: low - 4*SE <= value <= high + 4*SE + slack."""

    def test_lower_edge_is_inclusive(self):
        low, se = 3.0, 0.25
        edge = low - 4.0 * se
        assert _within(edge, se, low, low)
        assert not _within(math.nextafter(edge, -math.inf), se, low, low)

    def test_upper_edge_is_inclusive(self):
        high, se = 3.0, 0.25
        edge = high + 4.0 * se
        assert _within(edge, se, high, high)
        assert not _within(math.nextafter(edge, math.inf), se, high, high)

    def test_slack_widens_only_the_upper_side(self):
        low, high, se, slack = 1.0, 2.0, 0.125, 10.0
        assert _within(high + 4.0 * se + slack, se, low, high, slack)
        assert not _within(high + 4.0 * se + 2 * slack, se, low, high, slack)
        assert _within(low - 4.0 * se, se, low, high, slack)
        assert not _within(math.nextafter(low - 4.0 * se, -math.inf), se, low, high, slack)

    def test_zero_se_compares_exactly(self):
        # One-sided, as every deterministic check is; two-sided checks have
        # a rounding floor (below).
        assert _within(1e-9, 0.0, -math.inf, 1e-9)
        assert not _within(math.nextafter(1e-9, 1.0), 0.0, -math.inf, 1e-9)
        assert _within(2.0, 0.0, 2.0, math.inf)
        assert not _within(math.nextafter(2.0, -math.inf), 0.0, 2.0, math.inf)

    @pytest.mark.parametrize("expected", [2.0, 1.0, 1.5, 1e-300])
    @pytest.mark.parametrize("se_ulps", [0.0, 0.01])
    def test_two_sided_rounding_floor_is_four_ulps(self, expected, se_ulps):
        # Up to 0.16.0 a zero or tiny SE compared to the bit, so rounding of
        # the estimate failed it (Nakagami m = 1e16).
        ulp = math.ulp(expected)
        se = se_ulps * ulp
        for edge in (expected - 4.0 * ulp, expected + 4.0 * ulp):
            assert _within(edge, se, expected, expected)
            assert not _within(math.nextafter(edge, 2.0 * edge - expected), se, expected, expected)

    @pytest.mark.parametrize("value, se, low, high", [
        (1.0, math.inf, 0.0, 0.0),
        (1.0, 1e308, 0.0, 0.0),  # 4*SE overflows
        (math.inf, 0.0, 0.0, math.inf),
    ], ids=["infinite-se", "overflowing-4se", "infinite-value"])
    def test_non_finite_value_or_tolerance_fails(self, value, se, low, high):
        # Up to 0.14.0 each of these passed: 4*SE = inf admits any value.
        assert not _within(value, se, low, high)

    @pytest.mark.parametrize("expected, passed", [(2.0, False), (1.0, True)])
    def test_zero_se_two_sided_record_needs_the_expected_value(self, expected, passed):
        # A constant power gives kurtosis exactly 1 with standard error 0.
        record = _record("kurtosis[rayleigh]", {"fading": "rayleigh", "trials": 37},
                         kurtosis_estimate(np.ones(37)), expected, expected,
                         {"expected": expected})
        assert (record.estimate, record.std_error) == (1.0, 0.0)
        assert record.passed is passed
        assert record.z == 0.0

    # One record of each kind: its gate, the SE of its estimate (None for a
    # deterministic float), the estimate at the gate's edge, the direction
    # beyond that edge, and the z at the edge that README gives.
    RECORD_KINDS = [
        pytest.param({"low": 3.0, "high": 3.0}, 0.25, 4.0, math.inf, 4.0, id="two-sided"),
        pytest.param({"low": 2.0, "high": math.inf}, 0.25, 1.0, -math.inf, -4.0,
                     id="lower-bounded"),
        pytest.param({"low": 1.0, "high": 2.0, "slack": 10.0}, 0.125, 12.5, math.inf, None,
                     id="sandwich-with-slack"),
        # The penalty's z is its margin's: 3.0 / 0.5.
        pytest.param({"low": -math.inf, "high": 5.0, "margin": McEstimate(3.0, 0.5)}, 0.25, 6.0,
                     math.inf, 6.0, id="penalty"),
        pytest.param({"low": -math.inf, "high": 1e-9}, None, 1e-9, math.inf, None,
                     id="deterministic"),
    ]

    @pytest.mark.parametrize("gate, se, edge, beyond, z", RECORD_KINDS)
    def test_record_passes_at_its_edge_and_reports_its_z(self, gate, se, edge, beyond, z):
        def record(value):
            estimate = value if se is None else McEstimate(value, se)
            return _record("check", {"trials": 1}, estimate, bound_values={"b": 1.0}, **gate)

        at, past = record(edge), record(math.nextafter(edge, beyond))
        assert at.passed is True
        assert past.passed is False
        assert (at.estimate, at.std_error, at.z) == (edge, se, z)
        assert (at.check, at.params, at.bound_values) == ("check", {"trials": 1}, {"b": 1.0})

    @pytest.mark.parametrize("penalty, margin, passed", [
        (6.0, McEstimate(-0.5, 0.125), True),  # both at their edges
        (6.0, McEstimate(math.nextafter(-0.5, -math.inf), 0.125), False),  # margin fails alone
        (math.nextafter(6.0, math.inf), McEstimate(3.0, 0.5), False),  # penalty fails alone
    ], ids=["both-at-edge", "margin-fails", "penalty-fails"])
    def test_penalty_record_needs_both_gates(self, penalty, margin, passed):
        record = _record("penalty_sandwich", {}, McEstimate(penalty, 0.25), -math.inf, 5.0, {},
                         margin=margin)
        assert record.passed is passed
        assert record.z == margin.mean / margin.std_error


class TestMonteCarloRecordPins:
    # Every Monte-Carlo record of the 2x2 Rayleigh suite at 10 000 trials,
    # seed 42: check, estimate, std_error and z as float.hex (None where the
    # record has no z), and pass.
    PINS = [
        ("kurtosis[rayleigh]", "0x1.fab09327b51f9p+0", "0x1.229a07d439958p-6",
         "-0x1.2b63d1199b59bp+0", True),
        ("kurtosis[rice:1.0]", "0x1.8dbab59538732p+0", "0x1.2e2b856227ad3p-7",
         "-0x1.ab9998ef51666p-3", True),
        ("kurtosis[nakagami:2.0]", "0x1.83be1bff9311bp+0", "0x1.24872cca222f4p-7",
         "0x1.a33c2b9454c0fp+0", True),
        ("trace_identity[2x2:rayleigh]", "0x1.0211e53f3b82cp+4", "0x1.6cdac8237f841p-3",
         "0x1.73cd02ccf1cd7p-1", True),
        ("trace_identity[1x1:rayleigh]", "0x1.083b21141f81cp+1", "0x1.8944c8443f6aap-5",
         "0x1.56e94a2234739p+0", True),
        ("trace_identity[2x1:rayleigh]", "0x1.843ba3a83d30ap+2", "0x1.7fbf3fc8175bcp-4",
         "0x1.69738042d0ffbp-1", True),
        ("coherent_expansion", "0x1.1d430a190456ep+24", "0x1.596752e323797p+16",
         "0x1.b37aeaf8f5c81p+0", True),
        ("penalty_sandwich", "0x1.c09ab22a70131p+1", "0x1.254b281f63b19p-12",
         "0x1.88246079ee3abp+13", True),
        ("bound_sandwich[dB=1.3741e+07]", "0x1.7fa866b1f831cp+23", "0x1.6e356cd111fc5p+15",
         None, True),
        ("bound_sandwich[dB=1.3741e+08]", "0x1.fdc7cf3356787p+23", "0x1.596752e323797p+16",
         None, True),
        ("bound_sandwich[dB=1.3741e+09]", "0x1.5c8a70a1e0d83p+23", "0x1.84a39458e9b5bp+16",
         None, True),
    ]

    # The same for 2x2 rice:1.0, where one draw of the scenario's own law gives
    # its trace identity and coherent check, apart from the shared Rayleigh
    # draw, and every kurtosis from a |h|^2 draw of its own law.
    RICE_PINS = [
        ("kurtosis[rice:1.0]", "0x1.8dbab59538732p+0", "0x1.2e2b856227ad3p-7",
         "-0x1.ab9998ef51666p-3", True),
        ("kurtosis[rayleigh]", "0x1.fab09327b51f9p+0", "0x1.229a07d439958p-6",
         "-0x1.2b63d1199b59bp+0", True),
        ("kurtosis[nakagami:2.0]", "0x1.83be1bff9311bp+0", "0x1.24872cca222f4p-7",
         "0x1.a33c2b9454c0fp+0", True),
        ("trace_identity[2x2:rice:1.0]", "0x1.d0655a7f955afp+3", "0x1.da141af3c375bp-4",
         "0x1.40e1343f95be3p+1", True),
        ("trace_identity[1x1:rayleigh]", "0x1.083b21141f81cp+1", "0x1.8944c8443f6aap-5",
         "0x1.56e94a2234739p+0", True),
        ("trace_identity[2x2:rayleigh]", "0x1.0211e53f3b82cp+4", "0x1.6cdac8237f841p-3",
         "0x1.73cd02ccf1cd7p-1", True),
        ("trace_identity[2x1:rayleigh]", "0x1.843ba3a83d30ap+2", "0x1.7fbf3fc8175bcp-4",
         "0x1.69738042d0ffbp-1", True),
        ("coherent_expansion", "0x1.1fbb9ad5e1c6fp+24", "0x1.04f65ca2b87a8p+16",
         "0x1.d878819449779p+1", True),
        ("penalty_sandwich", "0x1.c09ab22a70131p+1", "0x1.254b281f63b19p-12",
         "0x1.88246079ee3abp+13", True),
        ("bound_sandwich[dB=1.27922e+07]", "0x1.77e4709187bd5p+23", "0x1.622e0b42723d3p+15",
         None, True),
        ("bound_sandwich[dB=1.27922e+08]", "0x1.fe44c7ecf8ccap+23", "0x1.5664b24b52497p+16",
         None, True),
        ("bound_sandwich[dB=1.27922e+09]", "0x1.6528aa4676ca2p+23", "0x1.84388170b8fc3p+16",
         None, True),
    ]

    def test_records_match_pins(self):
        self.assert_pins(scenario(snr=1e7, nt=2, nr=2), self.PINS)

    def test_3x2_penalty_record_matches_pin(self):
        # 3x2 Rayleigh: the penalty's 12 pilot columns do not divide K = 32.
        records = run_verification_suite(scenario(snr=1e7, nt=3, nr=2), McConfig(10_000, 42))
        [record] = [r for r in records if r.check == "penalty_sandwich"]
        assert record.estimate.hex() == "0x1.4d11fdcd284acp+2"
        assert record.std_error.hex() == "0x1.16dac3e3e2d5fp-11"
        assert record.z.hex() == "0x1.32aac5eec5c7cp+13"
        assert record.passed is True
        assert record.bound_values["lower_chain"] == 0.0019332801132239898

    def test_rice_records_match_pins(self):
        self.assert_pins(scenario(snr=1e7, nt=2, nr=2, fading=FadingFamily.rice(1.0)),
                         self.RICE_PINS)

    @staticmethod
    def assert_pins(s, pins):
        records = run_verification_suite(s, McConfig(10_000, 42))
        mc = [r for r in records if r.std_error is not None]
        assert [r.check for r in mc] == [pin[0] for pin in pins]
        for record, (check, estimate, std_error, z, passed) in zip(mc, pins):
            assert record.estimate.hex() == estimate, check
            assert record.std_error.hex() == std_error, check
            assert (None if record.z is None else record.z.hex()) == z, check
            assert record.passed is passed, check


class TestSuite:
    def test_negative_control_fails_loudly(self):
        estimate = empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        params = {"fading": "rayleigh", "trials": SMALL.trials}
        record = _record("kurtosis[rayleigh]", params, estimate, 2.5, 2.5, {"expected": 2.5})
        assert not record.passed
        assert abs(record.z) > 4.0

    def test_suite_passes_for_default_scenario(self):
        records = run_verification_suite(scenario(), SMALL)
        names = [record.check for record in records]
        assert any(name.startswith("kurtosis") for name in names)
        assert any(name.startswith("trace_identity") for name in names)
        assert "circulant_spectrum" in names
        assert "penalty_sandwich" in names
        failed = [record.check for record in records if not record.passed]
        assert failed == []

    def test_records_serializable(self):
        records = run_verification_suite(scenario(), SMALL)
        payload = [record.as_dict() for record in records]
        assert all(set(entry) == {
            "check", "params", "estimate", "std_error", "z", "bound_values", "pass"
        } for entry in payload)
