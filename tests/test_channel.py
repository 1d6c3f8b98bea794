import math

import numpy as np
import pytest
from scipy import stats

from widecap.channel import (
    block_idft_matrix,
    circulant_eigenvalues,
    filterbank_equivalence_check,
    integer_coherence_length,
    pilot_gram,
    unit_fading_power,
    unit_fading_samples,
)
from widecap.mcverify import _estimate
from widecap.scenario import FadingFamily, kurtosis

from test_mcverify import kurtosis_estimate, moments, pilot_spectrum


def seeded_taps(m_taps, seed):
    """Seeded SISO Rayleigh taps of power 1/M each (the uniform profile)."""
    rng = np.random.default_rng(seed)
    return unit_fading_samples(rng, FadingFamily.rayleigh(), m_taps) / math.sqrt(m_taps)


class TestSampleTaps:
    def test_unit_total_power(self):
        # The per-tap scaling makes E[sum_n |h[n]|^2] = 1; check the sampler
        # core over 1e5 realizations of a 4-tap profile.
        rng = np.random.default_rng(0)
        draws = unit_fading_samples(rng, FadingFamily.rayleigh(), (100_000, 4))
        total = np.mean(np.sum(np.abs(draws) ** 2 / 4.0, axis=1))
        assert abs(total - 1.0) < 0.01

    def test_rayleigh_bits_match_complex_expression(self):
        # The in-place fill gives the bits of (a + 1j*b)/sqrt(2).
        shape = (4096, 2, 2, 4)
        rng = np.random.default_rng(5)
        expected = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        draws = unit_fading_samples(np.random.default_rng(5), FadingFamily.rayleigh(), shape)
        assert draws.tobytes() == expected.tobytes()

    def test_rayleigh_tap_kurtosis(self):
        rng = np.random.default_rng(1)
        draws = unit_fading_samples(rng, FadingFamily.rayleigh(), 1_000_000)
        power = np.abs(draws) ** 2
        kurt = np.mean(power**2) / np.mean(power) ** 2
        assert abs(kurt - 2.0) < 0.02

    def test_integer_coherence_length_rounding(self):
        assert integer_coherence_length(8.0) == 8
        assert integer_coherence_length(7.9999999999) == 8
        assert integer_coherence_length(8.3) == 9


FADING_LAWS = [FadingFamily.rayleigh(), FadingFamily.rice(0.0), FadingFamily.rice(1.0),
               FadingFamily.rice(10.0), FadingFamily.nakagami(0.5), FadingFamily.nakagami(2.0),
               FadingFamily.nakagami(3.0)]


class TestFadingPower:
    """unit_fading_power draws the law of |h|^2 of unit_fading_samples' coefficients."""

    @pytest.mark.parametrize("fading", FADING_LAWS, ids=lambda f: f.label)
    def test_same_law_as_the_complex_draw(self, fading):
        n = 200_000
        direct = unit_fading_power(np.random.default_rng(11), fading, n)
        complex_power = np.abs(unit_fading_samples(np.random.default_rng(12), fading, n)) ** 2
        assert direct.shape == (n,)
        assert stats.ks_2samp(direct, complex_power).pvalue > 1e-3

    @pytest.mark.parametrize("fading", FADING_LAWS, ids=lambda f: f.label)
    def test_unit_power_and_kurtosis(self, fading):
        power = unit_fading_power(np.random.default_rng(13), fading, 200_000)
        for estimate, expected in [(_estimate(moments(power), {0: 1.0}), 1.0),
                                   (kurtosis_estimate(power), kurtosis(fading))]:
            assert abs(estimate.mean - expected) <= 4.0 * estimate.std_error


class TestFrequencyResponse:
    def test_correlation_structure(self):
        # Sample correlation across subcarriers tracks the DFT of the gain
        # profile; it is zero (to MC noise) at multiples of the coherence
        # length.
        k, m, n = 32, 4, 20_000
        rng = np.random.default_rng(11)
        taps = unit_fading_samples(rng, FadingFamily.rayleigh(), (n, m)) / math.sqrt(m)
        spectra = np.fft.fft(taps, n=k, axis=1)
        gains = np.full(m, 1.0 / m)
        lags = [1, 2, 5, 8, 12, 16, 24]
        # Correlation of H[k] and H[k+lag]: the K-point DFT of the gain profile.
        analytic = np.fft.fft(gains, n=k)[lags]
        for lag, expected in zip(lags, analytic):
            pairs = spectra[:, :-lag].reshape(-1) * np.conj(spectra[:, lag:]).reshape(-1)
            corr = np.mean(pairs)  # E|H[k]|^2 = 1
            assert abs(corr - np.conj(expected)) < 0.05
            if lag % 8 == 0:
                assert abs(corr) < 15.0 / math.sqrt(n)


class TestPilotCirculant:
    def make_pilot(self, k=64, seed=2):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return x * math.sqrt(k / np.sum(np.abs(x) ** 2))

    def test_entry_layout(self):
        # Gram[a, b] = sum_i conj(x[(i - a) mod K]) * x[(i - b) mod K].
        k, cols = 8, 3
        x = self.make_pilot(k=k)
        gram = pilot_gram(x, cols)
        assert gram.shape == (cols, cols)
        for a in range(cols):
            for b in range(cols):
                expected = sum(np.conj(x[(i - a) % k]) * x[(i - b) % k] for i in range(k))
                assert abs(gram[a, b] - expected) <= 1e-12 * k

    def test_impulse_pilot_flat_spectrum(self):
        k = 32
        x = np.zeros(k, dtype=complex)
        x[0] = math.sqrt(k)
        eigs = circulant_eigenvalues(x, 8)
        assert np.allclose(eigs, k, rtol=1e-12)

    def test_constant_pilot_degenerate_spectrum(self):
        k = 64
        eigs = circulant_eigenvalues(np.ones(k, dtype=complex), 8)
        assert eigs[0] == pytest.approx(k**2, rel=1e-12)
        assert np.all(np.abs(eigs[1:]) < 1e-9 * k**2)

    def test_formula_matches_dense_eigensolver(self):
        x, cols = self.make_pilot(k=64), 8
        formula = circulant_eigenvalues(x, cols)
        dense = np.linalg.eigvalsh(pilot_gram(x.reshape(-1, cols).sum(axis=0), cols)).real
        gap = np.max(np.abs(np.sort(formula) - np.sort(dense)))
        assert gap < 1e-9 * np.max(dense)

    @pytest.mark.parametrize("cols", [0, 5, 12, 70])
    def test_cols_must_divide_k(self, cols):
        with pytest.raises(ValueError, match="cols must divide K = 64"):
            circulant_eigenvalues(self.make_pilot(k=64), cols)

    def test_gram_trace_identity(self):
        # Unit pilot power pins the mean normalized Gram eigenvalue at one.
        k, cols = 64, 8
        for seed in range(5):
            trace = float(np.trace(pilot_gram(self.make_pilot(k=k, seed=seed), cols)).real)
            assert abs(trace / (cols * k) - 1.0) < 1e-12

    @pytest.mark.parametrize("cols", [1, 5, 8, 12, 32, 36, 70])
    @pytest.mark.parametrize("shape", [(32,), (3, 32), (2, 2, 32)])
    def test_spectrum_is_the_phase_sum(self, cols, shape):
        # The fold covers cols dividing K, a remainder (5, 12) and cols > K,
        # where no whole block exists and the signal is the remainder.
        rng = np.random.default_rng(cols)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        k = shape[-1]
        phases = np.exp(-2j * np.pi * np.outer(np.arange(k), np.arange(cols)) / cols)
        expected = np.abs(x @ phases) ** 2
        spectrum = pilot_spectrum(x, cols)
        assert spectrum.shape == shape[:-1] + (cols,)
        np.testing.assert_allclose(spectrum, expected, rtol=1e-12, atol=1e-12 * k * k)


class TestBlockIdft:
    def test_single_symbol_identity(self):
        assert np.allclose(block_idft_matrix(1, 3), np.eye(3))

    def test_two_point_transform(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        assert np.allclose(block_idft_matrix(2, 1), expected, atol=1e-15)

    @pytest.mark.parametrize("l_symbols,m_bins", [(2, 2), (8, 4), (16, 8)])
    def test_unitarity(self, l_symbols, m_bins):
        phi = block_idft_matrix(l_symbols, m_bins)
        k = l_symbols * m_bins
        assert np.max(np.abs(phi @ phi.conj().T - np.eye(k))) < 1e-12


class TestFilterBankEquivalence:
    def random_symbols(self, m_bins, l_symbols, seed):
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal((m_bins, l_symbols))
            + 1j * rng.standard_normal((m_bins, l_symbols))
        ) / math.sqrt(2)

    def test_degenerate_single_bin_flat(self):
        symbols = self.random_symbols(1, 4, seed=0)
        assert filterbank_equivalence_check(symbols, np.ones(1, dtype=complex)) < 1e-12

    def test_random_channel_and_codeword(self):
        symbols = self.random_symbols(4, 8, seed=1)
        assert filterbank_equivalence_check(symbols, seeded_taps(4, seed=13)) < 1e-9

    def test_precoding_identity(self):
        # H * Phi * Phi^H * x equals H * x.
        rng = np.random.default_rng(3)
        m_bins, l_symbols = 4, 8
        k = m_bins * l_symbols
        phi = block_idft_matrix(l_symbols, m_bins)
        h = np.repeat(rng.standard_normal(m_bins) + 1j * rng.standard_normal(m_bins), l_symbols)
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert np.max(np.abs(h * (phi @ (phi.conj().T @ x)) - h * x)) < 1e-12

    @pytest.mark.parametrize("shape", [(8,), (1, 1, 4), (2, 2, 4)])
    def test_rejects_taps_not_one_per_bin(self, shape):
        symbols = self.random_symbols(4, 8, seed=2)
        with pytest.raises(ValueError, match=r"taps must have shape \(4,\)"):
            filterbank_equivalence_check(symbols, np.ones(shape, dtype=complex))
