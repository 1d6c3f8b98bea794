"""Discrete block-fading MIMO channel: fading draws, taps, pilot circulants.

One coherence block carries K = B*Tc complex samples; the channel impulse
response between each antenna pair has M = K/(Bc*Tc) i.i.d. taps, drawn from
the fading law by :func:`unit_fading_samples`.  A unit-power pilot sequence
defines a tall circulant regressor whose Gram spectrum controls the
channel-uncertainty penalty, and a block-IDFT matrix maps the
repeated-coefficient filter-bank signaling model onto the K-sample DFT model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import NAKAGAMI, RAYLEIGH, RICE

__all__ = [
    "DiscreteChannel",
    "PilotCirculant",
    "FilterBankCodeword",
    "pilot_spectrum",
    "circulant_eigenvalues",
    "block_idft_matrix",
    "filterbank_equivalence_check",
]


def integer_coherence_length(coherence_product: float) -> int:
    """Round the coherence product up to the integer symbol-block length."""
    nearest = round(coherence_product)
    if abs(coherence_product - nearest) < 1e-9 * max(1.0, abs(coherence_product)):
        return int(nearest)
    return int(math.ceil(coherence_product))


@dataclass(frozen=True)
class DiscreteChannel:
    """Channel taps for one fading block of K samples.

    ``taps`` has shape (nr, nt, M); ``gains`` is the average power profile
    (length M, shared by all antenna pairs, summing to one).
    """

    k_samples: int
    m_taps: int
    taps: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        if self.m_taps < 1:
            raise ValueError("need at least one tap")
        if self.k_samples % self.m_taps != 0:
            raise ValueError("k_samples must be an integer multiple of m_taps")
        if self.taps.ndim != 3 or self.taps.shape[2] != self.m_taps:
            raise ValueError("taps must have shape (nr, nt, m_taps)")
        if self.gains.shape != (self.m_taps,):
            raise ValueError("gains must have shape (m_taps,)")
        if abs(self.gains.sum() - 1.0) > 1e-12:
            raise ValueError("gain profile must sum to one")

    @property
    def nr(self) -> int:
        return self.taps.shape[0]

    @property
    def nt(self) -> int:
        return self.taps.shape[1]


def _circular_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-power circular complex Gaussians, (a + 1j*b)/sqrt(2) bit for bit.

    numpy divides a complex array by a real scalar as a product with its
    reciprocal, so scaling each standard-normal plane by 1/sqrt(2) straight
    into the real and imaginary parts of one array gives the same bits
    without the three complex temporaries of the expression.
    """
    out = np.empty(shape, dtype=complex)
    scale = 1.0 / math.sqrt(2.0)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out


def unit_fading_samples(rng: np.random.Generator, fading, shape) -> np.ndarray:
    """Zero-mean unit-power complex coefficients from the given fading law.

    The Rice line-of-sight component takes an independent uniform phase per
    draw, and Nakagami amplitudes get an independent uniform phase, so every
    family is phase-symmetric (zero mean) with E|h|^2 = 1.
    """
    if fading.kind == RAYLEIGH:
        return _circular_normals(rng, shape)
    if fading.kind == RICE:
        los_power = 2.0 * fading.param / (1.0 + 2.0 * fading.param)
        theta = rng.uniform(0.0, 2.0 * math.pi, shape)
        scatter = _circular_normals(rng, shape)
        return math.sqrt(los_power) * np.exp(1j * theta) + math.sqrt(1.0 - los_power) * scatter
    if fading.kind == NAKAGAMI:
        m = fading.param
        amplitude = np.sqrt(rng.gamma(m, 1.0 / m, shape))
        theta = rng.uniform(0.0, 2.0 * math.pi, shape)
        return amplitude * np.exp(1j * theta)
    raise ValueError(f"cannot synthesize taps for fading kind {fading.kind!r}")


@dataclass(frozen=True)
class PilotCirculant:
    """Tall circulant regressor built from a unit-power pilot sequence.

    Entry (i, j) is base_signal[(i - j) mod K] for j = 0..cols-1; column
    u*M + m is the pilot delayed by u*M + m, which realizes the
    delayed-copies pilot layout across transmit antennas.
    """

    k_rows: int
    cols: int
    base_signal: np.ndarray

    def __post_init__(self):
        if self.base_signal.shape != (self.k_rows,):
            raise ValueError("base_signal must have length k_rows")
        if not 1 <= self.cols <= self.k_rows:
            raise ValueError("cols must be in [1, k_rows]")
        power = np.mean(np.abs(self.base_signal) ** 2)
        if abs(power - 1.0) > 1e-12:
            raise ValueError("base_signal must have exactly unit average power")

    def materialize(self) -> np.ndarray:
        """The literal K x cols matrix of delayed pilot copies."""
        i = np.arange(self.k_rows)[:, None]
        j = np.arange(self.cols)[None, :]
        return self.base_signal[(i - j) % self.k_rows]

    def gram(self) -> np.ndarray:
        """The literal Gram matrix (cols x cols, Hermitian Toeplitz)."""
        xi = self.materialize()
        return xi.conj().T @ xi

    def folded_gram(self) -> np.ndarray:
        """Circulant form of the Gram: alias the pilot into cols bins first.

        Its eigenvalues are exactly the closed-form spectrum returned by
        :func:`circulant_eigenvalues`; requires cols to divide K.
        """
        if self.k_rows % self.cols != 0:
            raise ValueError("folded form needs cols to divide k_rows")
        folded = self.base_signal.reshape(-1, self.cols).sum(axis=0)
        i = np.arange(self.cols)[:, None]
        j = np.arange(self.cols)[None, :]
        circulant = folded[(i - j) % self.cols]
        return circulant.conj().T @ circulant


def pilot_spectrum(signal: np.ndarray, cols: int) -> np.ndarray:
    """|sum_k x[k] e^(-j2*pi*k*m/cols)|^2 for m = 0..cols-1, along the last axis.

    The phase depends on k only modulo cols, so this is the cols-point FFT of
    the signal folded modulo cols: its cols-blocks summed in order, a short
    last block onto the leading entries.  Leading axes are batch axes.
    """
    folded = np.zeros(signal.shape[:-1] + (cols,), dtype=signal.dtype)
    for start in range(0, signal.shape[-1], cols):
        block = signal[..., start:start + cols]
        folded[..., :block.shape[-1]] += block
    return np.abs(np.fft.fft(folded, axis=-1)) ** 2


def circulant_eigenvalues(pilot: PilotCirculant):
    """Pilot Gram spectrum lambda_m = |sum_k x[k] e^(-j2*pi*k*m/cols)|^2 and psi.

    Returns (eigenvalues, psi) with psi = min_m lambda_m / K, the normalized
    worst eigenvalue entering the channel-uncertainty penalty.
    """
    eigenvalues = pilot_spectrum(pilot.base_signal, pilot.cols)
    return eigenvalues, float(eigenvalues.min() / pilot.k_rows)


@dataclass(frozen=True)
class FilterBankCodeword:
    """Symbols x[m, l] on M frequency bins over L_c periods of one block."""

    m_bins: int
    l_symbols: int
    symbols: np.ndarray

    def __post_init__(self):
        if self.symbols.shape != (self.m_bins, self.l_symbols):
            raise ValueError("symbols must have shape (m_bins, l_symbols)")


def block_idft_matrix(l_symbols: int, m_bins: int) -> np.ndarray:
    """Unitary block-diagonal K x K matrix with M copies of the L_c-point IDFT."""
    v = np.arange(l_symbols)
    f = np.exp(2j * np.pi * np.outer(v, v) / l_symbols) / math.sqrt(l_symbols)
    return np.kron(np.eye(m_bins), f)


def _periodic_pulse(z, l_symbols: int):
    """Band-limited interpolation pulse, periodic over one coherence block.

    p(z) = (1/L) * sum_{v=0..L-1} e^(-j2*pi*v*z) evaluated through its closed
    (Dirichlet) form; z is time in units of the block duration.  p is 1 at
    integer z and 0 at the other symbol instants z = l/L.
    """
    z = np.asarray(z, dtype=float)
    num = np.sin(np.pi * l_symbols * z)
    den = np.sin(np.pi * z)
    integral = np.isclose(den, 0.0, atol=1e-12)
    safe_den = np.where(integral, 1.0, den)
    pulse = np.exp(-1j * np.pi * (l_symbols - 1) * z) * (num / safe_den) / l_symbols
    return np.where(integral, 1.0 + 0.0j, pulse)  # p is exactly 1 at integer z


def filterbank_equivalence_check(codeword: FilterBankCodeword, channel: DiscreteChannel) -> float:
    """Max-abs gap between the synthesized filter-bank signal and H*Phi*x.

    Path one synthesizes the continuous-time signal of the M-bin model
    (pulse-shaped, bin-modulated, scaled by the per-bin channel
    coefficients), samples it at rate B and applies the K-point analysis
    transform.  Path two evaluates the block-diagonal channel acting on the
    block-IDFT precoded codeword.  With K = M*L_c both are exact and the
    discrepancy is at machine level.
    """
    if channel.nt != 1 or channel.nr != 1:
        raise ValueError("equivalence check is defined for SISO channels")
    m_bins, l_symbols = codeword.m_bins, codeword.l_symbols
    k = m_bins * l_symbols
    if channel.k_samples != k or channel.m_taps != m_bins:
        raise ValueError("channel grid does not match the codeword grid")

    bin_coeff = np.fft.fft(channel.taps[0, 0])  # per-bin coefficients h[u]

    # Path one: continuous-time synthesis sampled at rate B, then the
    # K-point analysis transform (kernel conjugate to the bin modulation).
    n = np.arange(k)
    z = n[:, None] / k - np.arange(l_symbols)[None, :] / l_symbols  # (n, l)
    pulse = _periodic_pulse(z, l_symbols)
    modulation = np.exp(-2j * np.pi * np.outer(n, np.arange(m_bins)) / m_bins)  # (n, m)
    samples = np.einsum("m,nm,nl,ml->n", bin_coeff, modulation, pulse, codeword.symbols)
    analysis = np.exp(2j * np.pi * np.outer(np.arange(k), n) / k)  # (k, n)
    spectrum = analysis @ samples

    # Path two: diagonal channel times block-IDFT precoding.
    phi = block_idft_matrix(l_symbols, m_bins)
    x_vec = codeword.symbols.reshape(-1)
    direct = np.repeat(bin_coeff, l_symbols) * (phi @ x_vec)

    return float(np.max(np.abs(spectrum - m_bins * math.sqrt(l_symbols) * direct)))
