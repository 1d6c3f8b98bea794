"""Discrete block-fading MIMO channel: fading draws and the pilot and filter-bank identities.

One coherence block carries K = B*Tc complex samples; the channel impulse
response between each antenna pair has M = K/(Bc*Tc) i.i.d. taps, drawn from
the fading law by :func:`unit_fading_samples`; :func:`unit_fading_power`
draws their powers |h|^2 alone.  A unit-power pilot sequence
defines a tall circulant regressor whose Gram spectrum controls the
channel-uncertainty penalty, and a block-IDFT matrix maps the
repeated-coefficient filter-bank signaling model onto the K-sample DFT model.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import NAKAGAMI, RAYLEIGH, RICE

__all__ = [
    "pilot_gram",
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


def _los_power(k: float) -> float:
    """Line-of-sight share 2k/(1 + 2k) of a unit-power Rice coefficient with factor k."""
    return 2.0 * k / (1.0 + 2.0 * k)


def unit_fading_samples(rng: np.random.Generator, fading, shape) -> np.ndarray:
    """Zero-mean unit-power complex coefficients from the given fading law.

    The Rice line-of-sight component takes an independent uniform phase per
    draw, and Nakagami amplitudes get an independent uniform phase, so every
    family is phase-symmetric (zero mean) with E|h|^2 = 1.
    """
    if fading.kind == RAYLEIGH:
        return _circular_normals(rng, shape)
    if fading.kind == RICE:
        los_power = _los_power(fading.param)
        theta = rng.uniform(0.0, 2.0 * math.pi, shape)
        scatter = _circular_normals(rng, shape)
        return math.sqrt(los_power) * np.exp(1j * theta) + math.sqrt(1.0 - los_power) * scatter
    if fading.kind == NAKAGAMI:
        m = fading.param
        amplitude = np.sqrt(rng.gamma(m, 1.0 / m, shape))
        theta = rng.uniform(0.0, 2.0 * math.pi, shape)
        return amplitude * np.exp(1j * theta)
    raise ValueError(f"cannot synthesize taps for fading kind {fading.kind!r}")


def unit_fading_power(rng: np.random.Generator, fading, n: int) -> np.ndarray:
    """n draws of |h|^2 for :func:`unit_fading_samples`' coefficients, with no phase drawn.

    Rayleigh |h|^2 is Exp(1) and Nakagami-m |h|^2 is Gamma(m, 1/m).  The Rice
    scatter is circular, so turning the line-of-sight phase onto the real
    axis leaves its law alone: |h|^2 = (sqrt(L) + sqrt((1-L)/2)*a)^2 +
    ((1-L)/2)*b^2 for L the line-of-sight share and a, b standard normals, a
    scaled noncentral chi-square with 2 degrees of freedom (Simon & Alouini,
    *Digital Communication over Fading Channels*, 2005, ch. 2).
    """
    if fading.kind == RAYLEIGH:
        return rng.standard_exponential(n)
    if fading.kind == RICE:
        los_power = _los_power(fading.param)
        half_scatter = 0.5 * (1.0 - los_power)
        in_phase = math.sqrt(los_power) + math.sqrt(half_scatter) * rng.standard_normal(n)
        return in_phase * in_phase + half_scatter * np.square(rng.standard_normal(n))
    if fading.kind == NAKAGAMI:
        return rng.gamma(fading.param, 1.0 / fading.param, n)
    raise ValueError(f"cannot draw powers for fading kind {fading.kind!r}")


def pilot_gram(signal: np.ndarray, cols: int) -> np.ndarray:
    """Gram matrix (cols x cols, Hermitian Toeplitz) of the tall circulant regressor of a pilot.

    The regressor's entry (i, j) is signal[(i - j) mod K] for j = 0..cols-1:
    column u*M + m is the pilot delayed by u*M + m, the delayed-copies pilot
    layout across transmit antennas.  Given the pilot folded modulo cols, it
    is the circulant Gram whose eigenvalues :func:`circulant_eigenvalues` gives.
    """
    k = signal.shape[0]
    regressor = signal[(np.arange(k)[:, None] - np.arange(cols)[None, :]) % k]
    return regressor.conj().T @ regressor


def circulant_eigenvalues(signal: np.ndarray, cols: int) -> np.ndarray:
    """The folded pilot's circulant Gram spectrum lambda_m = |sum_k x[k] e^(-j2*pi*k*m/cols)|^2.

    The phase depends on k only modulo cols, so lambda is the cols-point FFT
    of the pilot folded modulo cols (its cols-blocks summed), which needs cols
    to divide K.
    """
    k = signal.shape[0]
    if cols < 1 or k % cols != 0:
        raise ValueError(f"cols must divide K = {k}, got {cols}")
    return np.abs(np.fft.fft(signal.reshape(-1, cols).sum(axis=0))) ** 2


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


def filterbank_equivalence_check(symbols: np.ndarray, taps: np.ndarray) -> float:
    """Max-abs gap between the synthesized filter-bank signal and H*Phi*x.

    ``symbols`` (M, L_c) holds x[m, l] on M frequency bins over the L_c
    periods of one block, and ``taps`` (M,) the SISO channel impulse response.
    Path one synthesizes the continuous-time signal of the M-bin model
    (pulse-shaped, bin-modulated, scaled by the per-bin channel
    coefficients), samples it at rate B and applies the K-point analysis
    transform.  Path two evaluates the block-diagonal channel acting on the
    block-IDFT precoded codeword.  With K = M*L_c both are exact and the
    discrepancy is at machine level.
    """
    m_bins, l_symbols = symbols.shape
    if taps.shape != (m_bins,):
        raise ValueError(f"taps must have shape ({m_bins},), one per bin, got {taps.shape}")
    k = m_bins * l_symbols

    bin_coeff = np.fft.fft(taps)  # per-bin coefficients h[u]

    # Path one: continuous-time synthesis sampled at rate B, then the
    # K-point analysis transform (kernel conjugate to the bin modulation).
    n = np.arange(k)
    z = n[:, None] / k - np.arange(l_symbols)[None, :] / l_symbols  # (n, l)
    pulse = _periodic_pulse(z, l_symbols)
    modulation = np.exp(-2j * np.pi * np.outer(n, np.arange(m_bins)) / m_bins)  # (n, m)
    samples = np.einsum("m,nm,nl,ml->n", bin_coeff, modulation, pulse, symbols)
    analysis = np.exp(2j * np.pi * np.outer(np.arange(k), n) / k)  # (k, n)
    spectrum = analysis @ samples

    # Path two: diagonal channel times block-IDFT precoding.
    phi = block_idft_matrix(l_symbols, m_bins)
    x_vec = symbols.reshape(-1)
    direct = np.repeat(bin_coeff, l_symbols) * (phi @ x_vec)

    return float(np.max(np.abs(spectrum - m_bins * math.sqrt(l_symbols) * direct)))
