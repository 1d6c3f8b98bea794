"""Monte-Carlo oracles for the algebraic steps behind the rate bounds.

Each routine simulates one ingredient of the bound derivations and returns a
seeded, reproducible estimate: channel kurtosis, the fourth-moment trace
identity, the coherent log-det term against its quadratic expansion, and the
channel-uncertainty penalty term against its closed-form chain ends.
:func:`run_verification_suite` bundles them (plus the deterministic channel
identities) into pass/fail records consumed by the CLI.

No Monte-Carlo log-det needs an eigendecomposition.  The penalty's
ln det(I + T) with T Hermitian Toeplitz is a batched Levinson-Durbin
recursion (:func:`toeplitz_logdet`); the coherent ln det(I + rho H H^H) is a
batched elimination on the smaller of H H^H and H^H H (:func:`coherent_block_values`).
Both sum log1p of pivots minus one, never log of the pivots, so they keep
full relative accuracy at low SNR.

Sampling is chunked with a fixed chunk size; every chunk draws from its own
seed derived from (base_seed, check tag, chunk start), so results are
bit-identical regardless of how chunks would be scheduled.  Reductions use
numpy's pairwise summation over arrays assembled in trial order.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import bounds
from .bounds import _coherent_term as coherent_quadratic_lower
from .channel import (
    DiscreteChannel,
    FilterBankCodeword,
    PilotCirculant,
    block_idft_matrix,
    circulant_eigenvalues,
    filterbank_equivalence_check,
    integer_coherence_length,
    pilot_spectrum,
    unit_fading_samples,
)
from .scenario import ChannelScenario, FadingFamily, kurtosis

__all__ = [
    "McConfig",
    "McEstimate",
    "PenaltySandwich",
    "SandwichPoint",
    "CheckRecord",
    "kurtosis_estimate",
    "empirical_kurtosis",
    "trace_identity_expected",
    "trace_identity_check",
    "coherent_term_mc",
    "coherent_quadratic_lower",
    "penalty_sandwich",
    "bound_sandwich_sweep",
    "run_verification_suite",
]

_CHUNK = 4096
_MIN_TRIALS = 10_000

# Stream tags keep the draws of different checks independent.
_TAG_KURTOSIS = 1
_TAG_TRACE = 2
_TAG_COHERENT = 3
_TAG_PENALTY = 4
_TAG_SWEEP = 5
_TAG_CHANNEL = 6


@dataclass(frozen=True)
class McConfig:
    """Trial budget and seeding for the Monte-Carlo checks."""

    trials: int
    base_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with the standard error of the mean."""

    mean: float
    std_error: float
    trials: int


def _entropy_component(value) -> int:
    """Stable integer encoding of a stream-tag component for SeedSequence."""
    if isinstance(value, str):
        return zlib.crc32(value.encode())
    if isinstance(value, float):
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    return int(value)


def _chunk_rngs(cfg: McConfig, tag, trials: int):
    entropy = tag if isinstance(tag, tuple) else (tag,)
    entropy = tuple(_entropy_component(part) for part in entropy)
    for start in range(0, trials, _CHUNK):
        seed = np.random.SeedSequence((cfg.base_seed, *entropy, start))
        yield np.random.default_rng(seed), min(_CHUNK, trials - start)


def _estimate(values: np.ndarray) -> McEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    sd = values.std(ddof=1) if n > 1 else 0.0
    return McEstimate(mean=float(values.mean()), std_error=float(sd / math.sqrt(n)), trials=n)


def _require_trials(cfg: McConfig):
    if cfg.trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials")


def kurtosis_estimate(power_samples) -> McEstimate:
    """Kurtosis estimate mean(x^2)/mean(x)^2 from squared-magnitude samples.

    The standard error comes from the first-order (delta-method)
    linearization of the ratio, so a deterministic input yields zero error.
    """
    x = np.asarray(power_samples, dtype=float)
    n = x.size
    a = float(np.mean(x * x))
    b = float(np.mean(x))
    mean = a / (b * b)
    influence = (x * x - a) / (b * b) - 2.0 * a * (x - b) / b**3
    sd = influence.std(ddof=1) if n > 1 else 0.0
    return McEstimate(mean=mean, std_error=float(sd / math.sqrt(n)), trials=n)


def empirical_kurtosis(fading: FadingFamily, cfg: McConfig) -> McEstimate:
    """Estimate E|h|^4 / (E|h|^2)^2 over i.i.d. draws from the fading law."""
    _require_trials(cfg)
    powers = np.empty(cfg.trials)
    offset = 0
    for rng, n in _chunk_rngs(cfg, (_TAG_KURTOSIS, fading.kind, float(fading.param)), cfg.trials):
        h = unit_fading_samples(rng, fading, n)
        powers[offset:offset + n] = np.abs(h) ** 2
        offset += n
    return kurtosis_estimate(powers)


def trace_identity_expected(nt: int, nr: int, kappa: float) -> float:
    """E[tr((H H^H)^2)] for an Nr x Nt block of i.i.d. zero-mean unit-power entries."""
    return nt * nr * (kappa - 2.0 + nt + nr)


def trace_identity_check(scenario: ChannelScenario, cfg: McConfig) -> McEstimate:
    """Estimate E[tr((H H^H)^2)] over per-subcarrier channel blocks."""
    _require_trials(cfg)
    nt, nr = scenario.nt, scenario.nr
    values = np.empty(cfg.trials)
    offset = 0
    for rng, n in _chunk_rngs(cfg, (_TAG_TRACE, nt, nr, scenario.fading.kind), cfg.trials):
        h = unit_fading_samples(rng, scenario.fading, (n, nr, nt))
        gram = h @ h.conj().swapaxes(-1, -2)
        values[offset:offset + n] = np.sum(np.abs(gram) ** 2, axis=(1, 2))
        offset += n
    return _estimate(values)


def toeplitz_logdet(column: np.ndarray) -> np.ndarray:
    """Per-row ln det(I + T) for stacked Hermitian Toeplitz T given by first columns.

    ``column`` has shape (n, size) with T[a, b] = column[a - b] for a >= b
    and a real lag-0 entry.  A Levinson-Durbin recursion over the size steps,
    vectorized over the rows, carries the forward predictor and
    d_k = E_k - 1, the k-th prediction-error power minus one, updated as
    d_k = d_(k-1) - (1 + d_(k-1)) |kappa_k|^2.  The log-det is sum log1p(d_k),
    which keeps full relative accuracy when T is tiny against I.
    """
    n, size = column.shape
    d = column[:, 0].real.copy()
    total = np.log1p(d)
    predictor = np.zeros((n, size), dtype=complex)
    predictor[:, 0] = 1.0
    for k in range(1, size):
        delta = np.sum(predictor[:, :k] * column[:, k:0:-1], axis=1)
        kappa = -delta / (1.0 + d)
        predictor[:, :k + 1] += kappa[:, None] * predictor[:, k::-1].conj()
        d = d - (1.0 + d) * (kappa.real**2 + kappa.imag**2)
        total += np.log1p(d)
    return total


def coherent_block_values(blocks: np.ndarray, rho: float, occupancy: float) -> np.ndarray:
    """Per-realization occupancy * ln det(I + rho * H H^H) for stacked blocks H.

    By Sylvester's identity the log-det equals ln det(I + rho * H^H H), so the
    smaller of the two Grams is used: min(Nt, Nr) steps of a batched
    elimination on M = rho * G.  Each pivot p adds log1p(p) and removes
    col col^H / (1 + p) from the trailing block.
    """
    herm = blocks.conj().swapaxes(-1, -2)
    gram = herm @ blocks if blocks.shape[-2] > blocks.shape[-1] else blocks @ herm
    m = rho * gram
    total = np.zeros(m.shape[:-2])
    for p in range(m.shape[-1]):
        pivot = m[..., p, p].real
        total += np.log1p(pivot)
        col = m[..., p + 1:, p]
        m[..., p + 1:, p + 1:] -= (
            col[..., :, None] * col[..., None, :].conj() / (1.0 + pivot)[..., None, None]
        )
    return occupancy * total


def _require_occupancy(occupancy: float):
    if not (math.isfinite(occupancy) and occupancy > 0):
        raise ValueError("occupancy must be finite and > 0")


def coherent_term_mc(
    scenario: ChannelScenario, occupancy: float, cfg: McConfig, tag=_TAG_COHERENT
) -> McEstimate:
    """Estimate the coherent term delta*B * E[ln det(I + rho * H H^H)].

    rho = P/(dB * Nt * N0); the estimate must exceed
    :func:`coherent_quadratic_lower` up to Monte-Carlo error.
    """
    _require_trials(cfg)
    _require_occupancy(occupancy)
    nt, nr = scenario.nt, scenario.nr
    rho = scenario.snr_density / (occupancy * nt)
    values = np.empty(cfg.trials)
    offset = 0
    for rng, n in _chunk_rngs(cfg, tag, cfg.trials):
        h = unit_fading_samples(rng, scenario.fading, (n, nr, nt))
        values[offset:offset + n] = coherent_block_values(h, rho, occupancy)
        offset += n
    return _estimate(values)


@dataclass(frozen=True)
class PenaltySandwich:
    """Penalty-term estimate with its closed-form chain ends.

    ``margin`` is the paired estimate of (penalty - lower chain); the
    sandwich holds when margin.mean >= -4*margin.std_error and
    estimate.mean <= upper_chain within 4 standard errors.
    """

    estimate: McEstimate
    lower_chain: McEstimate
    margin: McEstimate
    upper_chain: float


def penalty_sandwich(
    scenario: ChannelScenario,
    occupancy: float,
    k_samples: int,
    cfg: McConfig,
    tag=_TAG_PENALTY,
) -> PenaltySandwich:
    """Estimate the channel-uncertainty penalty and bracket it.

    Per trial a unit-power Gaussian pilot is drawn and the penalty is
    (delta/Tc) * sum_v ln det(I + rho * Gram * Lambda_v) with Lambda the
    uniform tap-gain profile.  I + (rho/m) * Gram is Hermitian Toeplitz with
    first column (rho/m) times the pilot's cyclic autocorrelation (one FFT
    pair) plus one at lag 0, so :func:`toeplitz_logdet` gets its log-det by a
    Levinson-Durbin recursion; the Gram itself is never formed.  The lower
    chain evaluates the worst-eigenvalue form with the sampled minimum tap
    power g_min and the pilot's normalized minimum spectrum value psi
    (:func:`~widecap.channel.pilot_spectrum`, an FFT of the folded pilot); the
    upper chain is the deterministic trace/Jensen cap.

    psi is the minimum of the folded-pilot (circulant) spectrum divided by K,
    not lambda_min / K of the literal tall Gram that the penalty uses.  The two
    differ: over 2000 unit-power Gaussian pilots of length K = 32, K * psi
    exceeded lambda_min of the Gram for 53 pilots at cols = 8 and 55 at
    cols = 12.  So the lower chain is the circulant approximation's
    worst-eigenvalue form, not a per-trial bound from the Gram's own smallest
    eigenvalue.
    """
    _require_trials(cfg)
    _require_occupancy(occupancy)
    if scenario.fading.kind != "rayleigh":
        raise ValueError("penalty sandwich is defined for Rayleigh fading")
    l_c = integer_coherence_length(scenario.coherence_product)
    if k_samples % l_c != 0:
        raise ValueError("k_samples must be divisible by the integer coherence length")
    m = k_samples // l_c
    nt, nr = scenario.nt, scenario.nr
    cols = m * nt
    s = scenario.snr_density
    lc = scenario.coherence_product
    rho = s / (occupancy * nt)
    prefactor = occupancy / k_samples  # delta/Tc with K = B*Tc
    chain_scale = occupancy * nt * nr / lc
    cap = bounds._penalty_cap(scenario, occupancy, math.log1p)

    # Gram[a, b] = autocorr[(a - b) mod K]: Toeplitz with these first-column lags.
    lags = np.arange(cols) % k_samples
    penalties = np.empty(cfg.trials)
    lowers = np.empty(cfg.trials)
    offset = 0
    for rng, n in _chunk_rngs(cfg, tag, cfg.trials):
        x = (rng.standard_normal((n, k_samples)) + 1j * rng.standard_normal((n, k_samples)))
        x *= np.sqrt(k_samples / np.sum(np.abs(x) ** 2, axis=1, keepdims=True))
        autocorr = np.fft.ifft(np.abs(np.fft.fft(x, axis=1)) ** 2, axis=1)
        penalties[offset:offset + n] = (
            prefactor * nr * toeplitz_logdet((rho / m) * autocorr[:, lags])
        )
        taps = unit_fading_samples(rng, scenario.fading, (n, nr, nt, m)) / math.sqrt(m)
        g_min = np.min(np.abs(taps) ** 2, axis=(1, 2, 3))
        psi = np.min(pilot_spectrum(x, cols), axis=1) / k_samples
        lowers[offset:offset + n] = chain_scale * np.log1p(
            s * lc * g_min * psi / (occupancy * nt)
        )
        offset += n

    return PenaltySandwich(
        estimate=_estimate(penalties),
        lower_chain=_estimate(lowers),
        margin=_estimate(penalties - lowers),
        upper_chain=cap,
    )


@dataclass(frozen=True)
class SandwichPoint:
    """One occupancy of the lower/MC/upper rate sandwich."""

    occupancy: float
    rate_lower: float
    rate_upper: float
    mc_value: float
    mc_std_error: float
    upper_slack: float
    pass_lower: bool
    pass_upper: bool


def bound_sandwich_sweep(scenario: ChannelScenario, grid, cfg: McConfig):
    """Check R_LB <= (MC coherent term - penalty cap) <= R_UB over a dB grid.

    The MC value pairs the simulated coherent term with the closed-form
    penalty cap, matching the construction of the lower bound.  The upper
    comparison allows, besides 4 standard errors, the dropped o(1/B)
    remainder of the upper bound (at most C_inf * SNR_delta^2 / 3).
    """
    if scenario.fading.kind != "rayleigh":
        raise ValueError("bound sandwich is defined for Rayleigh fading")
    points = []
    for index, occupancy in enumerate(grid):
        occupancy = float(occupancy)
        coherent = coherent_term_mc(scenario, occupancy, cfg, tag=(_TAG_SWEEP, index))
        mc_value = coherent.mean - bounds._penalty_cap(scenario, occupancy, math.log1p)
        rate_lower = float(bounds.rate_lower_bound(scenario, occupancy))
        rate_upper = float(bounds.rate_upper_bound(scenario, occupancy, 1.0))
        snr_dof = scenario.snr_density / occupancy
        slack = occupancy * scenario.nr * snr_dof**3 / 3.0
        tol = 4.0 * coherent.std_error
        points.append(
            SandwichPoint(
                occupancy=occupancy,
                rate_lower=rate_lower,
                rate_upper=rate_upper,
                mc_value=mc_value,
                mc_std_error=coherent.std_error,
                upper_slack=slack,
                pass_lower=rate_lower - tol <= mc_value,
                pass_upper=mc_value <= rate_upper + tol + slack,
            )
        )
    return points


@dataclass(frozen=True)
class CheckRecord:
    """One verification check in the machine-readable report."""

    check: str
    params: dict
    passed: bool
    estimate: Optional[float] = None
    std_error: Optional[float] = None
    z: Optional[float] = None
    bound_values: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "z": self.z,
            "bound_values": self.bound_values,
            "pass": self.passed,
        }


def _two_sided_record(name, params, estimate: McEstimate, expected: float) -> CheckRecord:
    z = (estimate.mean - expected) / estimate.std_error if estimate.std_error > 0 else 0.0
    return CheckRecord(
        check=name,
        params=params,
        passed=abs(z) <= 4.0,
        estimate=estimate.mean,
        std_error=estimate.std_error,
        z=z,
        bound_values={"expected": expected},
    )


def kurtosis_check(fading: FadingFamily, cfg: McConfig, expected: Optional[float] = None) -> CheckRecord:
    if expected is None:
        expected = kurtosis(fading)
    estimate = empirical_kurtosis(fading, cfg)
    return _two_sided_record(
        f"kurtosis[{fading.label}]", {"fading": fading.label, "trials": cfg.trials},
        estimate, expected,
    )


def _trace_check(nt: int, nr: int, fading: FadingFamily, cfg: McConfig) -> CheckRecord:
    scenario = ChannelScenario(
        snr_density=1.0, coherence_time=1.0, coherence_bandwidth=2.0,
        nt=nt, nr=nr, fading=fading,
    )
    estimate = trace_identity_check(scenario, cfg)
    expected = trace_identity_expected(nt, nr, kurtosis(fading))
    return _two_sided_record(
        f"trace_identity[{nt}x{nr}:{fading.label}]",
        {"nt": nt, "nr": nr, "fading": fading.label, "trials": cfg.trials},
        estimate, expected,
    )


def _deterministic_record(name, params, value: float, limit: float) -> CheckRecord:
    return CheckRecord(
        check=name, params=params, passed=value <= limit,
        estimate=value, bound_values={"limit": limit},
    )


def _channel_identity_checks(cfg: McConfig):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.base_seed, _TAG_CHANNEL)))
    records = []

    k, cols = 64, 8
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x *= math.sqrt(k / np.sum(np.abs(x) ** 2))
    pilot = PilotCirculant(k_rows=k, cols=cols, base_signal=x)
    formula, _ = circulant_eigenvalues(pilot)
    dense = np.linalg.eigvalsh(pilot.folded_gram()).real
    rel = np.max(np.abs(np.sort(formula) - np.sort(dense))) / np.max(dense)
    records.append(_deterministic_record(
        "circulant_spectrum", {"k": k, "cols": cols}, float(rel), 1e-9))

    trace_gap = abs(float(np.trace(pilot.gram()).real) / (cols * k) - 1.0)
    records.append(_deterministic_record(
        "pilot_gram_trace", {"k": k, "cols": cols}, trace_gap, 1e-12))

    phi = block_idft_matrix(8, 4)
    unitarity = float(np.max(np.abs(phi @ phi.conj().T - np.eye(32))))
    records.append(_deterministic_record(
        "idft_unitarity", {"l_symbols": 8, "m_bins": 4}, unitarity, 1e-12))

    m_bins, l_symbols = 4, 8
    k_fb = m_bins * l_symbols
    taps = (rng.standard_normal(m_bins) + 1j * rng.standard_normal(m_bins)) / math.sqrt(2 * m_bins)
    channel = DiscreteChannel(
        k_samples=k_fb, m_taps=m_bins,
        taps=taps.reshape(1, 1, m_bins), gains=np.full(m_bins, 1.0 / m_bins),
    )
    symbols = (rng.standard_normal((m_bins, l_symbols))
               + 1j * rng.standard_normal((m_bins, l_symbols))) / math.sqrt(2.0)
    gap = filterbank_equivalence_check(
        FilterBankCodeword(m_bins=m_bins, l_symbols=l_symbols, symbols=symbols), channel)
    records.append(_deterministic_record(
        "filterbank_equivalence", {"m_bins": m_bins, "l_symbols": l_symbols}, gap, 1e-9))

    return records


def run_verification_suite(scenario: ChannelScenario, cfg: McConfig):
    """All Monte-Carlo and channel-identity checks for one scenario."""
    records = []

    fadings = [scenario.fading, FadingFamily.rice(1.0), FadingFamily.nakagami(2.0)]
    seen = set()
    for fading in fadings:
        if fading.label in seen:
            continue
        seen.add(fading.label)
        records.append(kurtosis_check(fading, cfg))

    rayleigh = FadingFamily.rayleigh()
    antenna_cases = [(scenario.nt, scenario.nr, scenario.fading), (1, 1, rayleigh),
                     (2, 2, rayleigh), (2, 1, rayleigh)]
    seen = set()
    for nt, nr, fading in antenna_cases:
        key = (nt, nr, fading.label)
        if key in seen:
            continue
        seen.add(key)
        records.append(_trace_check(nt, nr, fading, cfg))

    records.extend(_channel_identity_checks(cfg))

    bracket = bounds.optimal_occupancy(scenario)
    coherent = coherent_term_mc(scenario, bracket.occupancy_optimal_exact, cfg)
    quad = coherent_quadratic_lower(scenario, bracket.occupancy_optimal_exact)
    z = (coherent.mean - quad) / coherent.std_error if coherent.std_error > 0 else 0.0
    records.append(CheckRecord(
        check="coherent_expansion",
        params={"occupancy": bracket.occupancy_optimal_exact, "trials": cfg.trials},
        passed=coherent.mean >= quad - 4.0 * coherent.std_error,
        estimate=coherent.mean, std_error=coherent.std_error, z=z,
        bound_values={"quadratic_lower": quad},
    ))

    # Penalty sandwich runs at desk scale: one coherence block of K = 32
    # samples with an integer coherence length of 8, power set so rho*K = 1.
    desk = ChannelScenario(
        snr_density=float(scenario.nt), coherence_time=1.0, coherence_bandwidth=8.0,
        nt=scenario.nt, nr=scenario.nr, fading=rayleigh,
    )
    sandwich = penalty_sandwich(desk, occupancy=32.0, k_samples=32, cfg=cfg)
    margin_z = (sandwich.margin.mean / sandwich.margin.std_error
                if sandwich.margin.std_error > 0 else 0.0)
    upper_ok = sandwich.estimate.mean <= sandwich.upper_chain + 4.0 * sandwich.estimate.std_error
    records.append(CheckRecord(
        check="penalty_sandwich",
        params={"k_samples": 32, "nt": desk.nt, "nr": desk.nr, "trials": cfg.trials},
        passed=(sandwich.margin.mean >= -4.0 * sandwich.margin.std_error) and upper_ok,
        estimate=sandwich.estimate.mean, std_error=sandwich.estimate.std_error, z=margin_z,
        bound_values={
            "lower_chain": sandwich.lower_chain.mean,
            "upper_chain": sandwich.upper_chain,
        },
    ))

    sweep_scenario = scenario if scenario.fading.kind == "rayleigh" else replace(
        scenario, fading=rayleigh)
    grid = [bracket.occupancy_optimal_exact * factor for factor in (0.1, 1.0, 10.0)]
    for point in bound_sandwich_sweep(sweep_scenario, grid, cfg):
        records.append(CheckRecord(
            check=f"bound_sandwich[dB={point.occupancy:.6g}]",
            params={"occupancy": point.occupancy, "trials": cfg.trials},
            passed=point.pass_lower and point.pass_upper,
            estimate=point.mc_value, std_error=point.mc_std_error,
            bound_values={
                "rate_lower": point.rate_lower,
                "rate_upper": point.rate_upper,
                "upper_slack": point.upper_slack,
            },
        ))

    return records
