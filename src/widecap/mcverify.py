"""Monte-Carlo oracles for the algebraic steps behind the rate bounds.

Each routine simulates one ingredient of the bound derivations and returns a
seeded, reproducible estimate: channel kurtosis, the fourth-moment trace
identity, the coherent log-det term against its quadratic expansion, and the
channel-uncertainty penalty term against its closed-form chain ends.
:func:`run_verification_suite` gates them (plus the deterministic channel
identities) into the records the CLI reports, all built by :func:`_record`, whose
one pass rule (:func:`_within`) is low - 4*SE <= value <= high + 4*SE + slack,
with a rounding floor of 4 ulps of the expected value on two-sided checks.

No Monte-Carlo log-det needs an eigendecomposition.  The penalty's
ln det(I + T) with T Hermitian Toeplitz is a Levinson-Durbin recursion
(:func:`toeplitz_logdet`); the coherent ln det(I + rho H H^H) is an
elimination (:func:`gram_logdet`) on the smaller of H H^H and H^H H
(:func:`small_gram`).  Both sum log1p of pivots minus one, so they keep full
relative accuracy at low SNR.  Every per-trial array keeps trials last, like
the (rows, n) chunk blocks of :func:`_draw` ((K, n) spectra, (cols, n) lags,
(Nr, Nt, n) channel blocks), so each ufunc runs along contiguous trials.

Three functions draw, each through :func:`_draw` into per-chunk blocks:
:func:`empirical_kurtosis`, :func:`_channel_draw` and :func:`penalty_sandwich`.
:func:`run_verification_suite` alone decides which draw gives each record,
and takes one channel draw per fading law.  Its Rayleigh draw of H has the
smallest shape that holds the scenario's Nr x Nt block and the fixed Nt x Nr
cases 1x1, 2x2 and 2x1 as leading sub-blocks.  It gives the three bound-sandwich
points, the coherent check on Rayleigh fading and every Rayleigh trace
identity: each chunk forms the scenario block's Gram once and eliminates it
once per occupancy, and each trace is the squared norm of its block's Gram.
On other fading one draw of the scenario's own law gives its coherent check
and its trace identity.  Each kurtosis law draws its own |h|^2, directly by
its exact law and with no phase (:func:`unit_fading_power`).  Each statistic
keeps the marginal law of its own independent draw, so every 4-SE gate holds;
only the records are correlated.

The penalty depends on the pilot only through its power spectrum
|FFT_K(x)|^2, so it draws that spectrum directly: normalized i.i.d.
exponentials, the exact law for a unit-power Gaussian pilot.  The Toeplitz
lags are its inverse DFT, taken by a blocked real product with a cosine and
sine table (:func:`_pilot_lags`), and the lower chain's psi is the smallest
entry of the same spectrum.  The lower chain draws its smallest tap power
directly.

Sampling is chunked with a fixed chunk size; every chunk draws from its own
seed derived from (base_seed, check tag, chunk start) into a block of its own,
which it reduces to a count, row means and the centred co-moments its caller
reads (:func:`_reduce`).  On Linux with two usable CPUs and enough chunks,
:func:`run_verification_suite` forks one worker that runs the same suite: in
every draw the worker reduces the odd chunks and this process the even ones,
and the two swap their chunks' rows over two pipes (:class:`_Split`).  Both
merge all rows in chunk-start order (:meth:`_Moments.merge`), so both hold
the same moments, and reports are byte-identical for any CPU count.  No
array has one entry per trial.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
import signal
import struct
import sys
import threading
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _usable_cpus, bounds
from .channel import (
    block_idft_matrix,
    circulant_eigenvalues,
    filterbank_equivalence_check,
    integer_coherence_length,
    pilot_gram,
    unit_fading_power,
    unit_fading_samples,
)
from .scenario import ChannelScenario, FadingFamily, kurtosis

__all__ = [
    "McConfig",
    "McEstimate",
    "CheckRecord",
    "empirical_kurtosis",
    "trace_identity_expected",
    "penalty_sandwich",
    "run_verification_suite",
]

_CHUNK = 4096
# Fewest chunks per draw for which run_verification_suite forks a worker.  The
# fork, its reaping and the copy-on-write faults that follow cost about 4 ms:
# the split breaks even at about 10 chunks in a process that has run a suite
# before and at about 13 in a fresh one (2-core x86 VM, Linux).
_SPLIT_CHUNKS = 12
_MIN_TRIALS = 10_000
# 6 to 9 minutes of the default suite (0.35 to 0.51 us per trial at 1e6 trials,
# split between two processes on a 2-core x86 VM).
_MAX_TRIALS = 10**9

# Stream tags keep the draws of different checks independent.
_TAG_KURTOSIS = 1
_TAG_TRACE = 2
_TAG_COHERENT = 3
_TAG_PENALTY = 4
_TAG_CHANNEL = 6


@dataclass(frozen=True)
class McConfig:
    """Trial budget (10 000 to 10**9) and non-negative base seed for the Monte-Carlo checks."""

    trials: int
    base_seed: int = 0

    def __post_init__(self):
        if self.trials < _MIN_TRIALS:
            raise ValueError(f"need at least {_MIN_TRIALS} trials")
        if self.trials > _MAX_TRIALS:
            raise ValueError(f"need at most {_MAX_TRIALS} trials")
        if self.base_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with the standard error of the mean."""

    mean: float
    std_error: float


def _entropy_component(value) -> int:
    """Stable integer encoding of a stream-tag component for SeedSequence."""
    if isinstance(value, str):
        return zlib.crc32(value.encode())
    if isinstance(value, float):
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    return int(value)


@functools.cache
def _keep_freed_chunk_memory():
    """Fix glibc's malloc thresholds at 4 MB (mmap) and 8 MB (trim), once; other libcs keep theirs.

    glibc raises both thresholds only as far as the largest block freed so
    far.  Each chunk frees 1 to 3 MB of temporaries, which the heap would then
    hand back to the OS and fault in again in the next chunk: about 460 minor
    faults per 4096-trial penalty chunk, and a third more penalty time (2x2,
    2-core x86 VM, glibc 2.36).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _reduce(block: np.ndarray, pairs: tuple, mean, residual, comoment):
    """Write a (rows, n) block's row means, residuals and co-moments about the means; centres it.

    The residual of a row is its sum of x - mean, which rounding of the mean
    leaves near 0 but not at 0.  ``comoment[k]`` is the sum of
    (x_i - mean_i)(x_j - mean_j) for the k-th pair (i, j) of ``pairs``, whose
    first ``rows`` pairs are the (i, i).  A row's mean and sum of squared
    deviations are those of numpy's two-pass ``var``, bit for bit.  No
    product runs in BLAS.
    """
    # Ufuncs called with out=, and a scalar subtract per row: each call costs
    # about 1 us at 4096 trials, against 2 to 7 us for the operator forms.
    rows, n = block.shape
    np.add.reduce(block, axis=1, out=mean)
    mean /= n
    for row, pivot in zip(block, mean.tolist()):
        np.subtract(row, pivot, out=row)
    np.add.reduce(block, axis=1, out=residual)
    products = np.empty((len(pairs), n))
    np.square(block, out=products[:rows])
    for k, (i, j) in enumerate(pairs[rows:], rows):
        np.multiply(block[i], block[j], out=products[k])
    np.add.reduce(products, axis=1, out=comoment)


@dataclass(frozen=True)
class _Moments:
    """Count, row means and centred co-moments of a (rows, count) block of trials.

    ``comoment[k]`` is the sum over trials of (x_i - mean_i)(x_j - mean_j)
    for the k-th pair (i, j) of ``pairs``, which begins with each (i, i).
    """

    count: int
    mean: np.ndarray
    comoment: np.ndarray
    pairs: tuple

    @classmethod
    def merge(cls, counts, means, residuals, comoments, pairs: tuple) -> "_Moments":
        """The moments of all parts' trials from each part's count, means, residuals, co-moments.

        The k-part form of the pairwise update of Chan, Golub & LeVeque (1979)
        for co-moments (Pebay, SAND2008-6212).  Each part moves to the merged
        mean m: with t = mean - m and S its residual, its co-moments about m
        are C_ij + t_i S_j + t_j S_i + n t_i t_j, and the parts' sum over the
        first axis is the merged C.  In exact arithmetic, with zero residuals,
        this is the pairwise update C_a + C_b + (n_a n_b / n) d_i d_j,
        d = mean_b - mean_a, applied part by part.  The residuals keep a row
        whose |mean| is 1e8 times its SD to rounding.  m is the count-weighted
        mean of the parts' means, taken relative to the first part's, so one
        part keeps its mean and co-moments bit for bit.
        """
        counts = np.asarray(counts, dtype=float)[:, None]
        total = counts.sum()
        mean = means[0] + (counts * (means - means[0])).sum(axis=0) / total
        t = means - mean
        i, j = np.array(pairs).T
        comoment = (comoments + t[:, i] * residuals[:, j] + t[:, j] * residuals[:, i]
                    + counts * t[:, i] * t[:, j]).sum(axis=0)
        return cls(int(total), mean, comoment, pairs)


class _Split:
    """One side of a suite that this process shares with one forked worker.

    Each draw's chunks alternate between the two sides: the caller (parity
    0) reduces the even ones and the worker (parity 1) the odd ones.  The
    sides then swap their chunks' rows of moments over two pipes
    (:meth:`share`), so both hold every row, merge them alike and take the
    same path through the rest of the suite.
    """

    def __init__(self, parity: int, receive: int, send: int, worker: Optional[int] = None):
        self.parity = parity
        self._reader = open(receive, "rb")
        self._send = send
        self._worker = worker  # the worker's pid, on the caller's side until it is reaped

    def share(self, table: np.ndarray, reduce_chunk) -> None:
        """Call ``reduce_chunk(k)`` for this side's rows k of ``table``; take the other side's.

        Each side stops at its first failing chunk, and a worker's failure
        goes to the caller, pickled, in place of its rows.  The caller raises
        the exception of the earliest failing chunk of either side, as the
        serial loop would.  The worker sends before it reads and the caller
        reads before it sends, so the swap cannot deadlock on a full pipe.
        """
        failure = None
        for k in range(self.parity, len(table), 2):
            try:
                reduce_chunk(k)
            except Exception as error:
                failure = k, error
                break
        mine, theirs = table[self.parity::2], table[1 - self.parity::2]
        if self.parity:
            self._write(failure or (None, mine))
            if failure:
                raise failure[1]
            theirs[...] = self._read()[1]
            return
        k, sent = self._read()
        if k is not None and (failure is None or k < failure[0]):
            raise sent
        if failure:
            raise failure[1]
        theirs[...] = sent
        self._write((None, mine))

    def _write(self, message) -> None:
        view = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        try:
            while view:
                view = view[os.write(self._send, view):]
        except BrokenPipeError as error:
            self._stopped(error)

    def _read(self):
        try:
            return pickle.load(self._reader)
        except (EOFError, pickle.UnpicklingError) as error:
            self._stopped(error)

    def _stopped(self, error: Exception):
        """Raise ``error``, from a pipe the other side has closed; on the caller's
        side, an OSError naming the worker's exit code instead, once it is reaped."""
        if self._worker is None:
            raise error
        code = os.waitstatus_to_exitcode(os.waitpid(self._worker, 0)[1])
        self._worker = None
        raise OSError(f"verify worker stopped with exit code {code}") from None

    def close(self) -> None:
        """Close the pipes; on the caller's side, kill and reap the worker unless it is reaped."""
        if self._worker is not None:
            os.kill(self._worker, signal.SIGKILL)
            os.waitpid(self._worker, 0)
            self._worker = None
        self._reader.close()
        os.close(self._send)


@dataclass(frozen=True)
class _Shared(McConfig):
    """The config of a suite whose draws share their chunks with the other side of ``split``."""

    split: Optional[_Split] = None


def _draw(cfg: McConfig, tag, rows: int, fill, cross=()) -> _Moments:
    """The moments of a (rows, trials) block that ``fill(rng, n, out)`` writes one chunk at a time.

    Each chunk draws from its own generator, seeded by (base_seed, *tag,
    chunk start), into a (rows, n) block of its own, and reduces it
    (:func:`_reduce`, with the co-moment pairs ``cross`` besides each row's
    own) into its row of a table of per-chunk moments.  The chunks run here
    in order, or, under a :class:`_Shared` config, split with the other
    process (:meth:`_Split.share`).  The rows merge in chunk-start order, so
    the result does not depend on which process reduced which chunk.  Memory
    grows by 8 bytes per row, pair and 4096-trial chunk, not per trial.  The
    only place that draws chunks or builds :class:`_Moments`.
    """
    _keep_freed_chunk_memory()
    entropy = tag if isinstance(tag, tuple) else (tag,)
    entropy = tuple(_entropy_component(part) for part in entropy)
    pairs = tuple((i, i) for i in range(rows)) + tuple(cross)
    chunks = -(-cfg.trials // _CHUNK)
    # Per chunk: its count, row means, row residuals and co-moments.
    table = np.empty((chunks, 1 + 2 * rows + len(pairs)))
    counts, means = table[:, 0], table[:, 1:rows + 1]
    residuals, comoments = table[:, rows + 1:2 * rows + 1], table[:, 2 * rows + 1:]

    def reduce_chunk(k):
        start = k * _CHUNK
        n = min(_CHUNK, cfg.trials - start)
        # default_rng's own generator, without its dispatch (10 us a chunk)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((cfg.base_seed, *entropy, start))))
        block = np.empty((rows, n))
        fill(rng, n, block)
        counts[k] = n
        _reduce(block, pairs, means[k], residuals[k], comoments[k])

    if isinstance(cfg, _Shared):
        cfg.split.share(table, reduce_chunk)
    else:
        for k in range(chunks):
            reduce_chunk(k)
    return _Moments.merge(counts, means, residuals, comoments, pairs)


def _estimate(moments: _Moments, weights: dict) -> McEstimate:
    """Mean and SE of the mean of the per-trial sum_i w_i x_i, for ``weights`` {row i: w_i}.

    The variance is sum_ij w_i w_j C_ij / (n - 1) from the merged co-moments,
    which must hold every pair of the weighted rows; a sum that rounding puts
    below 0 reads as 0.
    """
    n = moments.count
    mean = sum(w * float(moments.mean[i]) for i, w in weights.items())
    var = 0.0
    for (i, j), comoment in zip(moments.pairs, moments.comoment):
        if i in weights and j in weights:
            var += (1.0 if i == j else 2.0) * weights[i] * weights[j] * float(comoment)
    var = 0.0 if var <= 0.0 else var  # nan stays
    sd = math.sqrt(var / (n - 1)) if n > 1 else 0.0
    return McEstimate(mean=mean, std_error=sd / math.sqrt(n))


def _kurtosis(moments: _Moments) -> McEstimate:
    """Kurtosis a/b^2, a = mean(x^2) and b = mean(x), from the moments of the rows (x, x^2).

    The standard error comes from the first-order (delta-method)
    linearization of the ratio: the SE of the mean of the influence
    (x^2 - a)/b^2 - 2a(x - b)/b^3, a combination of the two rows that needs
    their cross co-moment.  A deterministic input yields zero error.
    """
    b, a = moments.mean[:2].tolist()
    influence = _estimate(moments, {0: -2.0 * a / b**3, 1: 1.0 / (b * b)})
    return McEstimate(mean=a / (b * b), std_error=influence.std_error)


def empirical_kurtosis(fading: FadingFamily, cfg: McConfig) -> McEstimate:
    """Estimate E|h|^4 / (E|h|^2)^2 over i.i.d. draws from the fading law.

    Each chunk draws |h|^2 by its exact law (:func:`unit_fading_power`):
    Exp(1), Gamma(m, 1/m) for Nakagami-m, and for Rice two real normals and
    no phase, which the circular scatter leaves out of |h|^2.  Raises
    ValueError where the draws' mean, cubed, underflows to 0, as for Nakagami
    m of about 1e-7 and below, whose draws are nearly all 0 in float64.
    """
    def fill(rng, n, out):
        out[0] = unit_fading_power(rng, fading, n)
        np.square(out[0], out=out[1])

    tag = (_TAG_KURTOSIS, fading.kind, float(fading.param))
    moments = _draw(cfg, tag, 2, fill, cross=[(0, 1)])
    try:
        return _kurtosis(moments)
    except ZeroDivisionError:
        raise ValueError(f"kurtosis[{fading.label}]: the |h|^2 draws underflow float64 "
                         "(their mean, cubed, is 0), so the estimate is undefined") from None


def trace_identity_expected(nt: int, nr: int, kappa: float) -> float:
    """E[tr((H H^H)^2)] for an Nr x Nt block of i.i.d. zero-mean unit-power entries."""
    return nt * nr * (kappa - 2.0 + nt + nr)


def _gram_trace(gram: np.ndarray) -> np.ndarray:
    """Per-trial tr((H H^H)^2), the squared Frobenius norm of either Gram (:func:`small_gram`)."""
    return np.sum(np.abs(gram) ** 2, axis=(0, 1))


def toeplitz_logdet(lags: np.ndarray) -> np.ndarray:
    """Per-trial ln det(I + T) for Hermitian Toeplitz T with first columns ``lags``.

    ``lags`` is (size, n), trials last: T[a, b] = lags[a - b] for a >= b, with
    a real lag-0 row.  A Levinson-Durbin recursion carries the forward
    predictor and d_k = E_k - 1, the k-th prediction-error power minus one:
    d_k = d_(k-1) - (1 + d_(k-1)) |kappa_k|^2, and the log-det is
    sum log1p(d_k), which keeps full relative accuracy when T is tiny against I.
    The predictor's row 0 is 1 throughout, so step k's inner product is lags[k]
    plus rows 1..k-1, the update touches rows 1..k-1, and row k is kappa_k.
    """
    size, n = lags.shape
    d = lags[0].real.copy()
    total = np.log1p(d)
    predictor = np.empty((size, n), dtype=complex)
    work = np.empty((size, n), dtype=complex)
    for k in range(1, size):
        kappa = np.multiply(predictor[1:k], lags[k - 1:0:-1], out=work[:k - 1]).sum(axis=0)
        kappa += lags[k]
        error = 1.0 + d
        gain = -1.0 / error  # a real factor on each part: no complex division
        kappa.real *= gain
        kappa.imag *= gain
        update = np.conjugate(predictor[k - 1:0:-1], out=work[:k - 1])
        update *= kappa
        predictor[1:k] += update
        predictor[k] = kappa
        d = d - error * (kappa.real**2 + kappa.imag**2)
        total += np.log1p(d)
    return total


def small_gram(blocks: np.ndarray) -> np.ndarray:
    """The smaller of H H^H and H^H H for blocks H of shape (rows, cols, n), trials last.

    Both have the same nonzero spectrum, so tr((H H^H)^2) and
    ln det(I + rho H H^H) can be taken from either.  Each lower-triangle
    column sums elementwise products over the longer side, and the upper
    triangle is its conjugate (at 8x8, 3.9 ms per 4096 blocks against 16 ms
    for a batched ``@`` on trials-first blocks; 2-core x86 VM, numpy 2.4).
    """
    a = blocks if blocks.shape[0] <= blocks.shape[1] else blocks.swapaxes(0, 1).conj()
    short, long = a.shape[:2]
    conj = a.conj()
    gram = np.empty((short, short, a.shape[2]), dtype=complex)
    for j in range(short):
        column = gram[j:, j]
        np.multiply(a[j:, 0], conj[j, 0], out=column)
        for k in range(1, long):
            column += a[j:, k] * conj[j, k]
        np.conjugate(column[1:], out=gram[j, j + 1:])
    return gram


def gram_logdet(m: np.ndarray) -> np.ndarray:
    """Per-trial ln det(I + M) for Hermitian PSD M (s, s, n); overwrites its lower triangle.

    Each pivot p adds log1p(p) and removes col col^H / (1 + p) from the trailing block.
    """
    total = np.zeros(m.shape[2])
    for p in range(m.shape[0]):
        pivot = m[p, p].real
        total += np.log1p(pivot)
        col = m[p + 1:, p]
        scaled = col.conj() / (1.0 + pivot)
        for j in range(p + 1, m.shape[0]):
            m[j:, j] -= col[j - p - 1:] * scaled[j - p - 1]
    return total


def _channel_draw(scenario: ChannelScenario, occupancies: list, cfg: McConfig, tag, blocks=()):
    """Coherent-term estimates per occupancy and trace identities, all from one draw of H.

    H is drawn from the scenario's law at the smallest shape that holds the
    scenario's Nr x Nt block and each (nt', nr') in ``blocks`` as leading
    sub-blocks.  Each chunk forms the scenario block's smaller Gram once;
    :func:`gram_logdet` runs on it once per occupancy.  Returns the estimates
    per occupancy and {(nt', nr'): E[tr((H H^H)^2)] estimate} for the
    scenario's block and each of ``blocks``, read from H[:nr', :nt'], each
    trace the squared norm of its block's Gram.
    """
    bounds._check_occupancy(occupancies)
    nt, nr = scenario.nt, scenario.nr
    traced = list(dict.fromkeys([(nt, nr), *blocks]))
    shape = (max(r for _, r in traced), max(t for t, _ in traced))

    def fill(rng, n, out):
        h = unit_fading_samples(rng, scenario.fading, (*shape, n))
        gram = small_gram(h[:nr, :nt])
        for row, x in zip(out, occupancies):
            row[:] = x * gram_logdet(scenario.snr_density / (x * nt) * gram)
        for row, (t, r) in zip(out[len(occupancies):], traced):
            row[:] = _gram_trace(gram if (t, r) == (nt, nr) else small_gram(h[:r, :t]))

    rows = len(occupancies) + len(traced)
    moments = _draw(cfg, tag, rows, fill)
    estimates = [_estimate(moments, {row: 1.0}) for row in range(rows)]
    return estimates[:len(occupancies)], dict(zip(traced, estimates[len(occupancies):]))


def coherent_term_mc(scenario: ChannelScenario, occupancy: float, cfg: McConfig) -> McEstimate:
    """Estimate the coherent term delta*B * E[ln det(I + rho * H H^H)], rho = P/(dB * Nt * N0).

    Kept only for the benchmark's span tracer, which looks it up by name.
    """
    [estimate], _ = _channel_draw(scenario, [occupancy], cfg, _TAG_COHERENT)
    return estimate


def trace_identity_check(scenario: ChannelScenario, cfg: McConfig) -> McEstimate:
    """Estimate E[tr((H H^H)^2)] over per-subcarrier channel blocks.

    Kept only for the benchmark's span tracer, which looks it up by name.
    """
    tag = (_TAG_TRACE, scenario.nt, scenario.nr, scenario.fading.kind)
    _, traces = _channel_draw(scenario, [], cfg, tag)
    return traces[(scenario.nt, scenario.nr)]


def _min_tap_power(rng: np.random.Generator, n: int, m: int, count: int) -> np.ndarray:
    """n draws of the smallest |tap|^2 among ``count`` i.i.d. Rayleigh taps of power 1/m.

    m*|tap|^2 is Exp(1), and the minimum of ``count`` i.i.d. Exp(1) is
    Exp(1)/count, so one exponential per draw replaces ``count`` complex normals.
    """
    return rng.standard_exponential(n) / (m * count)


def _pilot_power(rng: np.random.Generator, n: int, k_samples: int):
    """(K, n) Exp(1) draws and the per-trial scale that makes them power spectra |FFT_K(x)|^2.

    The DFT of i.i.d. circular Gaussians is i.i.d. circular Gaussian, so the
    |X_k|^2 are i.i.d. exponential, and a unit-power pilot x fixes their sum at
    K^2 (Parseval): normalized, they are a flat Dirichlet (Devroye, *Non-Uniform
    Random Variate Generation*, ch. V).  The spectra are scale * power with
    scale = K^2 / sum, applied per trial after reductions and products.
    """
    power = rng.standard_exponential((k_samples, n))
    return power, k_samples * k_samples / np.sum(power, axis=0)


def _lag_table(k_samples: int, cols: int, scale: float) -> np.ndarray:
    """K x 2*cols table that maps power spectra P to ``scale`` * ifft(P) at lags l mod K, l < cols.

    ifft(P)[l] = sum_k P[k] e^(2 pi i k l/K) / K, so the columns hold the
    cosines and sines of each lag, interleaved as its real and imaginary parts.
    """
    phase = (2.0 * np.pi / k_samples) * (np.outer(np.arange(k_samples), np.arange(cols)) % k_samples)
    table = np.stack([np.cos(phase), np.sin(phase)], axis=-1).reshape(k_samples, 2 * cols)
    table *= scale / k_samples
    return table


# OpenBLAS runs dgemms of at most 65536 * GEMM_MULTITHREAD_THRESHOLD (4) multiply-adds serially.
_SERIAL_GEMM = 65536 * 4


def _pilot_lags(power: np.ndarray, scale: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(cols, n) complex lags of the spectra scale * power, power (K, n), by :func:`_lag_table`.

    ``table.T @ power`` runs in column blocks of at most ``_SERIAL_GEMM``
    multiply-adds (512 trials at K = 32, cols = 8), which OpenBLAS keeps on
    the calling thread; a full-width product starts OpenBLAS's own thread,
    which competes for the two CPUs with the other process of a split suite
    (with two threads of chunks: process CPU / wall time 0.98-1.00 blocked,
    1.95-1.98 full-width; OpenBLAS 0.3.31 on 2 CPUs).
    """
    n = power.shape[1]
    parts = np.empty((table.shape[1], n))
    step = max(1, _SERIAL_GEMM // table.size)
    for start in range(0, n, step):
        np.matmul(table.T, power[:, start:start + step], out=parts[:, start:start + step])
    lags = np.empty((table.shape[1] // 2, n), dtype=complex)
    np.multiply(parts[0::2], scale, out=lags.real)
    np.multiply(parts[1::2], scale, out=lags.imag)
    return lags


def penalty_sandwich(scenario: ChannelScenario, occupancy: float, k_samples: int,
                     cfg: McConfig) -> CheckRecord:
    """The record of the channel-uncertainty penalty between its two chain ends.

    It passes when the paired margin penalty - lower chain is >= 0 and the
    penalty <= the upper chain, each within 4 of its own SEs (:func:`_record`);
    ``z`` is margin/SE, and ``bound_values`` holds both chain values.

    Per trial the penalty is (delta/Tc) * sum_v ln det(I + rho * Gram *
    Lambda_v) for a unit-power Gaussian pilot, with Lambda the uniform
    tap-gain profile.  The Gram depends on the pilot only through its power
    spectrum |FFT_K(x)|^2, which is drawn directly (:func:`_pilot_power`).
    I + (rho/m) * Gram is Hermitian Toeplitz with first column (rho/m) times
    the pilot's cyclic autocorrelation plus one at lag 0; the cols lags it
    needs are a real product of the spectra (:func:`_pilot_lags`), and
    :func:`toeplitz_logdet` gets the log-det by a Levinson-Durbin recursion
    once the lower chain is done and the spectra freed.  Neither the pilot nor
    the Gram is formed.  The upper chain is the deterministic trace/Jensen cap.

    The lower chain is the worst-eigenvalue form
    (dB*Nt*Nr/(Bc*Tc)) * ln(1 + P*Bc*Tc*g_min*psi/(dB*Nt*N0)).  g_min, the
    smallest power of the Nr*Nt*m taps, is one draw per trial
    (:func:`_min_tap_power`).  psi = min_k |FFT_K(x)|^2 / K
    is the smallest entry of the drawn power spectrum.  The Gram is the
    leading cols x cols principal submatrix of the K x K circulant Gram, whose
    eigenvalues are |FFT_K(x)|^2, so by Cauchy interlacing K * psi <=
    lambda_min(Gram) (Horn & Johnson, Thm 4.3.28); with more columns than K
    the Gram repeats columns, lambda_min is 0 and so is psi.  As
    ln det(I + c Gram) >= cols * ln(1 + c * lambda_min), the lower chain is
    then below the penalty in every trial with g_min <= 1 when Bc*Tc is the
    integer coherence length.  The paper's chain takes psi from the
    cols-point spectrum of the pilot folded modulo cols instead.  That psi is
    no bound: K * psi exceeded lambda_min for 53 of 2000 Gaussian pilots at
    K = 32, cols = 8, and 55 at cols = 12.  So the gated chain uses the
    K-point psi.
    """
    bounds._check_occupancy(occupancy)
    bounds._require_rayleigh(scenario, "penalty sandwich")
    l_c = integer_coherence_length(scenario.coherence_product)
    if k_samples % l_c != 0:
        raise ValueError("k_samples must be divisible by the integer coherence length")
    m = k_samples // l_c
    nt, nr = scenario.nt, scenario.nr
    cols = m * nt
    s, lc = scenario.snr_density, scenario.coherence_product
    rho = s / (occupancy * nt)
    prefactor = occupancy / k_samples  # delta/Tc with K = B*Tc
    chain_scale = occupancy * nt * nr / lc
    chain_arg = s * lc / (occupancy * nt)
    cap = float(bounds._penalty_cap(scenario, occupancy))
    table = _lag_table(k_samples, cols, rho / m)

    def fill(rng, n, out):
        power, scale = _pilot_power(rng, n, k_samples)
        # chain_arg * g_min * psi, for psi the smallest entry of power / K.
        weight = (chain_arg / k_samples) * _min_tap_power(rng, n, m, nr * nt * m) * scale
        psi = np.min(power, axis=0) if cols <= k_samples else np.zeros(n)
        out[1] = chain_scale * np.log1p(weight * psi)
        lags = _pilot_lags(power, scale, table)
        del power
        out[0] = prefactor * nr * toeplitz_logdet(lags)

    moments = _draw(cfg, _TAG_PENALTY, 2, fill, cross=[(0, 1)])
    return _record("penalty_sandwich",
                   {"k_samples": k_samples, "nt": nt, "nr": nr, "trials": cfg.trials},
                   _estimate(moments, {0: 1.0}), -math.inf, cap,
                   {"lower_chain": float(moments.mean[1]), "upper_chain": cap},
                   margin=_estimate(moments, {0: 1.0, 1: -1.0}))


@dataclass(frozen=True)
class CheckRecord:
    """One verification check in the machine-readable report, built by :func:`_record`."""

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


def _within(value: float, std_error: float, low: float, high: float, slack: float = 0.0) -> bool:
    """The pass rule of every check: low - tol <= value <= high + tol + slack.

    tol = 4*SE, except that a two-sided check (low = high, the expected value)
    takes at least 4 ulps of that value, its rounding floor: for a nearly
    deterministic law such as Nakagami m = 1e16, the rounding of
    mean(x^2)/mean(x)^2 alone exceeds 4*SE (it reached 2 ulps over 40
    seeds).  A one-sided check has an infinite end; a deterministic one has
    SE = 0 and compares exactly.  A value or 4*SE that is not finite
    measured nothing, and fails.
    """
    tol = 4.0 * std_error
    if not (math.isfinite(value) and math.isfinite(tol)):
        return False
    if low == high:
        tol = max(tol, 4.0 * math.ulp(low))
    return low - tol <= value <= high + tol + slack


def _record(check: str, params: dict, estimate, low: float, high: float, bound_values: dict,
            slack: float = 0.0, margin: Optional[McEstimate] = None) -> CheckRecord:
    """The one constructor of a :class:`CheckRecord`: ``estimate`` gated by :func:`_within`.

    An :class:`McEstimate` is gated within 4 of its SE; a float is a
    deterministic value, gated exactly and reported with std_error None.
    ``margin`` (the penalty's paired margin) is a second gate, >= 0 within 4
    of its own SE, and gives the record's z.  z is (value - low)/SE, 0.0 when
    SE is 0, on a gate whose two ends are equal or whose only finite end is
    low, and None on a two-ended gate and on a deterministic record.
    """
    mc = isinstance(estimate, McEstimate)
    estimate, std_error = (estimate.mean, estimate.std_error) if mc else (estimate, None)
    passed = _within(estimate, std_error or 0.0, low, high, slack)
    value, se = estimate, std_error
    if margin is not None:
        value, se, low, high = margin.mean, margin.std_error, 0.0, math.inf
        passed = _within(value, se, low, high) and passed
    z = None
    if se is not None and (low == high or math.isfinite(low) and high == math.inf):
        z = (value - low) / se if se > 0 else 0.0
    return CheckRecord(check, params, passed, estimate, std_error, z, bound_values)


def _sandwich_record(scenario: ChannelScenario, occupancy: float, coherent: McEstimate,
                     trials: int) -> CheckRecord:
    """The bound-sandwich record at one occupancy: R_LB <= coherent - penalty cap <= R_UB.

    The MC value pairs the simulated coherent term with the closed-form
    penalty cap, matching the construction of the lower bound.  The upper
    comparison allows, besides 4 standard errors, the dropped o(1/B)
    remainder of the upper bound (at most C_inf * SNR_delta^2 / 3).
    """
    mc_value = coherent.mean - float(bounds._penalty_cap(scenario, occupancy))
    rate_lower = float(bounds.rate_lower_bound(scenario, occupancy))
    rate_upper = float(bounds.rate_upper_bound(scenario, occupancy, 1.0))
    snr_dof = scenario.snr_density / occupancy
    slack = occupancy * scenario.nr * snr_dof**3 / 3.0
    return _record(f"bound_sandwich[dB={occupancy:.6g}]",
                   {"occupancy": occupancy, "trials": trials},
                   McEstimate(mc_value, coherent.std_error), rate_lower, rate_upper,
                   {"rate_lower": rate_lower, "rate_upper": rate_upper, "upper_slack": slack}, slack)


def bound_sandwich_sweep(scenario: ChannelScenario, grid, cfg: McConfig) -> list:
    """One :func:`_sandwich_record` per occupancy of a dB grid, all from one draw of H.

    Kept only for the benchmark's span tracer, which looks it up by name.
    """
    bounds._require_rayleigh(scenario, "bound sandwich")
    grid = [float(occupancy) for occupancy in grid]
    estimates, _ = _channel_draw(scenario, grid, cfg, _TAG_COHERENT)
    return [_sandwich_record(scenario, x, estimate, cfg.trials)
            for x, estimate in zip(grid, estimates)]


def _channel_identity_checks(cfg: McConfig):
    """Records of the deterministic channel identities; each passes when its value <= limit."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.base_seed, _TAG_CHANNEL)))
    checks = []

    k, cols = 64, 8
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x *= math.sqrt(k / np.sum(np.abs(x) ** 2))
    formula = circulant_eigenvalues(x, cols)
    dense = np.linalg.eigvalsh(pilot_gram(x.reshape(-1, cols).sum(axis=0), cols)).real
    rel = np.max(np.abs(np.sort(formula) - np.sort(dense))) / np.max(dense)
    checks.append(("circulant_spectrum", {"k": k, "cols": cols}, float(rel), 1e-9))

    trace_gap = abs(float(np.trace(pilot_gram(x, cols)).real) / (cols * k) - 1.0)
    checks.append(("pilot_gram_trace", {"k": k, "cols": cols}, trace_gap, 1e-12))

    phi = block_idft_matrix(8, 4)
    unitarity = float(np.max(np.abs(phi @ phi.conj().T - np.eye(32))))
    checks.append(("idft_unitarity", {"l_symbols": 8, "m_bins": 4}, unitarity, 1e-12))

    m_bins, l_symbols = 4, 8
    taps = (rng.standard_normal(m_bins) + 1j * rng.standard_normal(m_bins)) / math.sqrt(2 * m_bins)
    symbols = (rng.standard_normal((m_bins, l_symbols))
               + 1j * rng.standard_normal((m_bins, l_symbols))) / math.sqrt(2.0)
    gap = filterbank_equivalence_check(symbols, taps)
    checks.append(("filterbank_equivalence", {"m_bins": m_bins, "l_symbols": l_symbols}, gap, 1e-9))

    return [_record(check, params, value, -math.inf, limit, {"limit": limit})
            for check, params, value, limit in checks]


def run_verification_suite(scenario: ChannelScenario, cfg: McConfig):
    """All Monte-Carlo and channel-identity checks for one scenario, each built by :func:`_record`.

    On Linux, with two usable CPUs, no other Python thread running and at
    least ``_SPLIT_CHUNKS`` chunks per draw, the suite runs in this process
    and in one worker forked for it, each reducing half of every draw's
    chunks (:class:`_Split`); otherwise every chunk runs here.  The records
    are the same either way, and so is the exception of a failing chunk; a
    worker that stops early raises OSError.  The worker is killed and reaped
    before this returns or raises.
    """
    if (-(-cfg.trials // _CHUNK) < _SPLIT_CHUNKS or _usable_cpus() < 2
            or not sys.platform.startswith("linux") or threading.active_count() > 1):
        return _suite(scenario, cfg)
    to_worker, to_caller = os.pipe(), os.pipe()
    # Python 3.12 and later warn here (DeprecationWarning, hidden by default)
    # when OpenBLAS's thread is alive.  The worker has one thread all the
    # same: OpenBLAS's fork handler stops its pool first, and no other Python
    # thread runs.
    pid = os.fork()
    if pid == 0:
        # The worker runs the same suite and never returns from it: os._exit
        # leaves without flushing inherited buffers or running atexit hooks.
        code = 1
        try:
            os.close(to_worker[1])
            os.close(to_caller[0])
            split = _Split(1, to_worker[0], to_caller[1])
            _suite(scenario, _Shared(cfg.trials, cfg.base_seed, split))
            code = 0
        finally:
            os._exit(code)
    os.close(to_worker[0])
    os.close(to_caller[1])
    split = _Split(0, to_caller[0], to_worker[1], pid)
    try:
        return _suite(scenario, _Shared(cfg.trials, cfg.base_seed, split))
    finally:
        split.close()


def _suite(scenario: ChannelScenario, cfg: McConfig):
    """The records of :func:`run_verification_suite`, drawn under ``cfg``.

    The one place that decides which draw gives each estimate (see the module
    docstring): one Rayleigh draw, one draw of the scenario's own law on other
    fading, and one |h|^2 draw per kurtosis law.
    """
    rayleigh = FadingFamily.rayleigh()
    nt, nr = scenario.nt, scenario.nr
    fadings = dict.fromkeys([scenario.fading, rayleigh, FadingFamily.rice(1.0),
                             FadingFamily.nakagami(2.0)])
    fixed = [(1, 1), (2, 2), (2, 1)]
    antenna_cases = dict.fromkeys([(nt, nr, scenario.fading),
                                   *((t, r, rayleigh) for t, r in fixed)])

    optimum = bounds.optimal_occupancy(scenario).occupancy_optimal_exact
    grid = [optimum * f for f in (0.1, 1.0, 10.0)]
    # One Rayleigh draw holds the scenario's block and every fixed case as
    # leading sub-blocks: it gives the sweep, and every Rayleigh trace.
    swept = replace(scenario, fading=rayleigh)
    estimates, rayleigh_traces = _channel_draw(swept, grid, cfg, _TAG_COHERENT, fixed)
    sweep = [_sandwich_record(swept, x, estimate, cfg.trials)
             for x, estimate in zip(grid, estimates)]
    traces = {(t, r, rayleigh): trace for (t, r), trace in rayleigh_traces.items()}
    # On Rayleigh fading the coherent check at (dB)* is the sweep's middle
    # point; on other fading one draw of its own law gives it and its trace.
    if scenario.fading == rayleigh:
        coherent = estimates[1]
    else:
        [coherent], own = _channel_draw(scenario, [optimum], cfg, _TAG_COHERENT)
        traces[(nt, nr, scenario.fading)] = own[(nt, nr)]

    known = [(f"kurtosis[{f.label}]", {"fading": f.label, "trials": cfg.trials},
              empirical_kurtosis(f, cfg), kurtosis(f)) for f in fadings]
    known += [(f"trace_identity[{t}x{r}:{f.label}]",
               {"nt": t, "nr": r, "fading": f.label, "trials": cfg.trials},
               traces[t, r, f], trace_identity_expected(t, r, kurtosis(f)))
              for t, r, f in antenna_cases]
    # Two-sided: low = high = the known mean.
    records = [_record(check, params, estimate, mean, mean, {"expected": mean})
               for check, params, estimate, mean in known]
    records += _channel_identity_checks(cfg)

    quad = bounds._coherent_term(scenario, optimum)
    records.append(_record("coherent_expansion", {"occupancy": optimum, "trials": cfg.trials},
                           coherent, quad, math.inf, {"quadratic_lower": quad}))

    # Penalty sandwich runs at desk scale: one coherence block of K = 32
    # samples with an integer coherence length of 8, power set so rho*K = 1.
    desk = ChannelScenario(
        snr_density=float(scenario.nt), coherence_time=1.0, coherence_bandwidth=8.0,
        nt=scenario.nt, nr=scenario.nr, fading=rayleigh,
    )
    records.append(penalty_sandwich(desk, occupancy=32.0, k_samples=32, cfg=cfg))
    return records + sweep
