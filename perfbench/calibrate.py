"""Machine-speed calibration: a fixed reference computation timed beside the program.

On a shared virtual machine the speed of a process drifts by a quarter or
more over seconds to minutes, for reasons outside the process (other tenants
of the host).  A fixed computation timed next to each
operation slows down with it, so the ratio of an operation's time to the
reference's time stays put while both drift.  The time metrics of run.py are
that ratio in seconds: measured seconds times ``REFERENCE_S`` over the
reference's measured seconds, i.e. the time the operation would take on a
machine where the reference takes exactly ``REFERENCE_S``.

The reference mixes the kinds of work widecap does (interpreted float loops
and ``repr``, lists of dicts and ``json``, scalar numpy calls, batched numpy
arithmetic and ``eigvalsh``, complex draws and FFTs, streaming through
memory) and uses only the standard library and numpy, so no change to
widecap can change it.  On a shared 2-vCPU virtual machine each part's time
rose and fell with the workloads' times.  It leaves out a matrix product big
enough for the BLAS to start its threads: there that part's time varied four
times as much as any workload's and followed none but ``verify``.  Besides
its 2 MB of fixed arrays it holds about 4 MB at its peak, far below every
workload's peak RSS.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

import numpy as np

# About the seconds one call of reference() took on the machine the benchmark
# was written on (2 vCPUs of a shared VM, Python 3.11, numpy 2.4), where it
# ranged from 0.03 s to 0.13 s.  Only a scale: any fixed value gives the same
# ratios between two commits.
REFERENCE_S = 0.05
REPEATS = 3

_VALUES = [1.0 + 0.37 * i for i in range(3000)]
_GRID = np.geomspace(1e-3, 1e3, 20_000)
_BATCH = np.linspace(0.5, 2.0, 4 * 4000).reshape(4000, 2, 2)
_HERMITIAN = _BATCH + np.swapaxes(_BATCH, 1, 2)
_STREAM = np.ones(250_000)


def reference() -> float:
    """The fixed computation; returns a number so that no step is skipped."""
    total = 0.0
    for _ in range(10):  # interpreted float arithmetic and math calls
        for v in _VALUES:
            total += math.log1p(v) * math.sqrt(v) / (1.0 + v * v)
    for i in range(3):  # lists of dicts, repr and json
        rows = [{"x": v, "y": repr(v / 3.0), "z": v * total} for v in _VALUES[i::3]]
        total += len(json.dumps(rows))
    for v in _VALUES:  # scalar numpy calls
        total += float(np.log1p(np.float64(v)) * np.exp(-np.float64(v) / 1e3))
    for _ in range(10):  # batched arithmetic and LAPACK
        total += float(np.sum(np.log1p(_GRID) / np.sqrt(_GRID + total)))
    for _ in range(6):
        total += float(np.linalg.eigvalsh(_HERMITIAN).sum())
    rng = np.random.default_rng(0)
    for _ in range(16):  # complex draws, FFTs and Gram matrices
        x = rng.standard_normal((8, 1024)) + 1j * rng.standard_normal((8, 1024))
        total += float(np.abs(np.fft.ifft(np.abs(np.fft.fft(x, axis=1)) ** 2, axis=1)).sum())
        blocks = x.reshape(-1, 2, 16)
        gram = blocks @ np.conj(np.swapaxes(blocks, 1, 2))
        total += float(np.linalg.eigvalsh(gram).sum())
    for _ in range(8):  # streaming through memory; an even count of sign flips
        np.negative(_STREAM, out=_STREAM)  # leaves the array as it was
        total += float(_STREAM.sum())
    return total


def measure(repeats: int = REPEATS) -> float:
    """Median seconds of ``repeats`` back-to-back calls of reference()."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(calibration_s: float) -> float:
    """Factor that turns seconds measured beside ``calibration_s`` into reference seconds."""
    return REFERENCE_S / calibration_s
