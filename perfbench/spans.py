"""Span tracing of widecap from outside the package, and its reduction.

:class:`Tracer` wraps public functions of the widecap modules, and the
``numpy.linalg`` and ``numpy.fft`` entry points, in every module namespace
where a caller looks them up: ``widecap.bounds.rate_lower_bound`` serves both
``cli`` (``bounds.rate_lower_bound``) and ``optimal_occupancy`` (a module
global), and ``widecap.mcverify.unit_fading_samples`` is the name ``mcverify``
imported from ``channel``.  Wrappers exist only between ``install`` and
``uninstall``; untraced operations run the original functions.

Each span records name, start, end, parent span and operation id, plus one
count (occupancy points, fading draws, matrices, elements) and one byte count.
Spans are held in flat in-memory columns, written out once at the end with
:meth:`Tracer.save`, and reduced to per-layer metrics by :func:`reduce_spans`.
"""

from __future__ import annotations

import functools
import math
from array import array
from time import perf_counter

import numpy as np

ROOT = "bench.op"

# Traced functions by module.  Every module namespace that binds one of these
# function objects gets the wrapper.
WIDECAP_TARGETS = {
    "scenario": ("parse_scenario",),
    "bounds": (
        "rate_lower_bound", "rate_upper_bound", "optimal_occupancy", "critical_bracket",
        "peak_gap", "rate_derivative_terms", "alpha_brackets", "epsilon_for_error_pct",
    ),
    "channel": (
        "unit_fading_samples", "circulant_eigenvalues", "block_idft_matrix",
        "filterbank_equivalence_check",
    ),
    "mcverify": (
        "run_verification_suite", "empirical_kurtosis", "trace_identity_check",
        "coherent_term_mc", "penalty_sandwich", "bound_sandwich_sweep",
    ),
    "cli": ("main",),
}
NUMPY_TARGETS = {
    "linalg": ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
               "qr", "slogdet", "solve", "svd"),
    "fft": ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn"),
}

KERNELS = ("bounds.rate_lower_bound", "bounds.rate_upper_bound")
SOLVER = "bounds.optimal_occupancy"
SOLVER_EVALS = ("bounds.rate_lower_bound", "bounds.rate_derivative_terms")
ALPHA = ("bounds.alpha_brackets", "bounds.epsilon_for_error_pct")
IDENTITIES = ("channel.circulant_eigenvalues", "channel.block_idft_matrix",
              "channel.filterbank_equivalence_check")
MC_CHECKS = {
    "mcverify.kurtosis_s": "mcverify.empirical_kurtosis",
    "mcverify.trace_s": "mcverify.trace_identity_check",
    "mcverify.coherent_s": "mcverify.coherent_term_mc",
    "mcverify.penalty_s": "mcverify.penalty_sandwich",
    "mcverify.sweep_s": "mcverify.bound_sandwich_sweep",
}

# Per-layer metrics of one traced operation, with units.
LAYER_UNITS = {
    "scenario.parse_s": "s",
    "bounds.kernel_calls": "count",
    "bounds.kernel_s": "s",
    "bounds.kernel_points": "count",
    "bounds.solver_s": "s",
    "bounds.solver_evals": "count",
    "bounds.alpha_s": "s",
    "channel.sample_s": "s",
    "channel.sample_draws": "count",
    "channel.identity_s": "s",
    **{name: "s" for name in MC_CHECKS},
    "mcverify.linalg_s": "s",
    "mcverify.linalg_calls": "count",
    "mcverify.linalg_matrices": "count",
    "mcverify.linalg_bytes_computed": "B",
    "mcverify.fft_s": "s",
    "mcverify.self_s": "s",
    "cli.self_s": "s",
}


def _no_count(args, kwargs, result):
    return 0, 0


def _occupancy_points(args, kwargs, result):
    occupancy = args[1] if len(args) > 1 else kwargs["occupancy"]
    return int(np.size(occupancy)), 0


def _fading_draws(args, kwargs, result):
    shape = args[2] if len(args) > 2 else kwargs["shape"]
    return math.prod(np.atleast_1d(shape).tolist()), 0


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(part) for part in value)
    return 0


def _linalg_matrices(args, kwargs, result):
    a = np.asarray(args[0])
    return math.prod(a.shape[:-2]), a.nbytes + _nbytes(result)


def _fft_elements(args, kwargs, result):
    a = np.asarray(args[0])
    return a.size, a.nbytes + _nbytes(result)


_COUNTERS = {
    "channel.unit_fading_samples": _fading_draws,
    **{name: _occupancy_points for name in KERNELS},
}


class Tracer:
    """Span recorder whose wrappers are installed only while tracing."""

    def __init__(self, widecap):
        self.names = [ROOT]
        self._name_ids = {ROOT: 0}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.op_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self.count_col = array("q")
        self.bytes_col = array("q")
        self._stack = [-1]
        self._op = -1
        self._patches = []  # (namespace object, attribute, original, wrapper)
        for module_name, functions in WIDECAP_TARGETS.items():
            module = getattr(widecap, module_name)
            for function in functions:
                self._patch_everywhere(widecap, getattr(module, function),
                                       f"{module_name}.{function}")
        for module_name, functions in NUMPY_TARGETS.items():
            module = getattr(np, module_name)
            counter = _linalg_matrices if module_name == "linalg" else _fft_elements
            for function in functions:
                original = getattr(module, function)
                wrapper = self._wrap(original, f"numpy.{module_name}.{function}", counter)
                self._patches.append((module, function, original, wrapper))

    def _patch_everywhere(self, widecap, original, name):
        wrapper = self._wrap(original, name, _COUNTERS.get(name, _no_count))
        for module in (widecap, widecap.scenario, widecap.bounds, widecap.channel,
                       widecap.mcverify, widecap.cli):
            for attribute, value in vars(module).items():
                if value is original:
                    self._patches.append((module, attribute, original, wrapper))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1])
        self.op_col.append(self._op)
        self.end_col.append(0.0)
        self.count_col.append(0)
        self.bytes_col.append(0)
        self._stack.append(index)
        self.start_col.append(perf_counter())
        return index

    def _close(self, index: int, end: float, count: int = 0, nbytes: int = 0):
        self.end_col[index] = end
        self._stack.pop()
        self.count_col[index] = count
        self.bytes_col[index] = nbytes

    def _wrap(self, original, name, counter):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index, perf_counter())
                raise
            end = perf_counter()
            tracer._close(index, end, *counter(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for namespace, attribute, _, wrapper in self._patches:
            setattr(namespace, attribute, wrapper)

    def uninstall(self):
        for namespace, attribute, original, _ in self._patches:
            setattr(namespace, attribute, original)

    def run_op(self, op_id: int, operation):
        """Run ``operation()`` traced under a root span; returns (result, seconds)."""
        self._op = op_id
        self.install()
        try:
            index = self._open(0)
            try:
                result = operation()
            finally:
                self._close(index, perf_counter())
        finally:
            self.uninstall()
            self._op = -1
        return result, self.end_col[index] - self.start_col[index]

    def columns(self) -> dict:
        return {
            "name": np.array(self.name_col, dtype=np.int32),
            "parent": np.array(self.parent_col, dtype=np.int64),
            "op": np.array(self.op_col, dtype=np.int64),
            "start": np.array(self.start_col, dtype=np.float64),
            "end": np.array(self.end_col, dtype=np.float64),
            "count": np.array(self.count_col, dtype=np.int64),
            "bytes": np.array(self.bytes_col, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.columns())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    children = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    return duration - children


def reduce_spans(names, columns: dict) -> dict:
    """Per-layer metrics for each traced operation: {op id: {metric: value}}."""
    name = columns["name"]
    parent = columns["parent"]
    has_parent = parent >= 0
    duration = columns["end"] - columns["start"]
    own = self_times(parent, duration)
    ops, op_index = np.unique(columns["op"], return_inverse=True)

    def is_named(*wanted):
        return np.isin(name, [names.index(w) for w in wanted if w in names])

    parent_is = {}

    def under(wanted):
        if wanted not in parent_is:
            parent_is[wanted] = has_parent & is_named(wanted)[np.maximum(parent, 0)]
        return parent_is[wanted]

    is_mc = np.array([n.startswith("mcverify.") for n in names])[name]
    is_numpy = np.array([n.startswith("numpy.") for n in names])[name]
    is_linalg = np.array([n.startswith("numpy.linalg.") for n in names])[name]
    # A span runs under mcverify when it or an ancestor is an mcverify span.
    under_mc = is_mc.copy()
    ancestor = parent.copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        under_mc[live] |= is_mc[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
    top_numpy = is_numpy & under_mc & ~(has_parent & is_numpy[np.maximum(parent, 0)])

    kernels = is_named(*KERNELS) & ~under(SOLVER)
    masks = {
        "scenario.parse_s": (is_named("scenario.parse_scenario"), duration),
        "bounds.kernel_calls": (kernels, None),
        "bounds.kernel_s": (kernels, duration),
        "bounds.kernel_points": (kernels, columns["count"]),
        "bounds.solver_s": (is_named(SOLVER), duration),
        "bounds.solver_evals": (is_named(*SOLVER_EVALS) & under(SOLVER), None),
        "bounds.alpha_s": (is_named(*ALPHA), duration),
        "channel.sample_s": (is_named("channel.unit_fading_samples"), duration),
        "channel.sample_draws": (is_named("channel.unit_fading_samples"), columns["count"]),
        "channel.identity_s": (is_named(*IDENTITIES), duration),
        "mcverify.linalg_s": (top_numpy & is_linalg, duration),
        "mcverify.linalg_calls": (top_numpy & is_linalg, None),
        "mcverify.linalg_matrices": (top_numpy & is_linalg, columns["count"]),
        "mcverify.linalg_bytes_computed": (top_numpy & is_linalg, columns["bytes"]),
        "mcverify.fft_s": (top_numpy & ~is_linalg, duration),
        "mcverify.self_s": (is_mc, own),
        "cli.self_s": (is_named("cli.main"), own),
    }
    for metric, check in MC_CHECKS.items():
        mask = is_named(check)
        if metric == "mcverify.coherent_s":
            # The sweep runs coherent_term_mc per point; that time is the sweep's.
            mask &= ~under(MC_CHECKS["mcverify.sweep_s"])
        masks[metric] = (mask, duration)
    totals = {}
    for metric, (mask, weights) in masks.items():
        values = np.ones(name.size) if weights is None else weights
        sums = np.bincount(op_index, weights=np.where(mask, values, 0), minlength=ops.size)
        totals[metric] = sums if LAYER_UNITS[metric] == "s" else sums.round().astype(int)
    return {int(op): {metric: totals[metric][i].item() for metric in LAYER_UNITS}
            for i, op in enumerate(ops)}


def root_check(columns: dict) -> float:
    """Largest |sum of self times - root duration| over the traced operations."""
    duration = columns["end"] - columns["start"]
    own = self_times(columns["parent"], duration)
    worst = 0.0
    for op in np.unique(columns["op"]).tolist():
        in_op = columns["op"] == op
        root = in_op & (columns["parent"] < 0)
        worst = max(worst, abs(float(own[in_op].sum() - duration[root].sum())))
    return worst
