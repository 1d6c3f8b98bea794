"""One benchmark workload in a fresh interpreter.

Started by run.py, never by hand.  The worker imports widecap from the
checkout's ``src`` directory, writes the workload's inputs into its work
directory and prints ``ready <seconds> <calibration seconds>``: the set-up
time, from just before ``import widecap`` to the inputs being ready, and the
time of the calibration reference (calibrate.py) measured just after it.
Interpreter start and the numpy import come before that clock starts; they
are the same for every version of widecap and are the noisiest part of a
process start on a shared machine.  With ``--setup-only`` the worker stops
there.  Otherwise it runs one warm-up operation, whose output is the
reference that run.py checks, then timed operations, each followed by a
calibration, until ``--seconds`` have passed, and prints a JSON report as its
last line.

Every later operation's output must equal the reference bit for bit, since
the program is deterministic for fixed inputs.  With ``--trace 1`` untraced
and traced operations alternate until a few are traced; the traced ones give
the per-layer metrics and the difference of the two medians is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import spans
from workloads import ATLAS_ALPHA_CASES, ATLAS_HEAD, SIZES, build_inputs, scenario_text

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_OPS = 3
# A traced run alternates untraced and traced operations; after MAX_TRACED
# traced ones it runs untraced ones only, which bounds the spans held in memory.
MIN_TRACED = 2
MAX_TRACED = 3
# Stop adding operations past the minimum once this much time has gone, so a
# much slower version of widecap still ends well inside a run's time limit.
HARD_STOP_S = 100.0


def _import_widecap():
    sys.path.insert(0, str(SRC))
    import widecap
    import widecap.cli

    if Path(widecap.__file__).resolve().parent != SRC / "widecap":
        raise ImportError(f"widecap imported from {widecap.__file__}, not {SRC}")
    return widecap


class CliOperation:
    """One ``widecap.cli.main`` command writing its output to a file."""

    units = 1

    def __init__(self, widecap, inputs, workdir: Path):
        self.cli = widecap.cli
        scenario_path = workdir / "scenario.txt"
        scenario_path.write_text(scenario_text(inputs.scenario), encoding="utf-8")
        command, *options = inputs.argv
        self.argv = [command, "--scenario", str(scenario_path), *options, "--out"]
        self.reference = workdir / "reference.out"
        self.scratch = workdir / "operation.out"
        self._reference_digest = None

    def run(self, first: bool):
        path = self.reference if first else self.scratch
        rc = self.cli.main(self.argv + [str(path)])
        return rc, path

    def mismatches(self, result) -> list:
        rc, path = result
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self._reference_digest is None:
            self._reference_digest = digest
        return [int(rc != 0 or digest != self._reference_digest)]

    def latencies(self, result, seconds: float) -> list:
        return [seconds]

    def save_reference(self):
        pass  # the warm-up command already wrote reference.out


class AtlasOperation:
    """One pass of the library sweep over the seeded scenarios."""

    def __init__(self, widecap, inputs, workdir: Path):
        self.widecap = widecap
        self.texts = [scenario_text(fields) for fields in inputs.atlas_scenarios]
        self.factors = inputs.atlas_factors
        self.cases = ATLAS_ALPHA_CASES
        self.head = ATLAS_HEAD
        self.units = len(self.texts)
        self.path = workdir / "atlas_reference.npy"
        self._reference = None

    def run(self, first: bool):
        # Functions are looked up on their modules at call time, so the
        # tracer's wrappers are seen while installed.
        scenario, bounds = self.widecap.scenario, self.widecap.bounds
        head, points = self.head, self.factors.size
        rows = np.empty((self.units, head + 2 * points))
        times = np.empty(self.units)
        for i, text in enumerate(self.texts):
            start = perf_counter()
            sc = scenario.parse_scenario(text)
            cb = bounds.critical_bracket(sc)
            values = [
                cb.occupancy_low, cb.occupancy_low_exact, cb.occupancy_optimal,
                cb.occupancy_optimal_exact, cb.occupancy_high_exact, cb.occupancy_high,
                cb.peak_rate_lower, bounds.peak_gap(sc),
            ]
            for snr, p in self.cases:
                eps = bounds.epsilon_for_error_pct(p, snr)
                ab = bounds.alpha_brackets(sc, snr, eps)
                values += [eps, ab.alpha_max, ab.alpha_min, ab.alpha_plus, ab.alpha_minus]
            occupancy = cb.occupancy_optimal_exact * self.factors
            lower = bounds.rate_lower_bound(sc, occupancy)
            upper = bounds.rate_upper_bound(sc, occupancy)
            times[i] = perf_counter() - start
            rows[i, :head] = values
            rows[i, head:head + points] = lower
            rows[i, head + points:] = upper
        return rows, times

    def mismatches(self, result) -> list:
        rows = result[0]
        if self._reference is None:
            self._reference = rows
        differ = rows.view("u8") != self._reference.view("u8")
        return differ.any(axis=1).astype(int).tolist()

    def latencies(self, result, seconds: float) -> list:
        return result[1].tolist()

    def save_reference(self):
        if self._reference is not None:
            np.save(self.path, self._reference)


def _timed(operation, first: bool = False):
    start = perf_counter()
    result = operation.run(first)
    return result, perf_counter() - start


def _run_checked(operation, mismatch: list, run):
    """Call ``run()`` for (result, seconds) and count the output's mismatches.

    The result is None, and every unit counts as mismatched, if it raised.
    """
    start = perf_counter()
    try:
        result, seconds = run()
    except Exception as exc:  # an operation that raises is a failed operation
        if not any(mismatch):
            print(f"operation failed: {exc!r}", file=sys.stderr)
        for i in range(len(mismatch)):
            mismatch[i] += 1
        return None, perf_counter() - start
    for i, bad in enumerate(operation.mismatches(result)):
        mismatch[i] += bad
    return result, seconds


def _measure(operation, seconds: float, mismatch: list) -> dict:
    """Time operations, each between two calibrations, for ``seconds``.

    ``calibration_s`` holds, per operation, the mean of the calibrations just
    before and just after it.
    """
    op_seconds, latencies, calibration_s = [], [], []
    start = perf_counter()
    before = calibrate.measure()
    while (len(op_seconds) < MIN_OPS and perf_counter() - start < HARD_STOP_S) or (
        perf_counter() - start < seconds
    ):
        result, elapsed = _run_checked(operation, mismatch, lambda: _timed(operation))
        after = calibrate.measure()
        op_seconds.append(elapsed)
        latencies.append([elapsed] if result is None else operation.latencies(result, elapsed))
        calibration_s.append((before + after) / 2.0)
        before = after
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"op_seconds": op_seconds, "latencies": latencies, "calibration_s": calibration_s,
            "peak_rss_mb": rss_mb}


def _measure_traced(operation, widecap, seconds: float, mismatch: list, spans_path) -> dict:
    tracer = spans.Tracer(widecap)
    untraced, traced = [], []
    start = perf_counter()
    while (len(traced) < MIN_TRACED and perf_counter() - start < HARD_STOP_S) or (
        perf_counter() - start < seconds
    ):
        untraced.append(_run_checked(operation, mismatch, lambda: _timed(operation))[1])
        if len(traced) < MAX_TRACED:
            op_id = len(traced)
            traced.append(_run_checked(
                operation, mismatch, lambda: tracer.run_op(op_id, lambda: operation.run(False)))[1])
    tracer.save(spans_path)
    columns = tracer.columns()
    per_op = spans.reduce_spans(tracer.names, columns)
    layers = {}
    for name, unit in spans.LAYER_UNITS.items():
        values = [metrics[name] for metrics in per_op.values()]
        layers[name] = statistics.median(values) if unit == "s" else statistics.median_low(values)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {
        "op_seconds": untraced,
        "traced_seconds": traced,
        "layers": layers,
        "span_count": int(columns["name"].size),
        "self_time_gap_s": spans.root_check(columns),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    widecap = _import_widecap()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = build_inputs(args.workload, args.seed, SIZES[args.sizes])
    kind = AtlasOperation if args.workload == "atlas" else CliOperation
    operation = kind(widecap, inputs, workdir)
    setup_s = perf_counter() - start
    print(f"ready {setup_s!r} {calibrate.measure()!r}", flush=True)
    if args.setup_only:
        return 0

    mismatch = [0] * operation.units
    result, warmup_s = _run_checked(operation, mismatch, lambda: _timed(operation, True))
    warmup_failed = list(mismatch)
    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}.npz"
        report = _measure_traced(operation, widecap, args.seconds, mismatch, spans_path)
        passes = 1 + len(report["op_seconds"]) + len(report["traced_seconds"])
    else:
        report = _measure(operation, args.seconds, mismatch)
        passes = 1 + len(report["op_seconds"])
    operation.save_reference()
    report.update(reference=result is not None, warmup_s=warmup_s, warmup_failed=warmup_failed,
                  passes=passes, mismatch=mismatch)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
