"""Benchmark of widecap: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plane_csv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each run starts fresh worker interpreters (worker.py): several that only set
up, for ``setup_s`` (importing widecap and generating the inputs), then one
that sets up, runs a warm-up operation and measures operations for
``--seconds``.  This process then checks the warm-up
output against an independent oracle (checks.py) and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, their times in reference seconds (calibrate.py),
and the per-layer metrics of a traced run with ``--trace 1``.  The line
before it holds provenance and run details.

``--workload all`` runs every workload in turn, prints a table of the metrics
with their units, and exits 1 if any output check failed.  A single workload
reports failed checks in its result line and exits 0.  The benchmark exits 2
without a result when the checkout has no ``src/widecap``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 8
# Every run must end within 180 s; workers get what is left of this budget.
RUN_BUDGET_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_p99_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics that are not sums over spans, after spans.LAYER_UNITS.
EXTRA_LAYER_UNITS = {
    "bounds.solver_residual_max": "1",
    "bounds.max_err_cinf": "1",
    "cli.rows": "count",
    "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _start_worker(arguments: list, deadline: float):
    """Start worker.py; returns (process, set-up seconds, calibration seconds)."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([process.stdout], [], [], max(deadline - perf_counter(), 0.0))
    words = (process.stdout.readline() if ready else "").split()
    if len(words) != 3 or words[0] != "ready":
        _stop(process)
        raise BenchmarkError(f"worker did not set up (exit {process.returncode})")
    return process, float(words[1]), float(words[2])


def _stop(process):
    process.kill()
    process.communicate()


def _finish_worker(process, deadline: float) -> str:
    try:
        out, _ = process.communicate(timeout=max(deadline - perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        _stop(process)
        raise BenchmarkError("worker ran past the time budget") from None
    if process.returncode != 0:
        raise BenchmarkError(f"worker exited with {process.returncode}")
    return out


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def _numpy_provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _verdict(inputs, workdir: Path):
    import checks
    import numpy as np

    if inputs.workload == "atlas":
        return checks.check_atlas(inputs, np.load(workdir / "atlas_reference.npy"))
    if inputs.workload == "verify":
        return checks.check_verify(inputs, workdir / "reference.out")
    return checks.check_sweep(inputs, workdir / "reference.out")


def tail_latency(latencies: list, scales: list) -> float:
    """99th percentile over units of each unit's median latency across operations.

    Each latency is first multiplied by its operation's scale, as the
    operation's time is.  An atlas pass times its 4 000 scenarios one by one;
    the median over passes takes out a scenario that a short stall of the
    machine slowed in one pass, so the p99 (forty scenarios beyond it) is that
    of the scenarios' own cost.  A CLI operation is a single unit, so there
    this is the median command time.  Operations that raised, and so timed
    fewer units, are left out.
    """
    import numpy as np

    width = max(map(len, latencies))
    rows = np.array([np.asarray(units) * scale for units, scale in zip(latencies, scales)
                     if len(units) == width])
    return float(np.quantile(np.median(rows, axis=0), 0.99))


def tally(verdict, report: dict):
    """(attempted, failed) units of work over all operations of a run.

    A unit (a command output, or one atlas scenario) fails in every operation
    when its reference output failed a check or its warm-up failed, and
    otherwise in each operation whose output differed from the reference.
    """
    passes = report.get("passes", 1)
    warmup_failed = report.get("warmup_failed", verdict.bad)
    mismatch = report.get("mismatch", [0] * len(verdict.bad))
    failed = sum(passes if bad or warm else count
                 for bad, warm, count in zip(verdict.bad, warmup_failed, mismatch))
    return passes * len(verdict.bad), failed


def run_workload(workload: str, seed: int, seconds: float, trace: int, sizes: str = "full") -> dict:
    """Measure and check one workload; returns the result and its details."""
    deadline = perf_counter() + RUN_BUDGET_S
    prov = provenance(seed)
    workdir = OUT / f"work-{os.getpid()}-{workload}"
    common = ["--workload", workload, "--seed", str(seed), "--sizes", sizes]
    try:
        setups, setup_calibrations = [], []
        for probe in range(SETUP_PROBES):
            process, setup, calibration = _start_worker(
                [*common, "--workdir", str(workdir / f"probe{probe}"), "--setup-only"], deadline)
            _finish_worker(process, deadline)
            setups.append(setup)
            setup_calibrations.append(calibration)
        process, setup, calibration = _start_worker(
            [*common, "--workdir", str(workdir / "main"), "--seconds", str(seconds),
             "--trace", str(trace)], deadline)
        setups.append(setup)
        setup_calibrations.append(calibration)
        report = json.loads(_finish_worker(process, deadline).splitlines()[-1])
        # Heavy modules are imported only now: a worker's peak RSS counts the
        # peak of the process that started it, which must stay below its own.
        import calibrate
        import checks
        from workloads import build_inputs

        inputs = build_inputs(workload, seed, SIZES[sizes])
        if report["reference"]:
            verdict = _verdict(inputs, workdir / "main")
        else:
            units = len(inputs.atlas_scenarios) if workload == "atlas" else 1
            verdict = checks.Verdict(bad=[True] * units, problems=["warm-up raised"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(verdict, report)

    if trace:
        metrics = dict(report["layers"])
        metrics["bounds.solver_residual_max"] = verdict.residual_max
        metrics["bounds.max_err_cinf"] = verdict.max_err_cinf
        metrics["cli.rows"] = verdict.rows
        metrics["cli.bytes_out"] = verdict.bytes_out
        import spans

        units = {**spans.LAYER_UNITS, **EXTRA_LAYER_UNITS}
    else:
        # Reference seconds (calibrate.py): each time scaled by the speed of
        # the machine measured beside it.
        scales = [calibrate.scale(c) for c in report["calibration_s"]]
        wall = statistics.median(t * k for t, k in zip(report["op_seconds"], scales))
        metrics = {
            "setup_s": statistics.median(
                t * calibrate.scale(c) for t, c in zip(setups, setup_calibrations)),
            "wall_s": wall,
            "items_per_s": inputs.items / wall,
            "op_p99_s": tail_latency(report["latencies"], scales),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    prov.update(_numpy_provenance(), loadavg_end=list(os.getloadavg()))
    detail = {
        "workload": workload,
        "trace": trace,
        "provenance": prov,
        "setup_samples_s": setups,
        "setup_calibration_s": setup_calibrations,
        "warmup_s": report.get("warmup_s"),
        "op_seconds": report.get("op_seconds"),
        "calibration_s": report.get("calibration_s"),
        "traced_seconds": report.get("traced_seconds"),
        "latency_samples": sum(map(len, report.get("latencies", []))),
        "error_rate": failed / attempted,
        "max_err_cinf": verdict.max_err_cinf,
        "span_count": report.get("span_count"),
        "self_time_gap_s": report.get("self_time_gap_s"),
        "problems": verdict.problems,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {"detail": detail, "result": result}


def _table(outcomes: dict) -> str:
    names = list(next(iter(outcomes.values()))["result"]["metrics"])
    lines = ["| metric | unit | " + " | ".join(outcomes) + " |",
             "|---|---|" + "---|" * len(outcomes)]
    for name in names + ["error_rate"]:
        unit = "1"
        cells = []
        for outcome in outcomes.values():
            if name == "error_rate":
                cells.append(f"{outcome['detail']['error_rate']:.4g}")
                continue
            metric = outcome["result"]["metrics"][name]
            unit = metric["unit"]
            cells.append(f"{metric['value']:.6g}")
        lines.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    if not (ROOT / "src" / "widecap" / "__init__.py").is_file():
        print(f"error: no widecap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        try:
            outcome = run_workload(args.workload, args.seed, args.seconds, args.trace)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for problem in outcome["detail"]["problems"]:
            print(f"{args.workload}: check failed: {problem}", file=sys.stderr)
        print(json.dumps(outcome["detail"]))
        print(json.dumps(outcome["result"]))
        return 0

    # Each workload gets a fresh run.py process, so that no earlier
    # workload's checks raise the peak RSS its worker inherits.
    outcomes = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if done.returncode != 0:
            print(f"error: {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
        outcomes[workload] = {"detail": detail, "result": result}
    print(_table(outcomes))
    for outcome in outcomes.values():
        print(json.dumps(outcome["detail"]))
        print(json.dumps(outcome["result"]))
    return 0 if all(o["result"]["correct"] for o in outcomes.values()) else 1

if __name__ == "__main__":
    sys.exit(main())
