"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It is kept out of the package's test suite because it starts worker
processes and takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from workloads import TINY, WORKLOADS, build_inputs, scenario_text

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir(request):
    """A scratch directory inside the benchmark's ignored output directory."""
    path = run.OUT / f"smoke-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def outcomes():
    return {(workload, trace): run.run_workload(workload, 5, 0.2, trace, sizes="tiny")
            for workload in WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_with_its_unit(outcomes, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        result = outcomes[workload, trace]["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [metric["name"] for metric in declared]
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))


def test_time_metrics_are_in_reference_seconds(outcomes):
    import calibrate

    for workload in WORKLOADS:
        detail = outcomes[workload, 0]["detail"]
        metrics = outcomes[workload, 0]["result"]["metrics"]
        assert len(detail["calibration_s"]) == len(detail["op_seconds"])
        assert len(detail["setup_calibration_s"]) == len(detail["setup_samples_s"])
        scaled = [t * calibrate.REFERENCE_S / c
                  for t, c in zip(detail["op_seconds"], detail["calibration_s"])]
        assert metrics["wall_s"]["value"] == pytest.approx(np.median(scaled))


def test_traced_self_times_sum_to_the_root_span(outcomes):
    for workload in WORKLOADS:
        detail = outcomes[workload, 1]["detail"]
        assert detail["span_count"] > 0
        assert detail["self_time_gap_s"] < 1e-9


def test_layer_counts_follow_the_workloads(outcomes):
    layers = {w: outcomes[w, 1]["result"]["metrics"] for w in WORKLOADS}
    evals = {w: layers[w]["bounds.solver_evals"]["value"] for w in WORKLOADS}
    assert evals["plane_csv"] == evals["dbgrid_json"] == 0
    assert evals["atlas"] > 0 and evals["verify"] > 0
    # Scalar kernel calls per (delta, B) point: one R_LB and one R_UB.
    assert layers["plane_csv"]["bounds.kernel_calls"]["value"] == 2 * TINY.plane_points ** 2
    assert layers["dbgrid_json"]["bounds.kernel_calls"]["value"] == TINY.dbgrid_points
    verify = layers["verify"]
    checks_s = [verify[f"mcverify.{name}_s"]["value"]
                for name in ("kurtosis", "trace", "coherent", "penalty", "sweep")]
    assert verify["mcverify.penalty_s"]["value"] == max(checks_s)


def _sweep_output(workload: str, directory: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import widecap.cli

    inputs = build_inputs(workload, 5, TINY)
    scenario = directory / "scenario.txt"
    scenario.write_text(scenario_text(inputs.scenario), encoding="utf-8")
    out = directory / "out"
    command, *options = inputs.argv
    assert widecap.cli.main([command, "--scenario", str(scenario), *options, "--out", str(out)]) == 0
    return inputs, out


@pytest.mark.parametrize("workload", ("plane_csv", "dbgrid_json"))
def test_a_corrupted_row_raises_the_error_rate(workload, workdir):
    inputs, out = _sweep_output(workload, workdir)
    report = {"passes": 4, "warmup_failed": [0], "mismatch": [0]}
    verdict = checks.check_sweep(inputs, out)
    assert verdict.bad == [False] and verdict.rows == build_inputs(workload, 5, TINY).items
    assert run.tally(verdict, report) == (4, 0)

    text = out.read_text(encoding="utf-8")
    if workload == "plane_csv":
        lines = text.splitlines(keepends=True)
        cells = lines[7].split(",")
        cells[3] = repr(float(cells[3]) * (1 + 1e-9))  # R_LB
        lines[7] = ",".join(cells)
        text = "".join(lines)
    else:
        payload = json.loads(text)
        payload[7]["R_LB"] *= 1 + 1e-9
        text = json.dumps(payload, indent=2) + "\n"
    out.write_text(text, encoding="utf-8")
    verdict = checks.check_sweep(inputs, out)
    assert verdict.bad == [True]
    assert run.tally(verdict, report) == (4, 4)


def test_a_corrupted_atlas_value_fails_its_scenario(workdir):
    inputs = build_inputs("atlas", 5, TINY)
    sys.path.insert(0, str(ROOT / "src"))
    import widecap
    import worker

    rows, _ = worker.AtlasOperation(widecap, inputs, workdir).run(True)
    assert not any(checks.check_atlas(inputs, rows).bad)
    rows[3, 3] *= 1.5  # occupancy_optimal_exact of scenario 3 leaves its stationary point
    bad = checks.check_atlas(inputs, rows).bad
    assert bad == [i == 3 for i in range(len(bad))]
    report = {"passes": 2, "warmup_failed": [0] * len(bad), "mismatch": [0] * len(bad)}
    assert run.tally(checks.Verdict(bad=bad), report) == (2 * len(bad), 2)


def test_refuses_to_run_without_the_program(workdir):
    shutil.copytree(run.HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "plane_csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_inputs_follow_the_seed():
    for workload in WORKLOADS:
        a, b = build_inputs(workload, 9, TINY), build_inputs(workload, 9, TINY)
        c = build_inputs(workload, 10, TINY)
        assert (a.scenario, a.argv, a.atlas_scenarios) == (b.scenario, b.argv, b.atlas_scenarios)
        assert (a.scenario, a.argv, a.atlas_scenarios) != (c.scenario, c.argv, c.atlas_scenarios)
    assert np.array_equal(build_inputs("atlas", 9, TINY).atlas_factors,
                          build_inputs("atlas", 10, TINY).atlas_factors)
