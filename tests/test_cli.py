import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import widecap
from widecap import cli, mcverify
from widecap.bounds import (
    alpha_brackets,
    critical_bracket,
    critical_coefficients,
    epsilon_for_error_pct,
    peak_gap,
    rate_lower_bound,
    rate_upper_bound,
)
from widecap.channel import unit_fading_power
from widecap.cli import _BLOCK, DEFAULT_SCENARIO, _build_parser, _parse_axis, main
from widecap.scenario import parse_scenario, serialize_scenario

FLAT_2X2 = """
snr_density_hz = 1e7
coherence_time_s = 1e-3
coherence_bandwidth_hz = 1e6
nt = 2
nr = 2
fading = rayleigh
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(FLAT_2X2)
    return str(path)


@pytest.fixture
def rice_file(tmp_path):
    path = tmp_path / "rice.txt"
    path.write_text(FLAT_2X2.replace("rayleigh", "rice:1.0"))
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text()


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestGridAxis:
    """``_parse_axis``, the parser of every grid option: its values and its refusals."""

    def test_values(self):
        assert list(_parse_axis("1:100:3")) == pytest.approx([1.0, 10.0, 100.0])
        assert list(_parse_axis("0:1:3:lin")) == pytest.approx([0.0, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(argparse.ArgumentTypeError, match="strictly increasing"):
            _parse_axis("2:1:5")
        with pytest.raises(argparse.ArgumentTypeError, match="at least two points"):
            _parse_axis("1:2:1")
        with pytest.raises(argparse.ArgumentTypeError, match="log grids need positive bounds"):
            _parse_axis("0:2:5:log")
        for lo, hi in (("1", "inf"), ("-inf", "1"), ("nan", "1"), ("1", "nan")):
            with pytest.raises(argparse.ArgumentTypeError, match="grid bounds must be finite"):
                _parse_axis(f"{lo}:{hi}:5:lin")

    def test_sweep_spec_validation(self, tmp_path, scenario_file, capsys):
        for options, message in [
            ([], "no sweep axes given"),
            (["--db-grid", "1:2:2", "--b-grid", "1:2:2"],
             "give either a dB grid or (delta, B) axes, not both"),
            (["--delta-grid", "0.1:1:2"], "a delta grid needs a bandwidth grid"),
        ]:
            out = tmp_path / "never.csv"
            assert main(["bounds", "--scenario", scenario_file, *options, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()


class TestBoundsCommand:
    def test_csv_header_rayleigh(self, tmp_path, scenario_file):
        code, text = run(
            tmp_path, "bounds", "--scenario", scenario_file,
            "--db-grid", "1e7:1e9:5",
        )
        assert code == 0
        header, rows = csv_rows(text)
        assert header == ["delta", "B", "deltaB", "R_LB", "R_LB_plot", "R_UB", "C_inf", "gap"]
        assert len(rows) == 5

    def test_csv_header_without_upper_bound(self, tmp_path, rice_file):
        code, text = run(
            tmp_path, "bounds", "--scenario", rice_file, "--db-grid", "1e7:1e9:3",
        )
        assert code == 0
        header, _ = csv_rows(text)
        assert header == ["delta", "B", "deltaB", "R_LB", "R_LB_plot", "C_inf", "gap"]

    def test_single_point_occupancy_only(self, tmp_path, scenario_file):
        _, text_a = run(
            tmp_path, "bounds", "--scenario", scenario_file,
            "--delta", "1.0", "--bandwidth", "1.2e8",
        )
        _, text_b = run(
            tmp_path, "bounds", "--scenario", scenario_file,
            "--delta", "0.5", "--bandwidth", "2.4e8",
        )
        _, rows_a = csv_rows(text_a)
        _, rows_b = csv_rows(text_b)
        assert rows_a[0]["R_LB"] == rows_b[0]["R_LB"]
        assert rows_a[0]["deltaB"] == rows_b[0]["deltaB"]

    def test_plot_column_clamps_only_display(self, tmp_path, scenario_file):
        _, text = run(
            tmp_path, "bounds", "--scenario", scenario_file,
            "--delta", "1.0", "--bandwidth", "1e4",
        )
        _, rows = csv_rows(text)
        assert float(rows[0]["R_LB"]) < 0
        assert float(rows[0]["R_LB_plot"]) == 0.0

    def test_plane_grid_row_count(self, tmp_path, scenario_file):
        _, text = run(
            tmp_path, "bounds", "--scenario", scenario_file,
            "--delta-grid", "0.0625:1:5", "--b-grid", "1e7:1.6e9:5",
        )
        _, rows = csv_rows(text)
        assert len(rows) == 25

    def test_json_format(self, tmp_path, scenario_file):
        _, text = run(
            tmp_path, "bounds", "--scenario", scenario_file,
            "--db-grid", "1e7:1e9:3", "--format", "json",
        )
        payload = json.loads(text)
        assert len(payload) == 3
        assert set(payload[0]) >= {"delta", "B", "deltaB", "R_LB", "C_inf"}

    def test_mhz_unit_rescales_display(self, tmp_path, scenario_file):
        _, hz = run(
            tmp_path, "bounds", "--scenario", scenario_file,
            "--delta", "1.0", "--bandwidth", "1.2e8",
        )
        _, mhz = run(
            tmp_path, "bounds", "--scenario", scenario_file,
            "--delta", "1.0", "--bandwidth", "1.2e8", "--unit", "mhz",
        )
        _, rows_hz = csv_rows(hz)
        _, rows_mhz = csv_rows(mhz)
        assert float(rows_mhz[0]["B"]) == pytest.approx(1.2e8 * 1e-6)
        assert rows_mhz[0]["R_LB"] == rows_hz[0]["R_LB"]


def scalar_table(scenario_text, pairs, fmt, scale=1.0, penalty_factor=1.0):
    """The bounds table built one point at a time from scalar kernel calls.

    None where some cell is not finite: no table is written then.
    """
    scenario = parse_scenario(scenario_text)
    rayleigh = scenario.fading.kind == "rayleigh"
    c_inf = scenario.wideband_limit
    header = ["delta", "B", "deltaB", "R_LB", "R_LB_plot"]
    header += ["R_UB"] if rayleigh else []
    header += ["C_inf", "gap"]
    rows = []
    with np.errstate(all="ignore"):
        for delta, bandwidth in pairs:
            occupancy = delta * bandwidth
            lower = float(rate_lower_bound(scenario, occupancy))
            row = [delta, bandwidth * scale, occupancy * scale, lower, max(lower, 0.0)]
            if rayleigh:
                row.append(float(rate_upper_bound(scenario, occupancy, penalty_factor)))
            rows.append(row + [c_inf, 1.0 - lower / c_inf])
    if not all(math.isfinite(cell) for row in rows for cell in row):
        return None
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def grid(lo, hi, n, log=True):
    return ((np.geomspace if log else np.linspace)(lo, hi, n)).tolist()


def plane(deltas, bands):
    return list(itertools.product(deltas, bands))


def occupancies(values):
    return [(1.0, b) for b in values]


# Longer than one block and not a multiple of the block size.
LONG = 2 * _BLOCK + 37
HALF = _BLOCK // 2 + 5

BYTE_IDENTITY_CASES = [
    pytest.param("rayleigh", ["--delta-grid", "0.0625:1:5", "--b-grid", "1e7:1.6e9:7"],
                 plane(grid(0.0625, 1, 5), grid(1e7, 1.6e9, 7)), {}, id="plane"),
    pytest.param("rice", ["--delta-grid", "0.1:1:4:lin", "--b-grid", "1e4:1e10:6"],
                 plane(grid(0.1, 1, 4, log=False), grid(1e4, 1e10, 6)), {}, id="plane-rice"),
    pytest.param("rayleigh", ["--b-grid", "1e4:1e10:6"],
                 plane([1.0], grid(1e4, 1e10, 6)), {}, id="b-grid-only"),
    pytest.param("rayleigh", ["--db-grid", "1e6:1e10:9"],
                 occupancies(grid(1e6, 1e10, 9)), {}, id="dbgrid"),
    pytest.param("rice", ["--db-grid", "1e6:1e10:9"],
                 occupancies(grid(1e6, 1e10, 9)), {}, id="dbgrid-rice"),
    pytest.param("rayleigh", ["--delta", "0.5", "--bandwidth", "2.4e8"],
                 [(0.5, 2.4e8)], {}, id="point"),
    pytest.param("rayleigh", ["--delta", "0.5", "--bandwidth", "2.4e8", "--unit", "mhz"],
                 [(0.5, 2.4e8)], {"scale": 1e-6}, id="point-mhz"),
    pytest.param("rayleigh", ["--db-grid", "1e4:1e12:11", "--unit", "mhz"],
                 occupancies(grid(1e4, 1e12, 11)), {"scale": 1e-6}, id="dbgrid-mhz"),
    pytest.param("rayleigh", ["--db-grid", "1e4:1e12:11", "--penalty-factor", "0.5"],
                 occupancies(grid(1e4, 1e12, 11)), {"penalty_factor": 0.5}, id="penalty-factor"),
    pytest.param("rayleigh", ["--db-grid", f"1e2:1e14:{LONG}"],
                 occupancies(grid(1e2, 1e14, LONG)), {}, id="long-dbgrid"),
    pytest.param("rice", ["--delta-grid", "1e-3:1:3", "--b-grid", f"1e2:1e12:{HALF}"],
                 plane(grid(1e-3, 1, 3), grid(1e2, 1e12, HALF)), {}, id="long-plane-rice"),
    # Subnormal occupancies overflow P*Lc/(dB*Nt*N0), so R_LB is -inf: no table, exit 2.
    pytest.param("rayleigh", ["--db-grid", "1e-320:1e-300:3"],
                 occupancies(grid(1e-320, 1e-300, 3)),
                 {"refusal": "R_LB overflows float64 at occupancy 1e-320"}, id="subnormal"),
    # The B strings of a repeated B axis are formatted once, after scaling.
    pytest.param("rayleigh", ["--delta-grid", "0.0625:1:5", "--b-grid", "1e7:1.6e9:7",
                              "--unit", "mhz"],
                 plane(grid(0.0625, 1, 5), grid(1e7, 1.6e9, 7)), {"scale": 1e-6},
                 id="plane-mhz"),
    # Three blocks; R_LB changes sign inside the first two.
    pytest.param("rayleigh", ["--delta-grid", "0.01:1:4", "--b-grid", f"1e4:1e10:{HALF}"],
                 plane(grid(0.01, 1, 4), grid(1e4, 1e10, HALF)), {}, id="long-plane-zero-crossing"),
    # Only the smallest occupancies overflow; the whole plane is refused, naming
    # the smallest, 1e-3 * 1e-318 rounded to a subnormal.
    pytest.param("rayleigh", ["--delta-grid", "1e-3:1:3", "--b-grid", "1e-318:1e-300:4"],
                 plane(grid(1e-3, 1, 3), grid(1e-318, 1e-300, 4)),
                 {"refusal": "R_LB overflows float64 at occupancy 1e-321"}, id="subnormal-plane"),
]


class TestBoundsByteIdentity:
    """Block-wise output equals the point-by-point table, byte for byte, with a
    forked worker making the odd blocks of every sweep of two blocks or more."""

    CPUS = 2

    @pytest.fixture(autouse=True)
    def usable_cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: self.CPUS)
        monkeypatch.setattr(cli, "_SOLO_BLOCKS", 1)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fading, options, pairs, kwargs", BYTE_IDENTITY_CASES)
    def test_matches_scalar_table(self, tmp_path, fading, options, pairs, kwargs, fmt, capsys):
        text = FLAT_2X2.replace("rayleigh", "rice:1.0") if fading == "rice" else FLAT_2X2
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        kwargs = dict(kwargs)
        refusal = kwargs.pop("refusal", None)
        table = scalar_table(text, pairs, fmt, **kwargs)
        assert (table is None) == (refusal is not None)
        if table is None:
            out = tmp_path / "never.out"
            assert main(["bounds", "--scenario", str(path), *options, "--format", fmt,
                         "--out", str(out)]) == 2
            assert not out.exists()
            assert capsys.readouterr().err == f"error: {refusal}\n"
            return
        code, out = run(tmp_path, "bounds", "--scenario", str(path), *options, "--format", fmt)
        assert code == 0
        assert out == table


class TestBoundsByteIdentityInProcess(TestBoundsByteIdentity):
    """The same tables with one usable CPU: every block made in-process."""

    CPUS = 1


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs and a worker for every sweep of two blocks or more: a
    one-item list that counts this process's calls of os.fork."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_SOLO_BLOCKS", 1)
    counted, fork = [0], os.fork

    def counting():
        counted[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return counted


def assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBoundsWorker:
    """The worker that a long sweep forks to make its odd blocks."""

    POINTS = 2 * _BLOCK + 7  # three blocks: the worker makes the second
    SWEEP = ["--db-grid", f"1e4:1e12:{POINTS}"]

    def bounds(self, scenario_file, *options):
        return main(["bounds", "--scenario", scenario_file, *self.SWEEP, *options])

    def table(self):
        return scalar_table(FLAT_2X2, occupancies(grid(1e4, 1e12, self.POINTS)), "csv")

    def test_no_deadlock_on_blocks_larger_than_a_pipe(self, tmp_path, scenario_file):
        # Blocks of 66 000 points, whose text (about 10 MB) fills a pipe many
        # times over.  A fresh interpreter under a timeout, so that a deadlock
        # fails the test instead of hanging it.
        code = (
            "import sys\n"
            "from widecap import cli\n"
            "cli._BLOCK, cli._SOLO_BLOCKS = 66_000, 1\n"
            "argv = ['bounds', '--scenario', sys.argv[1], '--db-grid', '1e4:1e12:140000',\n"
            "        '--out']\n"
            "for cpus, out in ((2, sys.argv[2]), (1, sys.argv[3])):\n"
            "    cli._usable_cpus = lambda: cpus\n"
            "    assert cli.main(argv + [out]) == 0\n")
        paths = [str(tmp_path / name) for name in ("worker.csv", "in_process.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", code, scenario_file, *paths], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    def test_ends_after_success(self, tmp_path, scenario_file, forks):
        code, text = run(tmp_path, "bounds", "--scenario", scenario_file, *self.SWEEP)
        assert code == 0 and text == self.table()
        assert forks == [1]
        assert_no_child()

    def test_worker_dying_mid_stream_is_an_error(self, tmp_path, scenario_file, forks,
                                                 monkeypatch, capsys):
        caller, reprs = os.getpid(), cli._reprs

        def dying(values):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return reprs(values)

        monkeypatch.setattr(cli, "_reprs", dying)
        assert self.bounds(scenario_file, "--out", str(tmp_path / "out.csv")) == 2
        assert capsys.readouterr().err == "error: bounds worker stopped with exit code -9\n"
        assert forks == [1]
        assert_no_child()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_ends_when_the_output_fails(self, scenario_file, forks, capsys):
        # The first block's rows overflow the output buffer, whose flush fails.
        assert self.bounds(scenario_file, "--out", "/dev/full") == 2
        assert capsys.readouterr().err.startswith("error: [Errno 28]")
        assert forks == [1]
        assert_no_child()

    @pytest.mark.parametrize("where", ["making a block", "writing"])
    def test_ends_after_an_interrupt(self, tmp_path, scenario_file, forks, monkeypatch, where):
        caller, reprs = os.getpid(), cli._reprs
        calls = []

        def interrupted(values):
            if os.getpid() == caller:
                calls.append(None)
                if len(calls) == 3:  # in block 0, after the fork
                    raise KeyboardInterrupt
            return reprs(values)

        def interrupted_writes(out, header, texts, fmt):
            next(texts), next(texts)  # block 1 from the worker
            raise KeyboardInterrupt

        if where == "writing":
            monkeypatch.setattr(cli, "_write_blocks", interrupted_writes)
        else:
            monkeypatch.setattr(cli, "_reprs", interrupted)
        # The traceback, held in ``interrupt`` to the end of the test, keeps
        # every frame of the command alive: the worker must be gone before the
        # interrupt leaves the command, not when its frames are freed.
        with pytest.raises(KeyboardInterrupt) as interrupt:
            self.bounds(scenario_file, "--out", str(tmp_path / "out.csv"))
        assert forks == [1]
        assert_no_child()

    @pytest.mark.parametrize("condition", ["one CPU", "not Linux", "another thread",
                                           "solo blocks"])
    def test_runs_in_process_without_a_fork(self, tmp_path, scenario_file, forks, monkeypatch,
                                            condition):
        if condition == "one CPU":
            monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        if condition == "not Linux":
            monkeypatch.setattr(sys, "platform", "darwin")
        if condition == "solo blocks":
            monkeypatch.setattr(cli, "_SOLO_BLOCKS", 3)
        done = threading.Event()
        other = threading.Thread(target=done.wait, args=(30,))
        if condition == "another thread":
            other.start()
        try:
            code, text = run(tmp_path, "bounds", "--scenario", scenario_file, *self.SWEEP)
        finally:
            done.set()
            if other.is_alive():
                other.join(30)
        assert code == 0 and text == self.table()
        assert forks == [0]


class TestSameOccupancySameRates:
    """The closed forms read a (delta, B) point only through delta*B, so rows
    whose delta*B is equal bit for bit print the same rates, whichever process
    made their block."""

    def test_equal_occupancy_rows_print_equal_rates(self, tmp_path, scenario_file, forks,
                                                    monkeypatch):
        # Linear axes, so that delta*B is exact: 0.25 * 4e6 == 0.5 * 2e6 == 1e6.
        monkeypatch.setattr(cli, "_BLOCK", 2)
        code, text = run(tmp_path, "bounds", "--scenario", scenario_file,
                         "--delta-grid", "0.25:1:4:lin", "--b-grid", "1e6:8e6:8:lin")
        assert code == 0 and forks == [1]
        _, rows = csv_rows(text)
        groups = {}
        for index, row in enumerate(rows):
            groups.setdefault(row["deltaB"], []).append(index)
        # Even blocks are made by this process, odd ones by the worker.
        both = [group for group in groups.values() if {i // 2 % 2 for i in group} == {0, 1}]
        assert len(both) == 6  # of the 8 repeated delta*B values
        for group in groups.values():
            assert len({(rows[i]["R_LB"], rows[i]["R_UB"], rows[i]["gap"]) for i in group}) == 1


# An axis that numpy cannot allocate.
UNALLOCATABLE = "1e6:1e9:1000000000000000"


class TestBoundsUsageErrors:
    @pytest.mark.parametrize("options", [
        ["--delta-grid", "0:1:3:lin", "--b-grid", "1:1e6:3"],
        ["--delta-grid=-1:1:3:lin", "--b-grid", "1:1e6:3"],
        ["--delta", "1e-200", "--bandwidth", "1e-200"],  # delta*B underflows to 0
        ["--delta", "nan", "--bandwidth", "1e6"],
        ["--delta-grid", "1e-3:1:3"],
        ["--delta", "0.5"],
        ["--delta", "1", "--bandwidth", "inf"],
        ["--b-grid", "1e6:inf:3"],
        ["--db-grid", "1e6:1e400:3"],  # the upper bound overflows to inf
        ["--db-grid", UNALLOCATABLE],
    ])
    def test_no_output_on_error(self, tmp_path, scenario_file, options, capsys):
        out = tmp_path / "never.csv"
        try:
            code = main(["bounds", "--scenario", scenario_file, *options, "--out", str(out)])
        except SystemExit as exc:  # the parser rejects a non-finite axis
            code = exc.code
            assert capsys.readouterr().err.endswith("error: argument " + options[0]
                                                    + ": grid bounds must be finite\n")
        else:
            prefix = "error: grid too large: " if UNALLOCATABLE in options else "error: "
            assert capsys.readouterr().err.startswith(prefix)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, option", [
        (["bounds"], "--db-grid"), (["bounds"], "--b-grid"),
        (["bounds", "--b-grid", "1e6:1e7:3"], "--delta-grid"),
        (["alpha", "--snr", "0.01"], "--bctc-grid"),
    ])
    @pytest.mark.parametrize("points", [10**20, 2**63])  # beyond what numpy can index
    def test_unindexable_axis(self, tmp_path, scenario_file, command, option, points, capsys):
        out = tmp_path / "never.csv"
        code = main([*command, "--scenario", scenario_file, option, f"1e6:1e9:{points}",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: grid too large: {points} points\n"
        assert not out.exists()

    def test_axis_is_refused_before_the_scenario(self, tmp_path, capsys):
        # The parser allocates each axis, so that refusal comes before any
        # fault that the command finds.
        out = tmp_path / "never.csv"
        code = main(["bounds", "--scenario", str(tmp_path / "missing.txt"),
                     "--db-grid", UNALLOCATABLE, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: grid too large: ")
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        ["--b-grid", "1e4:1e10:400"], ["--db-grid", "1e4:1e10:7"], ["--delta-grid", "0.1:1:3"],
    ])
    def test_single_point_excludes_grid_axes(self, tmp_path, scenario_file, grid, capsys):
        out = tmp_path / "never.csv"
        code = main(["bounds", "--scenario", scenario_file, "--delta", "0.5",
                     "--bandwidth", "1e7", *grid, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: single-point mode excludes grid axes\n"
        assert not out.exists()

    def test_subnormal_grid_message(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "never.csv"
        code = main(["bounds", "--scenario", scenario_file, "--db-grid", "1e-320:1e-300:3",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: R_LB overflows float64 at occupancy 1e-320\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("options, message", [
        (["--db-grid", "1e-320:1e-318:3"], "B underflows float64 at occupancy 1e-320"),
        (["--delta-grid", "1e-3:1:3", "--b-grid", "1e-300:1e-290:4"],
         "deltaB underflows float64 at occupancy 1.0000000000000001e-303"),
    ], ids=["dbgrid", "plane"])
    def test_mhz_underflow_refused(self, tmp_path, fmt, options, message, capsys):
        # 1x1 at P/N0 = 1e-307: the rates are finite.  In hertz the grid is
        # written as given; up to 0.13.0 MHz wrote B = deltaB = 0.0 (or
        # subnormal deltaB cells) with exit 0.
        path = tmp_path / "tiny.txt"
        path.write_text(FLAT_2X2.replace("1e7", "1e-307").replace("= 2", "= 1"))
        argv = ["bounds", "--scenario", str(path), *options, "--format", fmt]
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert "1e-320" in text or "1e-300" in text
        out = tmp_path / "never.out"
        assert main([*argv, "--unit", "mhz", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("replacements, db_grid, message", [
        # 8x8 at P/N0 = 1e7, Lc = 1e3: dB*Nt*Nr overflows above about 2.8e306.
        ({"nt = 2": "nt = 8", "nr = 2": "nr = 8"}, "1e306:1e308:3",
         "error: R_LB overflows float64 at occupancy 1e+308\n"),
        # P*Lc/N0 = 2e-3: R_UB's dB*Nt*N0/(P*Lc) overflows before R_LB's dB*Nt*Nr.
        ({"snr_density_hz = 1e7": "snr_density_hz = 1e-3",
          "coherence_time_s = 1e-3": "coherence_time_s = 1",
          "coherence_bandwidth_hz = 1e6": "coherence_bandwidth_hz = 2",
          "nt = 2": "nt = 1", "nr = 2": "nr = 1"}, "1e300:1e306:4",
         "error: R_UB overflows float64 at occupancy 1e+306\n"),
        # 1x1 at P/N0 = 1e300: every ratio inside R_LB is finite at dB = 1e100, but
        # C_inf * P*K/(2*dB*Nt*N0) = 1e300 * 1e200 is not.  Up to 0.12.0 this wrote
        # R_LB = R_UB = -inf and gap = inf with exit 0.
        ({"snr_density_hz = 1e7": "snr_density_hz = 1e300", "nt = 2": "nt = 1",
          "nr = 2": "nr = 1"}, "1e100:1e102:3",
         "error: R_LB overflows float64 at occupancy 1e+100\n"),
    ])
    def test_huge_occupancy_refused(self, tmp_path, replacements, db_grid, message, fmt,
                                    capsys):
        text = FLAT_2X2
        for old, new in replacements.items():
            text = text.replace(old, new)
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        out = tmp_path / f"never.{fmt}"
        code = main(["bounds", "--scenario", str(path), "--db-grid", db_grid,
                     "--format", fmt, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("snr, bc, db_grid, message", [
        # P*K = 1e10 * 1e300 overflows at every occupancy; the smallest is named.
        ("1e10", "1e3", "1e14:1e16:3",
         "error: R_LB overflows float64 at occupancy 100000000000000.0\n"),
        # P*K = 1e200 is finite, P*K/dB at dB = 1e-110 is not, though R_LB is (about -5e209).
        ("1e-100", "2", "1e-110:1e-100:3",
         "error: R_LB overflows float64 at occupancy 1e-110\n"),
    ])
    def test_huge_kurtosis_refused(self, tmp_path, snr, bc, db_grid, message, capsys):
        # Nakagami m = 1e-300 has the finite kurtosis 1 + 1e300.
        path = tmp_path / "scenario.txt"
        path.write_text(f"snr_density_hz = {snr}\ncoherence_time_s = 1\n"
                        f"coherence_bandwidth_hz = {bc}\nnt = 1\nnr = 1\nfading = nakagami:1e-300\n")
        out = tmp_path / "never.csv"
        code = main(["bounds", "--scenario", str(path), "--db-grid", db_grid, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == message

    def test_huge_occupancy_below_the_limit_is_finite(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(FLAT_2X2.replace("nt = 2", "nt = 8").replace("nr = 2", "nr = 8"))
        code, text = run(tmp_path, "bounds", "--scenario", str(path),
                         "--db-grid", "1e300:2e306:5", "--format", "json")
        assert code == 0
        rows = json.loads(text)
        assert all(math.isfinite(value) for row in rows for value in row.values())

    def test_largest_occupancies_warn_nothing(self, tmp_path):
        # At 1x1, 2*dB would overflow near 1.7e308 although dB*Nt*Nr does not.
        path = tmp_path / "scenario.txt"
        path.write_text(FLAT_2X2.replace("nt = 2", "nt = 1").replace("nr = 2", "nr = 1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = run(tmp_path, "bounds", "--scenario", str(path),
                             "--db-grid", "1e307:1.7e308:2")
        assert code == 0
        assert [str(w.message) for w in caught] == []
        _, rows = csv_rows(text)
        assert [(row["R_LB"], row["R_UB"]) for row in rows] == [("0.0", "0.0")] * 2

    @pytest.mark.parametrize("options, option", [
        (["--delta=-1", "--bandwidth=-1e6"], "--delta"),
        (["--delta", "5", "--bandwidth", "1e6"], "--delta"),
        (["--delta-grid=-1:-0.5:2:lin", "--b-grid=-2e6:-1e6:2:lin"], "--delta-grid"),
        (["--delta-grid", "0.5:2:3", "--b-grid", "1e6:1e7:3"], "--delta-grid"),
    ])
    def test_duty_cycle_outside_unit_interval(self, tmp_path, scenario_file, options, option,
                                              capsys):
        # Every delta*B here is positive and finite; delta itself is impossible.
        out = tmp_path / "never.csv"
        assert main(["bounds", "--scenario", scenario_file, *options, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {option} is a duty cycle and must lie in (0, 1]\n"
        assert not out.exists()

    def test_nonfinite_occupancy_message(self, tmp_path, scenario_file, capsys):
        main(["bounds", "--scenario", scenario_file, "--delta", "1e300",
              "--bandwidth", "1e300", "--out", str(tmp_path / "x.csv")])
        assert capsys.readouterr().err == "error: occupancy must be finite\n"

    def test_nonpositive_occupancy_message(self, tmp_path, scenario_file, capsys):
        main(["bounds", "--scenario", scenario_file, "--delta-grid", "0:1:3:lin",
              "--b-grid", "1:1e6:3", "--out", str(tmp_path / "x.csv")])
        assert capsys.readouterr().err == "error: occupancy must be > 0\n"

    @pytest.mark.parametrize("fading", ["rayleigh", "rice:1.0", "nakagami:2.0"])
    @pytest.mark.parametrize("factor", ["5", "0", "-0.5", "nan", "abc"])
    def test_penalty_factor_checked_for_every_fading(self, tmp_path, fading, factor, capsys):
        path = tmp_path / "scenario.txt"
        path.write_text(FLAT_2X2.replace("rayleigh", fading))
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--scenario", str(path), "--db-grid", "1e7:1e9:3",
                  "--penalty-factor", factor, "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()
        assert "--penalty-factor" in capsys.readouterr().err

    def test_penalty_factor_range_message(self, tmp_path, scenario_file, capsys):
        with pytest.raises(SystemExit):
            main(["bounds", "--scenario", scenario_file, "--db-grid", "1e7:1e9:3",
                  "--penalty-factor", "5"])
        assert "penalty_factor must be in (0, 1]" in capsys.readouterr().err


def _scalar_rates_finite(scenario, occupancies, penalty_factor):
    """Whether R_LB, the gap and (Rayleigh only) R_UB are finite at every point."""
    c_inf = scenario.wideband_limit
    with np.errstate(all="ignore"):
        for occupancy in occupancies:
            lower = float(rate_lower_bound(scenario, occupancy))
            cells = [lower, 1.0 - lower / c_inf]
            if scenario.fading.kind == "rayleigh":
                cells.append(float(rate_upper_bound(scenario, occupancy, penalty_factor)))
            if not all(math.isfinite(cell) for cell in cells):
                return False
    return True


class TestBoundsFiniteRule:
    """``bounds`` checks its kernels at the two ends of the occupancy range only."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        snr_exp=st.floats(-307, 308),
        lc_exp=st.floats(0.01, 300),
        nt=st.integers(1, 8),
        nr=st.integers(1, 8),
        fading=st.sampled_from(["rayleigh", "rice:1.0", "nakagami:0.5", "nakagami:1e-300"]),
        lo_exp=st.floats(-323, 308),
        decades=st.floats(1e-3, 40),
        points=st.integers(2, 6),
        penalty_factor=st.one_of(st.none(), st.floats(1e-300, 1.0)),
    )
    def test_refuses_exactly_the_non_finite_tables(self, snr_exp, lc_exp, nt, nr, fading,
                                                    lo_exp, decades, points, penalty_factor):
        text = (f"snr_density_hz = {10.0 ** snr_exp!r}\ncoherence_time_s = 1\n"
                f"coherence_bandwidth_hz = {10.0 ** lc_exp!r}\nnt = {nt}\nnr = {nr}\n"
                f"fading = {fading}\n")
        scenario = parse_scenario(text)
        lo, hi = 10.0 ** lo_exp, 10.0 ** min(lo_exp + decades, 308.25)
        assume(lo < hi)  # a subnormal lo rounds a short span away
        argv = ["--db-grid", f"{lo!r}:{hi!r}:{points}"]
        if fading != "rayleigh":
            penalty_factor = None
        if penalty_factor is not None:
            argv += ["--penalty-factor", repr(penalty_factor)]
        finite = _scalar_rates_finite(scenario, _parse_axis(argv[1]).tolist(),
                                      1.0 if penalty_factor is None else penalty_factor)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as directory:
            path, out = Path(directory, "scenario.txt"), Path(directory, "out.csv")
            path.write_text(text)
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["bounds", "--scenario", str(path), *argv, "--out", str(out)])
            if not finite:
                assert code == 2
                assert not out.exists()
                assert re.fullmatch(r"error: (R_LB|R_UB|gap) overflows float64 at occupancy \S+\n",
                                    err.getvalue())
                return
            assert code == 0
            assert [str(w.message) for w in caught] == []
            _, rows = csv_rows(out.read_text())
        assert len(rows) == points
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.values())


class TestCriticalCommand:
    def test_remark_values(self, tmp_path, scenario_file):
        code, text = run(
            tmp_path, "critical", "--scenario", scenario_file, "--format", "json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["occupancy_optimal"] == pytest.approx(1.20318256e8, rel=1e-6)
        assert payload["gap_delta"] < 0.18
        assert payload["gap_delta"] == pytest.approx(0.178, abs=5e-4)
        assert "summary" in payload

    def test_high_coherence_gap(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(FLAT_2X2.replace("coherence_bandwidth_hz = 1e6",
                                         "coherence_bandwidth_hz = 1e8"))
        _, text = run(tmp_path, "critical", "--scenario", str(path), "--format", "json")
        payload = json.loads(text)
        assert payload["occupancy_optimal"] == pytest.approx(9.319812e8, rel=1e-6)
        assert payload["gap_delta"] < 0.03

    def test_snr_scaling(self, tmp_path, scenario_file):
        scaled = tmp_path / "scaled.txt"
        scaled.write_text(FLAT_2X2.replace("1e7", "1e8"))
        _, base = run(tmp_path, "critical", "--scenario", scenario_file, "--format", "json")
        _, big = run(tmp_path, "critical", "--scenario", str(scaled), "--format", "json")
        a, b = json.loads(base), json.loads(big)
        for key in ("occupancy_low", "occupancy_optimal", "occupancy_high"):
            assert b[key] == pytest.approx(10 * a[key], rel=1e-12)
        assert b["gap_delta"] == a["gap_delta"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_interior_maximum_is_usage_error(self, tmp_path, fmt, capsys):
        # 8x8 Rayleigh: kappa-2+Nt+Nr = 16 exceeds Bc*Tc = 10.
        path = tmp_path / "s.txt"
        path.write_text(FLAT_2X2.replace("1e6", "1e4").replace("= 2", "= 8"))
        out = tmp_path / "out.txt"
        code = main(["critical", "--scenario", str(path), "--format", fmt, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "kappa-2+Nt+Nr = 16" in capsys.readouterr().err

    def test_csv_header(self, tmp_path, scenario_file):
        _, text = run(tmp_path, "critical", "--scenario", scenario_file)
        header, rows = csv_rows(text)
        assert header == [
            "occupancy_low", "occupancy_low_exact", "occupancy_optimal",
            "occupancy_optimal_exact", "occupancy_high_exact", "occupancy_high",
            "peak_rate_lower", "gap_delta",
        ]
        values = [float(rows[0][key]) for key in header[:6]]
        assert values == sorted(values)


class TestAlphaCommand:
    def test_header_and_ordering(self, tmp_path, scenario_file):
        code, text = run(
            tmp_path, "alpha", "--scenario", scenario_file,
            "--snr", "1e-2", "--p", "1,10", "--bctc-grid", "1e2:1e8:13",
        )
        assert code == 0
        header, rows = csv_rows(text)
        assert header == [
            "BcTc", "alpha_max", "alpha_max_over_2",
            "alpha_min_p1", "alpha_min_p10", "alpha_plus", "alpha_minus",
        ]
        for row in rows:
            alpha_max = float(row["alpha_max"])
            assert float(row["alpha_minus"]) < float(row["alpha_plus"]) < alpha_max
            assert float(row["alpha_max_over_2"]) <= float(row["alpha_min_p1"]) + 1e-15
            assert float(row["alpha_max_over_2"]) <= float(row["alpha_min_p10"]) + 1e-15

    def test_full_error_percentage_collapses(self, tmp_path, scenario_file):
        _, text = run(
            tmp_path, "alpha", "--scenario", scenario_file,
            "--snr", "1e-2", "--p", "100", "--bctc-grid", "1e3:1e4:2",
        )
        _, rows = csv_rows(text)
        for row in rows:
            assert row["alpha_min_p100"] == row["alpha_max"]

    def test_normalized_columns(self, tmp_path, scenario_file):
        _, text = run(
            tmp_path, "alpha", "--scenario", scenario_file,
            "--snr", "1e-2", "--bctc-grid", "1e3:1e4:2", "--normalize",
        )
        header, rows = csv_rows(text)
        assert header[1] == "alpha_max_over_logLc"
        lc = float(rows[0]["BcTc"])
        assert float(rows[0]["alpha_max_over_logLc"]) == pytest.approx(
            math.log(4e3) / math.log(1e4) / math.log(lc), rel=1e-9
        )

    def test_rejects_bad_snr(self, tmp_path, scenario_file):
        out = tmp_path / "x.txt"
        code = main([
            "alpha", "--scenario", scenario_file, "--snr", "2.0",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_rejects_percentages_with_one_column_name(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "x.json"
        code = main([
            "alpha", "--scenario", scenario_file, "--snr", "0.01", "--p", "1,1.0000001",
            "--format", "json", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert "--p values must differ" in capsys.readouterr().err

    @pytest.mark.parametrize("options", [
        ["--snr", "0.01", "--bctc-grid", "1e300:1e307:3"],
        ["--snr", "0.2", "--bctc-grid", "3:1e9:200", "--normalize"],
    ], ids=["huge-grid", "200-rows"])
    def test_bytes_do_not_depend_on_tc(self, tmp_path, options):
        # Each row is evaluated at the BcTc it prints, and alpha reads only Nt
        # and Nr of the scenario: Tc, P/N0 and the fading family move no byte.
        # Up to 0.13.0 a row's Bc*Tc was (BcTc/Tc)*Tc: at Tc = 1e-3 the huge
        # grid was refused because Bc = BcTc/Tc overflowed, and 8 of the 200
        # rows differed between Tc = 0.3 s and Tc = 1 s.
        variants = [FLAT_2X2.replace("coherence_time_s = 1e-3", f"coherence_time_s = {tc}")
                    for tc in ("1e-3", "0.3", "1")]
        variants += [FLAT_2X2.replace("snr_density_hz = 1e7", "snr_density_hz = 3.5e-2"),
                     FLAT_2X2.replace("fading = rayleigh", "fading = rice:1.0")]
        assert len(set(variants)) == len(variants)
        texts = []
        for index, variant in enumerate(variants):
            path = tmp_path / f"variant_{index}.txt"
            path.write_text(variant)
            code, text = run(tmp_path, "alpha", "--scenario", str(path), *options)
            assert code == 0
            texts.append(text)
        assert texts == [texts[0]] * len(variants)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refuses_overflowing_alpha(self, tmp_path, fmt, capsys):
        # 1x8 at Tc = 1 s: (Nt+Nr)^2/Nt^2 * BcTc = 81 * 1e307 overflows in the last row.
        # Up to 0.12.0 that row read inf in every alpha column, with exit 0.
        path = tmp_path / "scenario.txt"
        path.write_text(FLAT_2X2.replace("coherence_time_s = 1e-3", "coherence_time_s = 1")
                        .replace("nt = 2", "nt = 1").replace("nr = 2", "nr = 8"))
        out = tmp_path / f"never.{fmt}"
        code = main(["alpha", "--scenario", str(path), "--snr", "0.01",
                     "--bctc-grid", "1e300:1e307:3", "--format", fmt, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: alpha_max overflows float64 for this scenario\n"

    @pytest.mark.parametrize("grid, value", [("0:10:3:lin", "0.0"), ("1:10:3:lin", "1.0"),
                                             ("-2:2:5:lin", "-2.0")])
    def test_refuses_bctc_grid_at_or_below_one(self, tmp_path, scenario_file, grid, value,
                                               capsys):
        # Up to 0.19.0 the message named the scenario field of the first row
        # (coherence_bandwidth, or the coherence product), not the option.
        out = tmp_path / "never.csv"
        code = main(["alpha", "--scenario", scenario_file, "--snr", "0.01",
                     f"--bctc-grid={grid}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --bctc-grid values must be > 1, got {value}\n"
        assert not out.exists()

    def test_percentages_must_be_numbers(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as err:
            main(["alpha", "--scenario", scenario_file, "--snr", "0.01", "--p", "1,x",
                  "--out", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --p: expected comma-separated numbers, got '1,x'\n")
        assert not out.exists()

    @pytest.mark.parametrize("options, message", [
        (["--snr", "1e-320"], "snr = 1e-320 is below about 5.6e-309, where 1/snr overflows"),
        (["--snr", "0.01", "--p", "1,1e-320"],
         "p = 1e-320 is below about 5.6e-307, where 100/p overflows"),
    ], ids=["snr", "p"])
    def test_refuses_overflowing_reciprocal(self, tmp_path, scenario_file, options, message,
                                            capsys):
        # Up to 0.11.0 --snr 1e-320 printed 0.0 in every alpha column, exit 0.
        out = tmp_path / "never.csv"
        assert main(["alpha", "--scenario", scenario_file, *options, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message} float64\n"
        assert not out.exists()

    def test_rejects_zero_error_percentage(self, tmp_path, scenario_file):
        out = tmp_path / "x.txt"
        code = main([
            "alpha", "--scenario", scenario_file, "--snr", "0.01", "--p", "0",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()


class TestFig6Command:
    def test_header_and_siso_roots(self, tmp_path):
        code, text = run(tmp_path, "fig6")
        assert code == 0
        header, rows = csv_rows(text)
        assert header == ["nt", "nr", "B_low_exact", "B_low_approx",
                          "B_high_exact", "B_high_approx"]
        assert len(rows) == 64
        first = rows[0]
        assert (first["nt"], first["nr"]) == ("1", "1")
        u = 2 * math.log(math.pi)
        assert float(first["B_low_exact"]) == pytest.approx(
            1 / (math.sqrt(u) + math.sqrt(u - 1)), rel=1e-12
        )
        assert float(first["B_high_exact"]) == pytest.approx(
            1 / (math.sqrt(u) - math.sqrt(u - 1)), rel=1e-12
        )

    def test_containment_and_growth(self, tmp_path):
        _, text = run(tmp_path, "fig6")
        _, rows = csv_rows(text)
        for row in rows:
            assert float(row["B_low_approx"]) <= float(row["B_low_exact"])
            assert float(row["B_high_exact"]) <= float(row["B_high_approx"])
        # the bracket widens outward with nr at fixed nt: the low sheet
        # moves down, the high sheet up, on both the exact and loose forms
        for nt in (1, 4, 8):
            subset = [row for row in rows if row["nt"] == str(nt)]
            for low_key, high_key in (
                ("B_low_exact", "B_high_exact"),
                ("B_low_approx", "B_high_approx"),
            ):
                lows = [float(row[low_key]) for row in subset]
                highs = [float(row[high_key]) for row in subset]
                assert lows == sorted(lows, reverse=True)
                assert highs == sorted(highs)

    def test_mhz_unit_rescales_scenario_columns(self, tmp_path, scenario_file):
        _, hz = run(tmp_path, "fig6", "--scenario", scenario_file, "--unit", "hz")
        _, mhz = run(tmp_path, "fig6", "--scenario", scenario_file, "--unit", "mhz")
        header, rows_hz = csv_rows(hz)
        _, rows_mhz = csv_rows(mhz)
        for row_hz, row_mhz in zip(rows_hz, rows_mhz):
            assert (row_mhz["nt"], row_mhz["nr"]) == (row_hz["nt"], row_hz["nr"])
            for key in header[2:]:
                assert float(row_mhz[key]) == pytest.approx(float(row_hz[key]) * 1e-6, rel=1e-15)

    @pytest.mark.parametrize("command", ["critical", "fig6"])
    @pytest.mark.parametrize("fading", ["rice:5.0", "nakagami:3.0"])
    def test_refuses_non_rayleigh_scenario_like_critical(self, tmp_path, command, fading,
                                                         capsys):
        # The sheets assume kappa = 2; up to 0.11.0 fig6 scaled them by a
        # non-Rayleigh scenario and exited 0.
        path = tmp_path / "s.txt"
        path.write_text(FLAT_2X2.replace("rayleigh", fading))
        out = tmp_path / "never.csv"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: critical bracket is only available for Rayleigh fading\n")
        assert not out.exists()

    def test_mhz_unit_needs_scenario(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["fig6", "--unit", "mhz", "--out", str(out)]) == 2
        assert not out.exists()
        assert "normalized coefficients" in capsys.readouterr().err


def reference_table(header, rows, fmt):
    """A list-of-rows table: CSV cells are repr of floats and str of ints; JSON
    is json.dumps of the row dicts."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    cells = [[repr(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    return "\n".join([",".join(header)] + [",".join(row) for row in cells]) + "\n"


def critical_reference(scenario, fmt, scale):
    bracket, gap = critical_bracket(scenario), peak_gap(scenario)
    header = [
        "occupancy_low", "occupancy_low_exact", "occupancy_optimal",
        "occupancy_optimal_exact", "occupancy_high_exact", "occupancy_high",
        "peak_rate_lower", "gap_delta",
    ]
    row = [getattr(bracket, name) * scale for name in header[:6]]
    row += [bracket.peak_rate_lower, gap]
    if fmt == "csv":
        return reference_table(header, [row], "csv")
    payload = dict(zip(header, row))
    payload["summary"] = (f"optimal occupancy ~ {bracket.occupancy_optimal / 1e6:.3g} MHz "
                          f"with capacity gap ~ {gap:.3f}")
    return json.dumps(payload, indent=2) + "\n"


def alpha_reference(scenario, fmt, snr, p_list, bctc, normalize):
    suffix = "_over_logLc" if normalize else ""
    header = ["BcTc", f"alpha_max{suffix}", f"alpha_max_over_2{suffix}"]
    header += [f"alpha_min_p{p:g}{suffix}" for p in p_list]
    header += [f"alpha_plus{suffix}", f"alpha_minus{suffix}"]
    rows = []
    for lc in bctc:
        variant = replace(scenario, coherence_time=1.0, coherence_bandwidth=lc)
        norm = math.log(lc) if normalize else 1.0
        mins = []
        for p in p_list:
            eps = epsilon_for_error_pct(p, snr)
            mins.append(alpha_brackets(variant, snr, 1e-300).alpha_max if eps == 0.0
                        else alpha_brackets(variant, snr, eps).alpha_min)
        ab = alpha_brackets(variant, snr, 1.0)
        rows.append([lc, ab.alpha_max / norm, ab.alpha_max / 2.0 / norm,
                     *[v / norm for v in mins], ab.alpha_plus / norm, ab.alpha_minus / norm])
    return reference_table(header, rows, fmt)


def fig6_reference(scenario, fmt):
    scale = 1.0
    if scenario is not None:
        lc = scenario.coherence_product
        scale = scenario.snr_density * math.sqrt(lc / math.log(lc))
    header = ["nt", "nr", "B_low_exact", "B_low_approx", "B_high_exact", "B_high_approx"]
    rows = [[nt, nr, *[v * scale for v in critical_coefficients(nt, nr)]]
            for nt in range(1, 9) for nr in range(1, 9)]
    return reference_table(header, rows, fmt)


TABLE_SCENARIOS = {"default": DEFAULT_SCENARIO, "2x2": parse_scenario(FLAT_2X2)}

ALPHA_CASES = [
    pytest.param([], [1.0, 10.0], grid(1e2, 1e8, 25), False, id="defaults"),
    pytest.param(["--normalize"], [1.0, 10.0], grid(1e2, 1e8, 25), True, id="normalize"),
    pytest.param(["--p", "1,100,10", "--bctc-grid", "1e2:1e6:9"], [1.0, 100.0, 10.0],
                 grid(1e2, 1e6, 9), False, id="p100"),
    pytest.param(["--normalize", "--p", "100,5", "--bctc-grid", "10:1e3:7:lin"], [100.0, 5.0],
                 grid(10, 1e3, 7, log=False), True, id="p100-normalize-lin"),
    # 3 of these 500 BcTc give an np.log that is not math.log (AVX-512, numpy 2.4.6).
    pytest.param(["--normalize", "--bctc-grid", "1.01:3:500:lin"], [1.0, 10.0],
                 grid(1.01, 3, 500, log=False), True, id="normalize-lin500"),
    # Two full 512-row blocks of alpha's writer and a partial third.
    pytest.param(["--bctc-grid", "1e2:1e12:1300"], [1.0, 10.0], grid(1e2, 1e12, 1300), False,
                 id="blocks1300"),
]


class TestTableByteIdentity:
    """critical, alpha and fig6 write the bytes of the reference table writer."""

    @pytest.fixture(params=sorted(TABLE_SCENARIOS))
    def named_scenario(self, request, tmp_path):
        scenario = TABLE_SCENARIOS[request.param]
        path = tmp_path / f"{request.param}.txt"
        path.write_text(serialize_scenario(scenario))
        return scenario, str(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("unit, scale", [("hz", 1.0), ("mhz", 1e-6)])
    def test_critical(self, tmp_path, named_scenario, fmt, unit, scale):
        scenario, path = named_scenario
        code, text = run(tmp_path, "critical", "--scenario", path, "--format", fmt, "--unit", unit)
        assert code == 0
        assert text == critical_reference(scenario, fmt, scale)

    # critical CSV rows as 0.17.0 wrote them, before critical_bracket took its
    # optimum from optimal_occupancy; test_critical's reference calls it itself.
    CRITICAL_PINS = {
        ("default", "hz"): "397.5896077022148,454.2643020523336,1701.5570945524219,"
        "1811.710641520497,3186.7973478665795,3641.0616499189127,87.42421858333661,"
        "0.1257578141666339",
        ("default", "mhz"): "0.0003975896077022148,0.0004542643020523336,0.0017015570945524217,"
        "0.001811710641520497,0.003186797347866579,0.0036410616499189126,87.42421858333661,"
        "0.1257578141666339",
        ("2x2", "hz"): "28113830.773553524,32121336.843217917,120318256.01340967,"
        "137410361.3406177,225340601.49437633,257461938.33759424,16443031.872623019,"
        "0.177848406368849",
        ("2x2", "mhz"): "28.113830773553524,32.12133684321792,120.31825601340967,"
        "137.41036134061767,225.34060149437633,257.46193833759423,16443031.872623019,"
        "0.177848406368849",
        ("8x8-lc16.00016", "hz"): "2806578.2535322807,3206643.9534581346,12011262.483226608,"
        "2666697500014.3535,22495548.0768892,25702192.030347332,-62522304.3385914,"
        "1.7815288042323925",
        ("8x8-lc16.00016", "mhz"): "2.8065782535322805,3.2066439534581344,12.011262483226608,"
        "2666697.5000143535,22.495548076889197,25.70219203034733,-62522304.3385914,"
        "1.7815288042323925",
        ("2x2-lc1e306", "hz"): "8.80278187292821e+157,1.0057580696675717e+158,"
        "3.7673107288299505e+158,3.758849076873756e+158,7.055687921175851e+158,"
        "8.061445990843423e+158,20000000.0,5.680022602146759e-152",
        ("2x2-lc1e306", "mhz"): "8.802781872928209e+151,1.0057580696675716e+152,"
        "3.76731072882995e+152,3.7588490768737555e+152,7.055687921175851e+152,"
        "8.061445990843422e+152,20000000.0,5.680022602146759e-152",
    }

    @pytest.mark.parametrize("name, unit", sorted(CRITICAL_PINS))
    def test_critical_pinned(self, tmp_path, name, unit):
        texts = {"default": serialize_scenario(DEFAULT_SCENARIO), "2x2": FLAT_2X2,
                 "8x8-lc16.00016": scenario_text(1e7, 1.0, 16.00016, 8, 8),
                 "2x2-lc1e306": scenario_text(1e7, 1.0, 1e306, 2, 2)}
        path = tmp_path / "scenario.txt"
        path.write_text(texts[name])
        code, text = run(tmp_path, "critical", "--scenario", str(path), "--unit", unit)
        assert code == 0
        assert text == f"{CRITICAL_COLUMNS.replace('|', ',')}\n{self.CRITICAL_PINS[name, unit]}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("options, p_list, bctc, normalize", ALPHA_CASES)
    def test_alpha(self, tmp_path, named_scenario, fmt, options, p_list, bctc, normalize):
        scenario, path = named_scenario
        code, text = run(tmp_path, "alpha", "--scenario", path, "--snr", "0.01", *options,
                         "--format", fmt)
        assert code == 0
        assert text == alpha_reference(scenario, fmt, 0.01, p_list, bctc, normalize)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fig6(self, tmp_path, named_scenario, fmt):
        scenario, path = named_scenario
        code, text = run(tmp_path, "fig6", "--scenario", path, "--format", fmt, "--unit", "hz")
        assert code == 0
        assert text == fig6_reference(scenario, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fig6_coefficients(self, tmp_path, fmt):
        code, text = run(tmp_path, "fig6", "--format", fmt)
        assert code == 0
        assert text == fig6_reference(None, fmt)


class TestVerifyCommand:
    def test_default_scenario_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--seed", "42", "--trials", "12000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert report["seed"] == 42
        assert len(report["checks"]) >= 10

    def test_rice_power_without_line_of_sight_fails(self, tmp_path, monkeypatch):
        # Negative control of the direct Rice |h|^2 draw: with the line-of-sight
        # term dropped, |h|^2 is the scatter's alone, with Rayleigh kurtosis 2.
        def rice_without_los(rng, fading, n):
            if fading.kind != "rice":
                return unit_fading_power(rng, fading, n)
            half_scatter = 0.5 / (1.0 + 2.0 * fading.param)
            return half_scatter * (np.square(rng.standard_normal(n))
                                   + np.square(rng.standard_normal(n)))

        monkeypatch.setattr(mcverify, "unit_fading_power", rice_without_los)
        out = tmp_path / "report.json"
        assert main(["verify", "--seed", "42", "--trials", "100000", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert [check["check"] for check in report["checks"] if not check["pass"]] == [
            "kurtosis[rice:1.0]"]

    @pytest.mark.parametrize("offset_ulps, expected", [(0, 0), (6, 1)],
                             ids=["true-kurtosis", "wrong-kurtosis"])
    def test_nearly_deterministic_kurtosis(self, tmp_path, monkeypatch, offset_ulps, expected):
        # Nakagami m = 1e16: the estimate 1.0000000000000002 is one ulp above
        # the expected 1.0, which is z = 55 with SE 4e-18.  Up to 0.16.0 this
        # failed; the 4-ulp rounding floor passes it, and an expected value 6
        # ulps off still fails.
        true_kurtosis = mcverify.kurtosis
        monkeypatch.setattr(mcverify, "kurtosis",
                            lambda fading: true_kurtosis(fading) + offset_ulps * 2.0**-52)
        path = tmp_path / "scenario.txt"
        path.write_text(FLAT_2X2.replace("rayleigh", "nakagami:1e16"))
        out = tmp_path / "report.json"
        code = main(["verify", "--scenario", str(path), "--trials", "10000", "--seed", "42",
                     "--out", str(out)])
        assert code == expected
        record, = [check for check in json.loads(out.read_text())["checks"]
                   if check["check"] == "kurtosis[nakagami:1e+16]"]
        assert record["estimate"] == 1.0000000000000002
        assert record["pass"] is (expected == 0)

    def test_byte_identical_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--seed", "7", "--trials", "12000", "--out", str(out_a)])
        main(["verify", "--seed", "7", "--trials", "12000", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_2x2_rayleigh_scenario_byte_identical(self, tmp_path, scenario_file):
        # The default scenario is 1x1; a 2x2 file reaches the 8x8 pilot
        # Toeplitz of the penalty check and the 2x2 coherent Gram.
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            argv = ["verify", "--scenario", scenario_file, "--trials", "12000", "--out", str(out)]
            assert main(argv) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert json.loads(out_a.read_text())["all_pass"] is True

    def test_report_provenance(self, tmp_path, scenario_file):
        out = tmp_path / "report.json"
        main(["verify", "--scenario", scenario_file, "--trials", "12000", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["version"] == widecap.__version__
        assert report["numpy_version"] == np.__version__
        assert parse_scenario(report["scenario"]) == parse_scenario(FLAT_2X2)
        assert list(report) == [
            "version", "numpy_version", "scenario", "seed", "trials", "checks", "all_pass",
        ]

    def test_version_matches_pyproject(self):
        # The report's version is the package's; both change together.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
        assert declared is not None
        assert declared.group(1) == widecap.__version__

    def test_scenario_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nt = 0\n")
        out = tmp_path / "r.json"
        code = main(["verify", "--scenario", str(bad), "--out", str(out)])
        assert code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["bounds"])  # missing required --scenario
        assert err.value.code == 2

    @pytest.mark.parametrize("options, message", [
        (["--seed", "-1"], "error: seed must be >= 0, got -1"),
        (["--trials", "9999"], "error: need at least 10000 trials"),
        # Memory no longer grows with --trials, so a ceiling refuses a run of years.
        (["--trials", "1000000000000000"], "error: need at most 1000000000 trials"),
    ], ids=["negative-seed", "too-few-trials", "unallocatable-trials"])
    def test_bad_seed_or_trials_exit_code(self, tmp_path, capsys, options, message):
        out = tmp_path / "never.json"
        assert main(["verify", *options, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr, expected", [("1e152", 0), ("1e154", 2), ("1e300", 2)])
    def test_overflowing_standard_error_refused(self, tmp_path, capsys, snr, expected):
        # 2x2 Rayleigh: the squared deviations of the coherent term overflow
        # float64 from about P/N0 = 1e153.  Up to 0.14.0 the report then held
        # "std_error": Infinity in four records, passed them, and exited 0.
        path = tmp_path / "scenario.txt"
        path.write_text(FLAT_2X2.replace("1e7", snr))
        out = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", "--scenario", str(path), "--trials", "10000", "--seed", "42",
                         "--out", str(out)])
        assert code == expected
        assert [str(w.message) for w in caught] == []
        if expected == 0:
            assert capsys.readouterr().err == ""
            assert json.loads(out.read_text())["all_pass"] is True
        else:
            assert capsys.readouterr().err == (
                "error: coherent_expansion std_error overflows float64 for this scenario\n")
            assert not out.exists()

    @pytest.mark.parametrize("antennas, shape", [(1, "1e-07"), (2, "1e-10")])
    def test_underflowing_nakagami_power_refused(self, tmp_path, capsys, antennas, shape):
        # Every Gamma(m, 1/m) draw of |h|^2 here underflows to 0.  Up to 0.17.0
        # the kurtosis divided by their mean: ZeroDivisionError, exit 1.
        path = tmp_path / "scenario.txt"
        path.write_text(scenario_text(1e7, 1.0, 1e12, antennas, antennas, f"nakagami:{shape}"))
        out = tmp_path / "never.json"
        code = main(["verify", "--scenario", str(path), "--trials", "10000", "--seed", "42",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: kurtosis[nakagami:{shape}]: the |h|^2 draws underflow float64 "
            "(their mean, cubed, is 0), so the estimate is undefined\n")
        assert not out.exists()


def run_in_own_session(*argv):
    """Exit code, stdout and stderr of ``python -m widecap.cli *argv``, run as a
    command of its own, after checking that it left no process behind."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    # A session of its own, so that its process group is the command and
    # whatever it forked: once the command has been reaped, the group is
    # empty unless a worker outlived it.
    command = subprocess.Popen([sys.executable, "-m", "widecap.cli", *argv], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, err = command.communicate(timeout=120)
    finally:
        command.kill()
        command.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(command.pid, 0)
    return command.returncode, out, err


class TestBoundsInItsOwnProcess:
    """``python -m widecap.cli bounds`` on a ten-block grid, which forks its
    worker where two CPUs are usable, run as a command of its own."""

    POINTS = 10 * _BLOCK - 3

    def test_prints_the_table(self, scenario_file):
        code, out, err = run_in_own_session("bounds", "--scenario", scenario_file, "--db-grid",
                                            f"1e4:1e12:{self.POINTS}", "--out", "-")
        assert (code, err) == (0, "")
        assert out == scalar_table(FLAT_2X2, occupancies(grid(1e4, 1e12, self.POINTS)), "csv")

    def test_worker_ends_when_the_command_is_killed(self, scenario_file):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        command = subprocess.Popen(
            [sys.executable, "-m", "widecap.cli", "bounds", "--scenario", scenario_file,
             "--db-grid", "1e4:1e12:1000000", "--out", "-"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            # The first line arrives with the first block, after the fork.
            assert command.stdout.readline().startswith(b"delta,")
            command.kill()
            # The worker shares the command's stdout, so its end comes only
            # once the worker, finding no reader of its blocks, has exited.
            command.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(command.pid, signal.SIGKILL)
            command.wait()
        assert command.returncode == -signal.SIGKILL


class TestVerifyInItsOwnProcess:
    """``python -m widecap.cli verify`` at 50 000 trials (13 chunks per draw), which
    forks its worker where two CPUs are usable, run as a command of its own."""

    @staticmethod
    def verify(*options):
        return run_in_own_session("verify", "--trials", "50000", "--seed", "42", *options,
                                  "--out", "-")

    def test_prints_one_report(self):
        code, out, err = self.verify()
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["trials"] == 50_000 and report["all_pass"] is True

    def test_failing_suite_prints_one_error(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(scenario_text(1e7, 1.0, 1e12, 2, 2, "nakagami:1e-10"))
        code, out, err = self.verify("--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: kurtosis[nakagami:1e-10]: the |h|^2 draws underflow float64 "
                       "(their mean, cubed, is 0), so the estimate is undefined\n")


class TestScenarioLimits:
    """Overflowing and infinite scenario values are usage errors (exit 2, no file)."""

    @pytest.mark.parametrize("name, text, message", [
        ("nt.json", '{"snr_density_hz": 1e7, "coherence_time_s": 1e-3, '
         '"coherence_bandwidth_hz": 1e6, "nt": 1e999, "nr": 2, "fading": "rayleigh"}',
         "error: field 'nt': cannot convert float infinity to integer\n"),
        ("db.txt", FLAT_2X2.replace("snr_density_hz = 1e7", "snr_density_db_hz = 4000"),
         "error: field 'snr_density_db_hz': 4000.0 dB overflows a float\n"),
        ("digits.txt", FLAT_2X2.replace("nt = 2", "nt = " + "1" * 401),
         "error: field 'nt': int too large to convert to float\n"),
        ("snr.txt", FLAT_2X2.replace("1e7", "inf"), "error: snr_density must be finite\n"),
        ("tc.txt", FLAT_2X2.replace("coherence_time_s = 1e-3", "coherence_time_s = inf"),
         "error: coherence_time must be finite\n"),
        ("product.txt", FLAT_2X2.replace("1e-3", "1e200").replace("1e6", "1e200"),
         "error: coherence_product must be finite\n"),
        ("subnormal.txt", FLAT_2X2.replace("1e7", "5e-320").replace("= 2", "= 1"),
         "error: snr_density 5e-320 is subnormal: it must be >= 2.2250738585072014e-308, "
         "the smallest normal float64\n"),
    ], ids=["json-nt-1e999", "db-4000", "nt-401-digits", "snr-inf", "tc-inf", "tc-bc-1e200",
            "snr-subnormal"])
    def test_critical_refuses(self, tmp_path, name, text, message, capsys):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "never.csv"
        assert main(["critical", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


    # Finite scenarios whose outputs overflow float64: 1x1 at P/N0 = 5e307 and
    # 2x2 at 1e308.  Up to 0.10.0 both commands wrote inf with exit 0.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("snr, antennas", [("5e307", "1"), ("1e308", "2")])
    def test_critical_refuses_overflowing_output(self, tmp_path, snr, antennas, fmt, capsys):
        path = tmp_path / "s.txt"
        path.write_text(FLAT_2X2.replace("1e7", snr).replace("= 2", f"= {antennas}"))
        out = tmp_path / "never.csv"
        argv = ["critical", "--scenario", str(path), "--format", fmt, "--out", str(out)]
        assert main(argv) == 2
        message = "error: occupancy_low overflows float64 for this scenario\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fig6_refuses_overflowing_output(self, tmp_path, fmt, capsys):
        path = tmp_path / "s.txt"
        path.write_text(FLAT_2X2.replace("1e7", "1e308"))
        out = tmp_path / "never.csv"
        argv = ["fig6", "--scenario", str(path), "--format", fmt, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: B_low_exact overflows float64 for this scenario\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, fading, label", [
        (["bounds", "--db-grid", "1e7:1e9:3"], "rice:inf", "rice:inf"),
        (["bounds", "--db-grid", "1e7:1e9:3"], "rice:1e200", "rice:1e+200"),  # 4k^2 overflows
        (["bounds", "--db-grid", "1e7:1e9:3"], "nakagami:5e-309", "nakagami:5e-309"),  # 1/m
        (["verify"], "nakagami:inf", "nakagami:inf"),
    ], ids=["bounds-rice-inf", "bounds-rice-1e200", "bounds-nakagami-5e-309",
            "verify-nakagami-inf"])
    def test_fading_without_finite_kurtosis(self, tmp_path, command, fading, label, capsys):
        path = tmp_path / "scenario.txt"
        path.write_text(FLAT_2X2.replace("rayleigh", fading))
        out = tmp_path / "never.csv"
        assert main([*command, "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {label}: the parameter and its kurtosis must be finite\n")
        assert not out.exists()


def scenario_text(snr, tc, bc, nt, nr, fading="rayleigh"):
    return (f"snr_density_hz = {snr!r}\ncoherence_time_s = {tc!r}\n"
            f"coherence_bandwidth_hz = {bc!r}\nnt = {nt}\nnr = {nr}\nfading = {fading}\n")


CRITICAL_COLUMNS = ("occupancy_low|occupancy_low_exact|occupancy_optimal|occupancy_optimal_exact"
                    "|occupancy_high_exact|occupancy_high|peak_rate_lower|gap_delta")


class TestCriticalRefusals:
    """``critical`` refuses an input only for a scenario field or a non-finite or
    underflowed column."""

    ALLOWED = re.compile(
        rf"error: (({CRITICAL_COLUMNS}) (overflows|underflows) float64 for this scenario"
        r"|snr_density \S+ is subnormal: .*"
        r"|coherence product (<= 1|below pi\*\*\(4/\(Nt\+Nr\)\)|must exceed e"
        r"|\S+ must exceed kappa-2\+Nt\+Nr = .*))\n")

    def test_seeded_fuzz(self, tmp_path):
        # Log-uniform P/N0 over every positive float64 up to 1.6e308 and Lc up
        # to 1e109, 1-16 antennas.  Up to 0.13.0, 4 of these 1000 scenarios
        # (about 0.3% of such scenarios) were refused as "bracket width
        # inconsistent with antenna counts" or "bracket does not contain the
        # optimal occupancy", for float64 overflow or a subnormal P/N0.
        rng = np.random.default_rng(2024)
        path, out = tmp_path / "scenario.txt", tmp_path / "out.csv"
        refused = 0
        for _ in range(1000):
            snr = float(10.0 ** rng.uniform(math.log10(5e-324), math.log10(1.6e308)))
            lc = float(10.0 ** rng.uniform(0.0, 109.0))
            nt, nr = (int(n) for n in rng.integers(1, 17, size=2))
            path.write_text(scenario_text(max(snr, 5e-324), 1.0, lc, nt, nr))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["critical", "--scenario", str(path), "--out", str(out)])
            if code == 2:
                refused += 1
                assert self.ALLOWED.fullmatch(err.getvalue()), (snr, lc, nt, nr, err.getvalue())
                assert not out.exists()
                continue
            assert code == 0, (snr, lc, nt, nr)
            _, rows = csv_rows(out.read_text())
            cells = [float(cell) for cell in rows[0].values()]
            assert all(math.isfinite(cell) for cell in cells)
            assert all(cell >= sys.float_info.min for cell in cells[:6])
            out.unlink()
        assert 0 < refused < 1000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("nt, nr, bc", [
        (2, 2, 8.043641874808262e110),  # up to 0.13.0: ZeroDivisionError, exit 1
        (1, 1, 4.41e109),
        (2, 2, 1e306),  # up to 0.13.0: never ended
        (8, 8, 16.00016),  # just above K = 16: at and below K there is no interior maximum
    ])
    def test_largest_coherence_products(self, tmp_path, fmt, nt, nr, bc):
        path = tmp_path / "s.txt"
        path.write_text(scenario_text(1e7, 1.0, bc, nt, nr))
        code, text = run(tmp_path, "critical", "--scenario", str(path), "--format", fmt)
        assert code == 0
        assert text == critical_reference(parse_scenario(path.read_text()), fmt, 1.0)

    def test_exact_occupancy_overflow_named(self, tmp_path, capsys):
        # 1x7: the closed-form optimum is finite, the exact maximizer is not.
        # Up to 0.13.0 the refusal read "bracket width inconsistent with
        # antenna counts".
        path = tmp_path / "s.txt"
        path.write_text(scenario_text(1.6317618076381978e302, 1.0, 4.35e12, 1, 7))
        out = tmp_path / "never.csv"
        assert main(["critical", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: occupancy_optimal_exact overflows float64 for this scenario\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, snr, antennas, column", [
        (["critical", "--unit", "mhz"], 1e-307, 1, "occupancy_low"),
        (["fig6", "--unit", "mhz"], 1e-307, 1, "B_low_exact"),
        # The loose low end of 8x8 at Lc = 16.5 is 0.28 P/N0, subnormal in hertz.
        (["critical"], 2.3e-308, 8, "occupancy_low"),
        (["fig6"], 2.3e-308, 8, "B_low_exact"),
    ], ids=["critical-mhz", "fig6-mhz", "critical-hz", "fig6-hz"])
    def test_underflowing_frequency_refused(self, tmp_path, fmt, command, snr, antennas, column,
                                            capsys):
        # Up to 0.13.0 these wrote cells such as 3.975896077e-313 with exit 0.
        path = tmp_path / "s.txt"
        path.write_text(scenario_text(snr, 1.0, 16.5 if antennas == 8 else 1e3,
                                      antennas, antennas))
        out = tmp_path / "never.out"
        assert main([*command, "--scenario", str(path), "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {column} underflows float64 for this scenario\n")
        assert not out.exists()


class TestOptionScope:
    """Each option exists only on the commands that read it."""

    @pytest.mark.parametrize("command, options", [
        ("critical", ["--seed", "1"]),
        ("bounds", ["--db-grid", "1e6:1e10:3", "--trials", "5"]),
        ("alpha", ["--snr", "0.01", "--unit", "mhz"]),
        ("fig6", ["--seed", "1"]),
        ("verify", ["--format", "csv"]),
        ("verify", ["--unit", "mhz"]),
    ], ids=["critical-seed", "bounds-trials", "alpha-unit", "fig6-seed", "verify-format",
            "verify-unit"])
    def test_unread_option_is_usage_error(self, tmp_path, scenario_file, command, options,
                                          capsys):
        out = tmp_path / "never.out"
        with pytest.raises(SystemExit) as err:
            main([command, "--scenario", scenario_file, *options, "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()
        assert "unrecognized arguments: " + " ".join(options[-2:]) in capsys.readouterr().err

    @pytest.mark.parametrize("fading", ["rice:1.0", "nakagami:2.0"])
    @pytest.mark.parametrize("factor", ["0.5", "1"])
    def test_penalty_factor_needs_rayleigh(self, tmp_path, fading, factor, capsys):
        # Only the Rayleigh R_UB column reads --penalty-factor, even at its default 1.
        path = tmp_path / "scenario.txt"
        path.write_text(FLAT_2X2.replace("rayleigh", fading))
        out = tmp_path / "never.csv"
        code = main(["bounds", "--scenario", str(path), "--db-grid", "1e6:1e8:3",
                     "--penalty-factor", factor, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: --penalty-factor sets R_UB, which exists only for Rayleigh fading, "
            f"not {fading}\n")


class TestParser:
    def test_main_builds_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        _build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert main(["fig6", "--out", str(tmp_path / "fig6.csv")]) == 0
        assert built.count("widecap") == 1


class TestSeedScope:
    def test_seed_changes_verify_report(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--seed", "1", "--trials", "12000", "--out", str(out_a)])
        main(["verify", "--seed", "2", "--trials", "12000", "--out", str(out_b)])
        assert out_a.read_text() != out_b.read_text()
