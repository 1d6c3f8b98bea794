import itertools
import json
import math

import numpy as np
import pytest

import widecap
from widecap.bounds import rate_lower_bound, rate_upper_bound
from widecap.cli import _BLOCK, GridAxis, SweepSpec, main
from widecap.scenario import parse_scenario

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
    def test_values(self):
        axis = GridAxis(1.0, 100.0, 3)
        assert list(axis.values()) == pytest.approx([1.0, 10.0, 100.0])
        lin = GridAxis(0.0, 1.0, 3, log=False)
        assert list(lin.values()) == pytest.approx([0.0, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridAxis(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridAxis(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            GridAxis(0.0, 2.0, 5, log=True)
        for lo, hi in ((1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="grid bounds must be finite"):
                GridAxis(lo, hi, 5, log=False)

    def test_sweep_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec()
        with pytest.raises(ValueError):
            SweepSpec(
                occupancy_axis=GridAxis(1.0, 2.0, 2),
                bandwidth_axis=GridAxis(1.0, 2.0, 2),
            )
        with pytest.raises(ValueError, match="a delta grid needs a bandwidth grid"):
            SweepSpec(delta_axis=GridAxis(0.1, 1.0, 2))


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
    """The bounds table built one point at a time from scalar kernel calls."""
    scenario = parse_scenario(scenario_text)
    rayleigh = scenario.fading.kind == "rayleigh"
    c_inf = scenario.wideband_limit
    header = ["delta", "B", "deltaB", "R_LB", "R_LB_plot"]
    header += ["R_UB"] if rayleigh else []
    header += ["C_inf", "gap"]
    rows = []
    for delta, bandwidth in pairs:
        occupancy = delta * bandwidth
        lower = float(rate_lower_bound(scenario, occupancy))
        row = [delta, bandwidth * scale, occupancy * scale, lower, max(lower, 0.0)]
        if rayleigh:
            row.append(float(rate_upper_bound(scenario, occupancy, penalty_factor)))
        rows.append(row + [c_inf, 1.0 - lower / c_inf])
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
    pytest.param("rayleigh", ["--db-grid", "1e-320:1e-300:3"],
                 occupancies(grid(1e-320, 1e-300, 3)), {}, id="subnormal",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    # The B strings of a repeated B axis are formatted once, after scaling.
    pytest.param("rayleigh", ["--delta-grid", "0.0625:1:5", "--b-grid", "1e7:1.6e9:7",
                              "--unit", "mhz"],
                 plane(grid(0.0625, 1, 5), grid(1e7, 1.6e9, 7)), {"scale": 1e-6},
                 id="plane-mhz"),
    # Three blocks; R_LB changes sign inside the first two.
    pytest.param("rayleigh", ["--delta-grid", "0.01:1:4", "--b-grid", f"1e4:1e10:{HALF}"],
                 plane(grid(0.01, 1, 4), grid(1e4, 1e10, HALF)), {}, id="long-plane-zero-crossing"),
    # Non-finite R_LB, R_UB and gap next to the cached delta, B and C_inf strings.
    pytest.param("rayleigh", ["--delta-grid", "1e-3:1:3", "--b-grid", "1e-318:1e-300:4"],
                 plane(grid(1e-3, 1, 3), grid(1e-318, 1e-300, 4)), {}, id="subnormal-plane",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
]


class TestBoundsByteIdentity:
    """Block-wise output equals the point-by-point table, byte for byte."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fading, options, pairs, kwargs", BYTE_IDENTITY_CASES)
    def test_matches_scalar_table(self, tmp_path, fading, options, pairs, kwargs, fmt):
        text = FLAT_2X2.replace("rayleigh", "rice:1.0") if fading == "rice" else FLAT_2X2
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        code, out = run(tmp_path, "bounds", "--scenario", str(path), *options, "--format", fmt)
        assert code == 0
        assert out == scalar_table(text, pairs, fmt, **kwargs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_subnormal_grid_spells_non_finite_values(self, tmp_path, scenario_file):
        argv = ["bounds", "--scenario", scenario_file, "--db-grid", "1e-320:1e-300:3"]
        _, csv_text = run(tmp_path, *argv)
        _, rows = csv_rows(csv_text)
        assert (rows[0]["R_LB"], rows[0]["R_UB"], rows[0]["gap"]) == ("-inf", "nan", "inf")
        _, json_text = run(tmp_path, *argv, "--format", "json")
        assert '"R_LB": -Infinity' in json_text
        assert '"R_UB": NaN' in json_text
        assert '"gap": Infinity' in json_text
        assert '"C_inf": 20000000.0' in json_text


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
            assert capsys.readouterr().err.startswith("error: ")
        assert code == 2
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


class TestVerifyCommand:
    def test_default_scenario_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--seed", "42", "--trials", "12000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert report["seed"] == 42
        assert len(report["checks"]) >= 10

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


class TestSeedScope:
    def test_seed_ignored_by_analytic_commands(self, tmp_path, scenario_file):
        _, a = run(
            tmp_path, "critical", "--scenario", scenario_file, "--seed", "1",
        )
        _, b = run(
            tmp_path, "critical", "--scenario", scenario_file, "--seed", "999",
        )
        assert a == b

    def test_seed_changes_verify_report(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--seed", "1", "--trials", "12000", "--out", str(out_a)])
        main(["verify", "--seed", "2", "--trials", "12000", "--out", str(out_b)])
        assert out_a.read_text() != out_b.read_text()
