"""Command-line driver for sweeps, bracket reports and the verification suite.

Commands:
    bounds    rate bounds over a (delta, B) grid, a dB grid, or one point
    critical  optimal/critical occupancy report for a scenario
    alpha     sublinear-exponent bracket columns over a Bc*Tc grid
    fig6      normalized critical-occupancy sheets over antenna counts
    verify    Monte-Carlo verification suite (exit 1 on any failed check)

Output is data only (CSV or JSON, never plots).  Frequencies are emitted in
hertz unless ``--unit mhz`` rescales the display.  ``bounds`` evaluates its
grid in fixed blocks of points, one kernel call per block, and writes each
block's rows as it goes, so its memory does not grow with the grid size.  It
formats each distinct delta, B and C_inf value once, not once per row; the
bytes are those of formatting every cell.  Exit codes: 0 success,
1 verification failure, 2 usage or scenario errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__, bounds, mcverify
from .scenario import (
    ChannelScenario,
    FadingFamily,
    ScenarioError,
    parse_scenario,
    serialize_scenario,
)

__all__ = ["GridAxis", "SweepSpec", "main"]

DEFAULT_SCENARIO = ChannelScenario(
    snr_density=100.0,
    coherence_time=1e-3,
    coherence_bandwidth=1e6,
    nt=1,
    nr=1,
    fading=FadingFamily.rayleigh(),
)


@dataclass(frozen=True)
class GridAxis:
    """One sweep axis: ``points`` values from lo to hi, log or linear spacing."""

    lo: float
    hi: float
    points: int
    log: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError("grid bounds must be strictly increasing")
        if self.points < 2:
            raise ValueError("grids need at least two points")
        if self.log and self.lo <= 0:
            raise ValueError("log grids need positive bounds")

    def values(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Axes for a bounds sweep: a (delta, B) product grid or a dB grid."""

    delta_axis: Optional[GridAxis] = None
    bandwidth_axis: Optional[GridAxis] = None
    occupancy_axis: Optional[GridAxis] = None
    point: Optional[tuple] = None  # single-point mode: (delta, bandwidth)

    def __post_init__(self):
        plane = self.delta_axis is not None or self.bandwidth_axis is not None
        if self.occupancy_axis is not None and plane:
            raise ValueError("give either a dB grid or (delta, B) axes, not both")
        if self.point is not None and (plane or self.occupancy_axis is not None):
            raise ValueError("single-point mode excludes grid axes")
        if self.point is None and not plane and self.occupancy_axis is None:
            raise ValueError("no sweep axes given")
        if self.delta_axis is not None and self.bandwidth_axis is None:
            raise ValueError("a delta grid needs a bandwidth grid")

    def axes(self):
        """(delta, bandwidth) axis arrays; the sweep is their product in row-major order."""
        if self.point is not None:
            delta, bandwidth = self.point
            return np.array([delta], dtype=float), np.array([bandwidth], dtype=float)
        if self.occupancy_axis is not None:
            return np.ones(1), self.occupancy_axis.values()
        deltas = self.delta_axis.values() if self.delta_axis else np.ones(1)
        return deltas, self.bandwidth_axis.values()


def _parse_axis(text: str) -> GridAxis:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected lo:hi:n[:log|lin], got {text!r}")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    log = True
    if len(parts) == 4:
        if parts[3] not in ("log", "lin"):
            raise argparse.ArgumentTypeError("spacing must be 'log' or 'lin'")
        log = parts[3] == "log"
    try:
        return GridAxis(lo, hi, points, log)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_scenario(path: Optional[str]) -> ChannelScenario:
    if path is None:
        return DEFAULT_SCENARIO
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _write_rows(out, header, rows, fmt: str):
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_render(value) for value in row) + "\n")
    else:
        payload = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(payload, indent=2) + "\n")


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# How json spells the non-finite floats that repr writes as nan, inf and -inf.
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reprs(values: np.ndarray, fmt: str) -> list:
    """repr of each float in ``values``, in json's spelling when ``fmt`` is json."""
    text = list(map(repr, values.tolist()))
    if fmt == "json" and not np.isfinite(values).all():
        text = [_JSON_SPELLING.get(value, value) for value in text]
    return text


def _write_blocks(out, header, blocks, fmt: str):
    """Stream blocks of string columns (one list per header name) as CSV, or as
    JSON with the bytes of ``json.dumps(list_of_row_dicts, indent=2)``."""
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        row, sep, lead, end = ",".join(["%s"] * len(header)) + "\n", "", "", ""
    else:
        fields = ",\n".join(f"    {json.dumps(name)}: %s" for name in header)
        row, sep, lead, end = "  {\n" + fields + "\n  }", ",\n", "[\n", "\n]\n"
    for columns in blocks:
        # One string per row, joined: formatting a whole block in one % call
        # grows its buffer by reallocation, which fragments the heap and
        # raised peak RSS.
        out.write(lead + sep.join([row % values for values in zip(*columns)]))
        lead = sep
    out.write(end)


def _freq_scale(unit: str) -> float:
    return 1e-6 if unit == "mhz" else 1.0


def _penalty_factor(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("penalty_factor must be in (0, 1]")
    return value


# Grid points per kernel call and per write.  Small enough that the memory of
# a block stays well below the interpreter's, whatever the grid size.
_BLOCK = 512


def cmd_bounds(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.delta is not None or args.bandwidth is not None:
        if args.delta is None or args.bandwidth is None:
            raise ScenarioError("single-point mode needs both --delta and --bandwidth")
        spec = SweepSpec(point=(args.delta, args.bandwidth))
    else:
        spec = SweepSpec(
            delta_axis=args.delta_grid,
            bandwidth_axis=args.b_grid,
            occupancy_axis=args.db_grid,
        )
    deltas, bands = spec.axes()
    # Rounding is monotone, so delta*B over the product grid is smallest and
    # largest at corners of the axis ranges: checking the corners checks every
    # point before any output is opened.  Overflow is reported below, not warned.
    with np.errstate(all="ignore"):
        corners = np.multiply.outer([deltas.min(), deltas.max()], [bands.min(), bands.max()])
    if not np.all(corners > 0):
        raise ValueError("occupancy must be > 0")
    if not np.all(np.isfinite(corners)):
        raise ValueError("occupancy must be finite")
    rayleigh = scenario.fading.kind == "rayleigh"
    header = ["delta", "B", "deltaB", "R_LB", "R_LB_plot"]
    if rayleigh:
        header.append("R_UB")
    header += ["C_inf", "gap"]
    fmt = args.format
    scale = _freq_scale(args.unit)
    c_inf = scenario.wideband_limit
    nb = bands.size
    points = deltas.size * nb
    # Each distinct delta, B and C_inf is formatted once.  The B strings are
    # kept for the whole axis only when it repeats (more than one delta): a
    # long dB axis kept whole would outweigh the rest of the program.
    delta_text = np.array(_reprs(deltas, fmt), dtype=object)
    band_text = np.array(_reprs(bands * scale, fmt), dtype=object) if deltas.size > 1 else None
    # delta = 1.0 makes delta*B*scale equal B*scale bit for bit.
    unit_delta = bool(np.all(deltas == 1.0))
    c_inf_text = _reprs(np.array([c_inf]), fmt)[0]

    def blocks():
        for start in range(0, points, _BLOCK):
            index = np.arange(start, min(start + _BLOCK, points))
            row, col = index // nb, index % nb
            bandwidth = bands[col]
            occupancy = deltas[row] * bandwidth
            lower = bounds.rate_lower_bound(scenario, occupancy)
            if band_text is None:
                band = _reprs(bandwidth * scale, fmt)
            else:
                band = band_text[col].tolist()
            lower_text = _reprs(lower, fmt)
            columns = [
                delta_text[row].tolist(),
                band,
                band if unit_delta else _reprs(occupancy * scale, fmt),
                lower_text,
                # max(lower, 0.0) of each row: keeps nan and -0.0.
                ["0.0" if clamp else text
                 for clamp, text in zip((0.0 > lower).tolist(), lower_text)],
            ]
            if rayleigh:
                upper = bounds.rate_upper_bound(scenario, occupancy, args.penalty_factor)
                columns.append(_reprs(upper, fmt))
            columns += [[c_inf_text] * index.size, _reprs(1.0 - lower / c_inf, fmt)]
            yield columns

    out, close = _open_out(args.out)
    try:
        _write_blocks(out, header, blocks(), fmt)
    finally:
        if close:
            out.close()
    return 0


def cmd_critical(args) -> int:
    scenario = _load_scenario(args.scenario)
    bracket = bounds.critical_bracket(scenario)
    gap = bounds.peak_gap(scenario)
    scale = _freq_scale(args.unit)
    header = [
        "occupancy_low", "occupancy_low_exact", "occupancy_optimal",
        "occupancy_optimal_exact", "occupancy_high_exact", "occupancy_high",
        "peak_rate_lower", "gap_delta",
    ]
    row = [
        bracket.occupancy_low * scale,
        bracket.occupancy_low_exact * scale,
        bracket.occupancy_optimal * scale,
        bracket.occupancy_optimal_exact * scale,
        bracket.occupancy_high_exact * scale,
        bracket.occupancy_high * scale,
        bracket.peak_rate_lower,
        gap,
    ]
    out, close = _open_out(args.out)
    try:
        if args.format == "csv":
            _write_rows(out, header, [row], "csv")
        else:
            payload = dict(zip(header, row))
            payload["summary"] = (
                f"optimal occupancy ~ {bracket.occupancy_optimal / 1e6:.3g} MHz "
                f"with capacity gap ~ {gap:.3f}"
            )
            out.write(json.dumps(payload, indent=2) + "\n")
    finally:
        if close:
            out.close()
    return 0


def cmd_alpha(args) -> int:
    scenario = _load_scenario(args.scenario)
    snr = args.snr
    p_list = args.p
    axis = args.bctc_grid or GridAxis(1e2, 1e8, 25, log=True)
    suffix = "_over_logLc" if args.normalize else ""
    header = ["BcTc", f"alpha_max{suffix}", f"alpha_max_over_2{suffix}"]
    header += [f"alpha_min_p{p:g}{suffix}" for p in p_list]
    header += [f"alpha_plus{suffix}", f"alpha_minus{suffix}"]

    def rows():
        for lc in axis.values():
            variant = replace(
                scenario, coherence_bandwidth=float(lc) / scenario.coherence_time)
            norm = math.log(variant.coherence_product) if args.normalize else 1.0
            mins = []
            for p in p_list:
                eps = bounds.epsilon_for_error_pct(p, snr)
                if eps == 0.0:
                    # p = 100 collapses the bracket onto alpha_max.
                    mins.append(bounds.alpha_brackets(variant, snr, 1e-300).alpha_max)
                else:
                    mins.append(bounds.alpha_brackets(variant, snr, eps).alpha_min)
            ab = bounds.alpha_brackets(variant, snr, 1.0)
            row = [float(lc), ab.alpha_max / norm, ab.alpha_max / 2.0 / norm]
            row += [v / norm for v in mins]
            row += [ab.alpha_plus / norm, ab.alpha_minus / norm]
            yield row

    out, close = _open_out(args.out)
    try:
        _write_rows(out, header, rows(), args.format)
    finally:
        if close:
            out.close()
    return 0


def cmd_fig6(args) -> int:
    scale = 1.0
    if args.scenario is not None:
        scenario = _load_scenario(args.scenario)
        lc = scenario.coherence_product
        scale = scenario.snr_density * math.sqrt(lc / math.log(lc))
    header = ["nt", "nr", "B_low_exact", "B_low_approx", "B_high_exact", "B_high_approx"]
    rows = []
    for nt in range(1, 9):
        for nr in range(1, 9):
            low_exact, low_approx, high_exact, high_approx = bounds.critical_coefficients(nt, nr)
            if not (low_approx <= low_exact and high_exact <= high_approx):
                raise RuntimeError("exact critical sheet left the approximate bracket")
            rows.append([
                nt, nr, low_exact * scale, low_approx * scale,
                high_exact * scale, high_approx * scale,
            ])
    out, close = _open_out(args.out)
    try:
        _write_rows(out, header, rows, args.format)
    finally:
        if close:
            out.close()
    return 0


def cmd_verify(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = mcverify.McConfig(trials=args.trials, base_seed=args.seed)
    records = mcverify.run_verification_suite(scenario, cfg)
    report = {
        "version": __version__,
        "numpy_version": np.__version__,
        "scenario": serialize_scenario(scenario),
        "seed": args.seed,
        "trials": args.trials,
        "checks": [record.as_dict() for record in records],
        "all_pass": all(record.passed for record in records),
    }
    out, close = _open_out(args.out)
    try:
        out.write(json.dumps(report, indent=2) + "\n")
    finally:
        if close:
            out.close()
    if not report["all_pass"]:
        failing = [record.check for record in records if not record.passed]
        print("failed checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widecap",
        description="Rate bounds of non-coherent wideband MIMO channels over bandwidth occupancy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=False):
        p.add_argument("--scenario", required=scenario_required,
                       help="scenario file (flat key=value or JSON)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--unit", choices=("hz", "mhz"), default="hz",
                       help="display unit for frequency columns")
        # Accepted everywhere; only the Monte-Carlo command reads them.
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--trials", type=int, default=20_000)

    p_bounds = sub.add_parser("bounds", help="rate bounds over a sweep grid")
    common(p_bounds, scenario_required=True)
    p_bounds.add_argument("--delta-grid", type=_parse_axis, default=None,
                          metavar="LO:HI:N[:log|lin]")
    p_bounds.add_argument("--b-grid", type=_parse_axis, default=None,
                          metavar="LO:HI:N[:log|lin]")
    p_bounds.add_argument("--db-grid", type=_parse_axis, default=None,
                          metavar="LO:HI:N[:log|lin]", help="occupancy grid (delta fixed at 1)")
    p_bounds.add_argument("--delta", type=float, default=None, help="single-point duty cycle")
    p_bounds.add_argument("--bandwidth", type=float, default=None,
                          help="single-point bandwidth in Hz")
    p_bounds.add_argument("--penalty-factor", type=_penalty_factor, default=1.0,
                          help="penalty factor in (0, 1] of the Rayleigh upper bound")
    p_bounds.set_defaults(func=cmd_bounds)

    p_crit = sub.add_parser("critical", help="critical-occupancy report")
    common(p_crit, scenario_required=True)
    p_crit.set_defaults(func=cmd_critical)

    p_alpha = sub.add_parser("alpha", help="sublinear-exponent bracket columns")
    common(p_alpha, scenario_required=True)
    p_alpha.add_argument("--snr", type=float, required=True, help="per-dof SNR in (0, 1)")
    p_alpha.add_argument("--p", type=lambda s: [float(v) for v in s.split(",")],
                         default=[1.0, 10.0], help="error percentages, comma separated")
    p_alpha.add_argument("--bctc-grid", type=_parse_axis, default=None,
                         metavar="LO:HI:N[:log|lin]")
    p_alpha.add_argument("--normalize", action="store_true",
                         help="divide alpha columns by ln(BcTc)")
    p_alpha.set_defaults(func=cmd_alpha)

    p_fig6 = sub.add_parser("fig6", help="critical-occupancy sheets over antenna counts")
    common(p_fig6)
    p_fig6.set_defaults(func=cmd_fig6)

    p_verify = sub.add_parser("verify", help="Monte-Carlo verification suite")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ScenarioError is a ValueError: bad files and bad parameter domains
        # are both usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
