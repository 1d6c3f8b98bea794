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
bytes are those of formatting every cell.  On a grid of more than eight
blocks with two usable CPUs, a helper interpreter (``widecap._reprhelper``)
formats part of each later block's float cells, a few blocks ahead, while
this process formats the rest and writes.  The split moves block by block
toward the side that waits, and the bytes do not depend on it.  Every
command validates its input, and refuses output that overflows float64 or a
frequency that underflows it, before ``--out`` is opened, so a usage error
creates no file; all but ``bounds`` compute their whole output first.
Exit codes: 0 success, 1 verification failure, 2 usage or scenario errors.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from typing import Optional

import numpy as np

from . import __version__, _usable_cpus, bounds
from .scenario import (
    ChannelScenario,
    FadingFamily,
    ScenarioError,
    parse_scenario,
    serialize_scenario,
)

__all__ = ["main"]

DEFAULT_SCENARIO = ChannelScenario(
    snr_density=100.0,
    coherence_time=1e-3,
    coherence_bandwidth=1e6,
    nt=1,
    nr=1,
    fading=FadingFamily.rayleigh(),
)


def _parse_axis(text: str) -> np.ndarray:
    """The n values from lo to hi of the sweep axis ``lo:hi:n[:log|lin]``, log-spaced by default."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected lo:hi:n[:log|lin], got {text!r}")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if parts[3:] not in ([], ["log"], ["lin"]):
        raise argparse.ArgumentTypeError("spacing must be 'log' or 'lin'")
    log = parts[3:] != ["lin"]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("grid bounds must be finite")
    if not lo < hi:
        raise argparse.ArgumentTypeError("grid bounds must be strictly increasing")
    if points < 2:
        raise argparse.ArgumentTypeError("grids need at least two points")
    if log and lo <= 0:
        raise argparse.ArgumentTypeError("log grids need positive bounds")
    try:
        return np.geomspace(lo, hi, points) if log else np.linspace(lo, hi, points)
    except (ValueError, IndexError):  # more points than numpy can index
        raise MemoryError(f"{points} points") from None


def _load_scenario(path: Optional[str]) -> ChannelScenario:
    if path is None:
        return DEFAULT_SCENARIO
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


@contextmanager
def _output(path: Optional[str]):
    """stdout, or the file ``path``, created only when this is entered."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as out:
        yield out


def _reprs(values: np.ndarray) -> list:
    """repr of each float in ``values``."""
    return list(map(repr, values.tolist()))


def _write_blocks(out, header, blocks, fmt: str):
    """Stream blocks of string columns (one list per header name) as CSV, or as
    JSON with the bytes of ``json.dumps(list_of_row_dicts, indent=2)``."""
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for columns in blocks:
            out.write("\n".join(map(",".join, zip(*columns))) + "\n")
        return
    # A row is its key prefixes and cells interleaved, then "\n  }".  Each row
    # opens with ",\n", which the first row of all trades for "[\n".
    keys = [f"    {json.dumps(name)}: " for name in header]
    prefixes = [",\n  {\n" + keys[0]] + [",\n" + key for key in keys[1:]]
    lead = "[\n"
    for columns in blocks:
        # One join per block sizes its string once.  Formatting the block with
        # one % call grows the string by reallocation instead, which
        # fragments the heap and raised peak RSS.
        rows = len(columns[0])
        pieces = []
        for prefix, column in zip(prefixes, columns):
            pieces += [itertools.repeat(prefix, rows), column]
        pieces.append(itertools.repeat("\n  }", rows))
        text = "".join(itertools.chain.from_iterable(zip(*pieces)))
        out.write(lead + text[2:] if lead else text)
        lead = ""
    out.write("\n]\n")


def _require_finite(header, columns, occupancy=None, frequencies=0):
    """Refuse output that overflowed float64, naming its first non-finite column
    and, given the occupancy of each row, the first such row's.  The first
    ``frequencies`` columns hold frequencies > 0: a subnormal or 0 cell there
    lost digits to underflow and is refused the same way."""
    for index, (name, column) in enumerate(zip(header, columns)):
        column = np.asarray(column)
        checks = [(np.isfinite(column), "overflows")]
        if index < frequencies:
            checks.append((column >= sys.float_info.min, "underflows"))
        for kept, fault in checks:
            if not np.all(kept):
                where = "for this scenario"
                if occupancy is not None:
                    where = f"at occupancy {float(occupancy[np.argmin(kept)])!r}"
                raise ValueError(f"{name} {fault} float64 {where}")


def _freq_scale(unit: str) -> float:
    return 1e-6 if unit == "mhz" else 1.0


def _percentages(text: str) -> list:
    try:
        return [float(value) for value in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _penalty_factor(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("penalty_factor must be in (0, 1]")
    return value


# Grid points per kernel call and per write.  Small enough that the memory of
# a block stays well below the interpreter's, whatever the grid size.
_BLOCK = 512
# Blocks evaluated ahead of the one being written, so that the repr helper
# has queued work and rarely waits for the next frame.
_AHEAD = 4
# Share of each block's float cells formatted here while a helper formats the
# rest.  It starts below half, since this process also evaluates and writes
# the rows, and moves one step per block within its bounds: up when this
# process had to wait for the helper's reply, down when the reply was there.
_SHARE_START, _SHARE_STEP, _SHARE_MIN, _SHARE_MAX = 1 / 3, 0.01, 0.1, 0.9
# Leading blocks of a sweep formatted wholly here, which takes about as long as
# a helper takes to start (20 ms on a 2-core VM); only a longer sweep starts one.
_SOLO_BLOCKS = 8


def _repr_helper(points: int):
    """A started :class:`widecap._reprhelper.Helper`, for a sweep longer than its
    solo blocks with two usable CPUs, or a context giving None."""
    if points > _SOLO_BLOCKS * _BLOCK and _usable_cpus() > 1:
        from ._reprhelper import Helper

        helper = Helper.start()
        if helper is not None:
            return helper
    return nullcontext()


def _sweep_axes(args):
    """(delta, bandwidth) axis arrays of ``bounds``: one point, a dB grid (delta 1), or
    an optional delta grid times a B grid.  The sweep is their product in row-major order."""
    if args.delta is not None or args.bandwidth is not None:
        if args.delta is None or args.bandwidth is None:
            raise ScenarioError("single-point mode needs both --delta and --bandwidth")
        if any(grid is not None for grid in (args.delta_grid, args.b_grid, args.db_grid)):
            raise ValueError("single-point mode excludes grid axes")
        return np.array([args.delta], dtype=float), np.array([args.bandwidth], dtype=float)
    if args.db_grid is not None:
        if args.delta_grid is not None or args.b_grid is not None:
            raise ValueError("give either a dB grid or (delta, B) axes, not both")
        return np.ones(1), args.db_grid
    if args.b_grid is None:
        raise ValueError("no sweep axes given" if args.delta_grid is None
                         else "a delta grid needs a bandwidth grid")
    return (np.ones(1) if args.delta_grid is None else args.delta_grid), args.b_grid


def cmd_bounds(args) -> int:
    scenario = _load_scenario(args.scenario)
    rayleigh = scenario.fading.kind == "rayleigh"
    upper_column = ["R_UB"] if rayleigh else []
    if args.penalty_factor is not None and not rayleigh:
        raise ValueError("--penalty-factor sets R_UB, which exists only for Rayleigh fading, "
                         f"not {scenario.fading.label}")
    penalty_factor = 1.0 if args.penalty_factor is None else args.penalty_factor
    deltas, bands = _sweep_axes(args)
    c_inf = scenario.wideband_limit

    def kernels(occupancy):
        """R_LB, R_UB (Rayleigh only) and the gap at each occupancy."""
        lower = bounds.rate_lower_bound(scenario, occupancy)
        upper = [bounds.rate_upper_bound(scenario, occupancy, penalty_factor)] if rayleigh else []
        return [lower, *upper, 1.0 - lower / c_inf]

    # Rounding is monotone, so delta*B over the product grid is smallest and
    # largest at corners of the axis ranges.  Every term of the kernels grows
    # in magnitude toward one of these two ends (each bound's distance below
    # C_inf is convex in 1/dB), so a table finite at both ends is finite
    # everywhere: checking the ends checks every point before any output is
    # opened.  The kernels refuse a non-positive or non-finite end.  Overflow
    # there is reported, not warned.
    with np.errstate(all="ignore"):
        corners = np.multiply.outer([deltas.min(), deltas.max()], [bands.min(), bands.max()])
        ends = np.array([corners.min(), corners.max()])
        _require_finite(["R_LB", *upper_column, "gap"], kernels(ends), ends)
    # delta is a fraction of time.  A positive delta*B can hide two negative
    # axes, but with every delta > 0 every B is > 0 too.
    if not (deltas.min() > 0 and deltas.max() <= 1):
        option = "--delta" if args.delta is not None else "--delta-grid"
        raise ValueError(f"{option} is a duty cycle and must lie in (0, 1]")
    header = ["delta", "B", "deltaB", "R_LB", "R_LB_plot", *upper_column, "C_inf", "gap"]
    scale = _freq_scale(args.unit)
    if args.unit == "mhz":  # B and delta*B in hertz are the user's, written as given
        low = ends[:1]  # the smallest delta*B, at the smallest delta and B
        _require_finite(["B", "deltaB"], [bands.min() * scale, low * scale], low, frequencies=2)
    nb = bands.size
    points = deltas.size * nb
    # Each distinct delta, B and C_inf is formatted once.  The B strings are
    # kept for the whole axis only when it repeats (more than one delta): a
    # long dB axis kept whole would outweigh the rest of the program.
    delta_text = np.array(_reprs(deltas), dtype=object)
    band_text = np.array(_reprs(bands * scale), dtype=object) if deltas.size > 1 else None
    # delta = 1.0 makes delta*B*scale equal B*scale bit for bit.
    unit_delta = bool(np.all(deltas == 1.0))
    c_inf_text = repr(c_inf)
    share = _SHARE_START

    def evaluate(start, helper):
        """A block's rows, columns, R_LB, the float cells that this process
        formats, and the helper sent the rest, if any."""
        index = np.arange(start, min(start + _BLOCK, points))
        row, col = index // nb, index % nb
        bandwidth = bands[col]
        occupancy = deltas[row] * bandwidth
        lower, *rest = kernels(occupancy)
        floats = [bandwidth * scale] if band_text is None else []
        floats += [] if unit_delta else [occupancy * scale]
        values = np.concatenate(floats + [lower, *rest])
        if start < _SOLO_BLOCKS * _BLOCK:
            helper = None
        split = int(values.size * share) if helper else values.size
        if helper:
            helper.submit(values[split:])
        return row, col, lower, values[:split], helper

    def assemble(row, col, lower, own, helper):
        """The block's string columns, in header order."""
        nonlocal share
        cells = _reprs(own)
        if helper:
            step = -_SHARE_STEP if helper.ready() else _SHARE_STEP
            share = min(max(share + step, _SHARE_MIN), _SHARE_MAX)
            cells += helper.result()
        columns = [cells[i:i + row.size] for i in range(0, len(cells), row.size)]
        band = columns.pop(0) if band_text is None else band_text[col].tolist()
        delta_b = band if unit_delta else columns.pop(0)
        lower_text, *upper, gap = columns
        plot = lower_text.copy()  # max(lower, 0.0) of each row: keeps -0.0
        for i in np.flatnonzero(0.0 > lower).tolist():
            plot[i] = "0.0"
        return [delta_text[row].tolist(), band, delta_b, lower_text, plot, *upper,
                [c_inf_text] * row.size, gap]

    def blocks(helper):
        pending = collections.deque()
        for start in range(0, points, _BLOCK):
            pending.append(evaluate(start, helper))
            if len(pending) > _AHEAD:
                yield assemble(*pending.popleft())
        while pending:
            yield assemble(*pending.popleft())

    with _output(args.out) as out, _repr_helper(points) as helper:
        _write_blocks(out, header, blocks(helper), args.format)
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
    row = [getattr(bracket, name) * scale for name in header[:6]] + [bracket.peak_rate_lower, gap]
    _require_finite(header, row, frequencies=6)
    with _output(args.out) as out:
        if args.format == "csv":
            cells = _reprs(np.array(row))
            _write_blocks(out, header, [[[cell] for cell in cells]], "csv")
        else:
            payload = dict(zip(header, row))
            payload["summary"] = (
                f"optimal occupancy ~ {bracket.occupancy_optimal / 1e6:.3g} MHz "
                f"with capacity gap ~ {gap:.3f}"
            )
            out.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_alpha(args) -> int:
    scenario = _load_scenario(args.scenario)
    suffix = "_over_logLc" if args.normalize else ""
    header = ["BcTc", f"alpha_max{suffix}", f"alpha_max_over_2{suffix}"]
    header += [f"alpha_min_p{p:g}{suffix}" for p in args.p]
    header += [f"alpha_plus{suffix}", f"alpha_minus{suffix}"]
    # Equal column names would be equal keys of one JSON row object.
    if len(set(header)) < len(header):
        raise ValueError("--p values must differ in their first 6 significant digits")

    # Each row is evaluated at the BcTc it prints, which must exceed 1.
    low = args.bctc_grid[args.bctc_grid <= 1]
    if low.size:
        raise ValueError(f"--bctc-grid values must be > 1, got {low[0].item()!r}")
    epsilons = [bounds.epsilon_for_error_pct(p, args.snr) for p in args.p]
    lcs = args.bctc_grid.tolist()
    alpha_max, alpha_plus, alpha_minus, alpha_mins = bounds._alpha_grid(
        scenario.nt, scenario.nr, lcs, args.snr, epsilons)
    values = np.array([args.bctc_grid, alpha_max, alpha_max / 2.0, *alpha_mins, alpha_plus,
                       alpha_minus])
    if args.normalize:
        values[1:] /= [math.log(lc) for lc in lcs]
    _require_finite(header, values)
    columns = [_reprs(column) for column in values]
    with _output(args.out) as out:
        _write_blocks(out, header, [columns], args.format)
    return 0


def cmd_fig6(args) -> int:
    scale = _freq_scale(args.unit)
    if args.scenario is not None:
        scenario = _load_scenario(args.scenario)
        # The sheets are the Rayleigh critical bracket (kappa = 2).
        bounds._require_rayleigh(scenario, "critical bracket")
        lc = scenario.coherence_product
        scale *= scenario.snr_density * math.sqrt(lc / math.log(lc))
    elif args.unit != "hz":
        raise ValueError("without --scenario the fig6 columns are normalized coefficients, "
                         "not frequencies: --unit needs --scenario")
    header = ["nt", "nr", "B_low_exact", "B_low_approx", "B_high_exact", "B_high_approx"]
    antennas = [(nt, nr) for nt in range(1, 9) for nr in range(1, 9)]
    sheets = np.array([bounds.critical_coefficients(nt, nr) for nt, nr in antennas])
    values = (sheets * scale).T
    _require_finite(header[2:], values, frequencies=4)
    columns = [[str(nt) for nt, _ in antennas], [str(nr) for _, nr in antennas]]
    columns += [_reprs(column) for column in values]
    with _output(args.out) as out:
        _write_blocks(out, header, [columns], args.format)
    return 0


def cmd_verify(args) -> int:
    # The only command that runs Monte-Carlo, so the only one that loads it.
    from .mcverify import McConfig, run_verification_suite

    scenario = _load_scenario(args.scenario)
    config = McConfig(trials=args.trials, base_seed=args.seed)
    # An estimate that overflows is refused below, not warned.
    with np.errstate(all="ignore"):
        records = run_verification_suite(scenario, config)
    for record in records:
        # Every number of the report, named "<check> <field>".
        numbers = {"estimate": record.estimate, "std_error": record.std_error, "z": record.z,
                   **record.bound_values}
        numbers = {name: value for name, value in numbers.items() if value is not None}
        _require_finite([f"{record.check} {name}" for name in numbers], list(numbers.values()))
    report = {
        "version": __version__,
        "numpy_version": np.__version__,
        "scenario": serialize_scenario(scenario),
        "seed": args.seed,
        "trials": args.trials,
        "checks": [record.as_dict() for record in records],
        "all_pass": all(record.passed for record in records),
    }
    with _output(args.out) as out:
        out.write(json.dumps(report, indent=2) + "\n")
    if not report["all_pass"]:
        failing = [record.check for record in records if not record.passed]
        print("failed checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing keeps no
    state in it."""
    parser = argparse.ArgumentParser(
        prog="widecap",
        description="Rate bounds of non-coherent wideband MIMO channels over bandwidth occupancy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=False):
        p.add_argument("--scenario", required=scenario_required,
                       help="scenario file (flat key=value or JSON)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

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
    p_bounds.add_argument("--penalty-factor", type=_penalty_factor, default=None,
                          help="penalty factor in (0, 1] of the Rayleigh upper bound (default 1)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_crit = sub.add_parser("critical", help="critical-occupancy report")
    common(p_crit, scenario_required=True)
    p_crit.set_defaults(func=cmd_critical)

    p_alpha = sub.add_parser("alpha", help="sublinear-exponent bracket columns")
    common(p_alpha, scenario_required=True)
    p_alpha.add_argument("--snr", type=float, required=True, help="per-dof SNR in (0, 1)")
    p_alpha.add_argument("--p", type=_percentages,
                         default=[1.0, 10.0], help="error percentages, comma separated")
    p_alpha.add_argument("--bctc-grid", type=_parse_axis, default="1e2:1e8:25",
                         metavar="LO:HI:N[:log|lin]")
    p_alpha.add_argument("--normalize", action="store_true",
                         help="divide alpha columns by ln(BcTc)")
    p_alpha.set_defaults(func=cmd_alpha)

    p_fig6 = sub.add_parser("fig6", help="critical-occupancy sheets over antenna counts")
    common(p_fig6)
    p_fig6.set_defaults(func=cmd_fig6)

    p_verify = sub.add_parser("verify", help="Monte-Carlo verification suite")
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=20_000)
    p_verify.set_defaults(func=cmd_verify)

    # Each option only on the commands that read it.
    for p in (p_bounds, p_crit, p_alpha, p_fig6):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    for p in (p_bounds, p_crit, p_fig6):
        p.add_argument("--unit", choices=("hz", "mhz"), default="hz",
                       help="display unit for frequency columns")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ScenarioError is a ValueError: bad files and bad parameter domains
        # are both usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A grid axis too large to allocate fails in the parser, before --out opens.
        print(f"error: grid too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
