"""Output checks against an independent 50-digit oracle.

The checks read what the program wrote (CSV, JSON, or the saved atlas rows)
and rebuild the inputs from the seed; they never call widecap.  Each check
returns a :class:`Verdict`: one flag per checked unit (a whole command output,
or one atlas scenario), the worst error of the sampled rate points relative to
C_inf, and the worst stationarity residual of the returned maximizers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from workloads import (
    ATLAS_ALPHA_CASES,
    ATLAS_ALPHA_FIELDS,
    ATLAS_BRACKET_FIELDS,
    ATLAS_HEAD,
    VERIFY_CHECKS,
    approx_optimum,
)

mpmath.mp.dps = 50

# Rate points compared with the oracle per output (all of them if fewer).
SAMPLE_POINTS = 256
# A rate point passes when |R - R_oracle| <= RATE_TOL * max(C_inf, |R_oracle|):
# near machine precision on the scale of the bound's two terms.
RATE_TOL = 1e-12
RESIDUAL_TOL = 1e-8
# Closed forms recomputed here in float64 agree to this relative tolerance.
CLOSED_FORM_TOL = 1e-12
LN_PI = math.log(math.pi)


@dataclass
class Verdict:
    bad: list  # one bool per checked unit
    max_err_cinf: float = 0.0
    residual_max: float = 0.0
    rows: int = 0
    bytes_out: int = 0
    problems: list = field(default_factory=list)

    def fail(self, unit: int, message: str):
        self.bad[unit] = True
        if len(self.problems) < 20:
            self.problems.append(message)


class Oracle:
    """R_LB, R_UB and the stationarity residual of one scenario at 50 digits."""

    def __init__(self, fields: dict):
        mp = mpmath.mpf
        self.s = mp(fields["snr_density_hz"])
        self.nt = mp(fields["nt"])
        self.nr = mp(fields["nr"])
        self.lc = mp(fields["coherence_time_s"]) * mp(fields["coherence_bandwidth_hz"])
        fading = fields["fading"]
        if fading == "rayleigh":
            self.kappa = mp(2)
        else:
            k = mp(fading.split(":", 1)[1])
            self.kappa = 2 - 4 * k * k / (1 + 2 * k) ** 2
        self.c_inf = self.nr * self.s

    def lower(self, x: float):
        x = mpmath.mpf(x)
        shape = self.kappa - 2 + self.nt + self.nr
        coherent = self.c_inf * (1 - self.s * shape / (2 * x * self.nt))
        return coherent - x * self.nt * self.nr / self.lc * mpmath.log1p(
            self.s * self.lc / (x * self.nt))

    def upper(self, x: float):
        x = mpmath.mpf(x)
        return self.c_inf * (1 - self.s / (2 * x) - x * self.nt / (self.s * self.lc)
                             * mpmath.log1p(self.s * self.lc / (x * self.nt)))

    def residual(self, x: float) -> float:
        x = mpmath.mpf(x)
        shape = self.kappa - 2 + self.nt + self.nr
        t1 = self.s * shape / (2 * x * x * self.nt)
        t2 = self.nt / (self.s * self.lc) * mpmath.log1p(self.s * self.lc / (x * self.nt))
        t3 = 1 / (x * (1 + self.s * self.lc / (self.nt * x)))
        return float(abs(t1 - t2 + t3) / max(t1, t2, t3))

    def rate_error(self, which: str, x: float, value: float):
        """(error / C_inf, passes) for the emitted ``value`` of R_LB or R_UB at ``x``."""
        exact = self.lower(x) if which == "R_LB" else self.upper(x)
        err = abs(mpmath.mpf(value) - exact)
        ok = math.isfinite(value) and err <= RATE_TOL * max(self.c_inf, abs(exact))
        return float(err / self.c_inf), ok


def _sample(rng, count: int) -> list:
    if count <= SAMPLE_POINTS:
        return list(range(count))
    return sorted(rng.choice(count, size=SAMPLE_POINTS, replace=False).tolist())


def _grid(text: str) -> np.ndarray:
    lo, hi, points = text.split(":")[:3]
    return np.geomspace(float(lo), float(hi), int(points))


def _read_rows(path, fmt: str):
    """(header, rows of floats or None) from a CSV or JSON bounds output."""
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            rows = [[float(cell) if cell else None for cell in row] for row in reader]
        return header, rows
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not payload:
        return [], []
    header = list(payload[0])
    rows = [list(entry.values()) if list(entry) == header else None for entry in payload]
    return header, rows


def check_sweep(inputs, path) -> Verdict:
    """Header, row count, grid, derived columns and sampled rates of a bounds output."""
    verdict = Verdict(bad=[False])
    fields = inputs.scenario
    argv = list(inputs.argv)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    rayleigh = fields["fading"] == "rayleigh"
    header = ["delta", "B", "deltaB", "R_LB", "R_LB_plot"]
    header += ["R_UB"] if rayleigh else []
    header += ["C_inf", "gap"]
    if "--db-grid" in argv:
        bands = _grid(argv[argv.index("--db-grid") + 1])
        deltas = np.ones(1)
    else:
        deltas = _grid(argv[argv.index("--delta-grid") + 1])
        bands = _grid(argv[argv.index("--b-grid") + 1])
    try:
        got_header, rows = _read_rows(path, fmt)
        verdict.bytes_out = path.stat().st_size
    except (OSError, ValueError) as exc:
        verdict.fail(0, f"unreadable output: {exc}")
        return verdict
    verdict.rows = len(rows)
    if got_header != header:
        verdict.fail(0, f"header {got_header} != {header}")
        return verdict
    if len(rows) != deltas.size * bands.size:
        verdict.fail(0, f"{len(rows)} rows, expected {deltas.size * bands.size}")
        return verdict
    if any(row is None or len(row) != len(header) or None in row for row in rows):
        verdict.fail(0, "malformed row")
        return verdict

    table = np.array(rows)
    col = {name: table[:, i] for i, name in enumerate(header)}
    c_inf = fields["nr"] * fields["snr_density_hz"]
    expected = {
        "delta": np.repeat(deltas, bands.size),
        "B": np.tile(bands, deltas.size),
    }
    expected["deltaB"] = expected["delta"] * expected["B"]
    expected["R_LB_plot"] = np.maximum(col["R_LB"], 0.0)
    expected["C_inf"] = np.full(len(rows), c_inf)
    expected["gap"] = 1.0 - col["R_LB"] / c_inf
    for name, values in expected.items():
        if not np.array_equal(col[name], values):
            verdict.fail(0, f"column {name} differs from its definition")

    oracle = Oracle(fields)
    rng = np.random.default_rng([inputs.seed, 7])
    for i in _sample(rng, len(rows)):
        for which in ("R_LB", "R_UB") if rayleigh else ("R_LB",):
            err, ok = oracle.rate_error(which, col["deltaB"][i], col[which][i])
            verdict.max_err_cinf = max(verdict.max_err_cinf, err)
            if not ok:
                verdict.fail(0, f"row {i}: {which} off by {err:.3g} C_inf")
    return verdict


def check_verify(inputs, path) -> Verdict:
    """Report shape, all_pass, the solver residual and the sandwich's closed-form rates."""
    verdict = Verdict(bad=[False])
    try:
        verdict.bytes_out = path.stat().st_size
        report = json.loads(path.read_text(encoding="utf-8"))
        checks = report["checks"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        verdict.fail(0, f"unreadable report: {exc}")
        return verdict
    verdict.rows = len(checks)
    argv = list(inputs.argv)
    trials = int(argv[argv.index("--trials") + 1])
    if report.get("seed") != inputs.seed or report.get("trials") != trials:
        verdict.fail(0, "report seed or trials differ from the command")
    if len(checks) != VERIFY_CHECKS:
        verdict.fail(0, f"{len(checks)} checks, expected {VERIFY_CHECKS}")
    if report.get("all_pass") is not True or not all(c.get("pass") is True for c in checks):
        verdict.fail(0, "all_pass is not true")
    oracle = Oracle(inputs.scenario)
    for record in checks:
        name = record.get("check", "")
        if name == "coherent_expansion":
            residual = oracle.residual(record["params"]["occupancy"])
            verdict.residual_max = max(verdict.residual_max, residual)
            if not residual < RESIDUAL_TOL:
                verdict.fail(0, f"optimal occupancy residual {residual:.3g}")
        if name.startswith("bound_sandwich["):
            x = record["params"]["occupancy"]
            for which, key in (("R_LB", "rate_lower"), ("R_UB", "rate_upper")):
                err, ok = oracle.rate_error(which, x, record["bound_values"][key])
                verdict.max_err_cinf = max(verdict.max_err_cinf, err)
                if not ok:
                    verdict.fail(0, f"{name}: {which} off by {err:.3g} C_inf")
    return verdict


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CLOSED_FORM_TOL * abs(b)


def _alpha_expected(fields: dict, snr: float, p: float):
    nt, nr = fields["nt"], fields["nr"]
    lc = fields["coherence_time_s"] * fields["coherence_bandwidth_hz"]
    eps = math.log(100.0 / p) / math.log(1.0 / snr)
    two_l = 2.0 * math.log(1.0 / snr)
    alpha_max = math.log((nt + nr) ** 2 / nt ** 2 * lc) / two_l
    alpha_plus = alpha_max - math.log((nt + nr) * math.log(lc) / (4.0 * LN_PI)) / two_l
    alpha_minus = alpha_max - math.log(4.0 * LN_PI * (nt + nr) ** 3 / nt ** 2 * math.log(lc)) / two_l
    return eps, alpha_max, max(alpha_max - eps, alpha_max / 2.0), alpha_plus, alpha_minus


def _bracket_expected(fields: dict):
    """Closed-form loose bracket ends, (dB)* and the peak rate of a Rayleigh scenario."""
    nt, nr, s = fields["nt"], fields["nr"], fields["snr_density_hz"]
    lc = fields["coherence_time_s"] * fields["coherence_bandwidth_hz"]
    scale = s * math.sqrt(lc / math.log(lc))
    root = math.sqrt((nt + nr) * LN_PI)
    gap = math.sqrt(math.log(lc) / lc * (nt + nr) * LN_PI)
    return {
        "occupancy_low": scale / (2.0 * root),
        "occupancy_high": scale * 2.0 * root / nt,
        "occupancy_optimal": approx_optimum(fields),
        "peak_rate_lower": nr * s * (1.0 - gap),
    }, gap


def check_atlas(inputs, rows: np.ndarray) -> Verdict:
    """Per scenario: finite outputs, closed forms, bracket containment, residual, rates."""
    scenarios = inputs.atlas_scenarios
    factors = inputs.atlas_factors
    points = factors.size
    verdict = Verdict(bad=[False] * len(scenarios))
    if rows.shape != (len(scenarios), ATLAS_HEAD + 2 * points):
        verdict.bad = [True] * len(scenarios)
        verdict.problems.append(f"atlas rows have shape {rows.shape}")
        return verdict
    fields_at = {name: i for i, name in enumerate(ATLAS_BRACKET_FIELDS)}
    # One seeded rate point in each of SAMPLE_POINTS seeded scenarios.
    rng = np.random.default_rng([inputs.seed, 7])
    sampled = dict.fromkeys(_sample(rng, len(scenarios)))
    for i in sampled:
        sampled[i] = int(rng.integers(points))
    for i, fields in enumerate(scenarios):
        row = rows[i]
        if not np.all(np.isfinite(row)):
            verdict.fail(i, f"scenario {i}: non-finite output")
            continue
        b = {name: float(row[j]) for name, j in fields_at.items()}
        expected, gap = _bracket_expected(fields)
        if not all(_close(b[name], value) for name, value in expected.items()):
            verdict.fail(i, f"scenario {i}: closed-form bracket or peak rate differs")
        if not _close(float(row[len(ATLAS_BRACKET_FIELDS)]), gap):
            verdict.fail(i, f"scenario {i}: peak gap differs")
        exact = b["occupancy_optimal_exact"]
        if not (b["occupancy_low"] <= exact <= b["occupancy_high"]
                and b["occupancy_low"] <= b["occupancy_low_exact"]
                and b["occupancy_high_exact"] <= b["occupancy_high"]):
            verdict.fail(i, f"scenario {i}: bracket containment violated")
        start = len(ATLAS_BRACKET_FIELDS) + 1
        for case, (snr, p) in enumerate(ATLAS_ALPHA_CASES):
            got = row[start + case * len(ATLAS_ALPHA_FIELDS):][:len(ATLAS_ALPHA_FIELDS)]
            if not all(_close(float(g), e) for g, e in zip(got, _alpha_expected(fields, snr, p))):
                verdict.fail(i, f"scenario {i}: alpha bracket differs at snr={snr}, p={p}")
        oracle = Oracle(fields)
        residual = oracle.residual(exact)
        verdict.residual_max = max(verdict.residual_max, residual)
        if not residual < RESIDUAL_TOL:
            verdict.fail(i, f"scenario {i}: stationarity residual {residual:.3g}")
        if i in sampled:
            j = sampled[i]
            occupancy = (exact * factors)[j]
            for which, offset in (("R_LB", ATLAS_HEAD), ("R_UB", ATLAS_HEAD + points)):
                err, ok = oracle.rate_error(which, occupancy, float(row[offset + j]))
                verdict.max_err_cinf = max(verdict.max_err_cinf, err)
                if not ok:
                    verdict.fail(i, f"scenario {i}: {which} off by {err:.3g} C_inf")
    return verdict
