"""Seeded inputs of the four benchmark workloads.

This module imports only the standard library, and numpy when inputs are
built.  The worker builds its inputs here, and run.py rebuilds the same
inputs from the same seed to check the worker's outputs without importing
widecap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORKLOADS = ("plane_csv", "dbgrid_json", "atlas", "verify")

# Per-scenario alpha cases of the atlas: per-dof SNR x error percentage p.
ATLAS_ALPHA_CASES = tuple((snr, p) for snr in (1e-2, 1e-3) for p in (1.0, 10.0))
# Atlas result row: critical bracket (7), peak gap (1), per alpha case
# (epsilon, alpha_max, alpha_min, alpha_plus, alpha_minus), then R_LB and R_UB
# on the occupancy points around (dB)*.
ATLAS_BRACKET_FIELDS = (
    "occupancy_low", "occupancy_low_exact", "occupancy_optimal",
    "occupancy_optimal_exact", "occupancy_high_exact", "occupancy_high",
    "peak_rate_lower",
)
ATLAS_ALPHA_FIELDS = ("epsilon", "alpha_max", "alpha_min", "alpha_plus", "alpha_minus")
ATLAS_HEAD = len(ATLAS_BRACKET_FIELDS) + 1 + len(ATLAS_ALPHA_CASES) * len(ATLAS_ALPHA_FIELDS)

# Scenario of the verify workload, the one ROADMAP item 3 measures.
VERIFY_SCENARIO = {
    "snr_density_hz": 1e7,
    "coherence_time_s": 1e-3,
    "coherence_bandwidth_hz": 1e6,
    "nt": 2,
    "nr": 2,
    "fading": "rayleigh",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY the smoke test."""

    plane_points: int
    dbgrid_points: int
    atlas_scenarios: int
    atlas_points: int
    verify_trials: int


FULL = Sizes(plane_points=300, dbgrid_points=50_000, atlas_scenarios=4000,
             atlas_points=256, verify_trials=100_000)
TINY = Sizes(plane_points=12, dbgrid_points=40, atlas_scenarios=24,
             atlas_points=8, verify_trials=10_000)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Inputs:
    """Everything one workload feeds the program, as generated from the seed.

    ``scenario`` is the scenario of a CLI workload as a dict of file fields,
    ``argv`` its command line without ``--scenario`` and ``--out``, and
    ``items`` the work per operation (grid points, scenarios, or trials times
    Monte-Carlo checks).  Atlas fields are None for the CLI workloads.
    """

    workload: str
    seed: int
    scenario: dict | None
    argv: tuple
    items: int
    atlas_scenarios: tuple | None = None
    atlas_factors: "np.ndarray | None" = None


def scenario_text(fields: dict) -> str:
    """Flat ``key = value`` scenario file; floats round-trip through repr."""
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in fields.items())


def kurtosis_of(fading: str) -> float:
    if fading == "rayleigh":
        return 2.0
    k = float(fading.split(":", 1)[1])  # rice:<k>
    return 2.0 - 4.0 * k * k / (1.0 + 2.0 * k) ** 2


def approx_optimum(fields: dict) -> float:
    """Closed-form (dB)* of the paper: centres the grids and checks the atlas."""
    s, nt, nr = fields["snr_density_hz"], fields["nt"], fields["nr"]
    lc = fields["coherence_time_s"] * fields["coherence_bandwidth_hz"]
    kap = kurtosis_of(fields["fading"])
    return s / nt * math.sqrt(lc / math.log(lc) * (kap - 2.0 + nt + nr))


def _random_scenario(rng, nt: int, nr: int, fading: str, log_snr, log_lc) -> dict:
    lc = 10.0 ** rng.uniform(*log_lc)
    tc = 10.0 ** rng.uniform(-4.0, -1.0)
    return {
        "snr_density_hz": float(10.0 ** rng.uniform(*log_snr)),
        "coherence_time_s": float(tc),
        "coherence_bandwidth_hz": float(lc / tc),
        "nt": int(nt),
        "nr": int(nr),
        "fading": fading,
    }


def _grid_around(rng, fields: dict, points: int) -> str:
    """LO:HI:N log axis from about 1e-3 to 1e3 times (dB)*, seeded ends."""
    centre = approx_optimum(fields)
    lo = float(centre * 10.0 ** rng.uniform(-3.5, -2.5))
    hi = float(centre * 10.0 ** rng.uniform(2.5, 3.5))
    return f"{lo!r}:{hi!r}:{points}"


def build_inputs(workload: str, seed: int, sizes: Sizes = FULL) -> Inputs:
    """Generate the inputs of ``workload`` from ``seed``; same seed, same inputs."""
    import numpy as np

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "plane_csv":
        fields = _random_scenario(rng, 2, 2, "rayleigh", (5.0, 8.0), (2.0, 5.0))
        n = sizes.plane_points
        argv = ("bounds", "--delta-grid", f"0.001:1.0:{n}",
                "--b-grid", _grid_around(rng, fields, n))
        return Inputs(workload, seed, fields, argv, n * n)
    if workload == "dbgrid_json":
        fields = _random_scenario(rng, 4, 2, "rice:1.0", (5.0, 8.0), (2.0, 5.0))
        n = sizes.dbgrid_points
        argv = ("bounds", "--db-grid", _grid_around(rng, fields, n), "--format", "json")
        return Inputs(workload, seed, fields, argv, n)
    if workload == "verify":
        trials = sizes.verify_trials
        argv = ("verify", "--trials", str(trials), "--seed", str(seed))
        return Inputs(workload, seed, dict(VERIFY_SCENARIO), argv, trials * MC_CHECKS)
    # Stratified draws: every (Nt, Nr) pair equally often, and one value of
    # each log-uniform parameter per equal-width stratum.  Seeds change the
    # values, not their spread, so the per-scenario cost distribution (and
    # its p99) is the same for every seed.
    n = sizes.atlas_scenarios
    pairs = [(nt, nr) for nt in range(1, 9) for nr in range(1, 9)]
    antennas = [pairs[i] for i in rng.permutation(np.arange(n) % len(pairs))]
    snr, lc, tc = (_stratified(rng, n, lo, hi) for lo, hi in ((3.0, 9.0), (2.0, 8.0), (-4.0, -1.0)))
    scenarios = tuple(
        {
            "snr_density_hz": float(snr[i]),
            "coherence_time_s": float(tc[i]),
            "coherence_bandwidth_hz": float(lc[i] / tc[i]),
            "nt": nt,
            "nr": nr,
            "fading": "rayleigh",
        }
        for i, (nt, nr) in enumerate(antennas)
    )
    factors = np.geomspace(1e-3, 1e3, sizes.atlas_points)
    return Inputs(workload, seed, None, (), n, scenarios, factors)


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n log-uniform values in [10**lo, 10**hi], one per stratum, in random order."""
    return 10.0 ** (lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n)


# Monte-Carlo checks in a verify report for a Rayleigh scenario: three
# kurtosis, three trace identities, the coherent term, the penalty sandwich
# and three bound-sandwich points.  The four channel identities draw no trials.
MC_CHECKS = 11
VERIFY_CHECKS = MC_CHECKS + 4
