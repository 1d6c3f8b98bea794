"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from widecap.bounds import (
    _coherent_term,
    critical_bracket,
    optimal_occupancy,
    peak_gap,
    rate_lower_bound,
)
from widecap.channel import (
    block_idft_matrix,
    circulant_eigenvalues,
    filterbank_equivalence_check,
    pilot_gram,
)
from widecap.cli import main
from widecap.mcverify import (
    McConfig,
    coherent_term_mc,
    empirical_kurtosis,
    penalty_sandwich,
    trace_identity_check,
    trace_identity_expected,
)
from widecap.scenario import ChannelScenario, FadingFamily

SEED = 42
TRIALS = 100_000


def scenario(snr, nt, nr, lc, fading=None):
    return ChannelScenario(
        snr_density=snr,
        coherence_time=1e-3,
        coherence_bandwidth=lc / 1e-3,
        nt=nt,
        nr=nr,
        fading=fading or FadingFamily.rayleigh(),
    )


def report(index, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {index} {name}: {verdict}{suffix}")
    return ok


def test_criterion_1_remark_scale_reproduction():
    start = time.perf_counter()
    low = scenario(1e7, 2, 2, 1e3)
    high = scenario(1e7, 2, 2, 1e5)
    opt_low = optimal_occupancy(low).occupancy_optimal
    opt_high = optimal_occupancy(high).occupancy_optimal
    gap_low = peak_gap(low)
    gap_high = peak_gap(high)
    elapsed = time.perf_counter() - start

    ok = (
        abs(opt_low - 1.20e8) / 1.20e8 <= 0.02
        and abs(opt_high - 9.3e8) / 9.3e8 <= 0.02
        and gap_low < 0.18
        and abs(gap_low - 0.178) < 5e-4
        and gap_high < 0.03
        and abs(gap_high - 0.023) < 5e-4
        and elapsed < 1.0
    )
    assert report(
        1, "remark-scale reproduction", ok,
        f"(dB)*={opt_low:.4g}/{opt_high:.4g} Hz, gaps={gap_low:.4f}/{gap_high:.4f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_bracket_containment():
    start = time.perf_counter()
    violations = 0
    cells = 0
    for nt in (1, 2, 4):
        for nr in (1, 2, 4):
            for lc in (1e3, 1e4, 1e5, 1e6):
                for snr in (1e2, 1e7):
                    cells += 1
                    bracket = critical_bracket(scenario(snr, nt, nr, lc))
                    exact = bracket.occupancy_optimal_exact
                    if not bracket.occupancy_low <= exact <= bracket.occupancy_high:
                        violations += 1
                    if not (
                        bracket.occupancy_low <= bracket.occupancy_low_exact
                        and bracket.occupancy_high_exact <= bracket.occupancy_high
                    ):
                        violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and cells >= 48 and elapsed < 10.0
    assert report(
        2, "critical-bracket containment", ok,
        f"{cells} cells, {violations} violations, {elapsed:.2f}s",
    )


def test_criterion_3_bell_shape_and_ridge():
    start = time.perf_counter()
    s = scenario(100.0, 1, 1, 1e3)
    # Power-of-two grids make equal-occupancy products bit-exact.
    deltas = 2.0 ** -np.arange(50, dtype=float)
    bandwidths = 1024.0 * 2.0 ** np.arange(50, dtype=float)
    rates = np.empty((50, 50))
    for i, delta in enumerate(deltas):
        rates[i] = rate_lower_bound(s, delta * bandwidths)

    ridge_exact = all(
        rates[i, j] == rates[i + 1, j + 1] for i in range(49) for j in range(49)
    )

    occupancies = 1024.0 * 2.0 ** np.arange(-49.0, 50.0)
    values = rate_lower_bound(s, occupancies)
    diffs = np.diff(values)
    signs = np.sign(diffs[np.abs(diffs) > 1e-12 * s.wideband_limit])
    unimodal = (
        np.count_nonzero(np.diff(signs)) == 1 and signs[0] > 0 and signs[-1] < 0
    )
    elapsed = time.perf_counter() - start
    ok = ridge_exact and unimodal and elapsed < 5.0
    assert report(
        3, "bell shape and constant-occupancy ridge", ok,
        f"ridge bit-exact={ridge_exact}, unimodal={unimodal}, {elapsed:.2f}s",
    )


def test_criterion_4_model_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_gap = 0.0
    for m_bins, l_symbols in ((1, 4), (4, 8), (8, 16)):
        taps = (
            rng.standard_normal(m_bins) + 1j * rng.standard_normal(m_bins)
        ) / math.sqrt(2 * m_bins)
        symbols = (
            rng.standard_normal((m_bins, l_symbols))
            + 1j * rng.standard_normal((m_bins, l_symbols))
        ) / math.sqrt(2)
        worst_gap = max(worst_gap, filterbank_equivalence_check(symbols, taps))

    worst_unitarity = 0.0
    for m_bins, l_symbols in ((1, 4), (4, 8), (8, 16)):
        phi = block_idft_matrix(l_symbols, m_bins)
        k = m_bins * l_symbols
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(phi @ phi.conj().T - np.eye(k))))
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-9 and worst_unitarity < 1e-12 and elapsed < 5.0
    assert report(
        4, "filter-bank/DFT model equivalence", ok,
        f"max gap={worst_gap:.2e}, max unitarity defect={worst_unitarity:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_proof_step_mc_suite():
    start = time.perf_counter()
    cfg = McConfig(trials=TRIALS, base_seed=SEED)
    failures = []

    def check(name, estimate, expected):
        z = (estimate.mean - expected) / max(estimate.std_error, 1e-300)
        if abs(z) > 4.0:
            failures.append(f"{name} z={z:.2f}")

    check("kurtosis rayleigh", empirical_kurtosis(FadingFamily.rayleigh(), cfg), 2.0)
    check("kurtosis rice(1)", empirical_kurtosis(FadingFamily.rice(1.0), cfg), 2 - 4 / 9)
    check("kurtosis nakagami(2)", empirical_kurtosis(FadingFamily.nakagami(2.0), cfg), 1.5)

    for nt, nr in ((1, 1), (2, 2), (2, 1)):
        est = trace_identity_check(scenario(100.0, nt, nr, 1e3), cfg)
        check(f"trace {nt}x{nr}", est, trace_identity_expected(nt, nr, 2.0))

    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    x *= math.sqrt(64 / np.sum(np.abs(x) ** 2))
    formula = circulant_eigenvalues(x, 8)
    dense = np.linalg.eigvalsh(pilot_gram(x.reshape(-1, 8).sum(axis=0), 8)).real
    circulant_gap = float(
        np.max(np.abs(np.sort(formula) - np.sort(dense))) / np.max(dense)
    )
    if circulant_gap >= 1e-9:
        failures.append(f"circulant spectrum gap={circulant_gap:.2e}")

    s = scenario(100.0, 1, 1, 1e3)
    occupancy = optimal_occupancy(s).occupancy_optimal
    coherent = coherent_term_mc(s, occupancy, cfg)
    quad = _coherent_term(s, occupancy)
    if coherent.mean < quad - 4 * coherent.std_error:
        failures.append("coherent expansion")

    desk = ChannelScenario(1.0, 1.0, 8.0, 1, 1, FadingFamily.rayleigh())
    sandwich = penalty_sandwich(desk, occupancy=32.0, k_samples=32, cfg=cfg)
    if sandwich.z < -4:
        failures.append("penalty lower chain")
    if sandwich.estimate > sandwich.bound_values["upper_chain"] + 4 * sandwich.std_error:
        failures.append("penalty upper chain")

    deterministic = empirical_kurtosis(FadingFamily.rayleigh(), cfg) == empirical_kurtosis(
        FadingFamily.rayleigh(), cfg
    )
    if not deterministic:
        failures.append("determinism")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    assert report(
        5, "proof-step Monte-Carlo suite", ok,
        f"{TRIALS} trials, failures={failures or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_6_alpha_figure_data(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "alpha.csv"
    scenario_path = tmp_path / "s.txt"
    scenario_path.write_text(
        "snr_density_hz = 100\ncoherence_time_s = 1e-3\n"
        "coherence_bandwidth_hz = 1e6\nnt = 1\nnr = 1\nfading = rayleigh\n"
    )
    code = main([
        "alpha", "--scenario", str(scenario_path), "--snr", "1e-2",
        "--p", "1,10", "--bctc-grid", "1e2:1e8:25", "--out", str(out),
    ])
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]

    ordered = all(
        float(r["alpha_minus"]) < float(r["alpha_plus"]) < float(r["alpha_max"])
        and float(r["alpha_max"]) / 2 <= float(r["alpha_min_p1"]) + 1e-15
        and float(r["alpha_max"]) / 2 <= float(r["alpha_min_p10"]) + 1e-15
        for r in rows
    )
    at_1e3 = [r for r in rows if abs(float(r["BcTc"]) - 1e3) < 1e-6]
    anchor_ok = bool(at_1e3) and abs(
        float(at_1e3[0]["alpha_max"]) - math.log(4000) / math.log(1e4)
    ) <= 1e-6
    elapsed = time.perf_counter() - start
    ok = code == 0 and len(rows) == 25 and ordered and anchor_ok and elapsed < 1.0
    assert report(
        6, "sublinear-exponent figure data", ok,
        f"rows={len(rows)}, ordered={ordered}, anchor={anchor_ok}, {elapsed:.2f}s",
    )


def test_criterion_7_figure_data_tables(tmp_path):
    start = time.perf_counter()
    scenario_path = tmp_path / "fig3.txt"
    scenario_path.write_text(
        "snr_density_db_hz = 20\ncoherence_time_s = 1e-3\n"
        "coherence_bandwidth_hz = 1e6\nnt = 1\nnr = 1\nfading = rayleigh\n"
    )

    def sweep(path, lc=None):
        doc = scenario_path.read_text()
        if lc is not None:
            doc = doc.replace("coherence_bandwidth_hz = 1e6",
                              f"coherence_bandwidth_hz = {lc / 1e-3:g}")
        src = tmp_path / f"s_{lc or 'base'}.txt"
        src.write_text(doc)
        code = main([
            "bounds", "--scenario", str(src),
            "--delta-grid", "1e-3:1:50", "--b-grid", "1e2:1e9:50",
            "--out", str(path),
        ])
        assert code == 0
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    checks = {}

    # Fig-3 style surface: for each duty cycle the upper bound is bell-shaped
    # over bandwidth and the row maximum of the lower bound sits at a fixed
    # occupancy (the constant-dB ridge).
    rows = sweep(tmp_path / "fig3.csv")
    by_delta = {}
    for row in rows:
        by_delta.setdefault(row["delta"], []).append(row)
    ridge_occupancies = []
    bells = []
    for delta, chunk in by_delta.items():
        ub = np.array([float(r["R_UB"]) for r in chunk])
        diffs = np.diff(ub)
        signs = np.sign(diffs[np.abs(diffs) > 1e-12 * 100.0])
        bells.append(np.count_nonzero(np.diff(signs)) <= 1)
        lb = np.array([float(r["R_LB"]) for r in chunk])
        ridge_occupancies.append(float(chunk[int(np.argmax(lb))]["deltaB"]))
    ridge = np.array(ridge_occupancies)
    # within one log-grid step (factor ~1.39) of a single ridge occupancy,
    # excluding duty cycles whose bandwidth column cannot reach the ridge
    reachable = ridge[ridge < 0.99e9 * np.array([float(d) for d in by_delta])]
    checks["fig3_bell"] = all(bells)
    checks["fig3_ridge"] = bool(
        np.max(reachable) / np.min(reachable) < 1.4**2
    )

    # Fig-4 style: the ridge occupancy grows with the coherence product like
    # sqrt(Lc/ln Lc).
    ridge_by_lc = {}
    for lc in (1e4, 1e6):
        rows_lc = sweep(tmp_path / f"fig4_{lc:g}.csv", lc=lc)
        top = max(
            (r for r in rows_lc if r["delta"] == "1.0"),
            key=lambda r: float(r["R_LB"]),
        )
        ridge_by_lc[lc] = float(top["deltaB"])
    predicted = math.sqrt((1e6 / math.log(1e6)) / (1e4 / math.log(1e4)))
    observed = ridge_by_lc[1e6] / ridge_by_lc[1e4]
    checks["fig4_shift"] = abs(observed / predicted - 1.0) < 0.5 and observed > 1.0

    # Fig-5 style: normalized alpha columns emit and the occupancy-derived
    # bracket tightens as the coherence product grows.
    alpha_out = tmp_path / "fig5.csv"
    code = main([
        "alpha", "--scenario", str(scenario_path), "--snr", "1e-2",
        "--p", "1,10", "--bctc-grid", "1e2:1e8:13", "--normalize",
        "--out", str(alpha_out),
    ])
    assert code == 0
    lines = alpha_out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows5 = [dict(zip(header, line.split(","))) for line in lines[1:]]
    # the [alpha-, alpha+] width is constant in ln(Lc), so its normalized
    # width shrinks as the coherence product grows
    spreads = [
        float(r["alpha_plus_over_logLc"]) - float(r["alpha_minus_over_logLc"])
        for r in rows5
    ]
    checks["fig5_tightening"] = all(a > b > 0 for a, b in zip(spreads, spreads[1:]))

    # Fig-6 style: inner (exact) sheets inside outer (loose) sheets everywhere.
    fig6_out = tmp_path / "fig6.csv"
    assert main(["fig6", "--out", str(fig6_out)]) == 0
    lines = fig6_out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows6 = [dict(zip(header, line.split(","))) for line in lines[1:]]
    checks["fig6_containment"] = all(
        float(r["B_low_approx"]) <= float(r["B_low_exact"])
        and float(r["B_high_exact"]) <= float(r["B_high_approx"])
        for r in rows6
    ) and len(rows6) == 64

    elapsed = time.perf_counter() - start
    ok = all(checks.values())
    assert report(
        7, "figure data tables", ok,
        ", ".join(f"{k}={v}" for k, v in checks.items()) + f", {elapsed:.2f}s",
    )
