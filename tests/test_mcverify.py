import math

import numpy as np
import pytest

from widecap.mcverify import (
    McConfig,
    McEstimate,
    _estimate,
    bound_sandwich_sweep,
    coherent_block_values,
    coherent_quadratic_lower,
    coherent_term_mc,
    empirical_kurtosis,
    kurtosis_check,
    kurtosis_estimate,
    penalty_sandwich,
    run_verification_suite,
    trace_identity_check,
    trace_identity_expected,
)
from widecap.bounds import optimal_occupancy, rate_lower_bound
from widecap.scenario import ChannelScenario, FadingFamily, kurtosis

CFG = McConfig(trials=100_000, base_seed=42)
SMALL = McConfig(trials=20_000, base_seed=42)


def scenario(snr=100.0, nt=1, nr=1, lc=1e3, fading=None):
    return ChannelScenario(
        snr_density=snr,
        coherence_time=1e-3,
        coherence_bandwidth=lc / 1e-3,
        nt=nt,
        nr=nr,
        fading=fading or FadingFamily.rayleigh(),
    )


def desk_scenario(nt=1, nr=1, snr=None):
    # One coherence block of K samples at B*Tc = K with integer Bc*Tc = 8.
    return ChannelScenario(
        snr_density=float(nt) if snr is None else snr,
        coherence_time=1.0,
        coherence_bandwidth=8.0,
        nt=nt,
        nr=nr,
        fading=FadingFamily.rayleigh(),
    )


def assert_within(estimate: McEstimate, expected: float, sigmas: float = 4.0):
    z = (estimate.mean - expected) / max(estimate.std_error, 1e-300)
    assert abs(z) <= sigmas, f"z={z:.2f} mean={estimate.mean} expected={expected}"


class TestEstimators:
    def test_std_error_definition(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000)
        est = _estimate(values)
        expected = values.std(ddof=1) / math.sqrt(values.size)
        assert est.std_error == pytest.approx(expected, rel=1e-12)
        assert est.mean == pytest.approx(values.mean(), rel=1e-12)

    def test_constant_phasor_kurtosis_is_exactly_one(self):
        est = kurtosis_estimate(np.ones(37))
        assert est.mean == 1.0
        assert est.std_error == 0.0


class TestEmpiricalKurtosis:
    def test_rayleigh(self):
        est = empirical_kurtosis(FadingFamily.rayleigh(), McConfig(10**6, 42))
        assert_within(est, 2.0)
        assert abs(est.mean - 2.0) < 0.01

    def test_rice_unit_factor(self):
        est = empirical_kurtosis(FadingFamily.rice(1.0), McConfig(10**6, 42))
        assert_within(est, 2.0 - 4.0 / 9.0)
        assert abs(est.mean - (2.0 - 4.0 / 9.0)) < 0.01

    def test_nakagami_two(self):
        est = empirical_kurtosis(FadingFamily.nakagami(2.0), McConfig(10**6, 42))
        assert_within(est, 1.5)
        assert abs(est.mean - 1.5) < 0.01

    def test_insufficient_trials(self):
        with pytest.raises(ValueError):
            empirical_kurtosis(FadingFamily.rayleigh(), McConfig(trials=100))


class TestTraceIdentity:
    @pytest.mark.parametrize("nt,nr,expected", [(1, 1, 2.0), (2, 2, 16.0), (2, 1, 6.0)])
    def test_rayleigh_cases(self, nt, nr, expected):
        est = trace_identity_check(scenario(nt=nt, nr=nr), CFG)
        assert trace_identity_expected(nt, nr, 2.0) == expected
        assert_within(est, expected)

    def test_rice_case(self):
        fading = FadingFamily.rice(1.0)
        est = trace_identity_check(scenario(nt=2, nr=2, fading=fading), CFG)
        assert_within(est, trace_identity_expected(2, 2, kurtosis(fading)))


class TestCoherentTerm:
    def test_zero_snr_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
        assert np.all(coherent_block_values(blocks, 0.0, 123.0) == 0.0)

    def test_dominates_quadratic_expansion(self):
        s = scenario(snr=1e7, nt=2, nr=2)
        occupancy = optimal_occupancy(s).occupancy_optimal
        est = coherent_term_mc(s, occupancy, CFG)
        quad = coherent_quadratic_lower(s, occupancy)
        assert est.mean >= quad - 4.0 * est.std_error

    def test_deficit_shrinks_superlinearly_in_rho(self):
        # The gap to the linear term is O(rho^2): halving rho (doubling the
        # occupancy) should more than halve it.
        s = scenario(snr=100.0)
        occupancy = optimal_occupancy(s).occupancy_optimal
        c_inf = s.wideband_limit
        est1 = coherent_term_mc(s, occupancy, CFG)
        est2 = coherent_term_mc(s, 2 * occupancy, CFG)
        deficit1 = c_inf - est1.mean
        deficit2 = c_inf - est2.mean
        slack = 4.0 * (est1.std_error + est2.std_error)
        assert deficit2 < deficit1 / 2.0 + slack


class TestPenaltySandwich:
    def test_sandwich_at_unit_rho_k(self):
        result = penalty_sandwich(desk_scenario(), occupancy=32.0, k_samples=32, cfg=CFG)
        assert result.margin.mean >= -4.0 * result.margin.std_error
        assert result.estimate.mean <= result.upper_chain + 4.0 * result.estimate.std_error
        assert result.lower_chain.mean <= result.estimate.mean

    def test_mimo_sandwich(self):
        result = penalty_sandwich(
            desk_scenario(nt=2, nr=2), occupancy=64.0, k_samples=64, cfg=SMALL
        )
        assert result.margin.mean >= -4.0 * result.margin.std_error
        assert result.estimate.mean <= result.upper_chain + 4.0 * result.estimate.std_error

    def test_vanishes_with_snr(self):
        result = penalty_sandwich(
            desk_scenario(snr=1e-12), occupancy=32.0, k_samples=32, cfg=SMALL
        )
        assert abs(result.estimate.mean) < 1e-10
        assert abs(result.lower_chain.mean) < 1e-10
        assert abs(result.upper_chain) < 1e-10

    def test_cap_decreases_when_log_is_sublinear(self):
        # Doubling Bc*Tc at fixed occupancy raises the log argument but
        # halves the prefactor; in the saturated-log regime the cap drops.
        def cap(lc):
            s, occ, nt = 100.0, 100.0, 1
            return (occ * nt / lc) * math.log1p(s * lc / (occ * nt))

        assert cap(2e3) < cap(1e3)

    def test_requires_divisible_k(self):
        with pytest.raises(ValueError):
            penalty_sandwich(desk_scenario(), occupancy=30.0, k_samples=30, cfg=SMALL)

    def test_requires_rayleigh(self):
        bad = ChannelScenario(1.0, 1.0, 8.0, 1, 1, FadingFamily.rice(1.0))
        with pytest.raises(ValueError):
            penalty_sandwich(bad, occupancy=32.0, k_samples=32, cfg=SMALL)


class TestBoundSandwichSweep:
    def test_three_point_grid(self):
        s = scenario(snr=100.0)
        opt = optimal_occupancy(s).occupancy_optimal
        points = bound_sandwich_sweep(s, [opt / 10, opt, 10 * opt], SMALL)
        assert len(points) == 3
        for point in points:
            assert point.pass_lower, point
            assert point.pass_upper, point

    def test_peak_point_reaches_lemma_gap(self):
        s = scenario(snr=100.0)
        opt = optimal_occupancy(s)
        [point] = bound_sandwich_sweep(s, [opt.occupancy_optimal_exact], SMALL)
        floor = opt.peak_rate_lower - 4.0 * point.mc_std_error
        assert point.mc_value >= floor

    def test_empty_grid(self):
        assert bound_sandwich_sweep(scenario(), [], SMALL) == []


class TestDeterminism:
    def test_bit_identical_across_runs(self):
        a = empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        b = empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        assert a == b

    def test_seed_changes_estimate(self):
        a = empirical_kurtosis(FadingFamily.rayleigh(), SMALL)
        b = empirical_kurtosis(FadingFamily.rayleigh(), McConfig(20_000, 43))
        assert a.mean != b.mean


class TestSuite:
    def test_negative_control_fails_loudly(self):
        record = kurtosis_check(FadingFamily.rayleigh(), SMALL, expected=2.5)
        assert not record.passed
        assert abs(record.z) > 4.0

    def test_suite_passes_for_default_scenario(self):
        records = run_verification_suite(scenario(), SMALL)
        names = [record.check for record in records]
        assert any(name.startswith("kurtosis") for name in names)
        assert any(name.startswith("trace_identity") for name in names)
        assert "circulant_spectrum" in names
        assert "penalty_sandwich" in names
        failed = [record.check for record in records if not record.passed]
        assert failed == []

    def test_records_serializable(self):
        records = run_verification_suite(scenario(), SMALL)
        payload = [record.as_dict() for record in records]
        assert all(set(entry) == {
            "check", "params", "estimate", "std_error", "z", "bound_values", "pass"
        } for entry in payload)
