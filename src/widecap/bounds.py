"""Closed-form rate bounds over bandwidth occupancy, and their brackets.

The achievable rate of a non-coherent wideband MIMO fading channel with duty
cycle delta and bandwidth B depends on those two knobs only through the
*bandwidth occupancy* delta*B.  This module evaluates:

  * the bell-shaped lower bound R_LB(dB) and (Rayleigh-only) upper bound
    R_UB(dB) in nats/s,
  * the occupancy (dB)* that maximizes R_LB, both in closed form and as a
    numerically exact maximizer, together with the peak-rate lower bound and
    its gap Delta from the wideband limit C_inf = Nr*P/N0,
  * the bracket [(dB)-, (dB)+] that contains the critical occupancy, in the
    loose closed form and via the exact quadratic roots,
  * the sublinear-exponent algebra: the polynomial lower bound at duty cycle
    delta = SNR^(1-alpha), the bracket [alpha_min, alpha_max] and the
    occupancy-derived bracket [alpha-, alpha+], the precision/accuracy
    selector eps(p), and the coherence length required to support a given
    exponent.

All functions are pure; occupancy arguments may be numpy arrays and broadcast
through.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scenario import RAYLEIGH, ChannelScenario, kurtosis

__all__ = [
    "BoundsReport",
    "CriticalBracket",
    "AlphaBracket",
    "OccupancyAboveOptimalWarning",
    "rate_lower_bound",
    "rate_upper_bound",
    "bounds_report",
    "optimal_occupancy",
    "critical_bracket",
    "critical_coefficients",
    "peak_gap",
    "rate_derivative_terms",
    "stationarity_residual",
    "sublinear_rate_bound",
    "alpha_brackets",
    "epsilon_for_error_pct",
    "coherence_requirement",
    "normalize_per_symbol_rate",
    "sublinear_support_range",
    "coarse_peak_rate",
]

LN_PI = math.log(math.pi)

# Smallest relative excess of Bc*Tc over K = kappa-2+Nt+Nr that optimal_occupancy
# accepts.  At Bc*Tc = (1+d)*K the rounding of the float64 slope moves the
# maximizer by about 1e-15/d**2 relative (1e-7 here), and below about d = 1e-6
# it can fake a sign change anywhere in the bracket.
_MIN_SHAPE_EXCESS = 1e-4


class OccupancyAboveOptimalWarning(UserWarning):
    """The implied occupancy exceeds (dB)*, outside the bound's hypothesis."""


def _check_occupancy(occupancy):
    # ndarray.all, not np.all: this runs on every kernel call, and the
    # function form costs a few microseconds more.
    occupancy = np.asarray(occupancy)
    if not (occupancy > 0).all():
        raise ValueError("occupancy must be > 0")
    if not np.isfinite(occupancy).all():
        raise ValueError("occupancy must be finite")


def _shape(scenario: ChannelScenario) -> float:
    """K = kappa-2+Nt+Nr, the fourth-moment factor of the coherent term."""
    return kurtosis(scenario.fading) - 2.0 + scenario.nt + scenario.nr


def _coherent_term(scenario: ChannelScenario, occupancy):
    """Coherent term C_inf * [1 - P*K/(2*dB*Nt*N0)] of the lower bound.

    It is the quadratic expansion of dB * E[ln det(I + P/(dB*Nt*N0) * H H^H)],
    which the Monte-Carlo suite checks as ``coherent_quadratic_lower``.
    """
    s = scenario.snr_density
    return scenario.wideband_limit * (1.0 - s * _shape(scenario) / (2.0 * occupancy * scenario.nt))


def _penalty_cap(scenario: ChannelScenario, occupancy, log1p=np.log1p):
    """Channel-uncertainty penalty cap dB*Nt*Nr/(Bc*Tc) * ln(1 + P*Bc*Tc/(dB*Nt*N0)).

    ``log1p`` is ``np.log1p`` for arrays; scalar callers pass ``math.log1p``,
    whose last bit can differ from numpy's.
    """
    nt, lc = scenario.nt, scenario.coherence_product
    return (occupancy * nt * scenario.nr / lc) * log1p(scenario.snr_density * lc / (occupancy * nt))


def _closed_form_optimum(scenario: ChannelScenario) -> float:
    """(dB)* ~= P/(N0*Nt) * sqrt(Bc*Tc/ln(Bc*Tc) * K)."""
    lc = scenario.coherence_product
    return (scenario.snr_density / scenario.nt) * math.sqrt(lc / math.log(lc) * _shape(scenario))


def rate_lower_bound(scenario: ChannelScenario, occupancy) -> float:
    """Achievable-rate lower bound R_LB(dB) in nats/s.

    R_LB = C_inf * [1 - P*(kappa-2+Nt+Nr) / (2*dB*Nt*N0)]
           - dB*Nt*Nr/(Bc*Tc) * ln(1 + P*Bc*Tc/(dB*Nt*N0))

    The value is returned raw: it is negative (vacuous) at small occupancy
    and decays to zero as dB -> infinity.  Raises ValueError unless every
    occupancy is finite and > 0.
    """
    _check_occupancy(occupancy)
    return _coherent_term(scenario, occupancy) - _penalty_cap(scenario, occupancy)


def rate_upper_bound(scenario: ChannelScenario, occupancy, penalty_factor: float = 1.0) -> float:
    """Achievable-rate upper bound R_UB(dB) in nats/s (Rayleigh fading only).

    R_UB = C_inf * [1 - P/(2*dB*N0)
                    - dB*Nt*N0/(P*Bc*Tc) * ln(1 + P*Bc*Tc*pf/(dB*Nt*N0))]

    ``penalty_factor`` stands in for the random product g_min*psi inside the
    channel-uncertainty penalty; 1.0 is the idealized ceiling, and module
    ``mcverify`` estimates the realized product by simulation.  The vanishing
    o(1/B) remainder is dropped.  Raises ValueError unless every occupancy is
    finite and > 0.
    """
    if scenario.fading.kind != RAYLEIGH:
        raise ValueError("upper bound is only available for Rayleigh fading")
    if not 0 < penalty_factor <= 1:
        raise ValueError("penalty_factor must be in (0, 1]")
    _check_occupancy(occupancy)
    s = scenario.snr_density
    nt = scenario.nt
    lc = scenario.coherence_product
    bracket = (
        1.0
        - s / (2.0 * occupancy)
        - (occupancy * nt / (s * lc)) * np.log1p(s * lc * penalty_factor / (occupancy * nt))
    )
    return scenario.wideband_limit * bracket


@dataclass(frozen=True)
class BoundsReport:
    """Rate bounds at one occupancy, with the gap from the wideband limit."""

    occupancy: float
    rate_lower: float
    wideband_limit: float
    gap_delta: float
    rate_upper: Optional[float] = None

    def __post_init__(self):
        expected = 1.0 - self.rate_lower / self.wideband_limit
        if abs(self.gap_delta - expected) > 1e-12 * max(1.0, abs(expected)):
            raise ValueError("gap_delta inconsistent with rate_lower")


def bounds_report(
    scenario: ChannelScenario, occupancy: float, penalty_factor: float = 1.0
) -> BoundsReport:
    """Evaluate both bounds at one occupancy (upper bound only for Rayleigh)."""
    lower = float(rate_lower_bound(scenario, occupancy))
    upper = None
    if scenario.fading.kind == RAYLEIGH:
        upper = float(rate_upper_bound(scenario, occupancy, penalty_factor))
    c_inf = scenario.wideband_limit
    return BoundsReport(
        occupancy=float(occupancy),
        rate_lower=lower,
        wideband_limit=c_inf,
        gap_delta=1.0 - lower / c_inf,
        rate_upper=upper,
    )


@dataclass(frozen=True)
class CriticalBracket:
    """Optimal occupancy, peak rate and the critical-occupancy bracket.

    ``occupancy_optimal`` is the closed-form approximation and
    ``occupancy_optimal_exact`` the numerical maximizer of the lower bound.
    The loose bracket [occupancy_low, occupancy_high] and the exact-root
    bracket [occupancy_low_exact, occupancy_high_exact] are populated by
    :func:`critical_bracket` only.
    """

    nt: int
    nr: int
    occupancy_optimal: float
    occupancy_optimal_exact: float
    peak_rate_lower: float
    occupancy_low: Optional[float] = None
    occupancy_high: Optional[float] = None
    occupancy_low_exact: Optional[float] = None
    occupancy_high_exact: Optional[float] = None

    def __post_init__(self):
        if self.occupancy_low is None:
            return
        if not self.occupancy_low <= self.occupancy_optimal <= self.occupancy_high:
            raise ValueError("bracket does not contain the optimal occupancy")
        ratio = self.occupancy_high / self.occupancy_low
        expected = 4.0 * (self.nt + self.nr) * LN_PI / self.nt
        if abs(ratio - expected) > 1e-9 * expected:
            raise ValueError("bracket width inconsistent with antenna counts")
        if not (
            self.occupancy_low <= self.occupancy_low_exact
            and self.occupancy_high_exact <= self.occupancy_high
        ):
            raise ValueError("exact roots fall outside the loose bracket")


def peak_gap(scenario: ChannelScenario) -> float:
    """Gap Delta of the peak-rate lower bound from the wideband limit.

    Delta = sqrt(ln(Bc*Tc)/(Bc*Tc) * (kappa-2+Nt+Nr) * ln(pi)); it vanishes
    as the coherence product grows and does not depend on P/N0.
    """
    lc = scenario.coherence_product
    return math.sqrt(math.log(lc) / lc * _shape(scenario) * LN_PI)


def rate_derivative_terms(scenario: ChannelScenario, occupancy: float):
    """The three terms of d(R_LB)/d(dB) / C_inf: (quadratic, log, rational).

    The stationarity condition at the maximizer is t1 - t2 + t3 = 0.
    """
    s = scenario.snr_density
    nt = scenario.nt
    lc = scenario.coherence_product
    x = occupancy
    t1 = s * _shape(scenario) / (2.0 * x * x * nt)
    t2 = (nt / (s * lc)) * math.log1p(s * lc / (x * nt))
    t3 = 1.0 / (x * (1.0 + s * lc / (nt * x)))
    return t1, t2, t3


def stationarity_residual(scenario: ChannelScenario, occupancy: float) -> float:
    """|t1 - t2 + t3| relative to the largest derivative term at ``occupancy``."""
    t1, t2, t3 = rate_derivative_terms(scenario, occupancy)
    return abs(t1 - t2 + t3) / max(abs(t1), abs(t2), abs(t3))


def optimal_occupancy(scenario: ChannelScenario) -> CriticalBracket:
    """Occupancy maximizing the lower bound, closed form and exact, plus peak rate.

    Closed form: (dB)* ~= P/(N0*Nt) * sqrt(Bc*Tc/ln(Bc*Tc) * K), K = kappa-2+Nt+Nr.

    Exact: with y = P*Bc*Tc/(dB*Nt*N0), the slope t1 - t2 + t3 of R_LB (see
    :func:`rate_derivative_terms`) has the sign of
    f(y) = K*y^2/(2*Bc*Tc) - ln(1+y) + y/(1+y), which changes sign once.
    Since ln(1+y) < y, f > 0 at dB = P*K/(2*Nt*N0); since
    ln(1+y) - y/(1+y) >= y^2/2 - 2*y^3/3 for y < 1, f < 0 at
    dB = 4*P*(Bc*Tc)^2/(3*Nt*N0*(Bc*Tc - K)).  The maximizer is found by
    bisecting the sign of the slope in ln(dB) on that bracket until the
    midpoint meets an end, so the stationarity residual is at float64
    resolution.  An interior maximum exists only when Bc*Tc > K (otherwise
    R_LB rises monotonically).  ``ValueError`` is raised when Bc*Tc <= K, and
    also when Bc*Tc <= (1 + 1e-4)*K, where the float64 slope places the
    maximizer no better than about 1e-7 relative.

    Peak rate: C_inf * (1 - Delta) with Delta from :func:`peak_gap`.
    """
    lc = scenario.coherence_product
    if not lc > math.e:
        raise ValueError("coherence product must exceed e")
    shape = _shape(scenario)
    if not lc > shape * (1.0 + _MIN_SHAPE_EXCESS):
        raise ValueError(
            f"coherence product {lc:g} must exceed kappa-2+Nt+Nr = {shape:g} by more "
            f"than {_MIN_SHAPE_EXCESS:g} relative: R_LB has no interior maximum at or "
            "below it, and float64 cannot place one just above it"
        )
    s, nt = scenario.snr_density, scenario.nt

    def slope(u: float) -> float:
        t1, t2, t3 = rate_derivative_terms(scenario, math.exp(u))
        return t1 - t2 + t3

    lo = math.log(s * shape / (2.0 * nt))
    hi = math.log(4.0 * s * lc * lc / (3.0 * nt * (lc - shape)))
    if not slope(lo) > 0.0 > slope(hi):
        raise ValueError("R_LB slope does not change sign on the closed-form bracket")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        slope_mid = slope(mid)
        if slope_mid == 0.0:
            break
        if slope_mid > 0.0:
            lo = mid
        else:
            hi = mid

    return CriticalBracket(
        nt=nt,
        nr=scenario.nr,
        occupancy_optimal=_closed_form_optimum(scenario),
        occupancy_optimal_exact=math.exp(mid),
        peak_rate_lower=scenario.wideband_limit * (1.0 - peak_gap(scenario)),
    )


def critical_coefficients(nt: int, nr: int):
    """Normalized critical occupancies (units of P/(delta*N0)*sqrt(Lc/ln Lc)).

    Returns (low_exact, low_approx, high_exact, high_approx).  The exact
    values are 1/sqrt(Omega-+) with sqrt(Omega-+) = sqrt(Nt)*(sqrt(u) -+
    sqrt(u-1)) and u = (Nr/Nt + 1)*ln(pi); the approximations widen them to
    1/(2*sqrt((Nt+Nr)*ln pi)) and 2*sqrt((Nt+Nr)*ln pi)/Nt.
    """
    u = (nr / nt + 1.0) * LN_PI
    root = math.sqrt(u - 1.0)
    sqrt_omega_minus = math.sqrt(nt) * (math.sqrt(u) + root)
    sqrt_omega_plus = math.sqrt(nt) * (math.sqrt(u) - root)
    low_exact = 1.0 / sqrt_omega_minus
    high_exact = 1.0 / sqrt_omega_plus
    low_approx = 1.0 / (2.0 * math.sqrt((nt + nr) * LN_PI))
    high_approx = 2.0 * math.sqrt((nt + nr) * LN_PI) / nt
    return low_exact, low_approx, high_exact, high_approx


def critical_bracket(scenario: ChannelScenario) -> CriticalBracket:
    """Bracket for the critical occupancy (Rayleigh fading only).

    Loose bracket:
        (dB)- = P/N0 / (2*sqrt((Nt+Nr)*ln pi)) * sqrt(Lc/ln Lc)
        (dB)+ = P/N0 * 2*sqrt((Nt+Nr)*ln pi)/Nt * sqrt(Lc/ln Lc)
    The exact-root variants tighten both ends and always lie inside.
    """
    if scenario.fading.kind != RAYLEIGH:
        raise ValueError("critical bracket is only available for Rayleigh fading")
    nt, nr = scenario.nt, scenario.nr
    lc = scenario.coherence_product
    if lc < math.pi ** (4.0 / (nt + nr)):
        raise ValueError("coherence product below pi**(4/(Nt+Nr))")
    base = optimal_occupancy(scenario)
    scale = scenario.snr_density * math.sqrt(lc / math.log(lc))
    low_exact, low_approx, high_exact, high_approx = critical_coefficients(nt, nr)
    return CriticalBracket(
        nt=nt,
        nr=nr,
        occupancy_optimal=base.occupancy_optimal,
        occupancy_optimal_exact=base.occupancy_optimal_exact,
        peak_rate_lower=base.peak_rate_lower,
        occupancy_low=scale * low_approx,
        occupancy_high=scale * high_approx,
        occupancy_low_exact=scale * low_exact,
        occupancy_high_exact=scale * high_exact,
    )


def sublinear_rate_bound(scenario: ChannelScenario, bandwidth: float, alpha: float) -> float:
    """Polynomial lower bound at duty cycle delta = SNR^(1-alpha).

    Returns C_inf * [1 - SNR^alpha * (kappa-2+Nt+Nr)/Nt] with
    SNR = (P/N0)/B.  Requires SNR < 1 (the duty-cycle substitution is
    undefined otherwise); warns when the implied occupancy exceeds (dB)*.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    from .scenario import snr_per_dof

    snr = snr_per_dof(scenario, bandwidth)
    if snr >= 1:
        raise ValueError("per-dof SNR must be < 1 for the duty-cycle substitution")
    delta = snr ** (1.0 - alpha)
    occupancy = delta * bandwidth
    if occupancy > _closed_form_optimum(scenario):
        warnings.warn(
            "implied occupancy exceeds the optimal occupancy; bound hypothesis violated",
            OccupancyAboveOptimalWarning,
            stacklevel=2,
        )
    return scenario.wideband_limit * (1.0 - snr**alpha * _shape(scenario) / scenario.nt)


@dataclass(frozen=True)
class AlphaBracket:
    """Sublinear-exponent estimates from the two bracketing methods.

    ``alpha_max``/``alpha_min`` come from the coherence-length condition
    (alpha_min is alpha_max - epsilon floored at alpha_max/2);
    ``alpha_plus``/``alpha_minus`` come from the critical-occupancy bracket.
    Values are stored raw; ``clamped`` flags any of them leaving (0, 1].
    """

    alpha_max: float
    alpha_min: float
    alpha_plus: float
    alpha_minus: float
    epsilon: float
    sigma_range: tuple
    snr: float
    clamped: bool

    def __post_init__(self):
        if self.alpha_min < self.alpha_max / 2.0 - 1e-15:
            raise ValueError("alpha_min must be floored at alpha_max/2")


def alpha_brackets(scenario: ChannelScenario, snr: float, epsilon: float) -> AlphaBracket:
    """Bracket the sublinear exponent alpha at a given per-dof SNR.

    alpha_max  = ln((Nt+Nr)^2/Nt^2 * Bc*Tc) / (2*ln(1/SNR))
    alpha_min  = max(alpha_max - epsilon, alpha_max/2)
    alpha+/-   = alpha_max minus the ln(Bc*Tc)-correction terms of the
                 critical-occupancy bracket ends.
    """
    if not 0 < snr < 1:
        raise ValueError("snr must be in (0, 1)")
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    nt, nr = scenario.nt, scenario.nr
    lc = scenario.coherence_product
    two_l = 2.0 * math.log(1.0 / snr)
    ratio2 = (nt + nr) ** 2 / nt**2
    alpha_max = math.log(ratio2 * lc) / two_l
    alpha_min = max(alpha_max - epsilon, alpha_max / 2.0)
    alpha_plus = alpha_max - math.log((nt + nr) * math.log(lc) / (4.0 * LN_PI)) / two_l
    alpha_minus = alpha_max - math.log(
        4.0 * LN_PI * (nt + nr) ** 3 / nt**2 * math.log(lc)
    ) / two_l
    clamped = any(
        not 0.0 < value <= 1.0 for value in (alpha_max, alpha_min, alpha_plus, alpha_minus)
    )
    return AlphaBracket(
        alpha_max=alpha_max,
        alpha_min=alpha_min,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        epsilon=epsilon,
        sigma_range=(0.0, epsilon),
        snr=snr,
        clamped=clamped,
    )


def epsilon_for_error_pct(p: float, snr: float) -> float:
    """Error exponent eps(p) making the remainder a p-percent of the sublinear term.

    Solves SNR^(1+alpha) = (100/p) * SNR^(1+alpha+eps), independent of alpha:
    eps = ln(100/p) / ln(1/SNR).
    """
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    if not 0 < snr < 1:
        raise ValueError("snr must be in (0, 1)")
    return math.log(100.0 / p) / math.log(1.0 / snr)


def coherence_requirement(alpha: float, sigma: float, snr: float, nt: int, nr: int) -> float:
    """Coherence length supporting exponent alpha with margin sigma.

    L_c = Nt^2/(Nt+Nr)^2 * SNR^(-2*(sigma+alpha)); sigma -> 0 recovers the
    minimum coherence for the bare exponent.
    """
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if not 0 < snr < 1:
        raise ValueError("snr must be in (0, 1)")
    return nt**2 / (nt + nr) ** 2 * snr ** (-2.0 * (sigma + alpha))


def normalize_per_symbol_rate(rate_per_symbol: float, scenario: ChannelScenario) -> float:
    """Convert nats/symbol at the filter-bank symbol rate 1/Ts = Bc into nats/s."""
    return rate_per_symbol * scenario.coherence_bandwidth


def sublinear_support_range(scenario: ChannelScenario, epsilon: float):
    """Occupancy constraints supporting the polynomial family at margin epsilon.

    Returns (cap, floor_const): admissible operating points satisfy
    dB < cap = P/N0 * (Nt+Nr)/Nt * sqrt(Bc*Tc) and
    delta*B^(1+eps) > floor_const = (P/N0)^(1+eps) * (Nt+Nr)/Nt * sqrt(Bc*Tc).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    s = scenario.snr_density
    shape = (scenario.nt + scenario.nr) / scenario.nt
    root = math.sqrt(scenario.coherence_product)
    return s * shape * root, s ** (1.0 + epsilon) * shape * root


def coarse_peak_rate(scenario: ChannelScenario) -> float:
    """Coarse peak-rate estimate C_inf * (1 - 1/sqrt(Bc*Tc)) in nats/s."""
    return scenario.wideband_limit * (1.0 - 1.0 / math.sqrt(scenario.coherence_product))
