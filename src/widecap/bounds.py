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
  * the sublinear-exponent algebra: the bracket [alpha_min, alpha_max], the
    occupancy-derived bracket [alpha-, alpha+] and the precision/accuracy
    selector eps(p).

All functions are pure; occupancy arguments may be numpy arrays and broadcast
through.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scenario import RAYLEIGH, ChannelScenario, kurtosis

__all__ = [
    "CriticalBracket",
    "AlphaBracket",
    "rate_lower_bound",
    "rate_upper_bound",
    "optimal_occupancy",
    "critical_bracket",
    "critical_coefficients",
    "peak_gap",
    "alpha_brackets",
    "epsilon_for_error_pct",
]

LN_PI = math.log(math.pi)

# The solver's g(y) = ln(1+y) - y/(1+y) loses digits to cancellation at small
# y.  With u = y/(2+y), ln(1+y) = 2*atanh(u) and y/(1+y) = 2u/(1+u), so
# g = 2u^2/(1+u) + 2u^3 * S(u^2) with S(v) = sum over n >= 0 of v^n/(2n+3),
# a sum of positive terms.  Below y = 2 (v < 1/4) these 26 coefficients of S,
# highest power first for Horner's rule, leave a truncation error under 1e-17
# relative in g.
_SERIES_Y = 2.0
_S_SERIES = tuple(1.0 / (2 * n + 3) for n in range(25, -1, -1))


def _check_occupancy(occupancy):
    # Two reductions and no temporary arrays: this runs on every kernel call.
    # min and max propagate nan, which fails the first comparison.  The
    # initial values (float, so integer input is converted) let an empty
    # array pass.
    occupancy = np.asarray(occupancy, dtype=float)
    if not occupancy.min(initial=math.inf) > 0:
        raise ValueError("occupancy must be > 0")
    if not occupancy.max(initial=0.0) < math.inf:
        raise ValueError("occupancy must be finite")


def _require_rayleigh(scenario: ChannelScenario, what: str):
    if scenario.fading.kind != RAYLEIGH:
        raise ValueError(f"{what} is only available for Rayleigh fading")


def _shape(scenario: ChannelScenario) -> float:
    """K = kappa-2+Nt+Nr, the fourth-moment factor of the coherent term."""
    return kurtosis(scenario.fading) - 2.0 + scenario.nt + scenario.nr


def _coherent_term(scenario: ChannelScenario, occupancy):
    """Coherent term C_inf * [1 - P*K/(2*dB*Nt*N0)] of the lower bound.

    It is the quadratic expansion of dB * E[ln det(I + P/(dB*Nt*N0) * H H^H)],
    which the Monte-Carlo suite's ``coherent_expansion`` record bounds from below.
    """
    s = scenario.snr_density
    # Halving the numerator, not doubling the denominator, is exact and keeps
    # 2*dB*Nt from overflowing at the largest occupancies.
    return scenario.wideband_limit * (1.0 - 0.5 * (s * _shape(scenario)) / (occupancy * scenario.nt))


def _penalty_cap(scenario: ChannelScenario, occupancy):
    """Channel-uncertainty penalty cap dB*Nt*Nr/(Bc*Tc) * ln(1 + P*Bc*Tc/(dB*Nt*N0))."""
    nt, lc = scenario.nt, scenario.coherence_product
    log_term = np.log1p(scenario.snr_density * lc / (occupancy * nt))
    return (occupancy * nt * scenario.nr / lc) * log_term


def _closed_form_optimum(scenario: ChannelScenario) -> float:
    """(dB)* ~= P/(N0*Nt) * sqrt(Bc*Tc/ln(Bc*Tc) * K)."""
    lc = scenario.coherence_product
    return (scenario.snr_density / scenario.nt) * math.sqrt(lc / math.log(lc) * _shape(scenario))


def rate_lower_bound(scenario: ChannelScenario, occupancy) -> float | np.ndarray:
    """Achievable-rate lower bound R_LB(dB) in nats/s.

    R_LB = C_inf * [1 - P*(kappa-2+Nt+Nr) / (2*dB*Nt*N0)]
           - dB*Nt*Nr/(Bc*Tc) * ln(1 + P*Bc*Tc/(dB*Nt*N0))

    The value is returned raw: it is negative (vacuous) at small occupancy
    and decays to zero as dB -> infinity.  Raises ValueError unless every
    occupancy is finite and > 0.  Limits: where float64 overflows inside the
    formula, the value is -inf or nan although the true one may be finite;
    this is not checked here, and ``widecap bounds`` refuses any grid whose
    table holds a non-finite value.  P/N0, Tc, Bc and Bc*Tc are always
    finite: :class:`ChannelScenario` refuses others.  An array of
    occupancies gives an array of rates of its shape.
    """
    _check_occupancy(occupancy)
    return _coherent_term(scenario, occupancy) - _penalty_cap(scenario, occupancy)


def rate_upper_bound(scenario: ChannelScenario, occupancy,
                     penalty_factor: float = 1.0) -> float | np.ndarray:
    """Achievable-rate upper bound R_UB(dB) in nats/s (Rayleigh fading only).

    R_UB = C_inf * [1 - P/(2*dB*N0)
                    - dB*Nt*N0/(P*Bc*Tc) * ln(1 + P*Bc*Tc*pf/(dB*Nt*N0))]

    ``penalty_factor`` stands in for the random product g_min*psi inside the
    channel-uncertainty penalty; 1.0 is the idealized ceiling.  The vanishing
    o(1/B) remainder is dropped.  Raises ValueError unless every occupancy is
    finite and > 0.  Limits: as for :func:`rate_lower_bound`, an overflow
    inside the formula gives nan or -inf, which ``widecap bounds`` refuses.
    An array of occupancies gives an array of rates of its shape.
    """
    _require_rayleigh(scenario, "upper bound")
    if not 0 < penalty_factor <= 1:
        raise ValueError("penalty_factor must be in (0, 1]")
    _check_occupancy(occupancy)
    s = scenario.snr_density
    nt = scenario.nt
    lc = scenario.coherence_product
    bracket = (
        1.0
        - 0.5 * s / occupancy
        - (occupancy * nt / (s * lc)) * np.log1p(s * lc * penalty_factor / (occupancy * nt))
    )
    return scenario.wideband_limit * bracket


@dataclass(frozen=True)
class CriticalBracket:
    """Optimal occupancy, peak rate and the critical-occupancy bracket.

    ``occupancy_optimal`` is the closed-form approximation and
    ``occupancy_optimal_exact`` the numerical maximizer of the lower bound.
    ``peak_rate_lower``, the loose bracket [occupancy_low, occupancy_high] and
    the exact-root bracket [occupancy_low_exact, occupancy_high_exact] are the
    paper's large-Lc asymptotics, not bounds at every Lc.  The brackets are
    populated by :func:`critical_bracket` only; their ratio and nesting around
    ``occupancy_optimal`` are identities of :func:`critical_coefficients`.
    """

    occupancy_optimal: float
    occupancy_optimal_exact: float
    peak_rate_lower: float
    occupancy_low: Optional[float] = None
    occupancy_high: Optional[float] = None
    occupancy_low_exact: Optional[float] = None
    occupancy_high_exact: Optional[float] = None


def peak_gap(scenario: ChannelScenario) -> float:
    """Gap Delta of the peak-rate lower bound from the wideband limit.

    Delta = sqrt(ln(Bc*Tc)/(Bc*Tc) * (kappa-2+Nt+Nr) * ln(pi)); it vanishes
    as the coherence product grows and does not depend on P/N0.
    """
    lc = scenario.coherence_product
    return math.sqrt(math.log(lc) / lc * _shape(scenario) * LN_PI)


def rate_derivative_terms(scenario: ChannelScenario, occupancy: float):
    """The three terms of d(R_LB)/d(dB) / C_inf: (quadratic, log, rational).

    The stationarity condition at the maximizer is t1 - t2 + t3 = 0.  The solver
    works in y (:func:`_optimum_y`), so this is kept only for the benchmark's
    span tracer, which looks it up by name.
    """
    s = scenario.snr_density
    nt = scenario.nt
    lc = scenario.coherence_product
    x = occupancy
    t1 = s * _shape(scenario) / (2.0 * x * x * nt)
    t2 = (nt / (s * lc)) * math.log1p(s * lc / (x * nt))
    t3 = 1.0 / (x * (1.0 + s * lc / (nt * x)))
    return t1, t2, t3


def _iterated_function(shape: float, lc: float):
    """The function whose root :func:`_optimum_y` finds, and its closed-form bracket.

    Returns (value_and_slope, c, lo, hi) for c = K/(2*Lc) and Lc > K:
    ``value_and_slope(y)`` gives the iterated function at y and its slope in
    y, and the root lies in (lo, hi).  g(y)/y^2, g(y) = ln(1+y) - y/(1+y),
    falls from 1/2 at y = 0 towards 0, so the root is unique.  The iterated
    function is c - g(y)/y^2 when c <= 1/4 (the root then lies above
    y = 0.66), and otherwise h(y) - (Lc-K)/(2*Lc) with h = 1/2 - g/y^2, whose
    right-hand side is exact for Lc < 2K.  Both rise with y.  Below y = 2, g
    and h come from the series in u = y/(2+y), where
    h = u*(3-u)/(2*(1+u)) - (1-u)^2*u*S(u^2)/2 needs no subtraction from 1/2.

    Closed-form bracket: ln(1+y) < y puts the root below 2*Lc/K, and
    h(y) < 2y/3 puts it above 3*(Lc-K)/(4*Lc).  The low end used is 2/3 of
    that, d = (Lc-K)/(2*Lc) itself: within an ulp or two of Lc = K the root
    lies within rounding of 3d/2, where the sign of the iterated function is
    noise.
    """
    # Halving the numerators keeps 2*Lc from overflowing; the quotients are
    # those of dividing by 2*Lc.
    c = 0.5 * shape / lc
    d = 0.5 * (lc - shape) / lc
    small_root = c > 0.25

    def value_and_slope(y):
        if y < _SERIES_Y:
            u = y / (2.0 + y)
            v = u * u
            series = 0.0
            for a in _S_SERIES:
                series = series * v + a
            if small_root:
                h = u * (3.0 - u) / (2.0 * (1.0 + u)) - 0.5 * (1.0 - u) * (1.0 - u) * u * series
                # h'(y) = (2+y)/(1+y)^2 - 2h/y, without cancellation as y -> 0
                return h - d, (2.0 + y) / ((1.0 + y) * (1.0 + y)) - 2.0 * h / y
            q = (2.0 * v / (1.0 + u) + 2.0 * u * v * series) / (y * y)
        else:
            g = math.log1p(y) - y / (1.0 + y)
            q = g / (y * y) if y < 1e154 else g / y / y
        slope = (2.0 * q - 1.0 / ((1.0 + y) * (1.0 + y))) / y  # -(g/y^2)'
        return (0.5 - q) - d if small_root else c - q, slope

    return value_and_slope, c, d, min(2.0 * lc / shape, sys.float_info.max)


def _optimum_y(shape: float, lc: float) -> float:
    """Root y* of g(y)/y^2 = K/(2*Lc), g(y) = ln(1+y) - y/(1+y), for Lc > K.

    Newton steps on the function of :func:`_iterated_function` start from an
    estimate of the root.  Where the slope underflows to 0 (far above y* once
    Lc exceeds about 1e110, and near y* above about 1e210), the step is
    Newton's on F(y) = y^2 * (c - q), whose slope y * (2c - 1/(1+y)^2) needs
    no division by y.  The iteration ends at the first step within 4.5e-16*y
    of y, even one that rounds onto a bracket end.  A step that has not
    converged and leaves the bracket becomes a bisection step, so the bracket
    shrinks at every step and the iteration ends for every finite Lc
    (y* < 4e155; g/y^2 takes two divisions where y^2 would overflow).
    """
    value_and_slope, c, lo, hi = _iterated_function(shape, lc)
    small_root = c > 0.25
    # Only c > 1/4 evaluates the iterated function at the bracket ends: for
    # c <= 1/4 their signs follow from the closed forms, with margins far
    # above rounding.  There the function is c - q with q = g/y^2 falling.
    # At lo = d = 1/2 - c in [1/4, 1/2), q(d) > q(1/2) ~= 0.288 > c.  At
    # hi = 2*Lc/K = 1/c (or the largest float, below it), q < 0.21*c (and
    # g(y) < y^2/(1+y) alone gives q < 1/(1+y) < c).
    if small_root and not value_and_slope(lo)[0] < 0.0 < value_and_slope(hi)[0]:
        raise ValueError("R_LB slope does not change sign on the closed-form bracket")
    if small_root:
        y = 1.5 * lo * (1.0 + 1.6875 * lo)  # h(y) = d inverted to second order
    else:
        y = math.sqrt(lc * math.log(lc) / shape)  # y of the closed-form optimum
        if y == math.inf:  # Lc*ln(Lc) overflows above about 2.5e305
            # From the bracket's midpoint, Newton on F would only halve y.
            y = math.sqrt(lc / shape) * math.sqrt(math.log(lc))
    while True:
        value, slope = value_and_slope(y)
        if value == 0.0:
            return y
        if value < 0.0:
            lo = y
        else:
            hi = y
        if slope > 0.0:
            step = y - value / slope
        else:
            rise = 2.0 * c - 1.0 / (1.0 + y) / (1.0 + y)
            step = y - y * value / rise if rise > 0.0 else 0.5 * (lo + hi)
        if abs(step - y) <= 4.5e-16 * y:
            return step
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        y = step


def _exact_optimum(scenario: ChannelScenario) -> float:
    """The occupancy P*Lc/(Nt*N0*y*) that maximizes R_LB; see optimal_occupancy."""
    lc = scenario.coherence_product
    if not lc > math.e:
        raise ValueError("coherence product must exceed e")
    shape = _shape(scenario)
    if not lc > shape:
        raise ValueError(
            f"coherence product {lc:g} must exceed kappa-2+Nt+Nr = {shape:g}: "
            "R_LB has no interior maximum at or below it"
        )
    s, scale = scenario.snr_density, scenario.nt * _optimum_y(shape, lc)
    # P*Lc can overflow where the occupancy does not: then divide Lc first.
    return s * lc / scale if s * lc < math.inf else s * (lc / scale)


def optimal_occupancy(scenario: ChannelScenario) -> CriticalBracket:
    """Occupancy maximizing the lower bound, closed form and exact, plus peak rate.

    Closed form: (dB)* ~= P/(N0*Nt) * sqrt(Bc*Tc/ln(Bc*Tc) * K), K = kappa-2+Nt+Nr.

    Exact: with y = P*Bc*Tc/(dB*Nt*N0), the slope t1 - t2 + t3 of R_LB (see
    :func:`rate_derivative_terms`) has the sign of
    f(y) = K*y^2/(2*Bc*Tc) - g(y), g(y) = ln(1+y) - y/(1+y).  So the
    maximizer depends on the scenario only through c = K/(2*Bc*Tc): it is
    (dB)* = P*Bc*Tc/(Nt*N0*y*) with y* the one root of g(y)/y^2 = c.  That
    root is found by a bracketed Newton iteration on a form chosen to be well
    conditioned (a series without cancellation at small y), so it is accurate
    to a few ulps for every Bc*Tc > K.  An interior maximum exists only then
    (otherwise R_LB rises monotonically), and ``ValueError`` is raised when
    Bc*Tc <= K.  The iteration stops at the first Newton step that moves y
    by at most 4.5e-16*y, even one that lands on a bracket end; only a step
    that has not converged and leaves the bracket bisects.

    Peak rate: C_inf * (1 - Delta), Delta from :func:`peak_gap`: the paper's large-Lc
    asymptote of the peak of R_LB, not a bound at every Lc (1x1 Rayleigh, P/N0 = 100,
    Lc = 1000: 87.4242, above the peak R_LB of 87.1812).
    """
    return CriticalBracket(
        occupancy_optimal=_closed_form_optimum(scenario),
        occupancy_optimal_exact=_exact_optimum(scenario),
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
    The exact-root variants tighten both ends and always lie inside; the other
    fields are those of :func:`optimal_occupancy`.  Both brackets are large-Lc
    asymptotics: on 8x8 at Bc*Tc = 16.00016 the exact optimum is about 1e5 * occupancy_high.
    """
    _require_rayleigh(scenario, "critical bracket")
    nt, nr = scenario.nt, scenario.nr
    lc = scenario.coherence_product
    if lc < math.pi ** (4.0 / (nt + nr)):
        raise ValueError("coherence product below pi**(4/(Nt+Nr))")
    scale = scenario.snr_density * math.sqrt(lc / math.log(lc))
    low_exact, low_approx, high_exact, high_approx = critical_coefficients(nt, nr)
    # Positional: dataclasses.replace(optimum, ...) made this 10 us call 3 us slower (2x2,
    # 2-core x86 VM).
    optimum = optimal_occupancy(scenario)
    return CriticalBracket(optimum.occupancy_optimal, optimum.occupancy_optimal_exact,
                           optimum.peak_rate_lower, scale * low_approx, scale * high_approx,
                           scale * low_exact, scale * high_exact)


@dataclass(frozen=True)
class AlphaBracket:
    """Sublinear-exponent estimates from the two bracketing methods, stored raw.

    ``alpha_max``/``alpha_min`` come from the coherence-length condition
    (alpha_min is alpha_max - epsilon floored at alpha_max/2, the only value
    that depends on epsilon); ``alpha_plus``/``alpha_minus`` come from the
    critical-occupancy bracket.  No value is clipped to (0, 1].
    """

    alpha_max: float
    alpha_min: float
    alpha_plus: float
    alpha_minus: float


def _log_inverse_snr(snr: float) -> float:
    """ln(1/SNR) for an SNR in (0, 1), refusing one whose 1/SNR overflows float64."""
    if not 0 < snr < 1:
        raise ValueError("snr must be in (0, 1)")
    inverse = 1.0 / snr
    if not math.isfinite(inverse):
        raise ValueError(f"snr = {snr!r} is below about 5.6e-309, where 1/snr overflows float64")
    return math.log(inverse)


def alpha_brackets(scenario: ChannelScenario, snr: float, epsilon: float) -> AlphaBracket:
    """Bracket the sublinear exponent alpha at a given per-dof SNR.

    alpha_max  = ln((Nt+Nr)^2/Nt^2 * Bc*Tc) / (2*ln(1/SNR))
    alpha_min  = max(alpha_max - epsilon, alpha_max/2)
    alpha+/-   = alpha_max minus the ln(Bc*Tc)-correction terms of the
                 critical-occupancy bracket ends.

    Raises ValueError for an SNR outside (0, 1) or below about 5.6e-309,
    where 1/SNR overflows float64.
    """
    two_l = 2.0 * _log_inverse_snr(snr)
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    nt, nr = scenario.nt, scenario.nr
    lc = scenario.coherence_product
    log_lc = math.log(lc)
    alpha_max = math.log((nt + nr) ** 2 / nt**2 * lc) / two_l
    return AlphaBracket(
        alpha_max=alpha_max,
        alpha_min=max(alpha_max - epsilon, alpha_max / 2.0),
        alpha_plus=alpha_max - math.log((nt + nr) * log_lc / (4.0 * LN_PI)) / two_l,
        alpha_minus=alpha_max - math.log(4.0 * LN_PI * (nt + nr) ** 3 / nt**2 * log_lc) / two_l,
    )


def epsilon_for_error_pct(p: float, snr: float) -> float:
    """Error exponent eps(p) making the remainder a p-percent of the sublinear term.

    Solves SNR^(1+alpha) = (100/p) * SNR^(1+alpha+eps), independent of alpha:
    eps = ln(100/p) / ln(1/SNR).  Raises ValueError for p outside (0, 100] or
    below about 5.6e-307 (100/p overflows float64), and for an SNR that
    :func:`alpha_brackets` refuses.
    """
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    log_inverse_snr = _log_inverse_snr(snr)
    ratio = 100.0 / p
    if not math.isfinite(ratio):
        raise ValueError(f"p = {p!r} is below about 5.6e-307, where 100/p overflows float64")
    return math.log(ratio) / log_inverse_snr

