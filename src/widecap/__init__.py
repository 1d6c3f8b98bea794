"""Capacity bounds of non-coherent wideband MIMO channels over bandwidth occupancy.

The package computes the closed-form achievable-rate bounds of peaky/non-peaky
signaling as functions of the bandwidth occupancy delta*B, locates the optimal
and critical occupancies, evaluates the sublinear-exponent brackets of the
polynomial capacity expansion, and verifies the underlying algebra by seeded
Monte-Carlo simulation of discrete block-fading channels.
"""

from .bounds import (
    AlphaBracket,
    CriticalBracket,
    alpha_brackets,
    critical_bracket,
    epsilon_for_error_pct,
    optimal_occupancy,
    peak_gap,
    rate_lower_bound,
    rate_upper_bound,
)
from .channel import (
    block_idft_matrix,
    circulant_eigenvalues,
    filterbank_equivalence_check,
    pilot_gram,
)
from .mcverify import McConfig, McEstimate, run_verification_suite
from .scenario import (
    ChannelScenario,
    FadingFamily,
    ParseError,
    ScenarioError,
    ValidationError,
    kurtosis,
    parse_scenario,
    serialize_scenario,
)

__version__ = "0.11.0"
