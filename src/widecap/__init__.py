"""Capacity bounds of non-coherent wideband MIMO channels over bandwidth occupancy.

The package computes the closed-form achievable-rate bounds of peaky/non-peaky
signaling as functions of the bandwidth occupancy delta*B, locates the optimal
and critical occupancies, evaluates the sublinear-exponent brackets of the
polynomial capacity expansion, and verifies the underlying algebra by seeded
Monte-Carlo simulation of discrete block-fading channels.

``scenario`` and ``bounds`` load with the package.  The Monte-Carlo stack,
the ``channel`` and ``mcverify`` submodules and the names re-exported from
them, loads on first access (PEP 562), so code that only evaluates the
closed forms never imports or compiles it.
"""

import importlib
import os

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

__version__ = "0.19.0"


def _usable_cpus() -> int:
    """CPUs this process may run on: the forked worker of ``verify`` and the repr
    helper of ``bounds`` run only when there are two."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# Lazily served name -> the submodule that defines it (a submodule maps to itself).
_LAZY = {
    "channel": "channel",
    "mcverify": "mcverify",
    "McConfig": "mcverify",
    "McEstimate": "mcverify",
    "run_verification_suite": "mcverify",
    "block_idft_matrix": "channel",
    "circulant_eigenvalues": "channel",
    "filterbank_equivalence_check": "channel",
    "pilot_gram": "channel",
}

__all__ = [
    "AlphaBracket",
    "ChannelScenario",
    "CriticalBracket",
    "FadingFamily",
    "McConfig",
    "McEstimate",
    "ParseError",
    "ScenarioError",
    "ValidationError",
    "alpha_brackets",
    "block_idft_matrix",
    "circulant_eigenvalues",
    "critical_bracket",
    "epsilon_for_error_pct",
    "filterbank_equivalence_check",
    "kurtosis",
    "optimal_occupancy",
    "parse_scenario",
    "peak_gap",
    "pilot_gram",
    "rate_lower_bound",
    "rate_upper_bound",
    "run_verification_suite",
    "serialize_scenario",
]


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it on the package, so each submodule passes
    # through here once; the re-exported names are read from it on every access.
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
