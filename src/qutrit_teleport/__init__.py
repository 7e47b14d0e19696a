"""Exact engine for SU(3) two-qutrit teleportation gates.

Constructs the nine entangled two-qutrit basis states, derives all 81
measurement gates from first principles in exact arithmetic over
Q(sqrt2, sqrt3), diffs them against the published tables into a
machine-readable errata report, analyzes gate non-unitarity and
completeness, and runs a seeded Monte-Carlo simulation of the three-party
protocol.

The errata diff (``compare_tables``) and the simulation names
(``BatchSummary``, ``TrialRecord``, ``run_batch``, ``run_trial``) are
loaded on first access, so importing the package for exact work loads
neither the transcribed tables nor numpy.
"""

from importlib import import_module

from .exact import ExtScalar, rational
from .linalg import Operator3
from .basis import ExpansionRow, entangled_state, expand_product
from .engine import derive_all, derive_gate
from .analysis import GateProfile, profile_gate, recovery

__all__ = [
    "ExtScalar",
    "rational",
    "Operator3",
    "ExpansionRow",
    "entangled_state",
    "expand_product",
    "derive_all",
    "derive_gate",
    "compare_tables",
    "GateProfile",
    "profile_gate",
    "recovery",
    "BatchSummary",
    "TrialRecord",
    "run_batch",
    "run_trial",
]

__version__ = "0.1.0"

# name -> the module that defines it, imported on first access
_LAZY_NAMES = {
    "compare_tables": "published",
    **dict.fromkeys(("BatchSummary", "TrialRecord", "run_batch", "run_trial"), "simulate"),
}


def __getattr__(name):
    if name in _LAZY_NAMES:
        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
