"""Exact engine for SU(3) two-qutrit teleportation gates.

Constructs the nine entangled two-qutrit basis states, derives all 81
measurement gates from first principles in exact arithmetic over
Q(sqrt2, sqrt3), diffs them against the published tables into a
machine-readable errata report, analyzes gate non-unitarity and
completeness, and runs a seeded Monte-Carlo simulation of the three-party
protocol.

Every public name, and each module that defines one, is loaded on first
access (PEP 562), so a bare ``import qutrit_teleport`` loads no
submodule, and exact work loads neither the transcribed tables nor numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines, in the order of __all__
_PUBLIC = {
    "exact": ("ExtScalar", "rational"),
    "linalg": ("Operator3",),
    "basis": ("ExpansionRow", "entangled_state", "expand_product"),
    "engine": ("derive_all", "derive_gate"),
    "published": ("compare_tables",),
    "analysis": ("GateProfile", "profile_gate", "recovery"),
    "simulate": ("BatchSummary", "TrialRecord", "run_batch", "run_trial"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _PUBLIC:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
