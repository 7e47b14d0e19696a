"""JSON wire formats and canonical serialization.

All JSON emitted by the package is canonical: sorted keys, two-space
indent, UTF-8, trailing newline, no timestamps, so identical invocations
produce byte-identical documents.  Exact scalars travel as "p/q" strings,
so export/import round-trips are exact, not approximate.

This is the only module that knows the gate wire form.  A gate in memory is
a bare `Operator3`; its (channel, outcome) is the key it is stored under,
and the gate object written here adds that key and a provenance string
("oracle" for a derived gate, "paper" for a transcribed one).

JSON Schemas for the three machine-readable documents (gate table, errata
report, batch summary) ship with the package under ``schemas/``.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import TYPE_CHECKING, Optional

from .basis import ExpansionRow
from .exact import _KEYS as _SCALAR_KEYS, ExtScalar
from .linalg import Operator3
from .published import (
    KIND_GATE,
    KIND_PREMEASURE,
    ErrataEntry,
    ErrataReport,
)

if TYPE_CHECKING:
    from .simulate import BatchSummary, TrialRecord


def dumps_canonical(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# -- scalars, pre-measurement states, operators --------------------------------


def _check_keys(obj: dict, keys: tuple, what: str) -> None:
    """The gate-table schema's key rule: exactly `keys`, none missing, none extra."""
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} lacks the {key!r} key")
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown {what} key {key!r}")


def scalar_from_obj(obj: dict) -> ExtScalar:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a scalar object, got {type(obj).__name__}")
    _check_keys(obj, _SCALAR_KEYS, "scalar")
    return ExtScalar.from_json_obj(obj)


def premeasure_to_obj(grid: Operator3) -> dict:
    """A pre-measurement coefficient grid in the receiver-ket wire form:
    one {"c0", "c1", "c2"} linear form per amplitude, i.e. per grid row."""
    return {
        "site": "B",
        "constant": False,
        "amplitudes": [
            {f"c{j}": grid.entry(b, j).to_json_obj() for j in range(3)}
            for b in range(3)
        ],
    }


# the schema's provenance enum: import accepts all three, though only
# "oracle" and "paper" are written
_PROVENANCES = ("oracle", "paper", "derived-recovery")


def gate_to_obj(g: Operator3, key: tuple, provenance: str) -> dict:
    channel, outcome = key
    return {
        "channel": channel,
        "outcome": outcome,
        "provenance": provenance,
        "entries": [[g.entry(r, c).to_json_obj() for c in range(3)] for r in range(3)],
    }


def _is_index(value) -> bool:
    return type(value) is int and 0 <= value <= 8


def gate_from_obj(obj: dict) -> Operator3:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a gate object, got {type(obj).__name__}")
    _check_keys(obj, ("channel", "outcome", "provenance", "entries"), "gate")
    entries = obj["entries"]
    if not (
        isinstance(entries, list)
        and len(entries) == 3
        and all(isinstance(row, list) and len(row) == 3 for row in entries)
    ):
        raise ValueError("gate entries must form a 3x3 grid")
    rows = tuple(
        tuple(scalar_from_obj(cell) for cell in row) for row in entries
    )
    if obj["provenance"] not in _PROVENANCES:
        raise ValueError(f"unknown provenance {obj['provenance']!r}")
    return Operator3(rows)


def expansion_to_obj(row: ExpansionRow) -> dict:
    return {
        "a2": row.a2,
        "b": row.b,
        "coefficients": [c.to_json_obj() for c in row.coefficients],
    }


# -- gate table --------------------------------------------------------------


def gate_table_to_obj(gates: dict) -> dict:
    return {"gates": [gate_to_obj(gates[key], key, "oracle") for key in sorted(gates)]}


def gate_table_dumps(gates: dict) -> str:
    return dumps_canonical(gate_table_to_obj(gates))


def gate_table_loads(text: str) -> dict:
    """Parse a gate table; ValueError or KeyError for any malformed input."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("gates"), list):
        raise ValueError('expected an object with a "gates" list')
    _check_keys(doc, ("gates",), "table")
    if not doc["gates"]:
        raise ValueError("the table lists no gates")
    gates = {}
    for obj in doc["gates"]:
        g = gate_from_obj(obj)
        key = (obj["channel"], obj["outcome"])
        if not all(_is_index(index) for index in key):
            raise ValueError(
                "import needs integer channel and outcome tags in 0..8 on every gate"
                " (the schema also allows null)"
            )
        if key in gates:
            raise ValueError(f"duplicate gate for channel/outcome {key}")
        gates[key] = g
    return gates


# -- errata report ------------------------------------------------------------


def _entry_value_to_obj(e: ErrataEntry, value, provenance: str) -> Optional[object]:
    if value is None:
        return None
    if e.kind == KIND_GATE:
        return gate_to_obj(value, (e.channel, e.outcome), provenance)
    if e.kind == KIND_PREMEASURE:
        return premeasure_to_obj(value)
    return expansion_to_obj(value)


def errata_to_obj(report: ErrataReport) -> dict:
    return {
        "summary": dict(report.summary),
        "entries": [
            {
                "location": e.location,
                "kind": e.kind,
                "channel": e.channel,
                "outcome": e.outcome,
                "printed_label": e.printed_label,
                "discrepancy": e.discrepancy,
                "notes": e.notes,
                "paper_value": _entry_value_to_obj(e, e.paper_value, "paper"),
                "oracle_value": _entry_value_to_obj(e, e.oracle_value, "oracle"),
            }
            for e in report.entries
        ],
    }


def errata_dumps(report: ErrataReport) -> str:
    return dumps_canonical(errata_to_obj(report))


# -- simulation ----------------------------------------------------------------


def trial_to_obj(t: TrialRecord) -> dict:
    return {
        "channel": t.channel,
        "input_state": [[z.real, z.imag] for z in t.input_state],
        "outcome": t.outcome,
        "outcome_probability": t.outcome_probability,
        "classical_message": t.classical_message,
        "recovery_applied": t.recovery_applied,
        "fidelity": t.fidelity,
        "seed": t.seed,
        "event_log": [[name, party] for name, party in t.event_log],
    }


def summary_to_obj(s: BatchSummary) -> dict:
    return {
        "channel": s.channel,
        "trials": s.trials,
        "empirical_outcome_frequencies": list(s.empirical_outcome_frequencies),
        "mean_fidelity_invertible": s.mean_fidelity_invertible,
        "singular_outcome_rate": s.singular_outcome_rate,
        "chi_square_vs_born": s.chi_square_vs_born,
        "chi_square_dof": s.chi_square_dof,
        "chi_square_threshold": s.chi_square_threshold,
        "chi_square_flagged": s.chi_square_flagged,
    }


def simulation_to_obj(
    summary: BatchSummary,
    records,
    master_seed: int,
    mode: str,
    use_paper_gates: bool,
) -> dict:
    return {
        "channel": summary.channel,
        "trials": summary.trials,
        "master_seed": master_seed,
        "mode": mode,
        "use_paper_gates": use_paper_gates,
        "summary": summary_to_obj(summary),
        "trial_log": [trial_to_obj(t) for t in records],
    }


# -- schemas -------------------------------------------------------------------


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by file name."""
    path = resources.files("qutrit_teleport").joinpath("schemas", name)
    return json.loads(path.read_text(encoding="utf-8"))
