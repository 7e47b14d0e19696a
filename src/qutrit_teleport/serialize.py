"""JSON wire formats and canonical serialization.

All JSON emitted by the package is canonical: sorted keys, two-space
indent, UTF-8, trailing newline, no timestamps, so identical invocations
produce byte-identical documents.  Exact scalars travel as "p/q" strings,
so export/import round-trips are exact, not approximate.

This is the only module that builds a JSON document or reads one: the
scalar form (`scalar_to_obj`, `scalar_from_obj`), the gate table, the
errata report, the basis and analyze documents and the simulate output.
A gate in memory is a bare `Operator3`; its (channel, outcome) is the key
it is stored under, and the gate object written here adds that key and a
provenance string ("oracle" for a derived gate, "paper" for a transcribed
one).

Every document goes through the one encoder, `dumps_canonical`.  The
functions here that make a document put each `ExtScalar` into it as it
is; the encoder writes it as a numbered slot string and then fills the
slot with the scalar's object text, rendered from its integer numerators
once per distinct value and indent.  `_ratios` spells the "p/q" strings for that
text and for `scalar_to_obj`.  `scalar_from_obj` reads the four literals
as integers and reduces them once, with no `Fraction`.  The test suite
checks both against the `Fraction` forms they replaced.  The errata
report's `published` names are imported inside `errata_dumps`, so a
process that writes no errata report never loads the transcription.

`simulate`'s output, JSON or CSV, is written by `simulation_pieces`
straight from the batch columns, in pieces of a thousand trials: the
JSON header is `dumps_canonical` around a placeholder trial log, and each
trial fills one %-template rendered once per batch.  The test suite
checks it byte for byte against `dumps_canonical` of the full document.

JSON Schemas for the three machine-readable documents (gate table, errata
report, batch summary) ship with the package under ``schemas/``.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from importlib import resources
from itertools import chain, islice, repeat
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterator

from . import analysis
from .basis import ExpansionRow, entangled_state, family_of, gram_matrix
from .exact import ExtScalar, _reduced
from .linalg import Operator3

if TYPE_CHECKING:
    from .published import ErrataReport
    from .simulate import BatchSummary


# Marks where a value goes in a document rendered by `dumps_canonical`; the
# encoder writes it as "\u0000", which no other string here contains.
_SLOT = "\0"
_SLOT_TEXT = json.dumps(_SLOT)
# A numbered slot, as the encoder writes it: the `ExtScalar` of that number.
_SCALAR_SLOT = re.compile(r'"\\u0000([0-9]+)"')


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)``
    and a newline, with each `ExtScalar` in `obj` written as its
    `scalar_to_obj` object.

    CPython encodes with `indent` in pure Python, one call per value, so
    the encoder writes each scalar as one numbered slot string instead of
    a four-key object.  Each slot is then filled with the scalar's object
    text, indented as the encoder would have indented it and rendered
    once per distinct value and indent.  A string of `obj` that reads as
    a slot (NUL and digits) would be filled too, so it raises ValueError.
    """
    numbers = {}
    slots = 0

    def slot(x):
        nonlocal slots
        if not isinstance(x, ExtScalar):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        slots += 1
        return f"{_SLOT}{numbers.setdefault(x._n, len(numbers))}"

    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2, default=slot)
    if numbers:
        text = _fill_scalars(text, list(numbers), slots)
    return text + "\n"


def _fill_scalars(text: str, values: list, slots: int) -> str:
    """`text` with each of its `slots` numbered slots replaced by the
    object text of ``values[number]``, a (n1, n2, n3, n6, d) tuple.  With
    ``indent=2`` every value starts a line or follows its key, so a slot's
    object is indented by the leading spaces of its own line."""
    parts = _SCALAR_SLOT.split(text)
    if len(parts) != 2 * slots + 1:
        raise ValueError("a string of the document reads as a scalar slot")
    filled = {}
    for at in range(1, len(parts), 2):
        line = parts[at - 1][parts[at - 1].rfind("\n") + 1:]
        key = parts[at], len(line) - len(line.lstrip(" "))
        if key not in filled:
            number, indent = key
            pad = "\n" + " " * (indent + 2)
            fields = ",".join(
                f'{pad}"{name}": "{ratio}"'
                for name, ratio in zip(_SCALAR_KEYS, _ratios(values[int(number)]))
            )
            filled[key] = "{" + fields + "\n" + " " * indent + "}"
        parts[at] = filled[key]
    return "".join(parts)


# -- scalars, pre-measurement states, operators --------------------------------


def _check_keys(obj: dict, keys: tuple, what: str) -> None:
    """The gate-table schema's key rule: exactly `keys`, none missing, none extra."""
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} lacks the {key!r} key")
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown {what} key {key!r}")


_SCALAR_KEYS = ("q1", "q2", "q3", "q6")
# The schema's "p/q" pattern with a nonzero denominator.  [0-9], not \d,
# which also matches digits of other scripts; fullmatch, not $, which also
# matches before a trailing newline.
_RATIONAL_RE = re.compile(r"-?[0-9]+/0*[1-9][0-9]*")


def _ratios(n: tuple) -> tuple:
    """The four components of the element (n1, n2, n3, n6, d) as "p/q"
    strings in lowest terms, with q > 0 and zero as "0/1"."""
    d = n[4]
    out = []
    for p in n[:4]:
        g = gcd(p, d)
        out.append(f"{p // g}/{d // g}")
    return tuple(out)


def scalar_to_obj(x: ExtScalar) -> dict:
    """The canonical scalar object: four "p/q" strings, one per component."""
    return dict(zip(_SCALAR_KEYS, _ratios(x._n)))


def scalar_from_obj(obj: dict) -> ExtScalar:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a scalar object, got {type(obj).__name__}")
    _check_keys(obj, _SCALAR_KEYS, "scalar")
    for key in _SCALAR_KEYS:
        raw = obj[key]
        if not isinstance(raw, str) or not _RATIONAL_RE.fullmatch(raw):
            raise ValueError(f"malformed rational literal for {key}: {raw!r}")
    # the four "p/q" literals read as the eight ints p1, q1, ..., p6, q6
    p1, q1, p2, q2, p3, q3, p6, q6 = map(
        int, "/".join([obj[key] for key in _SCALAR_KEYS]).split("/")
    )
    d = lcm(q1, q2, q3, q6)
    return _reduced(p1 * (d // q1), p2 * (d // q2), p3 * (d // q3), p6 * (d // q6), d)


def premeasure_to_obj(grid: Operator3) -> dict:
    """A pre-measurement coefficient grid in the receiver-ket wire form:
    one {"c0", "c1", "c2"} linear form per amplitude, i.e. per grid row."""
    return {
        "site": "B",
        "constant": False,
        "amplitudes": [{f"c{j}": x for j, x in enumerate(row)} for row in grid.rows],
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
        "entries": g.rows,
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
        "coefficients": row.coefficients,
    }


# -- basis and analysis documents ---------------------------------------------


def basis_dumps() -> str:
    """`basis --format json`: the nine entangled states and their Gram matrix."""
    return dumps_canonical({
        "states": [
            {
                "index": i,
                "family": family_of(i),
                "amplitudes": entangled_state(i).flat(),
            }
            for i in range(9)
        ],
        "gram": gram_matrix(),
    })


def analysis_dumps(channels) -> str:
    """`analyze --format json`: per channel, the completeness verdict, the
    gate census and each gate's profile, exact and as floats."""
    identity = Operator3.identity()
    return dumps_canonical({
        "channels": [
            {
                "channel": i,
                "completeness_is_identity": analysis.completeness(i) == identity,
                "census": analysis.channel_census(i),
                "gates": [
                    {
                        "outcome": k,
                        "frobenius_norm_sq": p.frobenius_norm_sq,
                        "frobenius_norm_sq_float": float(p.frobenius_norm_sq),
                        "unitarity_deviation_sq": p.unitarity_deviation_sq,
                        "unitarity_deviation_sq_float": float(p.unitarity_deviation_sq),
                        "scaled_unitarity_deviation_sq": p.scaled_unitarity_deviation_sq,
                        "rank": p.rank,
                        "classification": p.classification,
                    }
                    for k, p in enumerate(analysis.channel_profiles(i))
                ],
            }
            for i in channels
        ]
    })


# -- gate table --------------------------------------------------------------


def gate_table_dumps(gates: dict) -> str:
    return dumps_canonical(
        {"gates": [gate_to_obj(gates[key], key, "oracle") for key in sorted(gates)]}
    )


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


def errata_dumps(report: ErrataReport) -> str:
    from .published import KIND_GATE, KIND_PREMEASURE

    def value_obj(e, value, provenance):
        if value is None:
            return None
        if e.kind == KIND_GATE:
            return gate_to_obj(value, (e.channel, e.outcome), provenance)
        if e.kind == KIND_PREMEASURE:
            return premeasure_to_obj(value)
        return expansion_to_obj(value)

    return dumps_canonical({
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
                "paper_value": value_obj(e, e.paper_value, "paper"),
                "oracle_value": value_obj(e, e.oracle_value, "oracle"),
            }
            for e in report.entries
        ],
    })


# -- simulation ----------------------------------------------------------------


# Trials per piece of text written.  Through a pipe, one write per trial
# was slower than one per thousand trials in cold 20k-trial runs on a
# 2-vCPU VM (Python 3.11): CSV 0.294 -> 0.333 s (slower in 10 of 10
# runs), haar JSON 0.928 -> 0.987 s (8 of 10).
_PIECE_TRIALS = 1000
_CSV_HEADER = "trial_index,outcome,probability,fidelity,recovery_applied\n"


def _trial_template(channel: int) -> str:
    """One trial object of the JSON trial log as a %-template, indented as
    `dumps_canonical` indents it inside ``"trial_log"``.  The channel and
    the event log are the same in every trial and are rendered here.  The
    first slot is the separator from the trial before; the others follow
    the sorted keys: classical_message, fidelity, the six input-state
    floats (real, imaginary per amplitude), outcome, outcome_probability,
    recovery_applied, seed."""
    from .simulate import EVENT_LOG

    obj = dict.fromkeys(
        ("classical_message", "fidelity", "outcome", "outcome_probability",
         "recovery_applied", "seed"),
        _SLOT,
    )
    obj.update(
        channel=channel,
        event_log=[[name, party] for name, party in EVENT_LOG],
        input_state=[[_SLOT, _SLOT]] * 3,
    )
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)
    return "%s    " + text.replace("%", "%%").replace(_SLOT_TEXT, "%s").replace("\n", "\n    ")


def _pieces(lines: Iterator[str]) -> Iterator[str]:
    """The strings of `lines` joined in pieces of `_PIECE_TRIALS`."""
    return iter(lambda: "".join(islice(lines, _PIECE_TRIALS)), "")


def simulation_pieces(
    summary: BatchSummary,
    columns: tuple,
    master_seed: int,
    mode: str,
    use_paper_gates: bool,
    fmt: str,
) -> Iterator[str]:
    """`simulate --format json` or ``--format csv`` as an iterator of text
    pieces, written straight from the columns of
    `simulate.run_batch_columns`.

    The JSON header and footer are `dumps_canonical` of the document with
    a placeholder trial log; each trial fills one %-template.  A float slot
    gets ``str(x)``, which for a float is `float.__repr__`, exactly what
    `json` writes for a finite float, so the document is byte for byte the
    canonical encoding of the full trial log (the test suite checks this
    against `dumps_canonical`).  The columns are checked before any piece
    is made: a non-finite probability, fidelity or input amplitude, which
    JSON cannot carry, raises ValueError.
    """
    import numpy as np

    from .simulate import trial_fidelities

    phis, rows, seeds, outcomes, probabilities, applied, fidelities = columns
    for name, column in (
        ("input state", phis),
        ("outcome probability", probabilities),
        ("fidelity", fidelities),
    ):
        if not np.isfinite(column).all():
            raise ValueError(f"the batch holds a non-finite {name}, which cannot be written")
    trials = zip(
        rows.tolist(),
        outcomes.tolist(),
        probabilities.tolist(),
        trial_fidelities(len(outcomes), applied, fidelities),
        seeds.tolist(),
    )
    if fmt == "csv":
        lines = (
            "%d,%d,%r,%s,%s\n" % (t, k, p, "" if f is None else repr(f), f is not None)
            for t, (_, k, p, f, _) in enumerate(trials)
        )
        return chain((_CSV_HEADER,), _pieces(lines))
    doc = {
        "channel": summary.channel,
        "trials": summary.trials,
        "master_seed": master_seed,
        "mode": mode,
        "use_paper_gates": use_paper_gates,
        "summary": asdict(summary),
        "trial_log": _SLOT,
    }
    head, tail = dumps_canonical(doc).split(_SLOT_TEXT)
    template = _trial_template(summary.channel)
    states = np.stack([phis.real, phis.imag], axis=-1).reshape(len(phis), 6).tolist()
    lines = (
        template % (
            sep, k, "null" if f is None else repr(f), *states[row], k, p,
            "false" if f is None else "true", seed,
        )
        for sep, (row, k, p, f, seed) in zip(chain(("",), repeat(",\n")), trials)
    )
    return chain((head + "[\n",), _pieces(lines), ("\n  ]" + tail,))


# -- schemas -------------------------------------------------------------------


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by file name."""
    path = resources.files("qutrit_teleport").joinpath("schemas", name)
    return json.loads(path.read_text(encoding="utf-8"))
