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

Every document goes through the one writer, `dumps_canonical`: the text
of `json` with sorted keys and a two-space indent, written in one pass
of its own.  The functions that make a document leave each `ExtScalar`
in it as it is, and the writer writes its four-key object, rendered once
per distinct value and indent, from the "p/q" strings of `scalar_to_obj`,
which spells them from `ExtScalar._pairs`.  `scalar_from_obj` reads the
four literals as integers and reduces them once, with no `Fraction`.  The
test suite checks both against the `Fraction` forms they replaced.  The
errata report's `published` names are imported inside `errata_dumps`, so
a process that writes no errata report never loads the transcription.

`simulate`'s output, JSON or CSV, is written by `simulation_pieces`
straight from the batch columns: both formats are a head, a separator, a
row %-template and a tail, and one loop fills a piece of a thousand rows
with one %-format.  The test suite checks it byte for byte against
`dumps_canonical` of the full document.  `asdict` is imported there, so
no exact command loads `dataclasses`.

JSON Schemas for the three machine-readable documents (gate table, errata
report, batch summary) ship with the package under ``schemas/``.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring
from math import lcm
from typing import TYPE_CHECKING, Iterator

from . import analysis
from .basis import ExpansionRow, entangled_state, family_of, gram_matrix
from .exact import ExtScalar, _reduced
from .linalg import Operator3

if TYPE_CHECKING:
    from .published import ErrataReport
    from .simulate import BatchSummary


# a placeholder string, written as "\u0000", which no other string here holds
_SLOT = "\0"
_SLOT_TEXT = encode_basestring(_SLOT)
# float.__repr__ of the three floats that `json` spells its own way
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps_canonical(obj) -> str:
    """The text `json.dumps` writes for `obj` with ``ensure_ascii=False``,
    ``sort_keys=True`` and ``indent=2``, and a newline, with each
    `ExtScalar` in `obj` written as its `scalar_to_obj` object.

    One recursive pass (`_write`) appends each value's text to a list.
    Past the scalars, it checks types in `json`'s order, so a subclass of
    str, int or float is written as its base type, and any other value
    raises the TypeError `json` raises.
    A scalar's object text is rendered once per distinct value and indent.
    """
    out = []
    _write(obj, "\n", out, {})
    return "".join(out) + "\n"


def _write(obj, pad: str, out: list, scalars: dict) -> None:
    """Append the JSON text of `obj` to `out`.  `pad` is a newline and the
    indent of the line `obj` starts on; `scalars` maps (value, pad) to the
    object text of an `ExtScalar` already written."""
    if isinstance(obj, ExtScalar):
        key = obj._n, pad
        if key not in scalars:
            fields = scalar_to_obj(obj).items()
            scalars[key] = "{" + ",".join(f'{pad}  "{k}": "{r}"' for k, r in fields) + pad + "}"
        out.append(scalars[key])
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_NONFINITE.get(text := float.__repr__(obj), text))
    elif isinstance(obj, (list, tuple, dict)) and not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, (list, tuple)):
        inner, start = pad + "  ", len(out)
        comma = "," + inner
        for item in obj:
            out.append(comma)
            _write(item, inner, out, scalars)
        out[start] = "[" + inner
        out.append(pad + "]")
    elif isinstance(obj, dict):
        inner, start = pad + "  ", len(out)
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = dumps_canonical(key)[:-1]
            out.append(f",{inner}{encode_basestring(key)}: ")
            _write(value, inner, out, scalars)
        out[start] = "{" + out[start][1:]
        out.append(pad + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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


def scalar_to_obj(x: ExtScalar) -> dict:
    """The canonical scalar object: four "p/q" strings, one per component."""
    return {k: f"{p}/{q}" for k, (p, q) in zip(_SCALAR_KEYS, x._pairs())}


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
    return row._asdict()


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
                **e._asdict(),
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
    """One trial object of the JSON trial log as a %-template from its
    opening brace, indented as in ``"trial_log"``.  The slots follow the
    sorted keys: classical_message, fidelity, the six input-state floats
    (real, imaginary per amplitude), outcome, outcome_probability,
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
    out = []
    _write(obj, "\n    ", out, {})
    return "".join(out).replace("%", "%%").replace(_SLOT_TEXT, "%s")


def simulation_pieces(
    summary: BatchSummary,
    columns: tuple,
    master_seed: int,
    mode: str,
    use_paper_gates: bool,
    fmt: str,
) -> Iterator[str]:
    """`simulate --format json` or ``--format csv`` as an iterator of text
    pieces, written straight from the columns of `simulate.run_batch_columns`.

    Each row slot reads one list of values, and a piece of `_PIECE_TRIALS`
    trials is one %-format of the row template joined that many times.  A
    float slot gets ``str(x)``, which is `float.__repr__`, what `json`
    writes for a finite float.  Before any piece is made, an unknown `fmt`
    or `mode`, no trials, columns that disagree with each other or with
    ``summary.trials``, and a non-finite probability, fidelity or input
    amplitude, which JSON cannot carry, raise ValueError; `master_seed`
    and `use_paper_gates` take the batch's seed and flag rules.
    """
    from dataclasses import asdict

    import numpy as np

    from .simulate import _check_bool, _check_non_negative

    if fmt not in ("json", "csv") or mode not in ("fixed", "haar"):
        raise ValueError(f"need format json or csv and mode fixed or haar, not {fmt!r}, {mode!r}")
    master_seed = _check_non_negative("master_seed", master_seed)
    use_paper_gates = _check_bool("use_paper_gates", use_paper_gates)
    phis, rows, seeds, outcomes, probabilities, applied, fidelities = columns
    trials = summary.trials
    if trials < 1:
        raise ValueError("need at least one trial")
    for name, column in zip(("rows", "seeds", "outcomes", "probabilities"), columns[1:5]):
        if len(column) != trials:
            raise ValueError(f"the {name} column holds {len(column)} entries for {trials} trials")
    gaps = np.diff(applied, prepend=-1, append=trials)
    if len(fidelities) != len(applied) or not (gaps > 0).all():
        raise ValueError("the applied trials must rise strictly inside the batch, one fidelity each")
    names = ("input state", "outcome probability", "fidelity")
    for name, column in zip(names, (phis, probabilities, fidelities)):
        if not np.isfinite(column).all():
            raise ValueError(f"the batch holds a non-finite {name}, which cannot be written")

    blank, no, yes = ("", "False", "True") if fmt == "csv" else ("null", "false", "true")
    fidelity, flag = [blank] * trials, [no] * trials
    for t, f in zip(applied.tolist(), fidelities.tolist()):
        fidelity[t], flag[t] = f, yes
    outcomes, probabilities = outcomes.tolist(), probabilities.tolist()
    if fmt == "csv":
        head, sep, row, tail = _CSV_HEADER, "", "%d,%d,%r,%s,%s\n", ""
        fields = (range(trials), outcomes, probabilities, fidelity, flag)
    else:
        doc = {
            "channel": summary.channel,
            "trials": trials,
            "master_seed": master_seed,
            "mode": mode,
            "use_paper_gates": use_paper_gates,
            "summary": asdict(summary),
            "trial_log": [_SLOT],
        }
        head, tail = dumps_canonical(doc).split(_SLOT_TEXT)
        sep, row = ",\n    ", _trial_template(summary.channel)
        # one list per input-state float, each holding that float of every trial's row
        states = np.stack([phis.real, phis.imag], axis=-1)[rows].reshape(trials, 6).T.tolist()
        fields = (outcomes, fidelity, *states, outcomes, probabilities, flag, seeds.tolist())
    step, width = _PIECE_TRIALS, len(fields)

    def pieces():
        yield head
        for start in range(0, trials, step):
            size = min(step, trials - start)
            if not start or size < step:
                # a piece's first slot takes the separator from the piece before
                template = sep.join(["%s" + row] + [row] * (size - 1))
            values = [sep if start else ""] + [None] * (size * width)
            for i, field in enumerate(fields, 1):
                values[i::width] = field[start:start + size]
            yield template % tuple(values)
        if tail:
            yield tail

    return pieces()


# -- schemas -------------------------------------------------------------------


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by file name."""
    from importlib import resources

    path = resources.files("qutrit_teleport").joinpath("schemas", name)
    return json.loads(path.read_text(encoding="utf-8"))
