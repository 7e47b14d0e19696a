"""`serialize.simulation_pieces` against the canonical encoder.

The oracle below is the record-and-dict path the CLI used before it wrote
from the batch columns: every trial as a `TrialRecord`, then a dict, then
`dumps_canonical` for JSON, and `csv.writer` for CSV.  A real batch's
records are the `run_trial` replays of its rows (`batch_records`), so the
oracle does not read the columns it checks.  The summary is
spelled out field by field, as the writer once did before it took
`dataclasses.asdict`.  The writer must
reproduce its bytes for every batch, real or synthetic.
"""

import csv
import io
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batch_replay import batch_records
from qutrit_teleport import serialize, simulate
from qutrit_teleport.simulate import EVENT_LOG, BatchSummary, TrialRecord


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


def simulation_to_obj(summary, records, master_seed, mode, use_paper_gates) -> dict:
    return {
        "channel": summary.channel,
        "trials": summary.trials,
        "master_seed": master_seed,
        "mode": mode,
        "use_paper_gates": use_paper_gates,
        "summary": summary_to_obj(summary),
        "trial_log": [trial_to_obj(t) for t in records],
    }


def csv_oracle(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["trial_index", "outcome", "probability", "fidelity", "recovery_applied"]
    )
    for idx, rec in enumerate(records):
        writer.writerow(
            [
                idx,
                rec.outcome,
                repr(rec.outcome_probability),
                "" if rec.fidelity is None else repr(rec.fidelity),
                rec.recovery_applied,
            ]
        )
    return buf.getvalue()


def assert_writer_matches_oracle(summary, columns, records, master_seed, mode, paper):
    json_text = "".join(
        serialize.simulation_pieces(summary, columns, master_seed, mode, paper, "json")
    )
    oracle = serialize.dumps_canonical(
        simulation_to_obj(summary, records, master_seed, mode, paper)
    )
    assert json_text == oracle
    csv_text = "".join(
        serialize.simulation_pieces(summary, columns, master_seed, mode, paper, "csv")
    )
    assert csv_text == csv_oracle(records)


# -- real batches: every channel, mode and gate set ---------------------------


@pytest.mark.parametrize("paper", [False, True], ids=["oracle", "printed"])
@pytest.mark.parametrize("haar", [False, True], ids=["fixed", "haar"])
@pytest.mark.parametrize("channel", range(9))
def test_real_batches_match_the_oracle(channel, haar, paper):
    state = None if haar else (0.6, 0.48j, 0.64)
    summary, columns, records = batch_records(channel, 40, 1000 + channel, state, haar, paper)
    mode = "haar" if haar else "fixed"
    assert_writer_matches_oracle(summary, columns, records, 1000 + channel, mode, paper)


def test_batch_past_one_piece_matches_the_oracle():
    trials = 2 * serialize._PIECE_TRIALS + 1
    summary, columns, records = batch_records(0, trials, 2**64 - 1, None, True, False)
    assert_writer_matches_oracle(summary, columns, records, 2**64 - 1, "haar", False)
    for fmt, tail in (("json", 1), ("csv", 0)):
        pieces = list(serialize.simulation_pieces(summary, columns, 0, "haar", False, fmt))
        # head, three pieces of trials, then the tail JSON has and CSV lacks
        assert len(pieces) == 1 + 3 + tail
        # a JSON trial holds one "event_log" key, a CSV trial one line
        per_piece = [p.count('"event_log"' if fmt == "json" else "\n") for p in pieces[1:4]]
        assert per_piece == [serialize._PIECE_TRIALS, serialize._PIECE_TRIALS, 1]


# -- synthetic columns: the floats and integers a batch could hold -------------

_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e16, 0.1]
)


def _floats(n):
    return st.lists(_FLOATS, min_size=n, max_size=n)


@st.composite
def _synthetic_batches(draw):
    """(summary, columns, records): columns as `run_batch_columns` returns
    them and the records they stand for."""
    n = draw(st.integers(1, 9))
    haar = draw(st.booleans())
    amplitudes = np.array(draw(_floats(6 * (n if haar else 1)))).reshape(-1, 3, 2)
    phis = np.empty(amplitudes.shape[:2], dtype=complex)
    phis.real, phis.imag = amplitudes[..., 0], amplitudes[..., 1]
    rows = np.arange(n) if haar else np.zeros(n, dtype=np.intp)
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    outcomes = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
    probabilities = np.array(draw(_floats(n)))
    fidelities = draw(st.lists(st.none() | _FLOATS, min_size=n, max_size=n))
    channel = draw(st.integers(0, 8))
    summary = BatchSummary(
        channel=channel,
        trials=n,
        empirical_outcome_frequencies=tuple(draw(_floats(9))),
        mean_fidelity_invertible=draw(st.none() | _FLOATS),
        singular_outcome_rate=draw(_FLOATS),
        chi_square_vs_born=draw(_FLOATS),
        chi_square_dof=draw(st.integers(1, 8)),
        chi_square_threshold=draw(_FLOATS),
        chi_square_flagged=draw(st.booleans()),
    )
    records = [
        TrialRecord(
            channel=channel,
            input_state=tuple(phis[rows[t]].tolist()),
            outcome=int(outcomes[t]),
            outcome_probability=float(probabilities[t]),
            classical_message=int(outcomes[t]),
            recovery_applied=fidelities[t] is not None,
            fidelity=fidelities[t],
            seed=seeds[t],
            event_log=EVENT_LOG,
        )
        for t in range(n)
    ]
    applied = np.array([t for t, f in enumerate(fidelities) if f is not None], dtype=np.intp)
    columns = (
        phis,
        rows,
        np.array(seeds, dtype=np.uint64),
        outcomes,
        probabilities,
        applied,
        np.array([f for f in fidelities if f is not None], dtype=float),
    )
    return summary, columns, records


@settings(max_examples=200, deadline=None)
@given(
    batch=_synthetic_batches(),
    master_seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(["fixed", "haar"]),
    paper=st.booleans(),
    piece_trials=st.integers(1, 4),
)
def test_synthetic_columns_match_the_oracle(batch, master_seed, mode, paper, piece_trials):
    summary, columns, records = batch
    # small pieces put piece boundaries inside the drawn batches
    with mock.patch.object(serialize, "_PIECE_TRIALS", piece_trials):
        assert_writer_matches_oracle(summary, columns, records, master_seed, mode, paper)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["input state", "outcome probability", "fidelity"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_column_is_refused_before_any_piece(column, bad, fmt):
    summary, columns = simulate.run_batch_columns(0, 5, 3, haar=True)
    phis, rows, seeds, outcomes, probabilities, _, _ = columns
    phis, probabilities, fidelities = phis.copy(), probabilities.copy(), np.full(5, 0.5)
    if column == "input state":
        phis[2, 1] = complex(0.0, bad)
    elif column == "outcome probability":
        probabilities[4] = bad
    else:
        fidelities[0] = bad
    columns = (phis, rows, seeds, outcomes, probabilities, np.arange(5), fidelities)
    with pytest.raises(ValueError, match=f"non-finite {column}"):
        serialize.simulation_pieces(summary, columns, 3, "haar", False, fmt)


@pytest.mark.parametrize(
    "change, outcome",
    [
        ({"fmt": "xml"}, ValueError),
        ({"mode": "Haar"}, ValueError),
        ({"master_seed": -1}, ValueError),
        ({"master_seed": 5.0}, TypeError),
        ({"use_paper_gates": 1}, TypeError),
        ({"master_seed": np.int64(5)}, {"master_seed": 5}),
        ({"use_paper_gates": np.True_}, {"use_paper_gates": True}),
    ],
    ids=["fmt-xml", "mode-Haar", "seed-negative", "seed-float", "flag-int", "seed-numpy",
         "flag-numpy"],
)
def test_writer_arguments_take_the_package_rules(change, outcome):
    """A format or mode the CLI cannot ask for is refused, the master seed
    takes the batch's non-negative index rule and the flag the bool rule,
    so numpy ints and bools are written as the Python values they equal."""
    summary, columns = simulate.run_batch_columns(0, 5, 5, haar=True)
    args = {"master_seed": 5, "mode": "haar", "use_paper_gates": False, "fmt": "json"}
    if isinstance(outcome, dict):
        text = "".join(serialize.simulation_pieces(summary, columns, **{**args, **change}))
        assert text == "".join(serialize.simulation_pieces(summary, columns, **{**args, **outcome}))
    else:
        with pytest.raises(outcome):
            serialize.simulation_pieces(summary, columns, **{**args, **change})


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_zero_trials_are_refused_before_any_piece(fmt):
    """Both formats refuse a summary of no trials, as the batch does: its
    JSON trial log would not be the canonical ``[]``."""
    summary, columns = simulate.run_batch_columns(0, 5, 3, haar=True)
    empty = tuple(column[:0] for column in columns)
    with pytest.raises(ValueError, match="need at least one trial"):
        serialize.simulation_pieces(replace(summary, trials=0), empty, 3, "haar", False, fmt)


@pytest.mark.parametrize("short", [1, 2, 3, 4], ids=["rows", "seeds", "outcomes", "probabilities"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_short_column_is_refused_before_any_piece(short, fmt):
    summary, columns = simulate.run_batch_columns(0, 5, 3, haar=True)
    columns = list(columns)
    columns[short] = columns[short][:-1]
    with pytest.raises(ValueError, match="column holds 4 entries for 5 trials"):
        serialize.simulation_pieces(summary, tuple(columns), 3, "haar", False, fmt)


@pytest.mark.parametrize(
    "applied, count",
    [([0, 2, 5], 3), ([-1, 2], 2), ([2, 2], 2), ([3, 1], 2), ([1, 3], 1), ([1, 3], 3)],
    ids=["past-the-batch", "before-the-batch", "twice", "unordered", "fidelity-short",
         "fidelity-over"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_applied_trials_off_the_batch_are_refused_before_any_piece(applied, count, fmt):
    summary, columns = simulate.run_batch_columns(0, 5, 3, haar=True)
    phis, rows, seeds, outcomes, probabilities, _, _ = columns
    columns = (phis, rows, seeds, outcomes, probabilities, np.array(applied), np.full(count, 0.5))
    with pytest.raises(ValueError, match="applied trials must rise strictly"):
        serialize.simulation_pieces(summary, columns, 3, "haar", False, fmt)
