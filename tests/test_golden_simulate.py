"""Golden simulation figures, checked to a tolerance that holds on any machine.

`golden_simulate.json` holds the figures of a known-good build: for each
gate set (oracle or printed), input mode (fixed state or Haar) and
channel 0, 3 and 8, a 300-trial seeded batch; and
`analysis.expected_fidelities` for two fixed states on channels 0, 4 and
8.  A batch's figures are read from its `run_trial` records, each checked
against its row of the batch columns.  Outcomes and recovery flags must
match exactly; every float must match to 1e-12.  Byte identity of the CLI output is the benchmark's check, since
the last bits of a float can differ between machines.

`PYTHONPATH=src python tests/freeze.py` rewrites the file (with the
other golden stores) only when a change of the figures is intended.
"""

import json
from pathlib import Path

import pytest

from batch_replay import batch_records
from qutrit_teleport import analysis

GOLDEN = Path(__file__).with_name("golden_simulate.json")
TOL = 1e-12
TRIALS = 300
MASTER_SEED = 11
CHANNELS = (0, 3, 8)
FIXED_STATE = (0.5, 0.5j, 0.5 + 0.5j)
FIDELITY_STATES = {"ket0": (1.0, 0.0, 0.0), "mixed": FIXED_STATE}
FIDELITY_CHANNELS = (0, 4, 8)
SUMMARY_FLOATS = (
    "empirical_outcome_frequencies",
    "mean_fidelity_invertible",
    "singular_outcome_rate",
    "chi_square_vs_born",
    "chi_square_threshold",
)
SUMMARY_EXACT = ("channel", "trials", "chi_square_dof", "chi_square_flagged")

BATCHES = [
    (gates, mode, channel)
    for gates in ("oracle", "printed")
    for mode in ("fixed", "haar")
    for channel in CHANNELS
]


def _batch_key(gates, mode, channel):
    return f"{gates}-{mode}-{channel}"


def observe_batch(gates, mode, channel) -> dict:
    summary, _, records = batch_records(
        channel,
        TRIALS,
        MASTER_SEED,
        input_state=FIXED_STATE if mode == "fixed" else None,
        haar=mode == "haar",
        use_paper_gates=gates == "printed",
    )
    return {
        "outcomes": "".join(str(r.outcome) for r in records),
        "recovered": "".join("1" if r.recovery_applied else "0" for r in records),
        "probabilities": [r.outcome_probability for r in records],
        "fidelities": [r.fidelity for r in records],
        "summary": {
            name: getattr(summary, name) for name in SUMMARY_EXACT + SUMMARY_FLOATS
        },
    }


def observe_fidelities(state, channel) -> dict:
    return analysis.expected_fidelities(channel, FIDELITY_STATES[state])


def observe_all() -> dict:
    return {
        "batches": {_batch_key(*b): observe_batch(*b) for b in BATCHES},
        "expected_fidelities": {
            f"{state}-{channel}": observe_fidelities(state, channel)
            for state in FIDELITY_STATES
            for channel in FIDELITY_CHANNELS
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _assert_close(got, want, where):
    if want is None or got is None:
        assert got is want, where
    elif isinstance(want, list):  # got may be a tuple
        assert len(got) == len(want), where
        for n, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{n}]")
    else:
        assert got == pytest.approx(want, abs=TOL), where


@pytest.mark.parametrize("gates, mode, channel", BATCHES, ids=[_batch_key(*b) for b in BATCHES])
def test_batch_matches_golden(golden, gates, mode, channel):
    key = _batch_key(gates, mode, channel)
    want = golden["batches"][key]
    got = observe_batch(gates, mode, channel)
    assert got["outcomes"] == want["outcomes"]
    assert got["recovered"] == want["recovered"]
    _assert_close(got["probabilities"], want["probabilities"], f"{key} probabilities")
    _assert_close(got["fidelities"], want["fidelities"], f"{key} fidelities")
    for name in SUMMARY_EXACT:
        assert got["summary"][name] == want["summary"][name], f"{key} {name}"
    for name in SUMMARY_FLOATS:
        _assert_close(got["summary"][name], want["summary"][name], f"{key} {name}")


@pytest.mark.parametrize("state", sorted(FIDELITY_STATES))
@pytest.mark.parametrize("channel", FIDELITY_CHANNELS)
def test_expected_fidelities_match_golden(golden, state, channel):
    key = f"{state}-{channel}"
    want = golden["expected_fidelities"][key]
    got = observe_fidelities(state, channel)
    assert sorted(got) == sorted(want)
    for name in want:
        _assert_close(got[name], want[name], f"{key} {name}")


def _dump(obj) -> str:
    # one line per batch or fidelity case, so a diff names the case
    lines = []
    for section, cases in obj.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items())
        lines.append(f" {json.dumps(section)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def freeze() -> None:
    """Rewrite the store from the program as it stands."""
    GOLDEN.write_text(_dump(observe_all()), encoding="utf-8")
