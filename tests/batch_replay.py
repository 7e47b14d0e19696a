"""The replay contract as a test helper.

A batch's trial record is the `run_trial` replay of one row of
`run_batch_columns`: its input state and its trial seed.  `batch_records`
replays every row and fails unless the row's outcome, probability,
recovery flag and fidelity equal the replay's, so a test that reads the
records rests on the per-trial path as well as on the columns.
"""

from qutrit_teleport.simulate import EVENT_LOG, TrialRecord, run_batch_columns, run_trial


def batch_records(
    channel, trials, master_seed, input_state=None, haar=False, use_paper_gates=False
):
    """The summary, the columns and every trial's `run_trial` record of a
    batch; fails on the first row that differs from its replay."""
    summary, columns = run_batch_columns(
        channel, trials, master_seed, input_state, haar, use_paper_gates
    )
    phis, rows, seeds, outcomes, probabilities, applied, fidelities = columns
    recovered = dict(zip(applied.tolist(), fidelities.tolist()))
    records = []
    for t, (row, seed, k, p) in enumerate(
        zip(rows.tolist(), seeds.tolist(), outcomes.tolist(), probabilities.tolist())
    ):
        f = recovered.get(t)
        row_record = TrialRecord(
            channel=channel,
            input_state=tuple(phis[row].tolist()),
            outcome=k,
            outcome_probability=p,
            classical_message=k,
            recovery_applied=f is not None,
            fidelity=f,
            seed=seed,
            event_log=EVENT_LOG,
        )
        replay = run_trial(channel, phis[row], seed, use_paper_gates)
        assert replay == row_record, f"trial {t}: columns {row_record} != replay {replay}"
        records.append(replay)
    return summary, columns, records
