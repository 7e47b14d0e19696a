"""Seeded Monte-Carlo simulation of the three-party teleportation protocol.

One trial walks the protocol end to end: the sender prepares the input
qutrit in her lab (A1), the post office (A2) shares an entangled pair with
the receiver (B), the joint measurement at A1+A2 selects one of nine
outcomes by the Born rule, the outcome index travels over a classical
channel, and the receiver applies the recovery map when one exists.  The
event log records exactly that order, so recovery can never precede the
classical message.  The gates, the Born rule and the fidelity come from
the numeric layer of `analysis`; this module adds the randomness, the
outcome search, the records and the batch summary.

RNG contract (part of the interface, not an implementation detail): all
randomness comes from NumPy's PCG64 bit generator.  A batch spawns one
child of ``SeedSequence(master_seed)`` per trial; each child supplies two
64-bit words, the first seeding the input-state draw (haar mode), the
second seeding the trial itself.  `run_trial` replays any stored trial
seed bit for bit.

A batch runs as one columnar pass rather than trial by trial: it draws
every input state and every uniform from the trials' own seeds, then
applies the Born rule and the outcome search to the whole (n, ·) stack
at once and the overlap to each trial whose outcome has a recovery.
Each step computes exactly what `run_trial` computes for one row, so
every batch record equals the replay of its seed.

Haar-random inputs are drawn by normalizing a 6-component standard
Gaussian read as three complex amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import analysis

EVENT_SEQUENCE = ("prepare", "entangle", "joint_measure", "classical_send", "recover")
_EVENT_LOG = (
    ("prepare", "A1"),
    ("entangle", "A2+B"),
    ("joint_measure", "A1+A2"),
    ("classical_send", "A1+A2->B"),
    ("recover", "B"),
)
# Generator.random() maps a 64-bit word w to (w >> 11) * 2**-53
_DOUBLE_UNIT = 2.0 ** -53

# Upper 0.999 quantiles of the chi-square distribution for dof = 1..8, as
# the exact float reprs of scipy.stats.chi2.ppf(0.999, dof) (scipy 1.17.1).
# Nine outcomes give at most 8 degrees of freedom.  The table is checked
# against scipy by the test suite whenever scipy is importable.
_CHI2_QUANTILE = 0.999
_CHI2_THRESHOLDS = (
    10.827566170662733,
    13.815510557964274,
    16.26623619623813,
    18.46682695290317,
    20.515005652432873,
    22.457744484825323,
    24.321886347856854,
    26.12448155837614,
)


@dataclass(frozen=True)
class TrialRecord:
    channel: int
    input_state: tuple
    outcome: int
    outcome_probability: float
    classical_message: int
    recovery_applied: bool
    fidelity: Optional[float]
    seed: int
    event_log: tuple


@dataclass(frozen=True)
class BatchSummary:
    channel: int
    trials: int
    empirical_outcome_frequencies: tuple
    mean_fidelity_invertible: Optional[float]
    singular_outcome_rate: float
    chi_square_vs_born: float
    chi_square_dof: int
    chi_square_threshold: float
    chi_square_flagged: bool


def run_trial(
    channel: int,
    input_state: Sequence[complex],
    seed: int,
    use_paper_gates: bool = False,
) -> TrialRecord:
    """One protocol round.  Deterministic in (channel, input_state, seed)."""
    if not 0 <= channel <= 8:
        raise ValueError(f"channel index {channel} out of range 0..8")
    phi = analysis.as_state(input_state)
    gates, effects, recoveries = analysis.numeric_channel(channel, use_paper_gates)

    weights = analysis.born_weights(effects, phi)
    total = float(weights.sum())
    # Oracle gates satisfy the completeness relation, so total is 1 up to
    # rounding; printed gates may violate it, hence the explicit division.
    probs = weights / total

    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random()
    outcome = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    # rounding in the cumulative sum must never select a zero-mass bin
    outcome = min(outcome, 8)
    while outcome > 0 and probs[outcome] == 0.0:
        outcome -= 1

    rec = recoveries[outcome]
    recovery_applied = rec is not None
    fidelity = analysis.overlap(phi, gates[outcome], rec) if recovery_applied else None

    return TrialRecord(
        channel=channel,
        input_state=tuple(complex(x) for x in phi),
        outcome=outcome,
        outcome_probability=float(weights[outcome]),
        classical_message=outcome,
        recovery_applied=recovery_applied,
        fidelity=fidelity,
        seed=int(seed),
        event_log=_EVENT_LOG,
    )


def haar_state(rng: np.random.Generator) -> np.ndarray:
    """Uniform random pure qutrit state (normalized complex Gaussian)."""
    raw = rng.standard_normal(6)
    v = raw[0::2] + 1j * raw[1::2]
    return v / np.linalg.norm(v)


def trial_seeds(master_seed: int, n: int) -> list:
    """Per-trial (state_seed, trial_seed) pairs via SeedSequence spawning."""
    root = np.random.SeedSequence(master_seed)
    pairs = []
    for child in root.spawn(n):
        state_seed, trial_seed = (int(w) for w in child.generate_state(2, np.uint64))
        pairs.append((state_seed, trial_seed))
    return pairs


def run_batch_records(
    channel: int,
    trials: int,
    master_seed: int,
    input_state: Optional[Sequence[complex]] = None,
    haar: bool = False,
    use_paper_gates: bool = False,
) -> Tuple[BatchSummary, tuple]:
    """Seeded batch; returns the summary and every trial record.

    Exactly one of `input_state` and `haar` selects the input mode.  Each
    record equals ``run_trial(channel, record.input_state, record.seed,
    use_paper_gates)``.
    """
    summary, cols = _run_columns(
        channel, trials, master_seed, input_state, haar, use_paper_gates
    )
    phis, rows, seeds, outcomes, probabilities, fidelities = cols
    states = [tuple(row) for row in phis.tolist()]
    records = tuple(
        TrialRecord(
            channel=channel,
            input_state=states[row],
            outcome=k,
            outcome_probability=p,
            classical_message=k,
            recovery_applied=f is not None,
            fidelity=f,
            seed=seed,
            event_log=_EVENT_LOG,
        )
        for row, seed, k, p, f in zip(
            rows.tolist(), seeds, outcomes.tolist(), probabilities.tolist(), fidelities
        )
    )
    return summary, records


def run_batch(
    channel: int,
    trials: int,
    master_seed: int,
    input_state: Optional[Sequence[complex]] = None,
    haar: bool = False,
    use_paper_gates: bool = False,
) -> BatchSummary:
    summary, _ = _run_columns(
        channel, trials, master_seed, input_state, haar, use_paper_gates
    )
    return summary


def _run_columns(channel, trials, master_seed, input_state, haar, use_paper_gates):
    """The whole batch as one columnar pass, trial for trial equal to `run_trial`.

    Returns the summary and the columns ``(phis, rows, trial_seeds,
    outcomes, outcome_probabilities, fidelities)``; trial t ran on input
    ``phis[rows[t]]``, so `phis` has one row per trial in haar mode and a
    single row shared by every trial in fixed mode.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if haar == (input_state is not None):
        raise ValueError("choose exactly one of a fixed input state or haar mode")
    fixed_phi = None if haar else analysis.as_state(input_state)
    if not 0 <= channel <= 8:
        raise ValueError(f"channel index {channel} out of range 0..8")
    gates, effects, recoveries = analysis.numeric_channel(channel, use_paper_gates)

    pairs = trial_seeds(master_seed, trials)
    seeds = [trial_seed for _, trial_seed in pairs]
    if haar:
        # one generator per trial: the norm inside haar_state goes through
        # BLAS, which a batched norm does not reproduce bit for bit
        phis = np.array([
            haar_state(np.random.Generator(np.random.PCG64(state_seed)))
            for state_seed, _ in pairs
        ])
        rows = np.arange(trials)
    else:
        phis = fixed_phi[np.newaxis]
        rows = np.zeros(trials, dtype=np.intp)
    # Generator(PCG64(seed)).random() without building the Generator
    u = np.array(
        [np.random.PCG64(seed).random_raw() >> 11 for seed in seeds], dtype=np.uint64
    ) * _DOUBLE_UNIT

    weights = analysis.born_weights(effects, phis)
    probs = weights / weights.sum(axis=1, keepdims=True)
    # searchsorted(cumsum, u, side="right") row by row, capped at 8
    outcomes = np.minimum((np.cumsum(probs, axis=1) <= u[:, np.newaxis]).sum(axis=1), 8)
    # rounding in the cumulative sum must never select a zero-mass bin: step
    # down to the last outcome at or below it with mass (0 if there is none)
    with_mass = np.where(probs != 0.0, np.arange(9), 0)
    outcomes = np.maximum.accumulate(with_mass, axis=1)[rows, outcomes]

    # fidelity depends only on (input row, outcome); fixed mode has at most nine
    memo = {}
    fidelities = []
    for row, k in zip(rows.tolist(), outcomes.tolist()):
        rec = recoveries[k]
        if rec is None:
            fidelities.append(None)
            continue
        f = memo.get((row, k))
        if f is None:
            f = memo[row, k] = analysis.overlap(phis[row], gates[k], rec)
        fidelities.append(f)

    summary = summarize(
        channel,
        outcomes,
        [f for f in fidelities if f is not None],
        fixed_phi=fixed_phi,
        haar=haar,
        use_paper_gates=use_paper_gates,
    )
    return summary, (phis, rows, seeds, outcomes, weights[rows, outcomes], fidelities)


def _expected_distribution(
    channel: int, fixed_phi: Optional[np.ndarray], haar: bool, use_paper_gates: bool
) -> np.ndarray:
    effects = analysis.numeric_channel(channel, use_paper_gates).effects
    if haar:
        # Averaging the Born rule over the uniform state distribution
        # replaces |phi><phi| with I/3.
        p = effects.trace(axis1=1, axis2=2) / 3.0
    else:
        p = analysis.born_weights(effects, fixed_phi)
    return p / p.sum()


def summarize(
    channel: int,
    outcomes: np.ndarray,
    fidelities: Sequence[float],
    fixed_phi: Optional[np.ndarray] = None,
    haar: bool = False,
    use_paper_gates: bool = False,
) -> BatchSummary:
    """Summary of a batch from its outcome column and, in trial order, the
    fidelity of every trial that applied a recovery."""
    n = len(outcomes)
    counts = np.bincount(outcomes, minlength=9)
    freqs = counts / n

    expected = _expected_distribution(channel, fixed_phi, haar, use_paper_gates)
    mask = expected > 0
    chi_sq = float(
        (((counts[mask] - n * expected[mask]) ** 2) / (n * expected[mask])).sum()
    )
    dof = max(int(mask.sum()) - 1, 1)
    threshold = _CHI2_THRESHOLDS[dof - 1]

    return BatchSummary(
        channel=channel,
        trials=n,
        empirical_outcome_frequencies=tuple(freqs.tolist()),
        mean_fidelity_invertible=float(np.mean(fidelities)) if fidelities else None,
        singular_outcome_rate=(n - len(fidelities)) / n,
        chi_square_vs_born=chi_sq,
        chi_square_dof=dof,
        chi_square_threshold=threshold,
        chi_square_flagged=chi_sq > threshold,
    )
