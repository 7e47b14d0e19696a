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
seed bit for bit.  A batch computes numpy's `SeedSequence`/`PCG64`
seeding arithmetic over columns of trials instead of building those
objects per trial; the test suite checks it against numpy's own classes,
and the contract itself does not change.

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

import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import analysis

# every trial's event log: (event, party) in protocol order
EVENT_LOG = (
    ("prepare", "A1"),
    ("entangle", "A2+B"),
    ("joint_measure", "A1+A2"),
    ("classical_send", "A1+A2->B"),
    ("recover", "B"),
)
EVENT_SEQUENCE = tuple(name for name, _ in EVENT_LOG)
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
        event_log=EVENT_LOG,
    )


def haar_state(rng: np.random.Generator) -> np.ndarray:
    """Uniform random pure qutrit state (normalized complex Gaussian)."""
    raw = rng.standard_normal(6)
    v = raw[0::2] + 1j * raw[1::2]
    return v / np.linalg.norm(v)


# -- numpy's seeding as column arithmetic ---------------------------------------
#
# SeedSequence and PCG64 seeding are fixed algorithms (NumPy NEP 19;
# O'Neill, "PCG", HMC-CS-2014-0905), so a batch computes every trial's
# seeds, uniform and generator state over integer columns instead of
# building numpy objects per trial.  A word is either a Python int, for the
# part every trial shares, or a uint32/uint64 column; the same code serves
# both, because a column wraps by itself and a Python int is masked.  The
# test suite checks each step against numpy's own classes.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG's default 128-bit multiplier as (high, low) 64-bit words
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)
# a spawn index of 2**32 or more takes two entropy words
_MAX_TRIALS = 2**32


def _hashmix(value, hc, mult=_MULT_A):
    """One SeedSequence hash of a 32-bit word; returns it and the next constant."""
    value = (value ^ hc) & _MASK32
    hc = hc * mult & _MASK32
    value = value * hc & _MASK32
    return value ^ value >> 16, hc


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _seed_pool(words):
    """SeedSequence's entropy pool (pool size 4) from its entropy words."""
    hc = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        h, hc = _hashmix(words[i] if i < len(words) else 0, hc)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], h)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, hc = _hashmix(word, hc)
            pool[dst] = _mix(pool[dst], h)
    return pool


def _generate_state(pool, n_words):
    """``generate_state(n_words, np.uint64)`` as uint64 columns; the pool
    must hold uint32 columns."""
    hc = _INIT_B
    halves = []
    for i in range(2 * n_words):
        h, hc = _hashmix(pool[i % _POOL_SIZE], hc, _MULT_B)
        halves.append(h.astype(np.uint64))
    return [lo | hi << 32 for lo, hi in zip(halves[0::2], halves[1::2])]


def trial_seeds(master_seed: int, n: int) -> list:
    """The per-trial (state_seeds, trial_seeds) uint64 columns: row t holds
    the two words of
    ``SeedSequence(master_seed).spawn(n)[t].generate_state(2, np.uint64)``.
    Child t hashes the master's words, zero-padded to the pool size, and
    then t, so only that last step runs over a column."""
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    if n >= _MAX_TRIALS:
        raise ValueError(f"at most {_MAX_TRIALS - 1} trials per batch")
    words = []
    while True:
        words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    return _generate_state(_seed_pool(words + [np.arange(n, dtype=np.uint32)]), 2)


def _mulhi64(a, b):
    """High word of the 128-bit product of 64-bit words, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _pcg_step(state, inc):
    """state * multiplier + inc mod 2**128, on (high, low) pairs."""
    (hi, lo), (m_hi, m_lo) = state, _PCG_MULT
    product = (_mulhi64(lo, m_lo) + lo * m_hi + hi * m_lo, lo * m_lo)
    return _add128(product, inc)


def _pcg64_seeded(seeds):
    """``PCG64(seed).state``'s (state, inc) for a uint64 seed column, each a
    (high, low) pair of uint64 columns."""
    # PCG64 hashes the seed with SeedSequence(seed), unpadded; a seed below
    # 2**32 is one word, which hashes as the pool's zero fill would
    lo, hi = (seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    s_hi, s_lo, i_hi, i_lo = _generate_state(_seed_pool([lo, hi]), 4)
    # pcg_setseq_128_srandom_r
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    return _pcg_step(_add128(inc, (s_hi, s_lo)), inc), inc


def _pcg64_states(seeds):
    """Yield ``PCG64(seed).state`` for every seed of a uint64 column."""
    (s_hi, s_lo), (i_hi, i_lo) = _pcg64_seeded(seeds)
    for sh, sl, ih, il in zip(s_hi.tolist(), s_lo.tolist(), i_hi.tolist(), i_lo.tolist()):
        yield {
            "bit_generator": "PCG64",
            "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
            "has_uint32": 0,
            "uinteger": 0,
        }


def _first_raw(state, inc):
    """The first ``random_raw()`` word: one step, then the XSL-RR output."""
    hi, lo = _pcg_step(state, inc)
    rot = hi >> 58
    x = hi ^ lo
    return x >> rot | x << (64 - rot & 63)


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
    summary, cols = run_batch_columns(
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
            event_log=EVENT_LOG,
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
    summary, _ = run_batch_columns(
        channel, trials, master_seed, input_state, haar, use_paper_gates
    )
    return summary


def run_batch_columns(
    channel: int,
    trials: int,
    master_seed: int,
    input_state: Optional[Sequence[complex]] = None,
    haar: bool = False,
    use_paper_gates: bool = False,
) -> Tuple[BatchSummary, tuple]:
    """The whole batch as one columnar pass, trial for trial equal to `run_trial`.

    Returns the summary and the columns ``(phis, rows, trial_seeds,
    outcomes, outcome_probabilities, fidelities)``; trial t ran on input
    ``phis[rows[t]]``, so `phis` (complex, three amplitudes a row) has one
    row per trial in haar mode and a single row shared by every trial in
    fixed mode.  `rows`, `outcomes` and `outcome_probabilities` are arrays;
    `trial_seeds` is a list of ints and `fidelities` a list holding a float
    for each trial that applied a recovery and None for the others.
    `serialize.simulation_pieces` writes these columns as the CLI output.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if haar == (input_state is not None):
        raise ValueError("choose exactly one of a fixed input state or haar mode")
    fixed_phi = None if haar else analysis.as_state(input_state)
    if not 0 <= channel <= 8:
        raise ValueError(f"channel index {channel} out of range 0..8")
    gates, effects, recoveries = analysis.numeric_channel(channel, use_paper_gates)

    state_seeds, seed_column = trial_seeds(master_seed, trials)
    if haar:
        # one draw per trial: the norm inside haar_state goes through BLAS,
        # which a batched norm does not reproduce bit for bit; one generator
        # is reset to each trial's Generator(PCG64(state_seed)) state
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        phis = []
        for state in _pcg64_states(state_seeds):
            bit_generator.state = state
            phis.append(haar_state(rng))
        phis = np.array(phis)
        rows = np.arange(trials)
    else:
        phis = fixed_phi[np.newaxis]
        rows = np.zeros(trials, dtype=np.intp)
    # Generator(PCG64(seed)).random() without building either object
    u = (_first_raw(*_pcg64_seeded(seed_column)) >> 11) * _DOUBLE_UNIT
    seeds = seed_column.tolist()

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

    if haar:
        # Averaging the Born rule over the uniform state distribution
        # replaces |phi><phi| with I/3.
        drawn_from = effects.trace(axis1=1, axis2=2) / 3.0
    else:
        drawn_from = weights[0]  # the one fixed input's Born weights
    summary = summarize(
        channel,
        outcomes,
        [f for f in fidelities if f is not None],
        drawn_from / drawn_from.sum(),
    )
    return summary, (phis, rows, seeds, outcomes, weights[rows, outcomes], fidelities)


def summarize(
    channel: int,
    outcomes: np.ndarray,
    fidelities: Sequence[float],
    expected: np.ndarray,
) -> BatchSummary:
    """Summary of a batch from its outcome column, the fidelity of every
    trial that applied a recovery (in trial order), and `expected`, the
    normalized outcome distribution the batch drew from: the Born weights
    of the fixed input, or their average over Haar inputs."""
    n = len(outcomes)
    counts = np.bincount(outcomes, minlength=9)
    freqs = counts / n

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
