"""Seeded Monte-Carlo simulation of the three-party teleportation protocol.

One trial walks the protocol end to end: the sender prepares the input
qutrit in her lab (A1), the post office (A2) shares an entangled pair with
the receiver (B), the joint measurement at A1+A2 selects one of nine
outcomes by the Born rule, the outcome index travels over a classical
channel, and the receiver applies the recovery map when one exists.  The
event log records exactly that order, so recovery can never precede the
classical message.  The gates, the Born rule and the fidelity come from
the numeric layer of `analysis`, whose float view of a channel holds its
recoveries as one stack beside a mask of the outcomes that have one;
this module adds the randomness, the outcome search, the trial record
and the batch summary.

RNG contract (part of the interface, not an implementation detail): all
randomness comes from NumPy's PCG64 bit generator.  A batch spawns one
child of ``SeedSequence(master_seed)`` per trial; each child supplies two
64-bit words, the first seeding the input-state draw (haar mode), the
second seeding the trial itself.  `run_trial` replays any stored trial
seed bit for bit.  A batch computes numpy's `SeedSequence`/`PCG64`
seeding arithmetic over columns of trials instead of building those
objects per trial: every SeedSequence hash runs over a (k, n) uint32
block of k words of n trials at once, and a Haar row that leaves the
ziggurat's fast path takes its generator state from the seeding pass
that drew it.  The test suite checks every step against numpy's own
classes, and the contract itself does not change.

A batch runs as one columnar pass rather than trial by trial: it draws
every input state and every uniform from the trials' own seeds, then
applies the Born rule and the outcome search to the whole (n, ·) stack
at once, and the overlap to the stack of trials whose outcome has a
recovery; a fixed input takes the overlap once per outcome that
occurred.  Each step computes exactly what `run_trial` computes for one
row, so every row of a batch's columns equals the `run_trial` replay of
its seed; that replay is a trial's record.

A Haar-random input is ``Generator(PCG64(state_seed)).standard_normal(6)``
read as three complex amplitudes and normalized.  A batch draws those
normals over columns too: six PCG64 output words per trial, each turned
into a normal by the fast path of numpy's ziggurat (Marsaglia & Tsang),
whose two 256-entry tables are frozen below.  The rows where some word
leaves the fast path (about 9%) are redrawn with numpy's own generator,
because the slow path takes further words and calls libm's ``exp`` and
``log1p``.  The norm is taken as numpy takes it, through BLAS dot
products (`analysis.normalized`), so Haar bytes are bound to the BLAS
build as well as to numpy's ziggurat.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
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


def _index(name: str, value) -> int:
    """`value` as an int; a bool or a non-integer raises TypeError naming `name`."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def _check_channel(channel) -> int:
    channel = _index("channel", channel)
    if not 0 <= channel <= 8:
        raise ValueError(f"channel index {channel} out of range 0..8")
    return channel


def run_trial(
    channel: int,
    input_state: Sequence[complex],
    seed: int,
    use_paper_gates: bool = False,
) -> TrialRecord:
    """One protocol round.  Deterministic in (channel, input_state, seed)."""
    channel = _check_channel(channel)
    phi = analysis.as_state(input_state)
    gates, effects, recoveries, invertible = analysis.numeric_channel(channel, use_paper_gates)

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

    recovery_applied = bool(invertible[outcome])
    fidelity = None
    if recovery_applied:
        fidelity = float(analysis.overlap(phi, gates[outcome], recoveries[outcome]))

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


# -- numpy's seeding as column arithmetic ---------------------------------------
#
# SeedSequence and PCG64 seeding are fixed algorithms (NumPy NEP 19;
# O'Neill, "PCG", HMC-CS-2014-0905), so a batch computes every trial's
# seeds, uniform and generator state over integer columns instead of
# building numpy objects per trial.  Every step runs in lanes: a (k, n)
# uint32 block holds k words of n trials, and one numpy op hashes or mixes
# the whole block; a word every trial shares, such as one of the master
# seed's, is a Python int and stands for a whole row.  The hash constants
# do not depend on the data, so each block takes them from a cached (k, 1)
# column, and a uint32 block wraps by itself.  The test suite checks each
# step against numpy's own classes.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# the pool lanes each source lane cross-mixes into
_CROSS = tuple([dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE))
# PCG's default 128-bit multiplier as (high, low) 64-bit words
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)
# a spawn index of 2**32 or more takes two entropy words
_MAX_TRIALS = 2**32


@lru_cache(maxsize=None)
def _lane_constants(hc, mult, k):
    """The xor and multiply constants of k successive hashes from `hc`, as
    uint32 (k, 1) columns, and the constant after them."""
    xors, mults = [], []
    for _ in range(k):
        xors.append(hc)
        hc = hc * mult & _MASK32
        mults.append(hc)
    columns = [np.array(c, dtype=np.uint32)[:, np.newaxis] for c in (xors, mults)]
    for column in columns:
        column.flags.writeable = False  # every batch shares them through the cache
    return (*columns, hc)


def _hash_lanes(block, k, hc, mult=_MULT_A):
    """One SeedSequence hash over k lanes: row i of the uint32 (k, n) `block`
    is hashed with the i-th of the k constants from `hc`; a single uint32
    row or a Python int stands for k equal rows.  Returns the hashed block
    and the next constant."""
    xors, mults, hc = _lane_constants(hc, mult, k)
    h = block ^ xors
    h *= mults
    h ^= h >> 16
    return h, hc


def _mix_lanes(x, y):
    r = x * _MIX_L - y * _MIX_R
    r ^= r >> 16
    return r


def _seed_pool(words):
    """SeedSequence's entropy pool (pool size 4) from its entropy words, each
    a 32-bit Python int or a uint32 column, as a (4, n) uint32 block; n is
    1 while no column has mixed in."""
    words = list(words) + [0] * (_POOL_SIZE - len(words))
    head = words[:_POOL_SIZE]
    n = max((len(word) for word in head if not isinstance(word, int)), default=1)
    block = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    for lane, word in enumerate(head):
        block[lane] = word
    pool, hc = _hash_lanes(block, _POOL_SIZE, _INIT_A)
    # each source lane's three cross-mixes as one (3, n) block
    for src, dsts in enumerate(_CROSS):
        h, hc = _hash_lanes(pool[src], len(dsts), hc)
        pool[dsts] = _mix_lanes(pool[dsts], h)
    # every word past the pool size mixes into all four lanes
    for word in words[_POOL_SIZE:]:
        h, hc = _hash_lanes(word, _POOL_SIZE, hc)
        pool = _mix_lanes(pool, h)
    return pool


def _generate_state(pool, n_words):
    """``generate_state(n_words, np.uint64)`` as a (n_words, n) uint64 block,
    from a pool of uint32 lanes; all 2 * n_words halves hash as one block."""
    lanes = np.arange(2 * n_words) % _POOL_SIZE
    halves, _ = _hash_lanes(pool[lanes], len(lanes), _INIT_B, _MULT_B)
    halves = halves.astype(np.uint64)
    return halves[0::2] | halves[1::2] << 32


def trial_seeds(master_seed: int, n: int) -> np.ndarray:
    """The per-trial seeds as a (2, n) uint64 block whose rows are the
    state_seeds and trial_seeds columns: column t holds the two words of
    ``SeedSequence(master_seed).spawn(n)[t].generate_state(2, np.uint64)``.
    Child t hashes the master's words, zero-padded to the pool size, and
    then t, so only that last step makes (4, n) blocks."""
    master_seed = _index("master_seed", master_seed)
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


def _pcg64_states(state, inc):
    """Yield ``PCG64(seed).state`` for each row of `_pcg64_seeded(seeds)`."""
    (s_hi, s_lo), (i_hi, i_lo) = state, inc
    for sh, sl, ih, il in zip(s_hi.tolist(), s_lo.tolist(), i_hi.tolist(), i_lo.tolist()):
        yield {
            "bit_generator": "PCG64",
            "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
            "has_uint32": 0,
            "uinteger": 0,
        }


def _raw_words(state, inc, count):
    """The first `count` ``random_raw()`` words: each is one step, then the
    XSL-RR output."""
    words = []
    for _ in range(count):
        state = _pcg_step(state, inc)
        hi, lo = state
        rot = hi >> 58
        x = hi ^ lo
        words.append(x >> rot | x << (64 - rot & 63))
    return words


def _haar_inputs(state, inc):
    """Row t is the Haar input drawn by
    ``Generator(PCG64(seed)).standard_normal(6)``, bit for bit, where row t
    of the (state, inc) columns is `_pcg64_seeded` of that seed."""
    normals = np.empty((len(state[0]), 6))
    fast = np.ones(len(state[0]), dtype=bool)
    for j, word in enumerate(_raw_words(state, inc, 6)):
        # random_standard_normal's fast path: the low byte picks the layer,
        # bit 8 is the sign and the next 52 bits the magnitude
        layer = word & 0xFF
        rabs = word >> 9 & 0xFFFFFFFFFFFFF
        x = rabs.astype(np.float64) * _ZIGGURAT_WI[layer]
        normals[:, j] = np.where(word >> 8 & 1, -x, x)
        fast &= rabs < _ZIGGURAT_KI[layer]
    # a draw off the fast path takes more words: redraw the row with numpy,
    # from the generator state its seeding already gave
    slow = np.flatnonzero(~fast)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    picked = [tuple(word[slow] for word in pair) for pair in (state, inc)]
    for row, seeded in zip(slow.tolist(), _pcg64_states(*picked)):
        bit_generator.state = seeded
        rng.standard_normal(out=normals[row])
    return analysis.normalized(normals[:, 0::2] + 1j * normals[:, 1::2])


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

    Returns the summary and the array columns ``(phis, rows, trial_seeds,
    outcomes, outcome_probabilities, applied, fidelities)``.  Trial t ran
    on input ``phis[rows[t]]``, so `phis` (complex, three amplitudes a row)
    has one row per trial in haar mode and a single row shared by every
    trial in fixed mode.  `trial_seeds` is the uint64 seed column,
    `outcomes` and `outcome_probabilities` hold one entry per trial, and
    `applied` lists in order the trials whose outcome has a recovery, with
    their `fidelities` beside them.  No per-trial Python object is built:
    `serialize.simulation_pieces` writes these columns as the CLI output,
    and a trial's record is the `run_trial` replay of its row (its input
    and its seed).

    No step loops over trials in Python, except the redraw of the Haar
    rows that leave the ziggurat's fast path (`_haar_inputs`): the seeding,
    the draws, the Born weights, the outcome search and the overlap each
    run once over the whole stack.  A fixed input takes the overlap once
    per outcome that occurred.  The printed floats therefore rest on the
    same numpy ziggurat tables, BLAS dot and gemv kernels and libm
    ``hypot``/``pow`` as `run_trial` on one row.
    """
    trials = _index("trials", trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    if haar == (input_state is not None):
        raise ValueError("choose exactly one of a fixed input state or haar mode")
    fixed_phi = None if haar else analysis.as_state(input_state)
    channel = _check_channel(channel)
    gates, effects, recoveries, invertible = analysis.numeric_channel(channel, use_paper_gates)

    state_seeds, seed_column = trial_seeds(master_seed, trials)
    if haar:
        phis = _haar_inputs(*_pcg64_seeded(state_seeds))
        rows = np.arange(trials)
    else:
        phis = fixed_phi[np.newaxis]
        rows = np.zeros(trials, dtype=np.intp)
    # Generator(PCG64(seed)).random() without building either object
    u = (_raw_words(*_pcg64_seeded(seed_column), 1)[0] >> 11) * _DOUBLE_UNIT

    weights = analysis.born_weights(effects, phis)
    probs = weights / weights.sum(axis=1, keepdims=True)
    # searchsorted(cumsum, u, side="right") row by row, capped at 8
    outcomes = np.minimum((np.cumsum(probs, axis=1) <= u[:, np.newaxis]).sum(axis=1), 8)
    if not probs.all():
        # rounding in the cumulative sum must never select a zero-mass bin:
        # step down to the last outcome at or below it with mass (0 if none)
        with_mass = np.where(probs != 0.0, np.arange(9), 0)
        outcomes = np.maximum.accumulate(with_mass, axis=1)[rows, outcomes]

    # the trials whose outcome has a recovery; a singular outcome's zero
    # recovery is never selected
    applied = np.flatnonzero(invertible[outcomes])
    k = outcomes[applied]
    if haar:
        fidelities = analysis.overlap(phis[applied], gates[k], recoveries[k])
        # Averaging the Born rule over the uniform state distribution
        # replaces |phi><phi| with I/3.
        drawn_from = effects.trace(axis1=1, axis2=2) / 3.0
    else:
        # one overlap per outcome that occurred, so none of zero mass
        occurred = np.flatnonzero(np.bincount(k, minlength=9))
        per_outcome = np.zeros(9)
        per_outcome[occurred] = analysis.overlap(
            phis[np.zeros(len(occurred), dtype=np.intp)], gates[occurred], recoveries[occurred]
        )
        fidelities = per_outcome[k]
        drawn_from = weights[0]  # the one fixed input's Born weights
    summary = summarize(channel, outcomes, fidelities, drawn_from / drawn_from.sum())
    columns = (phis, rows, seed_column, outcomes, weights[rows, outcomes], applied, fidelities)
    return summary, columns


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
        mean_fidelity_invertible=float(np.mean(fidelities)) if len(fidelities) else None,
        singular_outcome_rate=(n - len(fidelities)) / n,
        chi_square_vs_born=chi_sq,
        chi_square_dof=dof,
        chi_square_threshold=threshold,
        chi_square_flagged=chi_sq > threshold,
    )


# numpy's ziggurat tables for random_standard_normal, as numpy builds them
# into its C source (ki_double, wi_double): a word on layer i is accepted on
# the fast path when its 52-bit magnitude is below KI[i], and its normal is
# then magnitude * WI[i].  Layer 1 never accepts (KI[1] is 0).  The test
# suite derives both tables again from numpy's generator.
_ZIGGURAT_KI = np.array([
    0xEF33D8025EF6A, 0x0000000000000, 0xC08BE98FBC6A8, 0xDA354FABD8142,
    0xE51F67EC1EEEA, 0xEB255E9D3F77E, 0xEEF4B817ECAB9, 0xF19470AFA44AA,
    0xF37ED61FFCB18, 0xF4F469561255C, 0xF61A5E41BA396, 0xF707A755396A4,
    0xF7CB2EC28449A, 0xF86F10C6357D3, 0xF8FA6578325DE, 0xF9724C74DD0DA,
    0xF9DA907DBF509, 0xFA360F581FA74, 0xFA86FDE5B4BF8, 0xFACF160D354DC,
    0xFB0FB6718B90F, 0xFB49F8D5374C6, 0xFB7EC2366FE77, 0xFBAECE9A1E50E,
    0xFBDAB9D040BED, 0xFC03060FF6C57, 0xFC2821037A248, 0xFC4A67AE25BD1,
    0xFC6A2977AEE31, 0xFC87AA92896A4, 0xFCA325E4BDE85, 0xFCBCCE902231A,
    0xFCD4D12F839C4, 0xFCEB54D8FEC99, 0xFD007BF1DC930, 0xFD1464DD6C4E6,
    0xFD272A8E2F450, 0xFD38E4FF0C91E, 0xFD49A9990B478, 0xFD598B8920F53,
    0xFD689C08E99EC, 0xFD76EA9C8E832, 0xFD848547B08E8, 0xFD9178BAD2C8C,
    0xFD9DD07A7ADD2, 0xFDA9970105E8C, 0xFDB4D5DC02E20, 0xFDBF95C5BFCD0,
    0xFDC9DEBB99A7D, 0xFDD3B8118729D, 0xFDDD288342F90, 0xFDE6364369F64,
    0xFDEEE708D514E, 0xFDF7401A6B42E, 0xFDFF46599ED40, 0xFE06FE4BC24F2,
    0xFE0E6C225A258, 0xFE1593C28B84C, 0xFE1C78CBC3F99, 0xFE231E9DB1CAA,
    0xFE29885DA1B91, 0xFE2FB8FB54186, 0xFE35B33558D4A, 0xFE3B799D0002A,
    0xFE410E99EAD7F, 0xFE46746D47734, 0xFE4BAD34C095C, 0xFE50BAED29524,
    0xFE559F74EBC78, 0xFE5A5C8E41212, 0xFE5EF3E138689, 0xFE6366FD91078,
    0xFE67B75C6D578, 0xFE6BE661E11AA, 0xFE6FF55E5F4F2, 0xFE73E5900A702,
    0xFE77B823E9E39, 0xFE7B6E37070A2, 0xFE7F08D774243, 0xFE8289053F08C,
    0xFE85EFB35173A, 0xFE893DC840864, 0xFE8C741F0CEBC, 0xFE8F9387D4EF6,
    0xFE929CC879B1D, 0xFE95909D388EA, 0xFE986FB939AA2, 0xFE9B3AC714866,
    0xFE9DF2694B6D5, 0xFEA0973ABE67C, 0xFEA329CF166A4, 0xFEA5AAB32952C,
    0xFEA81A6D5741A, 0xFEAA797DE1CF0, 0xFEACC85F3D920, 0xFEAF07865E63C,
    0xFEB13762FEC13, 0xFEB3585FE2A4A, 0xFEB56AE3162B4, 0xFEB76F4E284FA,
    0xFEB965FE62014, 0xFEBB4F4CF9D7C, 0xFEBD2B8F449D0, 0xFEBEFB16E2E3E,
    0xFEC0BE31EBDE8, 0xFEC2752B15A15, 0xFEC42049DAFD3, 0xFEC5BFD29F196,
    0xFEC75406CEEF4, 0xFEC8DD2500CB4, 0xFECA5B6911F12, 0xFECBCF0C427FE,
    0xFECD38454FB15, 0xFECE97488C8B3, 0xFECFEC47F91B7, 0xFED1377358528,
    0xFED278F844903, 0xFED3B10242F4C, 0xFED4DFBAD586E, 0xFED605498C3DD,
    0xFED721D414FE8, 0xFED8357E4A982, 0xFED9406A42CC8, 0xFEDA42B85B704,
    0xFEDB3C8746AB4, 0xFEDC2DF416652, 0xFEDD171A46E52, 0xFEDDF813C8AD3,
    0xFEDED0F909980, 0xFEDFA1E0FD414, 0xFEE06AE124BC4, 0xFEE12C0D95A06,
    0xFEE1E579006E0, 0xFEE29734B6524, 0xFEE34150AE4BC, 0xFEE3E3DB89B3C,
    0xFEE47EE2982F4, 0xFEE51271DB086, 0xFEE59E9407F41, 0xFEE623528B42E,
    0xFEE6A0B5897F1, 0xFEE716C3E077A, 0xFEE7858327B82, 0xFEE7ECF7B06BA,
    0xFEE84D2484AB2, 0xFEE8A60B66343, 0xFEE8F7ACCC851, 0xFEE94207E25DA,
    0xFEE9851A829EA, 0xFEE9C0E13485C, 0xFEE9F557273F4, 0xFEEA22762CCAE,
    0xFEEA4836B42AC, 0xFEEA668FC2D71, 0xFEEA7D76ED6FA, 0xFEEA8CE04FA0A,
    0xFEEA94BE8333B, 0xFEEA950296410, 0xFEEA8D9C0075E, 0xFEEA7E7897654,
    0xFEEA678481D24, 0xFEEA48AA29E83, 0xFEEA21D22E4DA, 0xFEE9F2E352024,
    0xFEE9BBC26AF2E, 0xFEE97C524F2E4, 0xFEE93473C0A3A, 0xFEE8E40557516,
    0xFEE88AE369C7A, 0xFEE828E7F3DFD, 0xFEE7BDEA7B888, 0xFEE749BFF37FF,
    0xFEE6CC3A9BD5E, 0xFEE64529E007E, 0xFEE5B45A32888, 0xFEE51994E57B6,
    0xFEE474A0006CF, 0xFEE3C53E12C50, 0xFEE30B2E02AD8, 0xFEE2462AD8205,
    0xFEE175EB83C5A, 0xFEE09A22A1447, 0xFEDFB27E349CC, 0xFEDEBEA76216C,
    0xFEDDBE422047E, 0xFEDCB0ECE39D3, 0xFEDB964042CF4, 0xFEDA6DCE938C9,
    0xFED937237E98D, 0xFED7F1C38A836, 0xFED69D2B9C02B, 0xFED538D06AE00,
    0xFED3C41DEA422, 0xFED23E76A2FD8, 0xFED0A732FE644, 0xFECEFDA07FE34,
    0xFECD4100EB7B8, 0xFECB708956EB4, 0xFEC98B61230C1, 0xFEC790A0DA978,
    0xFEC57F50F31FE, 0xFEC356686C962, 0xFEC114CB4B335, 0xFEBEB948E6FD0,
    0xFEBC429A0B692, 0xFEB9AF5EE0CDC, 0xFEB6FE1C98542, 0xFEB42D3AD1F9E,
    0xFEB13B00B2D4B, 0xFEAE2591A02E9, 0xFEAAEAE992257, 0xFEA788D8EE326,
    0xFEA3FCFFD73E5, 0xFEA044C8DD9F6, 0xFE9C5D62F563B, 0xFE9843BA947A4,
    0xFE93F471D4728, 0xFE8F6BD76C5D6, 0xFE8AA5DC4E8E6, 0xFE859E07AB1EA,
    0xFE804F690A940, 0xFE7AB488233C0, 0xFE74C751F6AA5, 0xFE6E8102AA202,
    0xFE67DA0B6ABD8, 0xFE60C9F38307E, 0xFE5947338F742, 0xFE51470977280,
    0xFE48BD436F458, 0xFE3F9BFFD1E37, 0xFE35D35EEB19C, 0xFE2B5122FE4FE,
    0xFE20003995557, 0xFE13C82788314, 0xFE068C4EE67B0, 0xFDF82B02B71AA,
    0xFDE87C57EFEAA, 0xFDD7509C63BFD, 0xFDC46E529BF13, 0xFDAF8F82E0282,
    0xFD985E1B2BA75, 0xFD7E6EF48CF04, 0xFD613ADBD650B, 0xFD40149E2F012,
    0xFD1A1A7B4C7AC, 0xFCEE204761F9E, 0xFCBA8D85E11B2, 0xFC7D26ECD2D22,
    0xFC32B2F1E22ED, 0xFBD6581C0B83A, 0xFB606C4005434, 0xFAC40582A2874,
    0xF9E971E014598, 0xF89FA48A41DFC, 0xF66C5F7F0302C, 0xF1A5A4B331C4A,
], dtype=np.uint64)
_ZIGGURAT_WI = np.array([
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
    7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
    9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
    1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
    1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
    1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
    1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
    1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
    1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
    1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
    1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
    2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
    2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
    2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
    2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
    2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
    2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
    2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
    2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
    2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
    2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
    2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
    2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
    2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
    2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
    2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
    3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
    3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
    3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
    3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
    3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
    3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
    3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
    3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
    3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
    3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
    3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
    3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
    3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
    3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
    3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
    3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
    3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
    4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
    4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
    4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
    4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
    4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
    4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
    4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
    4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
    4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
    4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
    4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
    4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
    5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
    5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
    5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
    5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
    5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
    5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
    6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
    6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
    6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
    8.113849337656484e-16,
])
