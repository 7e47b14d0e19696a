"""Protocol simulation: determinism, causality, Born statistics."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from batch_replay import batch_records
from qutrit_teleport import analysis, simulate
from qutrit_teleport.simulate import run_batch, run_batch_columns, run_trial, trial_seeds

KET0 = (1.0, 0.0, 0.0)


# -- the per-trial oracles the columnar batch replaced -------------------------


def haar_state(rng: np.random.Generator) -> np.ndarray:
    """Uniform random pure qutrit state (normalized complex Gaussian)."""
    raw = rng.standard_normal(6)
    v = raw[0::2] + 1j * raw[1::2]
    return v / np.linalg.norm(v)


def overlap(v, gate, rec):
    """|<v|w>|^2 for one state: w = G v normalized, then mapped back by `rec`."""
    w = gate @ v
    w = w / np.linalg.norm(w)
    if rec is not None:
        w = rec @ w
        w = w / np.linalg.norm(w)
    return float(abs(np.vdot(v, w)) ** 2)


def test_trial_replay_is_identical():
    a = run_trial(0, KET0, seed=424242)
    b = run_trial(0, KET0, seed=424242)
    assert a == b


def test_trial_event_order_respects_causality():
    rec = run_trial(3, KET0, seed=9)
    names = [name for name, _ in rec.event_log]
    assert names == ["prepare", "entangle", "joint_measure", "classical_send", "recover"]
    assert names.index("recover") > names.index("classical_send")
    assert names.index("classical_send") > names.index("joint_measure")


def test_trial_parties():
    rec = run_trial(0, KET0, seed=1)
    log = dict(rec.event_log)
    assert log["prepare"] == "A1"
    assert log["entangle"] == "A2+B"
    assert log["joint_measure"] == "A1+A2"
    assert log["recover"] == "B"


def test_classical_message_carries_outcome_index():
    for seed in range(20):
        rec = run_trial(0, KET0, seed=seed)
        assert rec.classical_message == rec.outcome


def test_outcome_support_for_basis_input_on_singlet_channel():
    # outcomes 3, 6, 7 annihilate |0>, so they can never be drawn
    summary, _, records = batch_records(0, 500, master_seed=99, input_state=KET0)
    outcomes = {r.outcome for r in records}
    assert outcomes <= {0, 1, 2, 4, 5, 8}
    for k in (3, 6, 7):
        assert summary.empirical_outcome_frequencies[k] == 0.0


def test_scalar_gate_outcome_has_unit_fidelity():
    _, _, records = batch_records(0, 200, master_seed=5, input_state=KET0)
    hits = [r for r in records if r.outcome == 0]
    assert hits
    for r in hits:
        assert r.recovery_applied
        assert r.fidelity == pytest.approx(1.0, abs=1e-12)


def test_batch_determinism():
    s1, _, r1 = batch_records(2, 300, master_seed=777, input_state=KET0)
    s2, _, r2 = batch_records(2, 300, master_seed=777, input_state=KET0)
    assert s1 == s2
    assert r1 == r2
    s3, _, r3 = batch_records(2, 300, master_seed=778, input_state=KET0)
    assert r3 != r1


def test_stored_trial_seed_replays_the_trial():
    _, _, records = batch_records(0, 25, master_seed=31, input_state=KET0)
    for rec in records[:10]:
        assert run_trial(rec.channel, rec.input_state, rec.seed) == rec


def _seed_pairs(master_seed, n):
    """Row t of the two `trial_seeds` columns as a (state_seed, trial_seed) pair."""
    state_seeds, seeds = trial_seeds(master_seed, n)
    assert state_seeds.dtype == seeds.dtype == np.uint64
    assert len(state_seeds) == len(seeds) == n
    return list(zip(state_seeds.tolist(), seeds.tolist()))


def test_trial_seed_derivation_is_stable():
    assert _seed_pairs(123, 3) == _seed_pairs(123, 3)
    assert _seed_pairs(123, 3) != _seed_pairs(124, 3)


def test_frequencies_sum_to_one():
    summary = run_batch(0, 997, master_seed=6, input_state=KET0)
    assert abs(sum(summary.empirical_outcome_frequencies) - 1.0) < 1e-12


def test_single_trial_summary_is_unit_vector():
    summary = run_batch(5, 1, master_seed=314, input_state=KET0)
    freqs = summary.empirical_outcome_frequencies
    assert sorted(freqs) == [0.0] * 8 + [1.0]
    assert summary.trials == 1


def test_born_agreement_for_fixed_seed():
    n = 3000
    summary = run_batch(0, n, master_seed=123, input_state=KET0)
    p = 1 / 9
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(summary.empirical_outcome_frequencies[0] - p) <= 3 * sigma
    assert not summary.chi_square_flagged


def test_chi_square_is_a_flag_not_a_failure():
    # a deviation only raises the flag; the flag must agree with the
    # statistic/threshold comparison, and for this seed stays clear
    summary = run_batch(0, 20_000, master_seed=606, input_state=KET0)
    assert summary.chi_square_flagged == (
        summary.chi_square_vs_born > summary.chi_square_threshold
    )
    assert summary.chi_square_dof == 5  # outcomes 3, 6, 7 carry no mass
    assert not summary.chi_square_flagged


def test_haar_mode_mean_invertible_fidelity_is_one():
    summary = run_batch(0, 300, master_seed=2024, haar=True)
    assert summary.mean_fidelity_invertible == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= summary.singular_outcome_rate <= 1.0


def test_singular_channel_reports_no_invertible_fidelity():
    # every gate of channels 1..7 is singular
    summary = run_batch(4, 50, master_seed=8, input_state=KET0)
    assert summary.mean_fidelity_invertible is None
    assert summary.singular_outcome_rate == 1.0


def test_haar_states_are_normalized_and_seeded(monkeypatch):
    # the column draw against the per-trial generator, bit for bit; about
    # 9% of rows leave the ziggurat's fast path and are redrawn by numpy
    drawn = np.random.default_rng(55).integers(0, 2**64, size=100_000, dtype=np.uint64)
    seeds = np.concatenate([np.array(_EDGE_SEEDS, dtype=np.uint64), drawn])
    redrawn = []
    states = simulate._pcg64_states
    monkeypatch.setattr(
        simulate,
        "_pcg64_states",
        lambda state, inc: redrawn.append(len(state[0])) or states(state, inc),
    )
    phis = simulate._haar_inputs(*simulate._pcg64_seeded(seeds))
    assert 0.05 < redrawn[0] / len(seeds) < 0.15
    expected = np.array(
        [haar_state(np.random.Generator(np.random.PCG64(s))) for s in seeds.tolist()]
    )
    assert np.array_equal(phis.view(np.uint64), expected.view(np.uint64))
    assert np.abs(np.linalg.norm(phis, axis=1) - 1.0).max() < 1e-12


def test_paper_gate_mode_runs_deterministically():
    s1, _, r1 = batch_records(8, 100, master_seed=1, input_state=KET0, use_paper_gates=True)
    s2, _, r2 = batch_records(8, 100, master_seed=1, input_state=KET0, use_paper_gates=True)
    assert s1 == s2 and r1 == r2
    assert abs(sum(s1.empirical_outcome_frequencies) - 1.0) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        run_trial(0, (1.0, 1.0, 0.0), seed=0)
    with pytest.raises(ValueError):
        run_batch(0, 0, master_seed=0, input_state=KET0)
    with pytest.raises(ValueError):
        run_batch(0, 10, master_seed=0, input_state=KET0, haar=True)
    with pytest.raises(ValueError):
        run_batch(0, 10, master_seed=0)
    with pytest.raises(ValueError):
        run_trial(9, KET0, seed=0)


_STATE_TAKERS = {
    "as_state": simulate.as_state,
    "run_trial": lambda phi: run_trial(0, phi, 1),
    "run_batch": lambda phi: run_batch(0, 5, 1, input_state=phi),
    "expected_fidelities": lambda phi: analysis.expected_fidelities(0, phi),
}


@pytest.mark.parametrize("take", _STATE_TAKERS.values(), ids=list(_STATE_TAKERS))
@pytest.mark.parametrize("phi, size", [([1, 0], 2), ([1, 0, 0, 0], 4), ([], 0)])
def test_a_state_of_the_wrong_size_is_refused_by_its_size(take, phi, size):
    with pytest.raises(ValueError) as raised:
        take(phi)
    assert str(raised.value) == f"input state must hold 3 amplitudes, not {size}"


def test_no_state_is_refused_as_one_amplitude():
    # numpy reads None as one NaN; run_batch reads None as haar mode instead
    with pytest.raises(ValueError, match="^input state must hold 3 amplitudes, not 1$"):
        simulate.as_state(None)


@pytest.mark.parametrize("phi", [[1, 0, 0], (0, 1j, 0), np.array([[0, 0, 1]]), [[1], [0], [0]]])
def test_every_size_3_state_is_accepted(phi):
    v = simulate.as_state(phi)
    assert v.shape == (3,) and v.dtype == complex
    assert np.array_equal(v, np.ravel(phi))


_VALID_ARGUMENTS = {
    run_batch: dict(channel=0, trials=10, master_seed=0, haar=True),
    run_trial: dict(channel=0, input_state=KET0, seed=0),
    trial_seeds: dict(master_seed=0, n=3),
}


@pytest.mark.parametrize(
    "function, changed, error, message",
    [
        (run_batch, dict(trials=2.5), TypeError, "trials must be an integer, not float"),
        (run_batch, dict(trials=True), TypeError, "trials must be an integer, not bool"),
        (run_batch, dict(trials="10"), TypeError, "trials must be an integer, not str"),
        (run_batch, dict(trials=0), ValueError, "need at least one trial"),
        (run_batch, dict(channel=True), TypeError, "channel must be an integer, not bool"),
        (run_batch, dict(channel=1.0), TypeError, "channel must be an integer, not float"),
        (run_batch, dict(channel=None), TypeError, "channel must be an integer, not NoneType"),
        (run_batch, dict(channel=9), ValueError, "channel index 9 out of range 0..8"),
        (run_batch, dict(channel=-1), ValueError, "channel index -1 out of range 0..8"),
        (run_batch, dict(master_seed=True), TypeError, "master_seed must be an integer, not bool"),
        (run_batch, dict(master_seed=0.0), TypeError, "master_seed must be an integer, not float"),
        (run_batch, dict(haar="no"), TypeError, "haar must be a bool, not str"),
        (run_batch, dict(haar=1), TypeError, "haar must be a bool, not int"),
        (run_batch, dict(haar=None), TypeError, "haar must be a bool, not NoneType"),
        (run_batch, dict(use_paper_gates=1),
         TypeError, "use_paper_gates must be a bool, not int"),
        (run_batch, dict(use_paper_gates="no"),
         TypeError, "use_paper_gates must be a bool, not str"),
        (run_trial, dict(use_paper_gates=0),
         TypeError, "use_paper_gates must be a bool, not int"),
        (run_trial, dict(use_paper_gates="yes"),
         TypeError, "use_paper_gates must be a bool, not str"),
        (run_trial, dict(channel=True), TypeError, "channel must be an integer, not bool"),
        (run_trial, dict(channel=1.0), TypeError, "channel must be an integer, not float"),
        (run_trial, dict(channel="0"), TypeError, "channel must be an integer, not str"),
        (run_trial, dict(channel=9), ValueError, "channel index 9 out of range 0..8"),
        (trial_seeds, dict(master_seed=False),
         TypeError, "master_seed must be an integer, not bool"),
        (trial_seeds, dict(n=True), TypeError, "n must be an integer, not bool"),
        (trial_seeds, dict(n=2.5), TypeError, "n must be an integer, not float"),
        (trial_seeds, dict(n="3"), TypeError, "n must be an integer, not str"),
        (trial_seeds, dict(n=-1), ValueError, "expected non-negative integer"),
        (run_trial, dict(seed=True), TypeError, "seed must be an integer, not bool"),
        (run_trial, dict(seed=2.5), TypeError, "seed must be an integer, not float"),
        (run_trial, dict(seed="3"), TypeError, "seed must be an integer, not str"),
        (run_trial, dict(seed=-1), ValueError, "expected non-negative integer"),
    ],
)
def test_library_arguments_are_checked_by_name(function, changed, error, message):
    with pytest.raises(error) as raised:
        function(**{**_VALID_ARGUMENTS[function], **changed})
    assert str(raised.value) == message


def test_integer_like_arguments_run_as_their_int():
    # numpy integers pass through operator.index, and the summary holds ints;
    # numpy bools pass the flag rule
    summary = run_batch(np.int64(3), np.uint16(10), np.int8(5), haar=True)
    assert summary == run_batch(3, 10, 5, haar=True)
    assert type(summary.channel) is int
    assert run_trial(np.int32(8), KET0, seed=7) == run_trial(8, KET0, seed=7)
    assert run_batch(3, 10, 5, haar=np.True_) == summary
    fixed = dict(input_state=KET0, haar=np.False_, use_paper_gates=np.True_)
    assert run_batch(3, 10, 5, **fixed) == run_batch(3, 10, 5, KET0, False, True)
    assert run_trial(8, KET0, 7, np.True_) == run_trial(8, KET0, 7, True)


REPLAY_STATE = (0.5, 0.5j, 0.5 + 0.5j)


@pytest.mark.parametrize("use_paper_gates", [False, True], ids=["oracle", "printed"])
@pytest.mark.parametrize("mode", ["fixed", "haar", "fixed-ket0"])
@pytest.mark.parametrize("channel", range(9))
def test_batch_records_equal_replay_of_their_seeds(channel, mode, use_paper_gates):
    # the columnar batch against the per-trial oracle, row by row in
    # `batch_records`; |0> leaves zero-mass outcomes (3, 6 and 7 on channel 0)
    state = {"fixed": REPLAY_STATE, "haar": None, "fixed-ket0": KET0}[mode]
    kwargs = dict(input_state=state, haar=state is None, use_paper_gates=use_paper_gates)
    summary, _, records = batch_records(channel, 150, 40 + channel, **kwargs)
    spawned = np.random.SeedSequence(40 + channel).spawn(150)
    seeds = [int(child.generate_state(2, np.uint64)[1]) for child in spawned]
    assert [r.seed for r in records] == seeds
    assert run_batch(channel, 150, 40 + channel, **kwargs) == summary


def test_nine_term_total_equals_numpys_sum():
    # the batch sums each trial's nine weights over the outcome-major block
    # in numpy's own order; rows of any magnitude and sign, with zeros of
    # either sign and rows of zeros alone, where only the +0 start shows
    rng = np.random.default_rng(31)
    rows = 10.0 ** rng.uniform(-300, 300, (4000, 9))
    rows[:1000] *= rng.choice([1.0, -1.0], (1000, 9))
    rows[2000:3000] = rng.random((1000, 9))
    rows[::3, ::4] = 0.0
    rows[1::5, 1::3] = -0.0
    rows[3000:3010] = 0.0
    rows[3010:3020] = -0.0
    rows[3020:3030, ::2] = -0.0
    total = simulate._total(np.ascontiguousarray(rows.T))
    assert np.array_equal(_bits(total), _bits(rows.sum(axis=1)))
    assert np.array_equal(_bits(total), _bits(np.array([row.sum() for row in rows])))


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def test_uniform_past_the_cumulative_sum_steps_down_to_an_outcome_with_mass(monkeypatch):
    # every u >= 1 lands beyond the last bin; on channel 3, |0> gives
    # outcomes 6, 7 and 8 no mass, so the draw must step down to 5; the
    # patched uniform is the batch's alone, so the outcome column is read
    # rather than replayed
    monkeypatch.setattr(simulate, "_DOUBLE_UNIT", 1.0)
    _, columns = run_batch_columns(3, 50, master_seed=1, input_state=KET0)
    p = simulate.outcome_distribution(3, KET0)
    assert max(k for k in range(9) if p[k] > 0) == 5
    assert set(columns[3].tolist()) == {5}


def test_uniform_from_the_raw_word_equals_generator_random():
    drawn = np.random.default_rng(2024).integers(0, 2**64, size=100_000, dtype=np.uint64)
    seeds = [0, 2**63, 2**64 - 1, *drawn.tolist()]
    raw = np.array(
        [np.random.PCG64(s).random_raw() >> 11 for s in seeds], dtype=np.uint64
    ) * simulate._DOUBLE_UNIT
    ref = np.array([np.random.Generator(np.random.PCG64(s)).random() for s in seeds])
    assert np.array_equal(raw.view(np.uint64), ref.view(np.uint64))


# -- the batch's seeding arithmetic against numpy's own classes ----------------

_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize(
    "master",
    [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128 - 1, 2**128, 2**128 + 12345,
     3**100, 2**300 + 1],
)
def test_trial_seeds_equal_seed_sequence_spawn(master):
    # masters of more than four words are not padded: their extra words mix
    # into the pool after it is filled, and the spawn index after them
    expected = [
        tuple(int(w) for w in child.generate_state(2, np.uint64))
        for child in np.random.SeedSequence(master).spawn(300)
    ]
    assert _seed_pairs(master, 300) == expected


@pytest.mark.parametrize(
    "master", [0, 2**32 + 7, 2**128 - 1, 2**128, 2**300 + 1],
    ids=["1-word", "2-words", "4-words", "5-words", "10-words"],
)
def test_master_pool_on_integers_equals_seed_sequence_pool(master):
    # the pool of an unspawned SeedSequence is a spawned child's before its
    # spawn index mixes in; the constant after it has taken 16 hashes, and 4
    # more for each master word past the fourth
    pool, hc = simulate._master_pool(master)
    assert pool == np.random.SeedSequence(master).pool.tolist()
    hashes = 16 + 4 * max(0, (max(master.bit_length(), 1) + 31) // 32 - 4)
    assert hc == simulate._INIT_A * pow(simulate._MULT_A, hashes, 2**32) % 2**32


def test_spawn_hash_over_the_whole_32_bit_index_range():
    # trial_seeds' split: the master's pool on integers, then the spawn
    # index hashed over four lanes and mixed into it, on chosen indices
    indices = [0, 1, 255, 256, 65_536, 2**31, 2**32 - 2, 2**32 - 1]
    pool, hc = simulate._master_pool(7)
    h, scratch = np.empty((2, 4, len(indices)), dtype=np.uint32)
    simulate._hash_lanes(np.array(indices, dtype=np.uint32), hc, h, scratch)
    simulate._mix_lanes(np.array(pool, dtype=np.uint32)[:, np.newaxis], h, scratch)
    state_seeds, seeds = simulate._generate_state(h, 2)
    for t, index in enumerate(indices):
        child = np.random.SeedSequence(7, spawn_key=(index,))
        assert child.generate_state(2, np.uint64).tolist() == [
            int(state_seeds[t]),
            int(seeds[t]),
        ]


def test_first_raw_word_equals_pcg64_random_raw():
    # seeds below 2**32 hash one entropy word, the others two; the first
    # word makes a trial's uniform, six make a Haar draw
    drawn = np.random.default_rng(99).integers(0, 2**64, size=100_000, dtype=np.uint64)
    seeds = np.concatenate([np.array(_EDGE_SEEDS, dtype=np.uint64), drawn])
    raw = simulate._raw_words(*simulate._pcg64_seeded(seeds), 6)
    expected = np.array([np.random.PCG64(s).random_raw(6) for s in seeds.tolist()])
    assert np.array_equal(np.stack(raw, axis=1), expected)


# PCG64's 128-bit multiplier and a state that makes chosen output words
_PCG_MULT = simulate._PCG_MULT[0] << 64 | simulate._PCG_MULT[1]


def _state_before(first, second):
    """A PCG64 state whose next two output words are `first` and `second`:
    a state s with high word 0 outputs its low word, so step back from s1 =
    first and choose the increment that steps s1 to s2 = second."""
    inc = (second - first * _PCG_MULT) % 2**128
    state = (first - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def test_ziggurat_tables_equal_numpys():
    # Drive numpy's standard_normal with chosen words.  The word 1<<9 | i
    # has magnitude 1 on layer i, so its normal is WI[i]; a second word of
    # 0 makes the slow path's wedge test (uniform 0) return it too.  A word
    # on the fast path is the only one the draw takes, which a binary
    # search on the magnitude turns into KI[i].
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def draw(word):
        bit_generator.state = _state_before(word, 0)
        x = rng.standard_normal()
        return x, bit_generator.state["state"]["state"] == word

    wi = np.array([draw(1 << 9 | i)[0] for i in range(256)])
    ki = []
    for i in range(256):
        lo, hi = 0, 1 << 52  # the least magnitude that leaves the fast path
        while lo < hi:
            mid = (lo + hi) // 2
            if draw(mid << 9 | i)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    assert ki[1] == 0
    assert simulate._ZIGGURAT_KI.dtype == np.uint64
    assert simulate._ZIGGURAT_KI.tolist() == ki
    assert np.array_equal(simulate._ZIGGURAT_WI.view(np.uint64), wi.view(np.uint64))


@pytest.mark.parametrize("use_paper_gates", [False, True], ids=["oracle", "printed"])
@pytest.mark.parametrize("channel", range(9))
def test_stacked_overlap_and_norm_equal_the_per_state_oracle(channel, use_paper_gates):
    # 10**4 Haar inputs, each with a uniform outcome, recovered where the
    # outcome has a recovery and scored un-recovered where it has none
    phis = simulate._haar_inputs(*simulate._pcg64_seeded(trial_seeds(channel, 10_000)[0]))
    gates, _, recoveries, invertible = simulate.numeric_channel(channel, use_paper_gates)
    ks = np.random.default_rng(channel).integers(0, 9, size=len(phis))
    has_rec = invertible[ks]
    got = np.empty(len(phis))
    got[~has_rec] = simulate.overlap(phis[~has_rec], gates[ks[~has_rec]], None)
    k = ks[has_rec]
    got[has_rec] = simulate.overlap(phis[has_rec], gates[k], recoveries[k])
    expected = np.array(
        [
            overlap(v, gates[k], recoveries[k] if invertible[k] else None)
            for v, k in zip(phis, ks.tolist())
        ]
    )
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    # the norm alone, on unnormalized vectors of both kinds
    for v in (phis * 3.0 - 0.5j, (gates[ks] @ phis[..., np.newaxis])[..., 0]):
        nonzero = np.linalg.norm(v, axis=1) > 0
        v = v[nonzero]
        expected = np.array([row / np.linalg.norm(row) for row in v])
        assert np.array_equal(
            simulate.normalized(v).view(np.uint64), expected.view(np.uint64)
        )


def test_haar_generator_states_equal_pcg64_state():
    # one dict is yielded for every row, updated in place, so each state is
    # compared as it comes rather than collected
    state_seeds, _ = trial_seeds(2024, 400)
    seeds = np.concatenate([np.array(_EDGE_SEEDS, dtype=np.uint64), state_seeds])
    compared = 0
    for seeded, s in zip(simulate._pcg64_states(*simulate._pcg64_seeded(seeds)), seeds.tolist()):
        assert seeded == np.random.PCG64(s).state
        compared += 1
    assert compared == len(seeds)


def test_seeding_a_seed_block_equals_seeding_each_row():
    # a Haar batch seeds its (2, n) block of state and trial seeds in one pass
    block = trial_seeds(77, 300)
    block[:, :len(_EDGE_SEEDS)] = np.array(_EDGE_SEEDS, dtype=np.uint64)
    state, inc = simulate._pcg64_seeded(block)
    for r in range(2):
        row_state, row_inc = simulate._pcg64_seeded(block[r])
        for got, expected in zip((*state, *inc), (*row_state, *row_inc)):
            assert got.shape == block.shape
            assert np.array_equal(got[r], expected)


def test_a_fixed_input_batch_does_not_load_numpy_random():
    # the master's pool is computed on integers rather than taken from
    # numpy's SeedSequence, so a fixed-input batch adds no numpy.random import
    # (numpy 2 loads it lazily; numpy 1 loads it with numpy itself); nor
    # does a Haar batch none of whose rows leaves the ziggurat's fast path,
    # as the count of rows redrawn by numpy's generator shows
    script = (
        "import sys, numpy; loaded = ['numpy.random' in sys.modules]; "
        "from qutrit_teleport import simulate; "
        "states, redrawn = simulate._pcg64_states, []; "
        "simulate._pcg64_states = lambda s, i: redrawn.append(len(s[0])) or states(s, i); "
        "simulate.run_batch(8, 50, 2**70 + 11, input_state=(0.6, 0.8j, 0)); "
        "loaded.append('numpy.random' in sys.modules); "
        "simulate.run_batch(0, 3, 11, haar=True); "
        "loaded.append('numpy.random' in sys.modules); "
        "print(*loaded, sum(redrawn))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    bare, after_fixed, after_haar, slow_rows = proc.stdout.split()
    assert slow_rows == "0"
    assert after_fixed == bare
    assert after_haar == bare


def test_negative_master_seed_is_rejected():
    with pytest.raises(ValueError):
        trial_seeds(-1, 3)
    with pytest.raises(ValueError):
        run_batch(0, 3, master_seed=-1, haar=True)


def test_trial_count_past_32_bits_is_rejected():
    with pytest.raises(ValueError, match="trials"):
        run_batch(0, 2**32, master_seed=0, input_state=KET0)
    with pytest.raises(ValueError, match="trials"):
        trial_seeds(0, 2**32)


@pytest.mark.parametrize("master", [0, 2**64 - 1, 3**100])
def test_batches_raise_no_numpy_warnings(master):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for use_paper_gates in (False, True):
            run_batch(8, 200, master, haar=True, use_paper_gates=use_paper_gates)
            run_batch(
                8, 200, master, input_state=REPLAY_STATE, use_paper_gates=use_paper_gates
            )


@pytest.mark.parametrize(
    "master", [2**32 - 5, 2**63 + 2**32 + 9, 7**70], ids=["1-word", "2-words", "7-words"]
)
def test_lane_trial_seeds_equal_a_large_spawn(master):
    # 7**70 takes seven entropy words: three mix in past the pool size,
    # before the spawn index
    assert (7**70).bit_length() // 32 + 1 == 7
    n = 5000
    expected = np.array(
        [child.generate_state(2, np.uint64) for child in np.random.SeedSequence(master).spawn(n)]
    )
    seeds = trial_seeds(master, n)
    assert seeds.shape == (2, n) and seeds.dtype == np.uint64
    assert np.array_equal(seeds, expected.T)


@pytest.mark.parametrize("use_paper_gates", [False, True], ids=["oracle", "printed"])
@pytest.mark.parametrize("state", [REPLAY_STATE, KET0], ids=["dense", "ket0"])
@pytest.mark.parametrize("channel", [0, 8])
def test_fixed_batch_fidelities_equal_the_replay_of_every_trial(channel, state, use_paper_gates):
    # a one-row batch takes each outcome's overlap once and indexes it;
    # `batch_records` replays every row
    _, _, records = batch_records(channel, 2000, 60 + channel, state, False, use_paper_gates)
    assert len(records) == 2000


def test_batches_call_no_einsum(monkeypatch):
    # einsum has left the simulate path, born_weights included; the cached
    # channels are built first
    for use_paper_gates in (False, True):
        simulate.numeric_channel(8, use_paper_gates)

    def refuse(*args, **kwargs):
        raise AssertionError("einsum called")

    monkeypatch.setattr(np, "einsum", refuse)
    for use_paper_gates in (False, True):
        run_batch(8, 300, 3, haar=True, use_paper_gates=use_paper_gates)
        run_batch(8, 300, 3, input_state=REPLAY_STATE, use_paper_gates=use_paper_gates)
