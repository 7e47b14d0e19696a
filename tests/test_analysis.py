"""Gate profiles, completeness, probabilities, recovery, fidelity."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qutrit_teleport import analysis, engine, published, simulate
from qutrit_teleport.basis import entangled_state
from qutrit_teleport.analysis import (
    CLASS_INVERTIBLE,
    CLASS_PROP_UNITARY,
    CLASS_SINGULAR,
    channel_census,
    completeness,
    profile_gate,
    recovery,
)
from qutrit_teleport.exact import ExtScalar, rational
from qutrit_teleport.linalg import Operator3
from qutrit_teleport.simulate import (
    fidelity_after_recovery,
    outcome_distribution,
    outcome_probability,
    run_batch,
    run_batch_columns,
    run_trial,
)


def random_state(rng):
    raw = np.array([rng.gauss(0, 1) for _ in range(6)])
    v = raw[0::2] + 1j * raw[1::2]
    return v / np.linalg.norm(v)


def test_profile_of_scaled_identity_gate():
    p = profile_gate(engine.derive_gate(0, 0))
    assert p.frobenius_norm_sq == rational(1, 3)
    assert p.unitarity_deviation_sq == rational(64, 27)
    assert p.scaled_unitarity_deviation_sq == rational(0)
    assert p.rank == 3
    assert p.classification == CLASS_PROP_UNITARY


def test_profile_of_rank_one_gate():
    p = profile_gate(engine.derive_gate(1, 3))
    assert p.rank == 1
    assert p.classification == CLASS_SINGULAR


def test_profile_of_identity_is_unitary_calibration():
    p = profile_gate(Operator3.identity())
    assert p.unitarity_deviation_sq == rational(0)
    assert p.classification == CLASS_PROP_UNITARY


def test_profile_scale_covariance():
    g = engine.derive_gate(0, 8)
    base = profile_gate(g)
    for num, den in ((2, 1), (1, 3)):
        s = rational(num, den)
        scaled = profile_gate(g.scaled(s))
        assert scaled.frobenius_norm_sq == base.frobenius_norm_sq * s * s


def test_completeness_every_channel_exact():
    for i in range(9):
        assert completeness(i) == Operator3.identity()


def _completeness_loop(gates):
    """sum_k G_k^T G_k by the accumulation loop `completeness` replaced."""
    total = Operator3.zero()
    for g in gates:
        total = total + (g.dagger() @ g)
    return total


def _random_gate(rng):
    def entry():
        if rng.random() < 0.4:
            return ExtScalar()
        return ExtScalar(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)))

    return Operator3(tuple(tuple(entry() for _ in range(3)) for _ in range(3)))


@pytest.mark.parametrize("source", ["oracle", "printed", "random"])
def test_completeness_equals_the_summed_effects(monkeypatch, source):
    # the Gram matrix of the 27 stacked gate rows' columns, against the sum
    # of G^T G; printed and random gates give sums other than the identity
    if source == "printed":
        monkeypatch.setattr(engine, "derive_gate", published.paper_gate)
    elif source == "random":
        rng = random.Random(29)
        table = {(i, k): _random_gate(rng) for i in range(9) for k in range(9)}
        monkeypatch.setattr(engine, "derive_gate", lambda i, k: table[i, k])
    sums = [completeness(i) for i in range(9)]
    for i in range(9):
        assert sums[i] == _completeness_loop(engine.derive_gate(i, k) for k in range(9))
    assert (source == "oracle") == all(s == Operator3.identity() for s in sums)


def test_channel_census_counts():
    assert channel_census(0) == {
        CLASS_PROP_UNITARY: 1,
        CLASS_INVERTIBLE: 1,
        CLASS_SINGULAR: 7,
    }
    for i in range(1, 8):
        assert channel_census(i) == {
            CLASS_PROP_UNITARY: 0,
            CLASS_INVERTIBLE: 0,
            CLASS_SINGULAR: 9,
        }
    assert channel_census(8) == {
        CLASS_PROP_UNITARY: 0,
        CLASS_INVERTIBLE: 2,
        CLASS_SINGULAR: 7,
    }


def test_channel_profiles_profile_each_gate_under_its_key():
    for i in range(9):
        for k, p in enumerate(analysis.channel_profiles(i)):
            assert p == profile_gate(engine.derive_gate(i, k), i, k)


def test_all_81_gates_non_unitary():
    for i in range(9):
        for k in range(9):
            p = profile_gate(engine.derive_gate(i, k))
            assert not p.unitarity_deviation_sq.is_zero()
            assert float(p.frobenius_norm_sq) < 3.0


def test_outcome_probability_examples():
    rng = random.Random(2)
    for _ in range(5):
        phi = random_state(rng)
        assert outcome_probability(0, 0, phi) == pytest.approx(1 / 9, abs=1e-14)
    assert outcome_probability(0, 3, (1, 0, 0)) == 0.0


def test_probabilities_sum_to_one_for_random_states():
    rng = random.Random(40)
    for _ in range(100):
        phi = random_state(rng)
        i = rng.randrange(9)
        assert abs(outcome_distribution(i, phi).sum() - 1.0) < 1e-12


def test_unnormalized_state_rejected():
    with pytest.raises(ValueError):
        outcome_distribution(0, (1.0, 1.0, 0.0))


@pytest.mark.parametrize(
    "phi",
    [
        (float("nan"), 0.0, 0.0),
        (float("inf"), 0.0, 0.0),
        (complex(1.0, float("nan")), 0.0, 0.0),
        (float("nan"),) * 3,
    ],
    ids=["nan", "inf", "nan-imaginary", "all-nan"],
)
def test_non_finite_state_rejected(phi):
    # a NaN norm compares False with any tolerance, so it must be caught
    # explicitly rather than slip through a "norm too far from 1" test
    with pytest.raises(ValueError):
        outcome_distribution(0, phi)


@pytest.mark.parametrize("use_paper_gates", [False, True], ids=["oracle", "printed"])
def test_numeric_channel_is_the_float_view_of_the_exact_gates(use_paper_gates):
    # the recoveries are one stack, zero at singular outcomes, beside the
    # mask of the outcomes that have one
    for i in range(9):
        channel = simulate.numeric_channel(i, use_paper_gates)
        gates, effects, recoveries, invertible = channel
        assert gates.shape == recoveries.shape == (9, 3, 3)
        assert effects.shape == (9, 3)
        assert invertible.shape == (9,) and invertible.dtype == bool
        assert not any(a.flags.writeable for a in channel)
        for k in range(9):
            exact = (
                published.paper_gate(i, k)
                if use_paper_gates
                else engine.derive_gate(i, k)
            )
            assert np.array_equal(gates[k], simulate.gate_matrix(exact))
            assert np.allclose(np.diag(effects[k]), gates[k].T @ gates[k], atol=1e-15)
            rec = recovery(exact)
            assert invertible[k] == (rec is not None)
            if rec is None:
                assert not recoveries[k].any()
            else:
                assert np.array_equal(recoveries[k], simulate.gate_matrix(rec))


def test_numeric_channel_has_one_cache_entry_per_channel():
    # positional-only arguments: a keyword spelling would be a second
    # cache key for the same channel
    with pytest.raises(TypeError):
        simulate.numeric_channel(0, use_paper_gates=False)
    with pytest.raises(TypeError):
        simulate.numeric_channel(i=0, use_paper_gates=False)
    simulate.numeric_channel.cache_clear()
    run_trial(5, (0.6, 0.48j, 0.64), 3)
    run_batch(5, 20, 3, input_state=(0.6, 0.48j, 0.64))
    run_batch(5, 20, 3, haar=True)
    analysis.expected_fidelities(5, (1, 0, 0))
    fidelity_after_recovery(5, 0, (0.6, 0.48j, 0.64))
    info = simulate.numeric_channel.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_numeric_channel_checks_its_flag_by_name():
    # 1 hashes like True, so an unchecked flag would build a second entry
    with pytest.raises(TypeError) as raised:
        simulate.numeric_channel(0, 1)
    assert str(raised.value) == "use_paper_gates must be a bool, not int"
    with pytest.raises(TypeError, match="use_paper_gates must be a bool, not str"):
        simulate.numeric_channel(0, "no")
    for a, b in zip(simulate.numeric_channel(0, np.True_), simulate.numeric_channel(0, True)):
        assert np.array_equal(a, b)


def test_a_numpy_bool_flag_shares_the_channel_cache_entry():
    # the cache is typed, so np.True_ reaching numeric_channel unchecked
    # would key a second build of the same channel
    simulate.numeric_channel.cache_clear()
    run_batch(0, 10, 1, haar=True, use_paper_gates=True)
    run_batch(0, 10, 1, haar=np.True_, use_paper_gates=np.True_)
    run_batch_columns(0, 10, 1, haar=True, use_paper_gates=np.True_)
    run_trial(0, (1, 0, 0), 3, np.True_)
    assert simulate.numeric_channel.cache_info().currsize == 1


def _is_monomial(g):
    """At most one nonzero entry per row and per column, over the exact field."""
    nonzero = [[not g.entry(r, c).is_zero() for c in range(3)] for r in range(3)]
    return all(sum(row) <= 1 for row in nonzero) and all(sum(col) <= 1 for col in zip(*nonzero))


def test_every_gate_is_monomial():
    # all 81 derived and 81 printed gates, so every effect is diagonal and
    # every numeric channel builds
    gates = [engine.derive_gate(i, k) for i in range(9) for k in range(9)]
    gates += [published.paper_gate(i, k) for i in range(9) for k in range(9)]
    assert len(gates) == 162 and all(map(_is_monomial, gates))
    for i in range(9):
        for use_paper_gates in (False, True):
            simulate.numeric_channel(i, use_paper_gates)


@pytest.fixture
def fresh_numeric_channels():
    simulate.numeric_channel.cache_clear()
    yield
    simulate.numeric_channel.cache_clear()


def test_a_dense_gate_is_refused_by_its_channel_and_outcome(monkeypatch, fresh_numeric_channels):
    # one doctored gate with two nonzero entries in a row; its effect would
    # have an off-diagonal entry, which the (9, 3) diagonals cannot hold
    derive_gate = engine.derive_gate
    dense = Operator3.identity() + Operator3(((ExtScalar(), rational(1, 2), ExtScalar()),) * 3)

    def doctored(i, k):
        return dense if (i, k) == (4, 6) else derive_gate(i, k)

    monkeypatch.setattr(engine, "derive_gate", doctored)
    assert not _is_monomial(dense)
    with pytest.raises(ValueError) as raised:
        simulate.numeric_channel(4, False)
    assert str(raised.value) == "channel 4, outcome 6: gate is not monomial"
    simulate.numeric_channel(3, False)  # the other channels still build


@pytest.mark.parametrize("use_paper_gates", [False, True], ids=["oracle", "printed"])
def test_effect_diagonals_equal_the_einsum_effects(use_paper_gates):
    # the (9, 3) diagonals against the (9, 3, 3) einsum stack the package
    # stored before, bit for bit, and their row sums against its trace
    for i in range(9):
        gates, effects, _, _ = simulate.numeric_channel(i, use_paper_gates)
        stack = effects_einsum(gates)
        off_diagonal = stack[:, ~np.eye(3, dtype=bool)]
        assert not off_diagonal.any()
        assert np.array_equal(_bits(effects), _bits(np.diagonal(stack, axis1=1, axis2=2)))
        assert np.array_equal(
            _bits(effects.sum(axis=1)), _bits(stack.trace(axis1=1, axis2=2))
        )


def test_recovery_examples():
    assert recovery(engine.derive_gate(0, 0)) == Operator3.identity()
    assert recovery(engine.derive_gate(0, 5)) is None  # rank 2
    assert recovery(engine.derive_gate(4, 4)) is None  # rank 2
    assert recovery(engine.derive_gate(1, 3)) is None  # rank 1


def test_recovery_is_exact_left_inverse_up_to_scale():
    for i, k in ((0, 0), (0, 8), (8, 0), (8, 8)):
        g = engine.derive_gate(i, k)
        r = recovery(g)
        assert r is not None
        product = r @ g
        s = product.entry(0, 0)
        assert not s.is_zero()
        assert product == Operator3.identity().scaled(s)


def test_fidelity_after_recovery():
    rng = random.Random(77)
    assert fidelity_after_recovery(0, 0, (1, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    for i, k in ((0, 0), (0, 8), (8, 0), (8, 8)):
        for _ in range(25):
            phi = random_state(rng)
            assert fidelity_after_recovery(i, k, phi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_no_recovery_marker_for_singular_gate():
    assert fidelity_after_recovery(0, 1, (1, 0, 0)) is None


def test_fidelity_zero_probability_outcome_rejected():
    with pytest.raises(ValueError):
        fidelity_after_recovery(0, 3, (1, 0, 0))


def test_fidelity_is_the_shared_overlap_with_recovery():
    phi = (0.6, 0.48j, 0.64)
    v = simulate.as_state(phi)
    for i in range(9):
        gates, effects, recoveries, invertible = simulate.numeric_channel(i, False)
        for k in np.flatnonzero(simulate.born_weights(effects, v) > 1e-15):
            expected = None
            if invertible[k]:
                expected = simulate.overlap(v, gates[k], recoveries[k])
            assert fidelity_after_recovery(i, int(k), phi) == expected


def test_fidelity_validates_its_state_once(monkeypatch):
    calls = []
    as_state = simulate.as_state
    monkeypatch.setattr(simulate, "as_state", lambda phi: calls.append(phi) or as_state(phi))
    fidelity_after_recovery(0, 0, (1, 0, 0))
    assert len(calls) == 1


def test_expected_fidelities_reports_both_figures():
    out = analysis.expected_fidelities(0, (1, 0, 0))
    assert out["mean_fidelity_invertible"] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < out["mean_fidelity_all_outcomes"] <= 1.0 + 1e-12
    assert out["invertible_mass"] == pytest.approx(1 / 9 + 2 / 9, abs=1e-12)


@pytest.mark.parametrize("channel", [0, 1, 8])
@pytest.mark.parametrize("phi", [(1, 0, 0), (0.6, 0.8j, 0)])
def test_expected_fidelities_are_plain_floats(channel, phi):
    # numpy scalars would leak into JSON writers and reprs downstream
    figures = analysis.expected_fidelities(channel, phi).values()
    assert all(type(x) is float for x in figures if x is not None)


def test_field_cbrt_monomials():
    # normalization helper: cube roots inside the field when they exist
    assert analysis._field_cbrt(rational(27)) == rational(3)
    assert analysis._field_cbrt(rational(8, 27)) == rational(2, 3)
    two_sqrt2 = ExtScalar(q2=Fraction(2))
    assert analysis._field_cbrt(two_sqrt2) == ExtScalar(q2=Fraction(1))
    assert analysis._field_cbrt(rational(2)) is None
    assert analysis._field_cbrt(ExtScalar(q2=Fraction(1))) is None


def test_icbrt_is_exact_beyond_float_precision():
    n = 10**20 + 1
    assert analysis._icbrt(n**3) == n
    assert analysis._icbrt(n**3 + 1) is None
    assert analysis._icbrt(n**3 - 1) is None
    assert [analysis._icbrt(x) for x in (0, 1, 7, 8, 9, 26, 27)] == [0, 1, None, 2, None, None, 3]
    assert analysis._icbrt(-8) is None


# -- why the census comes out as it does -------------------------------------
#
# With M_i the 3x3 coefficient grid of Psi_i, every gate is
# G_ik = M_i^T M_k^T.  The census follows from three exact facts.


def _grids():
    return [entangled_state(i) for i in range(9)]


def test_theorem_outcome_completeness_from_the_state_grids():
    # sum_k M_k A M_k^T = tr(A) I for every matrix unit A, hence for every A;
    # with A = M_i M_i^T (trace 1) this is sum_k G_ik^T G_ik = I
    grids = _grids()
    identity = Operator3.identity()
    for r in range(3):
        for c in range(3):
            a = Operator3.unit(r, c)
            total = Operator3.zero()
            for m in grids:
                total = total + m @ a @ m.dagger()
            assert total == identity.scaled(a.trace())
    for i, m_i in enumerate(grids):
        a = m_i @ m_i.dagger()
        assert a.trace() == rational(1)
        total = Operator3.zero()
        for k in range(9):
            g = engine.derive_gate(i, k)
            total = total + g.dagger() @ g
        assert total == identity


def test_theorem_gate_rank_bounded_by_schmidt_ranks():
    schmidt = [m.rank() for m in _grids()]
    assert schmidt == [3, 2, 2, 2, 2, 2, 2, 2, 3]
    for i in range(9):
        for k in range(9):
            assert engine.derive_gate(i, k).rank() <= min(schmidt[i], schmidt[k])


def test_theorem_invertible_gates_need_two_full_schmidt_rank_states():
    # only the singlet and the octet have Schmidt rank 3, so the invertible
    # gates sit exactly at (i, k) in {0, 8}^2; only the singlet is maximally
    # entangled (M M^T = I/3), and only (0, 0) is proportional to a unitary
    invertible = {
        (i, k) for i in range(9) for k in range(9) if engine.derive_gate(i, k).rank() == 3
    }
    assert invertible == {(0, 0), (0, 8), (8, 0), (8, 8)}
    prop_unitary = {
        (i, k)
        for i in range(9)
        for k in range(9)
        if profile_gate(engine.derive_gate(i, k)).classification == CLASS_PROP_UNITARY
    }
    assert prop_unitary == {(0, 0)}
    third = Operator3.identity().scaled(rational(1, 3))
    maximal = [i for i, m in enumerate(_grids()) if m @ m.dagger() == third]
    assert maximal == [0]


@pytest.mark.parametrize("use_paper_gates", [False, True], ids=["oracle", "printed"])
def test_stacked_born_weights_equal_the_per_row_call(use_paper_gates):
    rng = random.Random(17)
    kets = np.eye(3, dtype=complex)
    stack = np.array([*kets, *(random_state(rng) for _ in range(400))])
    for channel in range(9):
        effects = simulate.numeric_channel(channel, use_paper_gates).effects
        weights = simulate.born_weights(effects, stack)
        assert weights.shape == (len(stack), 9)
        for row, v in zip(weights, stack):
            assert np.array_equal(row, simulate.born_weights(effects, v))


# -- born_weights against two oracles -------------------------------------------


def effects_einsum(gates):
    """The effects G^T G as the (9, 3, 3) stack the package stored before it
    kept only their diagonals."""
    return np.einsum("kji,kjl->kil", gates, gates)


def born_weights_einsum(gates, v):
    """The Born rule as the package wrote it before the written order: a
    three-operand einsum over the dense effects, clipped at zero."""
    effects = effects_einsum(gates)
    return np.clip(np.einsum("...i,kij,...j->...k", v.conj(), effects, v).real, 0.0, None)


def born_weights_written(effects, v):
    """The written order in plain Python floats, one row at a time: per
    effect diagonal, from +0, add ``(a_i * E_ii) * a_i + (b_i * E_ii) * b_i``
    for i = 0, 1, 2, zero entries included, then clip."""
    effects = effects.tolist()
    rows = []
    for row in np.atleast_2d(v).tolist():
        a, b = [z.real for z in row], [z.imag for z in row]
        weights = []
        for e in effects:
            acc = 0.0
            for i in range(3):
                acc += (a[i] * e[i]) * a[i] + (b[i] * e[i]) * b[i]
            weights.append(acc if acc >= 0.0 else 0.0)
        rows.append(weights)
    return np.array(rows).reshape(v.shape[:-1] + (len(effects),))


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_born_weights_follow_the_written_order_on_random_diagonals(sparse):
    # random nonnegative diagonals over many magnitudes, with about half of
    # their entries zero when sparse; rows of any norm
    rng = np.random.default_rng(19 + sparse)
    effects = 10.0 ** rng.uniform(-3, 3, (9, 3))
    if sparse:
        effects[rng.random((9, 3)) < 0.5] = 0.0
    stack = rng.standard_normal((10_000, 3)) + 1j * rng.standard_normal((10_000, 3))
    stack[:3] = np.eye(3)
    assert np.array_equal(
        _bits(simulate.born_weights(effects, stack)), _bits(born_weights_written(effects, stack))
    )
    for v in stack[:50]:
        assert np.array_equal(
            _bits(simulate.born_weights(effects, v)), _bits(born_weights_written(effects, v))
        )


def test_born_weights_share_repeated_terms_and_keep_an_empty_outcome():
    # diagonals whose outcomes repeat one (i, value) entry, so the term
    # computed once serves several rows, and whose outcome 4 is all zero,
    # so its row stays at +0
    rng = np.random.default_rng(29)
    effects = np.zeros((9, 3))
    effects[:, 1] = 0.25
    effects[::2, 0] = 1.5
    effects[1::3, 2] = rng.random(3)
    effects[[0, 3, 8], 2] = 2.0
    effects[7] = rng.random(3)
    effects[4] = 0.0
    stack = rng.standard_normal((3000, 3)) + 1j * rng.standard_normal((3000, 3))
    stack[:3] = np.eye(3)
    weights = simulate.born_weights(effects, stack)
    assert weights.shape == (len(stack), 9)
    assert np.array_equal(_bits(weights), _bits(born_weights_written(effects, stack)))
    assert np.array_equal(_bits(weights[:, 4]), np.zeros(len(stack), dtype=np.uint64))
    for v in stack[:50]:
        assert np.array_equal(
            _bits(simulate.born_weights(effects, v)), _bits(born_weights_written(effects, v))
        )


@pytest.mark.parametrize("shape", [(9, 3, 3), (9,), (9, 4), (3, 9)])
def test_born_weights_refuse_effects_that_are_not_diagonals(shape):
    with pytest.raises(ValueError) as raised:
        simulate.born_weights(np.ones(shape), np.array([1, 0, 0], dtype=complex))
    assert str(raised.value) == f"effects must be (count, 3) diagonals, not shape {shape}"


@pytest.mark.parametrize("use_paper_gates", [False, True], ids=["oracle", "printed"])
def test_born_weights_equal_einsum_on_the_package_effects(use_paper_gates):
    # the diagonals' written order against the einsum over the dense
    # effects, whose off-diagonal zeros it never reads, and against the
    # plain-float oracle
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((20_000, 6))
    stack = simulate.normalized(raw[:, 0::2] + 1j * raw[:, 1::2])
    stack = np.concatenate([np.eye(3, dtype=complex), stack])
    for channel in range(9):
        gates, effects, _, _ = simulate.numeric_channel(channel, use_paper_gates)
        weights = simulate.born_weights(effects, stack)
        assert np.array_equal(_bits(weights), _bits(born_weights_einsum(gates, stack)))
        assert np.array_equal(
            _bits(weights[:300]), _bits(born_weights_written(effects, stack[:300]))
        )


def expected_fidelities_loop(i, phi):
    """`expected_fidelities` as one overlap call per outcome, the loop the
    package ran before it stacked the overlaps."""
    v = simulate.as_state(phi)
    gates, effects, recoveries, invertible = simulate.numeric_channel(i, False)
    p = simulate.born_weights(effects, v)
    inv_weight = inv_acc = all_acc = 0.0
    for k in range(9):
        if p[k] <= 1e-15:
            continue
        fid = simulate.overlap(v, gates[k], recoveries[k] if invertible[k] else None)
        all_acc += p[k] * fid
        if invertible[k]:
            inv_weight += p[k]
            inv_acc += p[k] * fid
    return {
        "invertible_mass": float(inv_weight),
        "mean_fidelity_invertible": float(inv_acc / inv_weight) if inv_weight > 0 else None,
        "mean_fidelity_all_outcomes": float(all_acc / p.sum()),
    }


def test_expected_fidelities_equal_the_per_outcome_loop():
    rng = random.Random(29)
    states = [(1, 0, 0), (0, 1, 0), (0.6, 0.48j, 0.64)]
    states += [random_state(rng) for _ in range(1000 - len(states))]
    for channel in range(9):
        for phi in states:
            # repr tells every float apart bit for bit
            assert repr(analysis.expected_fidelities(channel, phi)) == repr(
                expected_fidelities_loop(channel, phi)
            )
