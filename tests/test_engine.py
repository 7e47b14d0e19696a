"""Gate derivation: the 3x3 product, the projection residual, resummation."""

from fractions import Fraction

import pytest

from qutrit_teleport import engine
from qutrit_teleport.basis import entangled_state
from qutrit_teleport.exact import INV_SQRT6, ONE, ZERO, ExtScalar, rational
from qutrit_teleport.linalg import Operator3
from qutrit_teleport.published import paper_gate

INV_3SQRT2 = ExtScalar(q2=Fraction(1, 6))
INV_2SQRT3 = ExtScalar(q3=Fraction(1, 6))


def _resummed_composite(i, flat, j):
    """Coefficient of c_j in composite amplitude `flat`, resummed over the
    nine outcomes: sum_k Psi_k[3*a1 + a2] * G_ik[b][j]."""
    a1, a2, b = flat // 9, (flat // 3) % 3, flat % 3
    acc = ZERO
    for k in range(9):
        acc = acc + entangled_state(k).entry(a1, a2) * engine.derive_gate(
            i, k
        ).entry(b, j)
    return acc


def test_compose_specializes_to_single_term_input():
    # specialize (c0, c1, c2) = (1, 0, 0): amplitude 1/sqrt3 at |0,m,m>
    for flat in range(27):
        value = float(_resummed_composite(0, flat, 0))
        a1, rest = divmod(flat, 9)
        a2, b = divmod(rest, 3)
        if a1 == 0 and a2 == b:
            assert value == pytest.approx(0.5773502691896258, abs=1e-15)
        else:
            assert value == 0.0


def test_compose_norm_quadratic_form_is_identity():
    # the composite's norm, as a quadratic form in (c0, c1, c2), splits over
    # the orthonormal outcomes into sum_k sum_b G_ik[b][j] G_ik[b][l]; it
    # must be c0^2 + c1^2 + c2^2 for every channel
    for i in range(9):
        gates = [engine.derive_gate(i, k) for k in range(9)]
        for j in range(3):
            for l in range(3):
                acc = ZERO
                for g in gates:
                    for b in range(3):
                        acc = acc + g.entry(b, j) * g.entry(b, l)
                assert acc == (ONE if j == l else ZERO)


def test_premeasure_examples():
    # a pre-measurement state is its gate's grid: row b holds the
    # coefficients of (c0, c1, c2) on |b>
    s = engine.derive_gate(0, 8)
    assert s.entry(0, 0) == INV_3SQRT2 * -2
    assert s.entry(1, 1) == INV_3SQRT2
    assert s.entry(2, 2) == INV_3SQRT2

    s = engine.derive_gate(1, 1)
    assert s.entry(0, 0) == rational(1, 2)
    assert s.entry(1, 1) == rational(1, 2)
    assert all(s.entry(2, j).is_zero() for j in range(3))

    # the printed counterpart of this one omits its last term; the oracle
    # carries all three
    s = engine.derive_gate(8, 8)
    assert s.entry(0, 0) == rational(4, 6)
    assert s.entry(1, 1) == rational(1, 6)
    assert s.entry(2, 2) == rational(1, 6)


def test_derive_gate_examples():
    assert engine.derive_gate(0, 0) == Operator3.identity().scaled(rational(1, 3))

    g = engine.derive_gate(0, 5)
    assert g.entry(0, 2) == INV_SQRT6
    assert g.entry(2, 0) == -INV_SQRT6
    assert sum(1 for r in range(3) for c in range(3) if not g.entry(r, c).is_zero()) == 2

    g = engine.derive_gate(1, 3)
    assert g.entry(0, 1) == rational(-1, 2)
    assert sum(1 for r in range(3) for c in range(3) if not g.entry(r, c).is_zero()) == 1


def test_gate_is_transposed_product_of_state_grids():
    for i in range(9):
        m_i = entangled_state(i)
        for k in range(9):
            m_k = entangled_state(k)
            assert engine.derive_gate(i, k) == m_i.dagger() @ m_k.dagger()


def test_derive_all_shape_and_order():
    table = engine.derive_all()
    assert len(table) == 9
    assert all(len(row) == 9 for row in table)
    for i, row in enumerate(table):
        for k, gate in enumerate(row):
            assert gate is engine.derive_gate(i, k)


def test_residual_zero_for_all_oracle_gates():
    for i in range(9):
        for k in range(9):
            assert engine.delta_qt(i, k, engine.derive_gate(i, k)).is_zero()


def test_residual_with_printed_gate_0_3():
    # the printed gate flips the sign of the second diagonal term relative
    # to its own pre-measurement state; the residual is (2/sqrt6) c2 |2>
    delta = engine.delta_qt(0, 3, paper_gate(0, 3))
    for b in range(3):
        for j in range(3):
            if (b, j) != (2, 2):
                assert delta.entry(b, j).is_zero()
    assert delta.entry(2, 2) == ExtScalar(q6=Fraction(1, 3))


def test_residual_detects_a_transposed_gate():
    # G_ik^T differs from G_ik for 50 of the 81 pairs; the projection
    # route must see every one of them
    differing = 0
    for i in range(9):
        for k in range(9):
            gate = engine.derive_gate(i, k)
            if gate.dagger() != gate:
                differing += 1
                assert not engine.delta_qt(i, k, gate.dagger()).is_zero()
    assert differing == 50


def test_reconstruction_identity_every_channel():
    for i in range(9):
        residual = engine.reconstruction_residual(i)
        assert len(residual) == 27
        assert all(e.is_zero() for row in residual for e in row)


def test_channel_range_errors():
    with pytest.raises(ValueError):
        engine.reconstruction_residual(9)
    with pytest.raises(ValueError):
        engine.delta_qt(0, -1, Operator3.zero())
    with pytest.raises(ValueError):
        engine.derive_gate(11, 0)


def test_derivation_is_deterministic():
    first = engine.derive_all()
    engine.derive_gate.cache_clear()
    second = engine.derive_all()
    assert first == second
