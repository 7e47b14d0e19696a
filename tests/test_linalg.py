"""The exact 3x3 operator type and the flat index convention."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qutrit_teleport import engine
from qutrit_teleport.basis import entangled_state
from qutrit_teleport.exact import INV_SQRT6, ONE, ZERO, ExtScalar, _dot, rational
from qutrit_teleport.linalg import Operator3
from test_exact import _FractionScalar
from qutrit_teleport.published import paper_gate, paper_premeasure
from qutrit_teleport.render import premeasure_text
from qutrit_teleport.simulate import gate_matrix


def random_operator(rng):
    return Operator3(
        tuple(
            tuple(
                ExtScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for _ in range(3)
            )
            for _ in range(3)
        )
    )


def test_basis_tensor_hits_flat_index_zero():
    # |0>|0> is the matrix unit E_00, which sits at flat index 0
    amps = Operator3.unit(0, 0).flat()
    assert amps[0] == ONE
    assert all(a.is_zero() for a in amps[1:])


def test_flat_index_convention_pairs():
    # |1>|2> lands at 3*1 + 2 = 5
    amps = Operator3.unit(1, 2).flat()
    assert [i for i, a in enumerate(amps) if not a.is_zero()] == [5]
    # Psi_6 = (|2>|1> + |1>|2>)/sqrt2 occupies flat indices 5 and 7
    amps = entangled_state(6).flat()
    assert [i for i, a in enumerate(amps) if not a.is_zero()] == [5, 7]


def test_partial_inner_singlet_channel_example():
    # projecting the singlet-channel composite onto the singlet leaves
    # (1/3) c_b |b>; delta_qt against the zero gate is that projection
    assert engine.delta_qt(0, 0, Operator3.zero()) == Operator3.identity().scaled(
        rational(1, 3)
    )


def test_extract_gate_examples():
    # a pre-measurement grid is read as its gate with no extraction step:
    # where the source prints a state and its gate consistently, the two
    # transcriptions (built from different term conventions) are equal
    for k in (0, 1, 2, 4, 5, 7):
        assert paper_premeasure(0, k) == paper_gate(0, k)
    grid = paper_premeasure(0, 1)
    assert grid.entry(0, 1) == INV_SQRT6
    assert grid.entry(1, 0) == INV_SQRT6
    assert grid.entry(2, 2).is_zero()


def test_matmul_associativity_exact():
    rng = random.Random(7)
    for _ in range(40):
        x, y, z = (random_operator(rng) for _ in range(3))
        assert (x @ y) @ z == x @ (y @ z)


def test_frobenius_is_trace_of_transpose_product():
    rng = random.Random(5)
    for _ in range(20):
        x, y = random_operator(rng), random_operator(rng)
        assert x.frobenius(y) == (x.dagger() @ y).trace()


def test_from_terms_accumulates_weights():
    g = Operator3.from_terms(INV_SQRT6, ((0, 1, 1), (0, 1, 2), (2, 0, -1)))
    assert g.entry(0, 1) == INV_SQRT6 * 3
    assert g.entry(2, 0) == -INV_SQRT6
    assert sum(1 for r in range(3) for c in range(3) if not g.entry(r, c).is_zero()) == 2
    assert Operator3.from_terms(ONE, ((1, 2, 1),)) == Operator3.unit(1, 2)


def test_apply_on_basis_kets_returns_columns():
    # m acting on |j> (column j of E_jj) is column j of m
    rng = random.Random(3)
    m = random_operator(rng)
    for j in range(3):
        product = m @ Operator3.unit(j, j)
        for r in range(3):
            for c in range(3):
                assert product.entry(r, c) == (m.entry(r, j) if c == j else ZERO)


def test_dagger_and_products():
    anti = Operator3(
        (
            (ZERO, INV_SQRT6, ZERO),
            (-INV_SQRT6, ZERO, ZERO),
            (ZERO, ZERO, ZERO),
        )
    )
    assert anti.dagger() == Operator3(
        (
            (ZERO, -INV_SQRT6, ZERO),
            (INV_SQRT6, ZERO, ZERO),
            (ZERO, ZERO, ZERO),
        )
    )
    rng = random.Random(17)
    m = random_operator(rng)
    assert Operator3.identity() @ m == m

    scalar_gate = Operator3.identity().scaled(rational(1, 3))
    assert scalar_gate.dagger() @ scalar_gate == Operator3.identity().scaled(
        rational(1, 9)
    )


def test_identity_is_one_shared_constant():
    assert Operator3.identity() is Operator3.identity()
    built = Operator3.from_terms(ONE, ((0, 0, 1), (1, 1, 1), (2, 2, 1)))
    assert Operator3.identity() == built
    assert hash(Operator3.identity()) == hash(built)


def test_an_operator_is_immutable_and_copies_and_pickles_as_its_entries():
    import copy
    import pickle

    op = Operator3.unit(2, 1)
    for change in (lambda: setattr(op, "rows", ()), lambda: delattr(op, "rows")):
        with pytest.raises(AttributeError, match="immutable"):
            change()
    assert pickle.loads(pickle.dumps(op)) == op == copy.deepcopy(op)
    assert hash(op) == hash((op.rows,))
    assert repr(op) == f"Operator3(rows={op.rows!r})"
    assert op != op.rows and op.__eq__(op.rows) is NotImplemented


def test_linear_form_zero_iff_all_components_zero():
    # a grid row is the linear form of one receiver amplitude; it is
    # omitted from the rendering exactly when all three coefficients vanish
    assert premeasure_text(Operator3.zero()) == "0"
    assert premeasure_text(Operator3.unit(2, 1)) == "[(1)·c1]|2⟩"


def test_linear_form_evaluation_matches_numpy():
    # row b of a grid, evaluated at (c0, c1, c2), is amplitude b of G|phi>
    rng = random.Random(23)
    for _ in range(50):
        g = random_operator(rng)
        c = np.array([rng.random() + 1j * rng.random() for _ in range(3)])
        direct = gate_matrix(g) @ c
        for b in range(3):
            expected = sum(float(g.entry(b, j)) * c[j] for j in range(3))
            assert direct[b] == pytest.approx(expected, abs=1e-14)


def test_ket_dimension_validation():
    with pytest.raises(ValueError):
        Operator3(((ONE, ZERO),) * 3)
    with pytest.raises(ValueError):
        Operator3(((ONE, ZERO, ZERO),) * 2)


_HUGE = 2**80
_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.builds(Fraction, st.integers(-_HUGE, _HUGE), st.integers(1, _HUGE)),
)
_elements = st.one_of(
    st.just(ZERO),
    st.builds(ExtScalar, _rationals),
    st.builds(
        lambda q, surd: ExtScalar(**{surd: q}), _rationals, st.sampled_from(["q2", "q3", "q6"])
    ),
    st.builds(ExtScalar, _rationals, _rationals, _rationals, _rationals),
)


def _reference(x):
    return _FractionScalar(x.q1, x.q2, x.q3, x.q6)


@given(st.lists(st.tuples(_elements, _elements), max_size=9))
def test_dot_equals_the_sum_of_the_products(pairs):
    # the reference is the four-Fraction arithmetic of test_exact.py, which
    # writes out its own multiplication table: ExtScalar.__mul__ is _dot
    got = _dot([x for x, _ in pairs], [y for _, y in pairs])
    expected = _FractionScalar(0, 0, 0, 0)
    for x, y in pairs:
        expected = expected + _reference(x) * _reference(y)
    assert (got.q1, got.q2, got.q3, got.q6) == expected.q
    n1, n2, n3, n6, d = got._n
    assert d > 0 and math.gcd(n1, n2, n3, n6, d) == 1  # canonical form


_operators = st.lists(_elements, min_size=9, max_size=9).map(
    lambda xs: Operator3((tuple(xs[0:3]), tuple(xs[3:6]), tuple(xs[6:9])))
)


@given(_operators | _operators.map(lambda m: Operator3((m.rows[0], m.rows[1], m.rows[0]))))
def test_det_and_adjugate_equal_the_written_out_cofactor_formulas(m):
    r = [[_reference(x) for x in row] for row in m.rows]

    def minor(a, b, c, d):
        return r[a][c] * r[b][d] - r[a][d] * r[b][c]

    det = r[0][0] * minor(1, 2, 1, 2) - r[0][1] * minor(1, 2, 0, 2) + r[0][2] * minor(1, 2, 0, 1)
    assert _reference(m.det()).q == det.q
    adj, det_too = m.adjugate_and_det()
    assert det_too == m.det()
    for i in range(3):
        for j in range(3):
            # adjugate entry (i, j) is the signed minor of (j, i)
            a, b = [x for x in range(3) if x != j]
            c, d = [x for x in range(3) if x != i]
            cofactor = minor(a, b, c, d) if (i + j) % 2 == 0 else -minor(a, b, c, d)
            assert _reference(adj.entry(i, j)).q == cofactor.q
