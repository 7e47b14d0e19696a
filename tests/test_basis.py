"""The entangled basis: construction, orthonormality, inversion rows."""

import random
from fractions import Fraction

import pytest

from qutrit_teleport import basis
from qutrit_teleport.basis import (
    FAMILY_BELL_LIKE,
    FAMILY_OCTET,
    FAMILY_SINGLET,
    entangled_state,
    expand_product,
    family_of,
    gram_matrix,
    projector_sum,
    reconstruct_product,
)
from qutrit_teleport.exact import INV_SQRT2, INV_SQRT3, ONE, ZERO, ExtScalar
from qutrit_teleport.linalg import Operator3

INV_SQRT6 = ExtScalar(q6=Fraction(1, 6))


def test_singlet_amplitudes():
    amps = entangled_state(0).flat()
    for flat in range(9):
        expected = INV_SQRT3 if flat in (0, 4, 8) else ZERO
        assert amps[flat] == expected
    assert entangled_state(0) == Operator3.identity().scaled(INV_SQRT3)


def test_fourth_state_amplitudes():
    amps = entangled_state(3).flat()
    assert amps[4] == -INV_SQRT2
    assert amps[8] == INV_SQRT2
    assert sum(1 for a in amps if not a.is_zero()) == 2


def test_octet_amplitudes():
    amps = entangled_state(8).flat()
    weights = [-2, 0, 0, 0, 1, 0, 0, 0, 1]
    for flat, w in enumerate(weights):
        assert amps[flat] == INV_SQRT6 * w


def test_families():
    assert family_of(0) == FAMILY_SINGLET
    for i in range(1, 8):
        assert family_of(i) == FAMILY_BELL_LIKE
    assert family_of(8) == FAMILY_OCTET


def test_index_range():
    with pytest.raises(ValueError):
        entangled_state(9)
    with pytest.raises(ValueError):
        entangled_state(-1)
    for index in (-1, 9):
        with pytest.raises(ValueError, match=f"index {index} out of range 0..8"):
            family_of(index)


def test_each_state_normalized_exactly():
    for i in range(9):
        assert sum((a * a for a in entangled_state(i).flat()), ZERO) == ONE


def test_gram_matrix_is_identity_exactly():
    gram = gram_matrix()
    for a in range(9):
        for b in range(9):
            assert gram[a][b] == (ONE if a == b else ZERO)


def test_gram_specific_entries():
    gram = gram_matrix()
    assert gram[0][8] == ZERO  # (-2 + 1 + 1) / sqrt18
    assert gram[3][3] == ONE


def test_projector_completeness():
    total = projector_sum()
    for r in range(9):
        for c in range(9):
            assert total[r][c] == (ONE if r == c else ZERO)


def _projector_loop(grids):
    """sum_i |Psi_i><Psi_i| by the accumulation loop `projector_sum` replaced."""
    out = [[ZERO] * 9 for _ in range(9)]
    for grid in grids:
        amps = grid.flat()
        for r in range(9):
            for c in range(9):
                out[r][c] = out[r][c] + amps[r] * amps[c]
    return tuple(tuple(row) for row in out)


def _random_grid(rng):
    def entry():
        if rng.random() < 0.4:
            return ZERO
        return ExtScalar(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)))

    return Operator3(tuple(tuple(entry() for _ in range(3)) for _ in range(3)))


@pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["basis", "random1", "random2", "random3"])
def test_gram_and_projector_sums_equal_their_loops(monkeypatch, seed):
    # the Gram sums of the amplitude table's rows and columns, against the
    # pairwise Frobenius products and the projector loop, on the basis and
    # on random grids, where neither sum is the identity
    grids = [entangled_state(i) for i in range(9)]
    if seed is not None:
        rng = random.Random(seed)
        grids = [_random_grid(rng) for _ in range(9)]
        monkeypatch.setattr(basis, "entangled_state", grids.__getitem__)
    assert gram_matrix() == tuple(tuple(x.frobenius(y) for y in grids) for x in grids)
    assert projector_sum() == _projector_loop(grids)


def test_expansion_row_00():
    row = expand_product(0, 0)
    assert row.coefficients[0] == INV_SQRT3
    # -sqrt2/sqrt3 = -sqrt6/3
    assert row.coefficients[8] == ExtScalar(q6=Fraction(-1, 3))
    for i in (1, 2, 3, 4, 5, 6, 7):
        assert row.coefficients[i] == ZERO


def test_expansion_row_10():
    row = expand_product(1, 0)
    assert row.coefficients[1] == INV_SQRT2
    assert row.coefficients[2] == INV_SQRT2
    assert sum(1 for c in row.coefficients if not c.is_zero()) == 2


def test_expansion_row_22():
    row = expand_product(2, 2)
    assert row.coefficients[0] == INV_SQRT3
    assert row.coefficients[3] == INV_SQRT2
    assert row.coefficients[8] == INV_SQRT6


def test_expansion_rows_reconstruct_products_exactly():
    for a2 in range(3):
        for b in range(3):
            row = expand_product(a2, b)
            assert reconstruct_product(row) == Operator3.unit(a2, b)


def test_expansion_index_validation():
    with pytest.raises(ValueError):
        expand_product(3, 0)
