"""A control for the paper's non-unitarity claim: the package's derivation
run over the Weyl–Heisenberg basis.

The paper reads its non-unitary gates as a necessity of teleporting in
high dimension.  The qutrit Weyl–Heisenberg basis is known to teleport
with unitary corrections (Bennett et al., Phys. Rev. Lett. 70, 1895
(1993); Werner, J. Phys. A 34, 7081 (2001)).  Run through the same
derivation, it gives 81 of 81 gates that are unitary up to 1/3, where the
package's own basis gives 1 of 81 (G_00).  So the non-unitarity is a
property of the basis, not of the dimension.

The arithmetic is exact over Z[w], w = exp(2 pi i / 3): the element
a + b w is the integer pair (a, b), with w^2 = -1 - w and conj(w) = w^2,
so no square root is needed.  The grids are
U_mn[a][b] = w^(a n) when b = a + m (mod 3) and 0 otherwise, channel (or
outcome) 3m + n.  With a complex bra, the gate of channel i and outcome k
is G_ik = (conj(U_k) U_i)^T: the package's G_ik = M_i^T M_k^T with the
conjugate that its real field hides.

Normalization, stated once: the basis states are the grids over
sqrt(NORM).  Everything below is computed on the bare grids, so a gate
here is NORM times the gate of the normalized basis, and G^H G = I here
is G^H G = I / NORM^2 there: a unitary up to 1/NORM = 1/3.
"""

from fractions import Fraction

import pytest

from qutrit_teleport import analysis

NORM = 3

ZERO, ONE = (0, 0), (1, 0)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c - b * d)  # b d w^2 = -b d - b d w


def _conj(x):
    return (x[0] - x[1], -x[1])  # conj(a + b w) = a + b w^2


def _dot(xs, ys):
    total = ZERO
    for x, y in zip(xs, ys):
        total = _add(total, _mul(x, y))
    return total


def _matmul(p, q):
    return tuple(tuple(_dot(row, col) for col in zip(*q)) for row in p)


def _transpose(m):
    return tuple(zip(*m))


def _conj_grid(m):
    return tuple(tuple(_conj(x) for x in row) for row in m)


_IDENTITY = tuple(tuple(ONE if r == c else ZERO for c in range(3)) for r in range(3))
_OMEGA_POWERS = (ONE, (0, 1), (-1, -1))


def _grid(p):
    m, n = divmod(p, 3)
    return tuple(
        tuple(_OMEGA_POWERS[a * n % 3] if b == (a + m) % 3 else ZERO for b in range(3))
        for a in range(3)
    )


GRIDS = [_grid(p) for p in range(9)]


def _gate(i, k):
    return _transpose(_matmul(_conj_grid(GRIDS[k]), GRIDS[i]))


def _projected_gate(i, k):
    """The gate by `engine.delta_qt`'s route: for each input |j>, build the
    27-entry composite (flat index 9*a1 + 3*a2 + b) and project sites A1,A2
    onto the bra of state k; row b, column j is the receiver's amplitude."""
    bra = [_conj(x) for row in GRIDS[k] for x in row]  # flat index 3*a1 + a2
    columns = []
    for j in range(3):
        composite = [
            GRIDS[i][a2][b] if a1 == j else ZERO
            for a1 in range(3) for a2 in range(3) for b in range(3)
        ]
        columns.append([_dot(bra, composite[b::3]) for b in range(3)])
    return _transpose(columns)


def test_weyl_heisenberg_grids_are_orthogonal():
    for p in range(9):
        for q in range(9):
            gram = _matmul(_transpose(_conj_grid(GRIDS[p])), GRIDS[q])
            trace = _add(_add(gram[0][0], gram[1][1]), gram[2][2])
            assert trace == ((NORM, 0) if p == q else ZERO), (p, q)


@pytest.mark.parametrize("i", range(9))
def test_every_weyl_heisenberg_gate_is_unitary_up_to_one_third(i):
    for k in range(9):
        gate = _gate(i, k)
        assert _matmul(_transpose(_conj_grid(gate)), gate) == _IDENTITY, (i, k)
        assert _projected_gate(i, k) == gate, (i, k)


def test_the_packages_basis_has_one_gate_unitary_up_to_one_third():
    # a gate proportional to a unitary with G^T G = I/9 has tr(G^T G) = 1/3
    unitary = [
        (p.channel, p.outcome, p.frobenius_norm_sq)
        for i in range(9)
        for p in analysis.channel_profiles(i)
        if p.classification == analysis.CLASS_PROP_UNITARY
    ]
    assert unitary == [(0, 0, Fraction(1, NORM))]
