"""The nine SU(3) two-qutrit entangled states and their inversion rows.

The states form an orthonormal basis of the 9-dimensional two-site space:
one maximally entangled singlet, seven Bell-like pair states, and the
symmetric octet state.  A state is its 3x3 coefficient grid:
`entangled_state(i)` returns M_i, with |Psi_i> = sum M_i[a2][b] |a2>|b>,
and `family_of(i)` is the only source of its family label.  The flat
9-entry amplitude list (`Operator3.flat`, index 3*a2 + b) is only an
output format.

`expand_product` inverts the construction: it expresses each
computational product state |a2>|b> in the entangled basis by exact
projection, never by transcribing the printed identities (those
transcriptions live in `published` and are diffed against these rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import INV_SQRT2, INV_SQRT3, INV_SQRT6, _dot
from .linalg import Operator3, _gram

FAMILY_SINGLET = "singlet"
FAMILY_BELL_LIKE = "bell_like"
FAMILY_OCTET = "octet"

# Amplitude tables: (normalization, ((a2, b, integer weight), ...)).
_STATE_TERMS = (
    (INV_SQRT3, ((0, 0, 1), (1, 1, 1), (2, 2, 1))),
    (INV_SQRT2, ((1, 0, 1), (0, 1, 1))),
    (INV_SQRT2, ((1, 0, 1), (0, 1, -1))),
    (INV_SQRT2, ((1, 1, -1), (2, 2, 1))),
    (INV_SQRT2, ((2, 0, 1), (0, 2, 1))),
    (INV_SQRT2, ((2, 0, 1), (0, 2, -1))),
    (INV_SQRT2, ((2, 1, 1), (1, 2, 1))),
    (INV_SQRT2, ((2, 1, 1), (1, 2, -1))),
    (INV_SQRT6, ((0, 0, -2), (1, 1, 1), (2, 2, 1))),
)


@dataclass(frozen=True)
class ExpansionRow:
    """|a2>|b> = sum_i coefficients[i] * |Psi_i>, coefficients exact."""

    a2: int
    b: int
    coefficients: tuple  # indexed by entangled-state index 0..8


def _check_index(index: int) -> None:
    if not 0 <= index <= 8:
        raise ValueError(f"entangled state index {index} out of range 0..8")


def family_of(index: int) -> str:
    _check_index(index)
    return {0: FAMILY_SINGLET, 8: FAMILY_OCTET}.get(index, FAMILY_BELL_LIKE)


@lru_cache(maxsize=None)
def entangled_state(index: int) -> Operator3:
    """The exact coefficient grid M_i of the i-th entangled basis state."""
    _check_index(index)
    scale, terms = _STATE_TERMS[index]
    return Operator3.from_terms(scale, terms)


def _amplitude_table() -> tuple:
    """The 9x9 table whose row i is the flat amplitude list of Psi_i."""
    return tuple(entangled_state(i).flat() for i in range(9))


def gram_matrix() -> tuple:
    """9x9 matrix of pairwise inner products <Psi_a|Psi_b> = tr(M_a^T M_b),
    the Gram matrix of the amplitude table's rows."""
    return _gram(_amplitude_table())


def projector_sum() -> tuple:
    """sum_i |Psi_i><Psi_i| as an exact 9x9 matrix (completeness check),
    the Gram matrix of the amplitude table's columns."""
    return _gram(tuple(zip(*_amplitude_table())))


@lru_cache(maxsize=None)
def expand_product(a2: int, b: int) -> ExpansionRow:
    """Entangled-basis expansion of |a2>|b>, by projection onto each state.

    Orthonormality (verified separately via `gram_matrix`) makes the
    projection coefficients exact and unique: <Psi_i|a2,b> = M_i[a2][b].
    """
    if not (0 <= a2 <= 2 and 0 <= b <= 2):
        raise ValueError("basis indices must lie in 0..2")
    coeffs = tuple(entangled_state(i).entry(a2, b) for i in range(9))
    return ExpansionRow(a2, b, coeffs)


def reconstruct_product(row: ExpansionRow) -> Operator3:
    """sum_i coefficients[i] * M_i; equals the matrix unit E_{a2,b}."""
    flat = [_dot(row.coefficients, column) for column in zip(*_amplitude_table())]
    return Operator3((tuple(flat[:3]), tuple(flat[3:6]), tuple(flat[6:])))
