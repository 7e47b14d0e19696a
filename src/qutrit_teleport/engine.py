"""Derivation of all 81 teleportation measurement gates.

Reshape each entangled state into its 3x3 coefficient grid M_i (row a2,
column b, flat index 3*a2 + b).  Channel i tensors the input
c0|0> + c1|1> + c2|2> at site A1 with Psi_i at sites A2,B; the flat index
of the 27-dim composite is 9*a1 + 3*a2 + b, with amplitude
c_{a1} * M_i[a2][b].  Projecting sites A1,A2 onto Psi_k leaves the
receiver's pre-measurement state

    sum_b sum_{a1,a2} M_k[a1][a2] c_{a1} M_i[a2][b] |b>,

which is linear in the input with matrix

    G_ik = M_i^T M_k^T = (M_k M_i)^T.

That product is the whole derivation.  A gate is that bare matrix: its
(channel, outcome) is the argument pair of `derive_gate` and the index of
`derive_all`, never an attribute of the operator.  The pre-measurement
state of (i, k) *is* G_ik read as a coefficient grid: row b, column j
holds the coefficient of c_j on |b>.

The paper's identities are checked by an independent route that never
calls the product: `delta_qt` redoes the projection of the 27-entry
composite, and `reconstruction_residual` resums the decomposition entry
by entry.  Both sum their products with `exact._dot`, the field's one
product-sum, which adds integer numerators and reduces once per entry.

Indices go through `basis._check_index` as "channel" and "outcome".
`derive_gate`'s cache is typed, so ``derive_gate(True, 0)`` raises
instead of reading channel 1's entry.
"""

from __future__ import annotations

from functools import lru_cache

from .basis import _check_index, entangled_state
from .exact import _dot
from .linalg import Operator3


@lru_cache(maxsize=None, typed=True)
def derive_gate(i: int, k: int) -> Operator3:
    """The 3x3 measurement gate G_ik for channel i and outcome k."""
    m_i = entangled_state(_check_index("channel", i))
    m_k = entangled_state(_check_index("outcome", k))
    return (m_k @ m_i).dagger()


def derive_all() -> tuple:
    """All 81 gates as a 9x9 tuple indexed [channel][outcome]."""
    return tuple(tuple(derive_gate(i, k) for k in range(9)) for i in range(9))


def delta_qt(i: int, k: int, gate: Operator3) -> Operator3:
    """Teleportation residual <Psi_k|_{A1A2}(|phi> (x) |Psi_i>) - gate |phi>.

    Column j is the residual for the input |j>.  Of the 27 composite
    entries (flat index 9*a1 + 3*a2 + b) the input |j> leaves only those
    with a1 = j, and projecting them onto Psi_k sums
    M_k[j][a2] * M_i[a2][b] over a2 for each receiver ket b.  Zero for
    every oracle gate; generally nonzero for transcribed gates that
    disagree with the derivation.
    """
    columns = tuple(zip(*entangled_state(_check_index("channel", i)).rows))
    m_k = entangled_state(_check_index("outcome", k))
    return Operator3(
        tuple(
            tuple(_dot(m_k.rows[j], columns[b]) - gate.entry(b, j) for j in range(3))
            for b in range(3)
        )
    )


def reconstruction_residual(i: int) -> tuple:
    """Resummed decomposition minus the composite, entry by entry.

    Entry [9*a1 + 3*a2 + b][j] is
    sum_k M_k[a1][a2] * G_ik[b][j] - delta_{a1 j} * M_i[a2][b],
    the coefficient of c_j in the composite amplitude; all 81 are zero
    exactly when the nine outcomes of channel i resum to its composite.
    """
    i = _check_index("channel", i)
    m_i = entangled_state(i)
    states = [entangled_state(k) for k in range(9)]
    gates = [derive_gate(i, k) for k in range(9)]
    out = []
    for flat in range(27):
        a1, a2, b = flat // 9, (flat // 3) % 3, flat % 3
        weights = [m_k.entry(a1, a2) for m_k in states]
        row = []
        for j in range(3):
            acc = _dot(weights, (g.entry(b, j) for g in gates))
            row.append(acc - m_i.entry(a2, b) if a1 == j else acc)
        out.append(tuple(row))
    return tuple(out)
