"""Gate diagnostics: non-unitarity, completeness, recovery and fidelity.

The exact layer computes, per gate, the Frobenius weight tr(G^T G), the
deviation of G^T G from the identity, the deviation from the nearest
scalar multiple of the identity, and the rank, all over the exact field,
so rank-2 is distinguishable from nearly-rank-2.  Gates fall into three
classes: proportional to a unitary (deterministic recovery), invertible
but not proportional to a unitary, and singular (part of the input is
destroyed; no deterministic recovery).  `completeness(i)` is the bare sum
over k of G_ik^T G_ik, which callers compare with the identity.

The numeric layer is the package's one floating-point path, shared with
`simulate`: `numeric_channel` caches a channel's gates (oracle or printed),
effects G^T G and recoveries as read-only (9, 3, 3) float stacks, with
the recoveries zero at singular outcomes and a bool mask `invertible`
beside them; `born_weights` and `overlap` are
the Born rule and the post-measurement fidelity, and `normalized` divides
states by their norm.  Each takes one state or a stack of states and
gives every row the bits it gives that row alone.  It imports numpy when
first called, so the exact layer runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import engine
from .exact import ExtScalar
from .linalg import Operator3, _gram

if TYPE_CHECKING:
    import numpy as np

CLASS_PROP_UNITARY = "proportional_to_unitary"
CLASS_INVERTIBLE = "invertible_not_prop_unitary"
CLASS_SINGULAR = "singular"

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class GateProfile:
    channel: Optional[int]
    outcome: Optional[int]
    frobenius_norm_sq: ExtScalar
    unitarity_deviation_sq: ExtScalar
    scaled_unitarity_deviation_sq: ExtScalar
    rank: int
    classification: str


def profile_gate(
    g: Operator3, channel: Optional[int] = None, outcome: Optional[int] = None
) -> GateProfile:
    """Exact profile of one gate.

    `channel` and `outcome` are labels only: `channel_profiles` passes the
    gate's key, and perfbench's tracer counts distinct profiled gates by them.
    """
    gram = g.dagger() @ g
    frob = gram.trace()
    identity = Operator3.identity()
    dev = gram - identity
    scaled_dev = gram - identity.scaled(frob * Fraction(1, 3))
    rank = g.rank()
    if rank == 3 and scaled_dev.is_zero():
        classification = CLASS_PROP_UNITARY
    elif rank == 3:
        classification = CLASS_INVERTIBLE
    else:
        classification = CLASS_SINGULAR
    return GateProfile(
        channel=channel,
        outcome=outcome,
        frobenius_norm_sq=frob,
        unitarity_deviation_sq=dev.frobenius(dev),
        scaled_unitarity_deviation_sq=scaled_dev.frobenius(scaled_dev),
        rank=rank,
        classification=classification,
    )


def completeness(i: int) -> Operator3:
    """Exact sum_k G_k^T G_k for a channel, as a bare matrix: the Gram
    matrix of the columns of the nine gates stacked as 27 rows."""
    rows = [row for k in range(9) for row in engine.derive_gate(i, k).rows]
    return Operator3(_gram(tuple(zip(*rows))))


@lru_cache(maxsize=None)
def channel_profiles(i: int) -> tuple[GateProfile, ...]:
    """Profiles of one channel's nine oracle gates, in outcome order."""
    return tuple(profile_gate(engine.derive_gate(i, k), i, k) for k in range(9))


def channel_census(i: int) -> dict:
    """Gate counts per classification for one channel's oracle gates."""
    counts = {CLASS_PROP_UNITARY: 0, CLASS_INVERTIBLE: 0, CLASS_SINGULAR: 0}
    for p in channel_profiles(i):
        counts[p.classification] += 1
    return counts


def _rational_cbrt(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    num = _icbrt(f.numerator)
    den = _icbrt(f.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _icbrt(n: int) -> Optional[int]:
    """Exact integer cube root of n, or None when n is not a perfect cube.

    Newton's method on integers, started above the root, so it is exact
    for every size of n (a float cube root is not, above 2**53).
    """
    if n < 0:
        return None
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    return x if x**3 == n else None


def _field_cbrt(x: ExtScalar) -> Optional[ExtScalar]:
    """Exact cube root within the field, for single-component elements."""
    components = [
        (x.q1, 1, "q1"),
        (x.q2, 2, "q2"),
        (x.q3, 3, "q3"),
        (x.q6, 6, "q6"),
    ]
    nonzero = [(coeff, surd, name) for coeff, surd, name in components if coeff != 0]
    if len(nonzero) != 1:
        return None
    coeff, surd, name = nonzero[0]
    if surd == 1:
        root = _rational_cbrt(coeff)
        return ExtScalar(root) if root is not None else None
    # (r*sqrt(m))^3 = r^3 * m * sqrt(m): need coeff/m to be a rational cube
    root = _rational_cbrt(coeff / surd)
    if root is None:
        return None
    return ExtScalar(**{name: root})


def recovery(g: Operator3) -> Optional[Operator3]:
    """Exact inverse of an invertible gate; None for singular gates.

    Conditioned on the outcome, the receiver's state is the gate acting on
    the input (up to normalization), so the inverse restores it exactly.
    The inverse is rescaled to determinant +/-1 whenever the field contains
    the required cube root; the overall scale never affects the recovered
    ray.
    """
    adj, d = g.adjugate_and_det()
    if d.is_zero():
        return None
    d_inv = d.inverse()  # det(G^-1) = 1/det G
    inv = adj.scaled(d_inv)
    magnitude = d_inv if float(d_inv) > 0 else -d_inv
    root = _field_cbrt(magnitude)
    if root is not None and not root.is_zero():
        inv = inv.scaled(root.inverse())
    return inv


# ---------------------------------------------------------------------------
# Numeric layer.
# ---------------------------------------------------------------------------


class NumericChannel(NamedTuple):
    """Float view of one channel's nine gates, indexed by outcome."""

    gates: np.ndarray  # (9, 3, 3) gate matrices G_k
    effects: np.ndarray  # (9, 3, 3) Born-rule effects G_k^T G_k
    recoveries: np.ndarray  # (9, 3, 3) recovery matrices, zero where G_k is singular
    invertible: np.ndarray  # (9,) bool: G_k has a recovery


def gate_matrix(g: Operator3) -> np.ndarray:
    import numpy as np

    return np.array(
        [[float(g.entry(r, c)) for c in range(3)] for r in range(3)], dtype=float
    )


@lru_cache(maxsize=None)
def numeric_channel(i: int, use_paper_gates: bool, /) -> NumericChannel:
    """Channel i's oracle gates in floats, or its printed gates.

    The arguments are positional-only, so every call of one channel hits
    one cache entry and every caller shares these read-only arrays.
    """
    import numpy as np

    if use_paper_gates:
        from . import published

        exact = [published.paper_gate(i, k) for k in range(9)]
    else:
        exact = [engine.derive_gate(i, k) for k in range(9)]
    gates = np.stack([gate_matrix(g) for g in exact])
    effects = np.einsum("kji,kjl->kil", gates, gates)
    exact_recoveries = [recovery(g) for g in exact]
    invertible = np.array([rec is not None for rec in exact_recoveries])
    recoveries = np.stack(
        [np.zeros((3, 3)) if rec is None else gate_matrix(rec) for rec in exact_recoveries]
    )
    channel = NumericChannel(gates, effects, recoveries, invertible)
    for a in channel:
        a.flags.writeable = False
    return channel


def as_state(phi: Sequence[complex]) -> np.ndarray:
    import numpy as np

    v = np.asarray(phi, dtype=complex).reshape(3)
    norm = float(np.vdot(v, v).real)
    # written so that a NaN norm (from a NaN or infinite amplitude) fails too
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"input state norm {norm} differs from 1 beyond {_NORM_TOL}")
    return v


def born_weights(effects: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Born weights <v|E_k|v>, clipped at zero; printed effects may not sum to I.

    `v` is one state of shape (3,) or a stack of shape (n, 3); a stack gives
    (n, 9) weights, each row equal bit for bit to the call on that row.

    With v = a + ib and real effects, the weight is the written sum over
    (i, j) in row-major order of ``(a_i * E_ij) * a_j + (b_i * E_ij) * b_j``,
    accumulated from +0 on real columns.  An (i, j) whose entry is zero in
    every effect would add only a signed zero, so it is skipped; every
    effect of the derived and the printed gates is diagonal.
    """
    import numpy as np

    a, b = v.real[..., np.newaxis], v.imag[..., np.newaxis]
    acc = np.zeros(v.shape[:-1] + effects.shape[:1])
    for i, j in zip(*np.nonzero(effects.any(axis=0))):
        e = effects[:, i, j]
        term = a[..., i, :] * e
        term *= a[..., j, :]
        imag = b[..., i, :] * e
        imag *= b[..., j, :]
        term += imag
        acc += term
    return np.clip(acc, 0.0, None, out=acc)


def normalized(v: np.ndarray) -> np.ndarray:
    """``v / np.linalg.norm(v)`` for one state (3,), and row by row for a
    stack (n, 3), bit for bit.

    np.linalg.norm takes a complex vector's squared norm as two BLAS dot
    products, re·re + im·im.  A stacked matmul of a row by a column hands
    each row to that same dot; a summed reduction would round differently.
    """
    import numpy as np

    re, im = v.real[..., np.newaxis, :], v.imag[..., np.newaxis, :]
    squared = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return v / np.sqrt(squared[..., 0])


def overlap(v: np.ndarray, gate: np.ndarray, rec: Optional[np.ndarray]) -> np.ndarray:
    """|<v|w>|^2 for w = G v normalized, then mapped back by `rec` if one is given.

    `v` is one state (3,) with (3, 3) matrices, or a stack (n, 3) with
    (n, 3, 3) stacks; a stack gives n fidelities, each equal bit for bit to
    the call on that row.  The products are stacked matmuls, and |<v|w>|^2
    is libm's ``hypot`` then ``pow``, as ``abs(z) ** 2`` computes it on a
    scalar: numpy's ``abs`` and ``** 2`` on arrays take SIMD paths that
    round differently.
    """
    import numpy as np

    w = normalized((gate @ v[..., np.newaxis])[..., 0])
    if rec is not None:
        w = normalized((rec @ w[..., np.newaxis])[..., 0])
    z = (v.conj()[..., np.newaxis, :] @ w[..., np.newaxis])[..., 0, 0]
    return np.float_power(np.hypot(z.real, z.imag), 2)


def outcome_distribution(i: int, phi: Sequence[complex]) -> np.ndarray:
    """Born probabilities over the nine outcomes for a normalized state."""
    return born_weights(numeric_channel(i, False).effects, as_state(phi))


def _check_outcome(k: int) -> None:
    if not 0 <= k <= 8:
        raise ValueError(f"outcome index {k} out of range 0..8")


def outcome_probability(i: int, k: int, phi: Sequence[complex]) -> float:
    _check_outcome(k)
    return float(outcome_distribution(i, phi)[k])


def fidelity_after_recovery(i: int, k: int, phi: Sequence[complex]) -> Optional[float]:
    """|<phi|recovered>|^2 for channel i, outcome k; None when no recovery.

    Raises ValueError when the outcome has zero probability for this input
    (the conditional state is undefined there).
    """
    _check_outcome(k)
    v = as_state(phi)
    gates, effects, recoveries, invertible = numeric_channel(i, False)
    if born_weights(effects, v)[k] <= 1e-15:
        raise ValueError(f"outcome {k} has zero probability for this input state")
    if not invertible[k]:
        return None
    return float(overlap(v, gates[k], recoveries[k]))


def expected_fidelities(i: int, phi: Sequence[complex]) -> dict:
    """Outcome-probability-weighted fidelity figures for one channel.

    Two clearly distinct numbers: `invertible` averages post-recovery
    fidelity over outcomes with a recovery map (each contributes 1 by
    construction); `all_outcomes` also scores singular outcomes by the
    overlap of the un-recovered conditional state with the input.
    """
    import numpy as np

    v = as_state(phi)
    gates, effects, recoveries, invertible = numeric_channel(i, False)
    p = born_weights(effects, v)
    occurred = np.flatnonzero(p > 1e-15)
    recovered = occurred[invertible[occurred]]
    singular = occurred[~invertible[occurred]]
    # one stacked overlap for the recovered outcomes and one for the singular
    fid = np.zeros(9)
    for ks, recs in ((recovered, recoveries[recovered]), (singular, None)):
        if len(ks):
            fid[ks] = overlap(np.broadcast_to(v, (len(ks), 3)), gates[ks], recs)
    inv_weight = 0.0
    inv_acc = 0.0
    all_acc = 0.0
    for k in occurred.tolist():
        all_acc += p[k] * fid[k]
        if invertible[k]:
            inv_weight += p[k]
            inv_acc += p[k] * fid[k]
    return {
        "invertible_mass": float(inv_weight),
        "mean_fidelity_invertible": float(inv_acc / inv_weight) if inv_weight > 0 else None,
        "mean_fidelity_all_outcomes": float(all_acc / p.sum()),
    }
