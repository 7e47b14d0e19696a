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
`simulate`.  `numeric_channel` checks once that a channel's gates (oracle
or printed) are monomial and caches, read-only, the gates, their effects
G^T G as the (9, 3) block of diagonals, and the recoveries (zero at
singular outcomes) beside a bool mask `invertible`.  `born_weights`,
`overlap` and `normalized` are the Born rule, the post-measurement
fidelity and the norm; each takes one state or a stack of states and
gives every row the bits it gives that row alone.  The layer imports
numpy when first called, so the exact layer runs without it.

Indices go through `basis._check_index` and flags through its
`_check_bool`.  The caches are typed, so a bool never reads an int's
entry; callers pass the checked int on, so a numpy integer shares its
channel's one entry.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import engine
from .basis import _check_bool, _check_index
from .exact import ExtScalar, _signed_terms
from .linalg import Operator3, _gram

if TYPE_CHECKING:
    import numpy as np

CLASS_PROP_UNITARY = "proportional_to_unitary"
CLASS_INVERTIBLE = "invertible_not_prop_unitary"
CLASS_SINGULAR = "singular"

_NORM_TOL = 1e-12


GateProfile = namedtuple(
    "GateProfile",
    "channel outcome frobenius_norm_sq unitarity_deviation_sq"
    " scaled_unitarity_deviation_sq rank classification",
)


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
    i = _check_index("channel", i)
    rows = [row for k in range(9) for row in engine.derive_gate(i, k).rows]
    return Operator3(_gram(tuple(zip(*rows))))


@lru_cache(maxsize=None, typed=True)
def channel_profiles(i: int) -> tuple[GateProfile, ...]:
    """Profiles of one channel's nine oracle gates, in outcome order."""
    i = _check_index("channel", i)
    return tuple(profile_gate(engine.derive_gate(i, k), i, k) for k in range(9))


def channel_census(i: int) -> dict:
    """Gate counts per classification for one channel's oracle gates."""
    counts = {CLASS_PROP_UNITARY: 0, CLASS_INVERTIBLE: 0, CLASS_SINGULAR: 0}
    for p in channel_profiles(_check_index("channel", i)):
        counts[p.classification] += 1
    return counts


def _rational_cbrt(f: Fraction) -> Optional[Fraction]:
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
    """Exact cube root within the field, for positive single-component elements."""
    terms = list(_signed_terms(x, (1, 2, 3, 6)))
    if len(terms) != 1 or terms[0][0] == "-":
        return None
    _, coeff, surd = terms[0]
    # (r*sqrt(m))^3 = r^3 * m * sqrt(m): need coeff/m to be a rational cube
    root = _rational_cbrt(coeff / surd)
    return None if root is None else ExtScalar(**{f"q{surd}": root})


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

    gates: np.ndarray  # (9, 3, 3) monomial gate matrices G_k
    effects: np.ndarray  # (9, 3) diagonals of the Born-rule effects G_k^T G_k
    recoveries: np.ndarray  # (9, 3, 3) recovery matrices, zero where G_k is singular
    invertible: np.ndarray  # (9,) bool: G_k has a recovery


def gate_matrix(g: Operator3) -> np.ndarray:
    import numpy as np

    return np.array(
        [[float(g.entry(r, c)) for c in range(3)] for r in range(3)], dtype=float
    )


@lru_cache(maxsize=None, typed=True)
def numeric_channel(i: int, use_paper_gates: bool, /) -> NumericChannel:
    """Channel i's oracle gates in floats, or its printed gates.

    Each gate must be monomial (at most one nonzero entry per row and per
    column), so its effect G^T G is diagonal, one square per entry; a gate
    that is not raises ValueError naming its channel and outcome.  The
    checked, positional-only arguments give a channel one cache entry (for
    an int and a bool), whose read-only arrays every caller shares.
    """
    import numpy as np

    i = _check_index("channel", i)
    if _check_bool("use_paper_gates", use_paper_gates):
        from . import published

        exact = [published.paper_gate(i, k) for k in range(9)]
    else:
        exact = [engine.derive_gate(i, k) for k in range(9)]
    gates = np.stack([gate_matrix(g) for g in exact])
    nonzero = gates != 0.0
    dense = np.flatnonzero(np.maximum(nonzero.sum(axis=1), nonzero.sum(axis=2)).max(axis=1) > 1)
    if len(dense):
        raise ValueError(f"channel {i}, outcome {dense[0]}: gate is not monomial")
    effects = (gates * gates).sum(axis=1)
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


@lru_cache(maxsize=256)
def _born_plan(data: bytes):
    """Per amplitude i, the distinct values of column i of the effect diagonals
    `data` (float64 bytes) as a read-only column, and each effect's index."""
    import numpy as np

    plan = []
    for column in np.frombuffer(data).reshape(-1, 3).T:
        values, index = np.unique(column, return_inverse=True)
        values.flags.writeable = index.flags.writeable = False  # shared by the cache
        plan.append((values[:, np.newaxis], index))
    return tuple(plan)


def born_weights(effects: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Born weights <v|E_k|v> of effects given as their (count, 3) diagonals.

    `v` is one state (3,) or a stack (n, 3); a stack gives (n, count)
    weights, each row equal bit for bit to the call on that row.  With
    v = a + ib, a weight is ``(t_0 + t_1) + t_2`` for
    ``t_i = (a_i * E_ii) * a_i + (b_i * E_ii) * b_i``; a diagonal of G^T G
    is nonnegative, so no term is below +0 and no weight needs a clip.
    The sums fill an outcome-major (count, n) block, one row per effect,
    and a term that several effects share is computed once.
    """
    import numpy as np

    effects = np.ascontiguousarray(effects, dtype=np.float64)
    if effects.ndim != 2 or effects.shape[1] != 3:
        raise ValueError(f"effects must be (count, 3) diagonals, not shape {effects.shape}")
    plan = _born_plan(effects.tobytes())
    # one state is a stack of one, so every array below has a trial axis
    state = v.reshape((-1, 3)).T
    a, b = state.real, state.imag
    for i, (e, index) in enumerate(plan):
        term = a[i] * e
        term *= a[i]
        imag = b[i] * e
        imag *= b[i]
        term += imag
        if i == 0:
            block = term[index]
        else:
            block += term[index]
    return block.T.reshape(v.shape[:-1] + (len(effects),))


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
    effects = numeric_channel(_check_index("channel", i), False).effects
    return born_weights(effects, as_state(phi))


def outcome_probability(i: int, k: int, phi: Sequence[complex]) -> float:
    k = _check_index("outcome", k)
    return float(outcome_distribution(i, phi)[k])


def fidelity_after_recovery(i: int, k: int, phi: Sequence[complex]) -> Optional[float]:
    """|<phi|recovered>|^2 for channel i, outcome k; None when no recovery.

    Raises ValueError when the outcome has zero probability for this input
    (the conditional state is undefined there).
    """
    i, k = _check_index("channel", i), _check_index("outcome", k)
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
    gates, effects, recoveries, invertible = numeric_channel(_check_index("channel", i), False)
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
