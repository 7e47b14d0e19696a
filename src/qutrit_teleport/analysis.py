"""Gate diagnostics: non-unitarity, completeness, recovery and fidelity.

Everything here is exact except `expected_fidelities`.  Per gate, the
Frobenius weight tr(G^T G), the deviation of G^T G from the identity, the
deviation from the nearest scalar multiple of the identity, and the rank
are computed over the exact field, so rank-2 is distinguishable from
nearly-rank-2.  Gates fall into three classes: proportional to a unitary
(deterministic recovery), invertible but not proportional to a unitary,
and singular (part of the input is destroyed; no deterministic recovery).
`completeness(i)` is the bare sum over k of G_ik^T G_ik, which callers
compare with the identity, and `recovery` is a gate's exact inverse.

`expected_fidelities` weighs fidelities by the Born rule in floats: it
imports numpy and the float layer from `simulate` when called, so this
module, like the rest of the exact core, loads no numpy.

Indices go through `basis._check_index`.  The cache is typed, so a bool
never reads an int's entry; callers pass the checked int on, so a numpy
integer shares its channel's one entry.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Optional, Sequence

from . import engine
from .basis import _check_index
from .exact import ExtScalar, _signed_terms
from .linalg import Operator3, _gram

CLASS_PROP_UNITARY = "proportional_to_unitary"
CLASS_INVERTIBLE = "invertible_not_prop_unitary"
CLASS_SINGULAR = "singular"


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
    scaled_dev = gram - identity.scaled(frob / 3)
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
    _, p, q, surd = terms[0]
    # (r*sqrt(m))^3 = r^3 * m * sqrt(m): need p/(q*m) to be a rational cube,
    # which it is exactly when p*(q*m)^2 is an integer cube, (r*q*m)^3
    root = _icbrt(p * (q * surd) ** 2)
    return None if root is None else ExtScalar(**{f"q{surd}": root}) / (q * surd)


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


def expected_fidelities(i: int, phi: Sequence[complex]) -> dict:
    """Outcome-probability-weighted fidelity figures for one channel.

    Two clearly distinct numbers: `invertible` averages post-recovery
    fidelity over outcomes with a recovery map (each contributes 1 by
    construction); `all_outcomes` also scores singular outcomes by the
    overlap of the un-recovered conditional state with the input.
    """
    import numpy as np

    from .simulate import as_state, born_weights, numeric_channel, overlap

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
