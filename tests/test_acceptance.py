"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success; they always appear for failures).  Tolerances are pinned
here: exact-field equality where the criterion is an identity, 1e-12 for
floating-point figures, 3 binomial standard deviations for the sampled
frequency, and wall-clock ceilings where stated.
"""

import math
import random
import time

import numpy as np
import pytest

from qutrit_teleport import analysis, engine, published, serialize, simulate
from qutrit_teleport.basis import (
    expand_product,
    gram_matrix,
    reconstruct_product,
)
from qutrit_teleport.exact import ONE, ZERO
from qutrit_teleport.linalg import Operator3
from qutrit_teleport.published import KIND_GATE, KIND_LABEL, KIND_PREMEASURE, MATCH


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_orthonormality():
    start = time.perf_counter()
    gram = gram_matrix()
    ok = all(
        gram[a][b] == (ONE if a == b else ZERO) for a in range(9) for b in range(9)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, f"Gram matrix of the nine states is the identity, exactly ({elapsed:.3f}s)", ok)


def test_criterion_2_basis_inversion():
    ok = True
    for a2 in range(3):
        for b in range(3):
            row = expand_product(a2, b)
            printed = published.paper_expansion(a2, b)
            ok = ok and all(
                (p - o).is_zero()
                for p, o in zip(printed.coefficients, row.coefficients)
            )
            ok = ok and reconstruct_product(row) == Operator3.unit(a2, b)
    _report(2, "inversion rows match the printed identities and reconstruct exactly", ok)


def test_criterion_3_gate_derivation_residuals():
    ok = all(
        engine.delta_qt(i, k, engine.derive_gate(i, k)).is_zero()
        for i in range(9)
        for k in range(9)
    )
    _report(3, "teleportation residual is the zero ket for all 81 oracle gates", ok)


def test_criterion_4_paper_agreement_and_errata():
    start = time.perf_counter()

    # exact agreement where the source is self-consistent
    main_text = all(
        published.paper_gate(0, k) == engine.derive_gate(0, k)
        for k in (0, 1, 2, 4, 5, 7)
    )
    appendix_i = all(
        published.paper_gate(1, k) == engine.derive_gate(1, k)
        and published.paper_premeasure(1, k) == engine.derive_gate(1, k)
        for k in range(9)
    )

    report = published.compare_tables()
    value_entries = [e for e in report.entries if e.kind != KIND_LABEL]
    total = len(value_entries) == 171
    classified = all(e.discrepancy in published.DISCREPANCY_CLASSES for e in report.entries)
    deterministic = serialize.errata_dumps(report) == serialize.errata_dumps(
        published.compare_tables()
    )

    def entry(kind, i, k):
        return next(
            e
            for e in report.entries
            if e.kind == kind and e.channel == i and e.outcome == k
        )

    flagged = (
        entry(KIND_GATE, 0, 3).discrepancy != MATCH
        and entry(KIND_PREMEASURE, 8, 8).discrepancy == "missing_term"
        and entry(KIND_GATE, 8, 8).discrepancy == "missing_term"
    )
    non_empty = len(report.mismatches()) > 0

    elapsed = time.perf_counter() - start
    ok = (
        main_text
        and appendix_i
        and total
        and classified
        and deterministic
        and flagged
        and non_empty
        and elapsed < 1.0
    )
    _report(
        4,
        "oracle matches the self-consistent transcriptions; errata report is "
        f"total, deterministic and non-empty ({elapsed:.3f}s)",
        ok,
    )


def test_criterion_5_measurement_completeness():
    ok = all(analysis.completeness(i) == Operator3.identity() for i in range(9))
    _report(5, "sum_k G^T G equals the identity exactly on all 9 channels", ok)


def test_criterion_6_non_unitarity_and_census():
    identity = Operator3.identity()
    ok = True
    census_lines = []
    for i in range(9):
        for k in range(9):
            g = engine.derive_gate(i, k)
            ok = ok and not ((g.dagger() @ g) - identity).is_zero()
        census = analysis.channel_census(i)
        census_lines.append(
            f"channel {i}: "
            f"{census[analysis.CLASS_PROP_UNITARY]} proportional-to-unitary, "
            f"{census[analysis.CLASS_INVERTIBLE]} invertible, "
            f"{census[analysis.CLASS_SINGULAR]} singular"
        )
    expected_census = ["channel 0: 1 proportional-to-unitary, 1 invertible, 7 singular"]
    expected_census += [
        f"channel {i}: 0 proportional-to-unitary, 0 invertible, 9 singular"
        for i in range(1, 8)
    ]
    expected_census += ["channel 8: 0 proportional-to-unitary, 2 invertible, 7 singular"]
    ok = ok and census_lines == expected_census
    for line in census_lines:
        print("   ", line)
    _report(6, "G^T G differs from the identity for all 81 gates; census as derived", ok)


def test_criterion_7_simulation_soundness():
    start = time.perf_counter()

    n = 10_000
    summary = simulate.run_batch(0, n, master_seed=20240601, input_state=(1, 0, 0))
    p = 1 / 9
    sigma = math.sqrt(p * (1 - p) / n)
    freq_ok = abs(summary.empirical_outcome_frequencies[0] - p) <= 3 * sigma

    rng = random.Random(424242)
    prob_ok = True
    for _ in range(100):
        raw = np.array([rng.gauss(0, 1) for _ in range(6)])
        phi = raw[0::2] + 1j * raw[1::2]
        phi = phi / np.linalg.norm(phi)
        i = rng.randrange(9)
        prob_ok = prob_ok and abs(simulate.outcome_distribution(i, phi).sum() - 1.0) < 1e-12

    fid_ok = True
    for i, k in ((0, 0), (0, 8), (8, 0), (8, 8)):
        for _ in range(25):
            raw = np.array([rng.gauss(0, 1) for _ in range(6)])
            phi = raw[0::2] + 1j * raw[1::2]
            phi = phi / np.linalg.norm(phi)
            fid = simulate.fidelity_after_recovery(i, k, phi)
            fid_ok = fid_ok and abs(fid - 1.0) < 1e-12

    elapsed = time.perf_counter() - start
    ok = freq_ok and prob_ok and fid_ok and elapsed < 5.0
    _report(
        7,
        f"outcome frequency within 3 sigma of 1/9, probabilities sum to 1, "
        f"post-recovery fidelity 1 within 1e-12 ({elapsed:.3f}s)",
        ok,
    )


def test_criterion_8_reproducibility():
    def document():
        summary, columns = simulate.run_batch_columns(
            0, 500, master_seed=7, input_state=(1, 0, 0)
        )
        return "".join(
            serialize.simulation_pieces(summary, columns, 7, "fixed", False, "json")
        )

    doc1 = document()
    doc2 = document()
    byte_identical = doc1 == doc2

    gates = {(i, k): engine.derive_gate(i, k) for i in range(9) for k in range(9)}
    text = serialize.gate_table_dumps(gates)
    loaded = serialize.gate_table_loads(text)
    roundtrip = len(loaded) == 81 and all(
        loaded[key] == gates[key] for key in gates
    )

    ok = byte_identical and roundtrip
    _report(8, "seeded simulation byte-identical; gate table round-trips exactly", ok)
