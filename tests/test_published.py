"""Transcription fidelity and the errata diff."""

import pytest

from qutrit_teleport import engine, published, serialize
from qutrit_teleport.basis import ExpansionRow
from qutrit_teleport.exact import INV_SQRT6, ONE, SQRT2, ZERO, rational
from qutrit_teleport.linalg import Operator3
from qutrit_teleport.published import (
    COEFFICIENT,
    EXTRA_TERM,
    INDEX_SWAP,
    KIND_EXPANSION,
    KIND_GATE,
    KIND_LABEL,
    KIND_PREMEASURE,
    LABEL_ANOMALY,
    MATCH,
    MISSING_TERM,
    SIGN,
    classify_expansion,
    classify_gate,
    classify_ket,
    compare_tables,
    paper_expansion,
    paper_gate,
    paper_premeasure,
)

# Hand-verified classification counts over 81 gates + 81 pre-measurement
# states + 9 expansion rows + 6 document anomalies.
EXPECTED_SUMMARY = {
    "match": 134,
    "sign": 1,
    "coefficient": 17,
    "index_swap": 13,
    "missing_term": 6,
    "extra_term": 0,
    "label_anomaly": 6,
}


def test_transcribed_gate_0_0():
    assert paper_gate(0, 0) == Operator3.identity().scaled(rational(1, 3))


def test_transcribed_gate_0_3_keeps_printed_sign_placement():
    g = paper_gate(0, 3)
    assert g.entry(1, 1) == -INV_SQRT6
    assert g.entry(2, 2) == -INV_SQRT6


def test_transcribed_premeasure_6_0():
    grid = paper_premeasure(6, 0)
    assert grid.entry(0, 1) == INV_SQRT6
    assert grid.entry(1, 2) == INV_SQRT6
    assert all(grid.entry(2, j).is_zero() for j in range(3))


def test_printed_labels_preserved():
    report = compare_tables()
    assert _entry(report, KIND_GATE, 0, 6).printed_label == "λ_0^6"
    assert _entry(report, KIND_GATE, 1, 0).printed_label == "Λ̂_1^0"
    assert _entry(report, KIND_GATE, 8, 0).printed_label == "Λ_0^8"
    assert _entry(report, KIND_PREMEASURE, 8, 4).printed_label == "s_8^8"
    assert "position" in _entry(report, KIND_PREMEASURE, 8, 4).notes


def test_missing_entry_raises():
    with pytest.raises(KeyError, match="no printed gate for channel 0, outcome 9"):
        paper_gate(0, 9)
    with pytest.raises(KeyError, match="no printed expansion row for"):
        paper_expansion(0, 3)
    # an index check, not list position -1
    for i, k in ((-1, 0), (0, -1)):
        with pytest.raises(KeyError, match=f"channel {i}, outcome {k}"):
            paper_gate(i, k)
        with pytest.raises(KeyError, match="no printed pre-measurement state"):
            paper_premeasure(i, k)


def test_every_transcribed_expansion_row_matches_oracle():
    report = compare_tables()
    rows = [e for e in report.entries if e.kind == KIND_EXPANSION]
    assert len(rows) == 9
    assert all(e.discrepancy == MATCH for e in rows)


def test_report_is_total_and_unique():
    report = compare_tables()
    gates = [e for e in report.entries if e.kind == KIND_GATE]
    premeasures = [e for e in report.entries if e.kind == KIND_PREMEASURE]
    labels = [e for e in report.entries if e.kind == KIND_LABEL]
    assert len(gates) == 81
    assert len(premeasures) == 81
    assert len(labels) == 6
    assert len({(e.channel, e.outcome) for e in gates}) == 81
    assert len({(e.channel, e.outcome) for e in premeasures}) == 81


def test_summary_matches_hand_count():
    assert compare_tables().summary == EXPECTED_SUMMARY


def _entry(report, kind, channel, outcome):
    for e in report.entries:
        if e.kind == kind and e.channel == channel and e.outcome == outcome:
            return e
    raise AssertionError(f"entry not found: {kind} {channel} {outcome}")


def test_known_discrepancies():
    report = compare_tables()
    assert _entry(report, KIND_GATE, 0, 3).discrepancy == COEFFICIENT
    assert _entry(report, KIND_PREMEASURE, 0, 3).discrepancy == MATCH
    assert _entry(report, KIND_PREMEASURE, 8, 8).discrepancy == MISSING_TERM
    assert _entry(report, KIND_GATE, 8, 8).discrepancy == MISSING_TERM
    assert _entry(report, KIND_GATE, 8, 0).discrepancy == MISSING_TERM
    assert _entry(report, KIND_GATE, 8, 4).discrepancy == SIGN
    assert _entry(report, KIND_PREMEASURE, 6, 0).discrepancy == INDEX_SWAP
    assert _entry(report, KIND_PREMEASURE, 7, 1).discrepancy == INDEX_SWAP
    assert _entry(report, KIND_GATE, 6, 4).discrepancy == COEFFICIENT


def test_channels_one_to_five_fully_match():
    report = compare_tables()
    for channel in (1, 2, 3, 4, 5):
        for kind in (KIND_GATE, KIND_PREMEASURE):
            for k in range(9):
                assert _entry(report, kind, channel, k).discrepancy == MATCH, (
                    kind,
                    channel,
                    k,
                )


def test_main_text_gates_match_where_self_consistent():
    # outcomes 0, 1, 2, 4, 5, 7 of channel 0 print gates consistent with
    # their own pre-measurement states; the oracle agrees exactly
    for k in (0, 1, 2, 4, 5, 7):
        assert paper_gate(0, k) == engine.derive_gate(0, k)


def test_match_iff_exact_zero_difference():
    report = compare_tables()
    for e in report.entries:
        if e.kind == KIND_GATE:
            is_zero = (e.paper_value - e.oracle_value).is_zero()
        elif e.kind == KIND_PREMEASURE:
            is_zero = (e.paper_value - e.oracle_value).is_zero()
        elif e.kind == KIND_EXPANSION:
            is_zero = all(
                (p - o).is_zero()
                for p, o in zip(e.paper_value.coefficients, e.oracle_value.coefficients)
            )
        else:
            continue
        assert (e.discrepancy == MATCH) == is_zero


def test_residual_zero_for_every_matching_gate_entry():
    report = compare_tables()
    for e in report.entries:
        if e.kind == KIND_GATE and e.discrepancy == MATCH:
            assert engine.delta_qt(e.channel, e.outcome, e.paper_value).is_zero()


def test_label_anomalies_include_required_items():
    report = compare_tables()
    labels = [e for e in report.entries if e.kind == KIND_LABEL]
    assert all(e.discrepancy == LABEL_ANOMALY for e in labels)
    locations = [e.printed_label for e in labels]
    assert "|Ψ_5^0⟩_{A1A2}" in locations
    assert "|Ψ_7⟩_{TA}" in locations
    assert any("s_8^0" in label for label in locations)


def test_an_entry_compares_and_hashes_without_its_two_values():
    report = published.compare_tables()
    entry = next(e for e in report.entries if e.kind == KIND_GATE)
    bare = published.ErrataEntry(*entry[:7])
    assert (bare.paper_value, bare.oracle_value) == (None, None)
    assert bare == entry and not bare != entry and hash(bare) == hash(entry)
    assert entry != tuple(entry) != entry and entry != entry._replace(notes="other")
    assert repr(bare).startswith(f"ErrataEntry(location={entry.location!r}, kind=")
    with pytest.raises(AttributeError):
        entry.notes = ""
    assert report == published.compare_tables()
    assert report.entries[0] != report.entries[1]


def test_report_regeneration_is_byte_identical():
    first = serialize.errata_dumps(compare_tables())
    second = serialize.errata_dumps(compare_tables())
    assert first == second


def test_transcriptions_are_frozen_constants():
    # repeated lookups hand back the same objects; nothing recomputes
    assert paper_gate(4, 4) is paper_gate(4, 4)
    assert paper_premeasure(2, 2) is paper_premeasure(2, 2)
    assert paper_expansion(1, 2) is paper_expansion(1, 2)


def test_printed_values_are_bare_values():
    assert isinstance(paper_gate(4, 4), Operator3)
    assert paper_gate(4, 4) == engine.derive_gate(4, 4)
    assert isinstance(paper_premeasure(2, 2), Operator3)
    assert isinstance(paper_expansion(1, 2), ExpansionRow)

def _grid(*terms):
    return Operator3.from_terms(rational(1), terms)


def _row(*coeffs):
    return ExpansionRow(0, 0, tuple(coeffs) + (ZERO,) * (9 - len(coeffs)))


# Oracle for the grid cases: rows (0 1 0), (0 0 2), (0 0 0).  Swapping its
# rows 0 and 2 is a row permutation that is not its transpose, and its
# transpose is not a row permutation.
_ORACLE_GRID = _grid((0, 1, 1), (1, 2, 2))
_ROW_PERMUTED = _grid((2, 1, 1), (1, 2, 2))
_TRANSPOSED = _grid((1, 0, 1), (2, 1, 2))
_ORACLE_ROW = _row(ONE, ZERO, SQRT2)

_CLASSIFIER_CASES = [
    (classify_ket, _grid((0, 1, 1), (1, 2, 2)), _ORACLE_GRID, MATCH),
    (classify_ket, _grid((0, 1, -1), (1, 2, -2)), _ORACLE_GRID, SIGN),
    (classify_ket, _ROW_PERMUTED, _ORACLE_GRID, INDEX_SWAP),
    (classify_ket, _grid((0, 1, 1)), _ORACLE_GRID, MISSING_TERM),
    (classify_ket, _grid((0, 1, 1), (1, 2, 2), (2, 0, 1)), _ORACLE_GRID, EXTRA_TERM),
    (classify_ket, _grid((0, 1, 1), (1, 2, 3)), _ORACLE_GRID, COEFFICIENT),
    (classify_ket, _TRANSPOSED, _ORACLE_GRID, COEFFICIENT),
    # support is over rows: a term added to an occupied row keeps the support
    (classify_ket, _grid((0, 1, 1), (1, 2, 2), (1, 1, 1)), _ORACLE_GRID, COEFFICIENT),
    (classify_gate, _grid((0, 1, 1), (1, 2, 2)), _ORACLE_GRID, MATCH),
    (classify_gate, _grid((0, 1, -1), (1, 2, -2)), _ORACLE_GRID, SIGN),
    (classify_gate, _TRANSPOSED, _ORACLE_GRID, INDEX_SWAP),
    (classify_gate, _grid((0, 1, 1)), _ORACLE_GRID, MISSING_TERM),
    (classify_gate, _grid((0, 1, 1), (1, 2, 2), (2, 0, 1)), _ORACLE_GRID, EXTRA_TERM),
    (classify_gate, _grid((0, 1, 1), (1, 2, 3)), _ORACLE_GRID, COEFFICIENT),
    (classify_gate, _ROW_PERMUTED, _ORACLE_GRID, COEFFICIENT),
    # support is over entries: the same added term is an extra term
    (classify_gate, _grid((0, 1, 1), (1, 2, 2), (1, 1, 1)), _ORACLE_GRID, EXTRA_TERM),
    (classify_expansion, _row(ONE, ZERO, SQRT2), _ORACLE_ROW, MATCH),
    (classify_expansion, _row(-ONE, ZERO, -SQRT2), _ORACLE_ROW, SIGN),
    (classify_expansion, _row(ONE), _ORACLE_ROW, MISSING_TERM),
    (classify_expansion, _row(ONE, ONE, SQRT2), _ORACLE_ROW, EXTRA_TERM),
    (classify_expansion, _row(ONE, ZERO, -SQRT2), _ORACLE_ROW, COEFFICIENT),
    # no swap test for expansion rows: exchanged coefficients are a coefficient error
    (classify_expansion, _row(SQRT2, ZERO, ONE), _ORACLE_ROW, COEFFICIENT),
]


@pytest.mark.parametrize(
    "classify, paper, oracle, expected",
    _CLASSIFIER_CASES,
    ids=[f"{c[0].__name__}-{c[3]}-{i}" for i, c in enumerate(_CLASSIFIER_CASES)],
)
def test_classifier_reaches_every_class(classify, paper, oracle, expected):
    assert classify(paper, oracle) == expected
