"""Verbatim transcription of the published tables, plus the errata diff.

Every pre-measurement state, measurement gate and basis-inversion row that
the source text prints is frozen here as data, keyed by (channel, outcome)
or (a2, b) and carrying its printed label verbatim, including label
anomalies (a lowercase gate label, hatted labels, swapped channel/outcome
indices) and bracket defects.  Nothing in this module is computed from the
printed values.  `paper_premeasure`, `paper_gate` and `paper_expansion`
return the bare printed value (an `Operator3` or an `ExpansionRow`), built
from its source row on first use and held in a typed cache (see `basis`).
`compare_tables` builds each `ErrataEntry` straight from a source row: the
row gives the label, notes and location, and the printed value is
classified against the independently derived oracle value on one
discrepancy ladder.

Transcription conventions, applied uniformly and recorded in entry notes:

* A printed prefactor before an unbracketed sum of terms is read as the
  prefactor magnitude distributing over all terms, with the printed
  leading sign staying on the first term (the bracketed sibling equations
  fix this reading).
* A syntactically broken term (a ket-ket where an operator needs a
  ket-bra, an unbalanced bracket) is read in the only way that yields a
  well-formed expression of the surrounding kind; the defect is noted,
  never silently corrected toward the oracle.
* The channel-IX appendix scrambles its outcome labels; entries are keyed
  by list position, printed labels preserved, and the ambiguity is
  reported as a document anomaly instead of being resolved.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from . import engine
from .basis import ExpansionRow, _check_index, expand_product
from .exact import (
    INV_SQRT2,
    INV_SQRT3,
    INV_SQRT6,
    SQRT2,
    ExtScalar,
    ONE,
    rational,
)
from .linalg import Operator3

KIND_PREMEASURE = "premeasure"
KIND_GATE = "gate"
KIND_EXPANSION = "expansion_row"
KIND_LABEL = "label"

MATCH = "match"
SIGN = "sign"
COEFFICIENT = "coefficient"
INDEX_SWAP = "index_swap"
MISSING_TERM = "missing_term"
EXTRA_TERM = "extra_term"
LABEL_ANOMALY = "label_anomaly"

DISCREPANCY_CLASSES = (
    MATCH,
    SIGN,
    COEFFICIENT,
    INDEX_SWAP,
    MISSING_TERM,
    EXTRA_TERM,
    LABEL_ANOMALY,
)

_THIRD = rational(1, 3)
_HALF = rational(1, 2)
_SIXTH = rational(1, 6)
_INV_2SQRT3 = ExtScalar(q3=Fraction(1, 6))  # 1/(2*sqrt3) = sqrt3/6
_INV_3SQRT2 = ExtScalar(q2=Fraction(1, 6))  # 1/(3*sqrt2) = sqrt2/6


# ---------------------------------------------------------------------------
# Pre-measurement states as printed.
# Channel 0 from the main-text list; channels 1..8 from appendix sections
# (i)..(viii).  Term tuples are (amplitude index, ket index, weight).
# Channel 8 rows are keyed by printed list position (see module docstring).
# ---------------------------------------------------------------------------

_PREMEASURE_SRC = {
    0: [
        ("s_0^0", _THIRD, ((0, 0, 1), (1, 1, 1), (2, 2, 1)), ""),
        ("s_0^1", INV_SQRT6, ((1, 0, 1), (0, 1, 1)), ""),
        ("s_0^2", INV_SQRT6, ((1, 0, 1), (0, 1, -1)), ""),
        ("s_0^3", INV_SQRT6, ((1, 1, -1), (2, 2, 1)), ""),
        ("s_0^4", INV_SQRT6, ((2, 0, 1), (0, 2, 1)), ""),
        ("s_0^5", INV_SQRT6, ((2, 0, 1), (0, 2, -1)), ""),
        ("s_0^6", INV_SQRT6, ((2, 1, 1), (1, 2, 1)), ""),
        ("s_0^7", INV_SQRT6, ((2, 1, 1), (1, 2, -1)), ""),
        ("s_0^8", _INV_3SQRT2, ((0, 0, -2), (1, 1, 1), (2, 2, 1)), ""),
    ],
    1: [
        ("s_1^0", INV_SQRT6, ((0, 1, 1), (1, 0, 1)), ""),
        ("s_1^1", _HALF, ((0, 0, 1), (1, 1, 1)), ""),
        ("s_1^2", _HALF, ((0, 0, -1), (1, 1, 1)), ""),
        ("s_1^3", -_HALF, ((1, 0, 1),), ""),
        ("s_1^4", _HALF, ((2, 1, 1),), ""),
        ("s_1^5", _HALF, ((2, 1, 1),), ""),
        ("s_1^6", _HALF, ((2, 0, 1),), ""),
        ("s_1^7", _HALF, ((2, 0, 1),), ""),
        ("s_1^8", _INV_2SQRT3, ((1, 0, 1), (0, 1, -2)), ""),
    ],
    2: [
        ("s_2^0", INV_SQRT6, ((1, 0, 1), (0, 1, -1)), ""),
        ("s_2^1", _HALF, ((0, 0, 1), (1, 1, -1)), ""),
        ("s_2^2", -_HALF, ((0, 0, 1), (1, 1, 1)), ""),
        ("s_2^3", -_HALF, ((1, 0, 1),), ""),
        ("s_2^4", -_HALF, ((2, 1, 1),), ""),
        ("s_2^5", -_HALF, ((2, 1, 1),), ""),
        ("s_2^6", _HALF, ((2, 0, 1),), ""),
        ("s_2^7", _HALF, ((2, 0, 1),), ""),
        ("s_2^8", _INV_2SQRT3, ((0, 1, 2), (1, 0, 1)), ""),
    ],
    3: [
        ("s_3^0", INV_SQRT6, ((1, 1, -1), (2, 2, 1)), ""),
        ("s_3^1", -_HALF, ((0, 1, 1),), ""),
        ("s_3^2", _HALF, ((0, 1, 1),), ""),
        ("s_3^3", _HALF, ((1, 1, 1), (2, 2, 1)), ""),
        ("s_3^4", _HALF, ((0, 2, 1),), ""),
        ("s_3^5", -_HALF, ((0, 2, 1),), ""),
        ("s_3^6", _HALF, ((1, 2, 1), (2, 1, -1)), ""),
        ("s_3^7", -_HALF, ((1, 2, 1), (2, 1, 1)),
         "stray extra subscript on the second ket in source"),
        ("s_3^8", _INV_2SQRT3, ((1, 1, -1), (2, 2, 1)), ""),
    ],
    4: [
        ("s_4^0", INV_SQRT6, ((0, 2, 1), (2, 0, 1)), ""),
        ("s_4^1", _HALF, ((1, 2, 1),), ""),
        ("s_4^2", _HALF, ((1, 2, 1),), ""),
        ("s_4^3", _HALF, ((2, 0, 1),), ""),
        ("s_4^4", _HALF, ((2, 2, 1), (0, 0, 1)), ""),
        ("s_4^5", _HALF, ((2, 2, 1), (0, 0, -1)), ""),
        ("s_4^6", _HALF, ((1, 0, 1),), ""),
        ("s_4^7", -_HALF, ((1, 0, 1),), ""),
        ("s_4^8", _INV_2SQRT3, ((2, 0, 1), (0, 2, -2)), ""),
    ],
    5: [
        ("s_5^0", INV_SQRT6, ((2, 0, 1), (0, 2, -1)), ""),
        ("s_5^1", -_HALF, ((1, 2, 1),), ""),
        ("s_5^2", -_HALF, ((1, 2, 1),), ""),
        ("s_5^3", _HALF, ((2, 0, 1),), ""),
        ("s_5^4", _HALF, ((0, 0, 1), (2, 2, -1)), ""),
        ("s_5^5", -_HALF, ((0, 0, 1), (2, 2, 1)), ""),
        ("s_5^6", _HALF, ((1, 0, 1),), ""),
        ("s_5^7", -_HALF, ((1, 0, 1),), ""),
        ("s_5^8", _INV_2SQRT3, ((0, 2, 2), (2, 0, 1)), ""),
    ],
    6: [
        ("s_6^0", INV_SQRT6, ((1, 0, 1), (2, 1, 1)), ""),
        ("s_6^1", _HALF, ((0, 0, 1),), ""),
        ("s_6^2", -_HALF, ((0, 0, 1),), ""),
        ("s_6^3", _HALF, ((2, 1, 1), (1, 0, -1)), ""),
        ("s_6^4", _HALF, ((0, 1, 1),), ""),
        ("s_6^5", -_HALF, ((0, 1, 1),), ""),
        ("s_6^6", _HALF, ((2, 0, 1), (1, 1, 1)), ""),
        ("s_6^7", -_HALF, ((2, 0, 1), (1, 1, -1)), ""),
        ("s_6^8", _INV_2SQRT3, ((2, 1, 1), (1, 0, 1)), ""),
    ],
    7: [
        ("s_7^0", INV_SQRT6, ((2, 1, 1), (1, 0, -1)), ""),
        ("s_7^1", -_HALF, ((0, 0, 1),), ""),
        ("s_7^2", _HALF, ((0, 0, 1),), ""),
        ("s_7^3", _HALF, ((1, 0, 1), (2, 1, 1)),
         "opening bracket missing before the first term in source"),
        ("s_7^4", _HALF, ((0, 1, 1),), ""),
        ("s_7^5", -_HALF, ((0, 1, 1),), ""),
        ("s_7^6", _HALF, ((1, 1, 1), (2, 0, -1)), ""),
        ("s_7^7", -_HALF, ((1, 1, 1), (2, 0, 1)), ""),
        ("s_7^8", _INV_2SQRT3, ((2, 1, 1), (1, 0, -1)), ""),
    ],
    8: [
        ("s_8^0", _INV_3SQRT2, ((1, 1, 1), (0, 2, -2)), ""),
        ("s_8^1", _INV_2SQRT3, ((0, 1, 1), (1, 0, -2)),
         "closing bracket missing in source"),
        ("s_8^2", -_INV_2SQRT3, ((0, 1, 1), (1, 0, 2)), ""),
        ("s_8^3", -_INV_2SQRT3, ((1, 1, 1),), ""),
        ("s_8^8", _INV_2SQRT3, ((0, 2, 1), (2, 0, -2)),
         "printed label s_8^8 at list position 4"),
        ("s_8^4", -_INV_2SQRT3, ((0, 2, 1), (2, 0, 2)),
         "printed label s_8^4 at list position 5"),
        ("s_8^5", _INV_2SQRT3, ((2, 1, 1), (1, 2, 1)),
         "printed label s_8^5 at list position 6"),
        ("s_8^7", _INV_2SQRT3, ((2, 1, 1), (1, 2, -1)), ""),
        ("s_8^8", _SIXTH, ((0, 0, 4), (1, 1, 1)),
         "label s_8^8 printed twice in this list"),
    ],
}

# ---------------------------------------------------------------------------
# Measurement gates as printed.  Term tuples are (row, col, weight) for the
# ket-bra |row><col|.  Channel-IX labels print the channel/outcome indices
# swapped; they are keyed by list position like the pre-measurement rows.
# ---------------------------------------------------------------------------

_BRACKETLESS = "enclosing brackets absent in source; prefactor read across all terms"

_GATE_SRC = {
    0: [
        ("Λ_0^0", _THIRD, ((0, 0, 1), (1, 1, 1), (2, 2, 1)), ""),
        ("Λ_0^1", INV_SQRT6, ((0, 1, 1), (1, 0, 1)), ""),
        ("Λ_0^2", INV_SQRT6, ((0, 1, 1), (1, 0, -1)), ""),
        ("Λ_0^3", -INV_SQRT6, ((1, 1, 1), (2, 2, 1)), ""),
        ("Λ_0^4", INV_SQRT6, ((0, 2, 1), (2, 0, 1)), ""),
        ("Λ_0^5", INV_SQRT6, ((0, 2, 1), (2, 0, -1)), ""),
        ("λ_0^6", INV_SQRT6, ((1, 2, 1), (2, 1, 1)),
         "label printed lowercase; first term printed as ket-ket, read as |1><2|"),
        ("Λ_0^7", INV_SQRT6, ((1, 2, 1), (2, 1, -1)), ""),
        ("Λ_0^8", _INV_3SQRT2, ((1, 1, 1), (2, 2, 1), (0, 0, -2)),
         "unbalanced parenthesis before the last ket-bra in source"),
    ],
    1: [
        ("Λ̂_1^0", INV_SQRT6, ((0, 1, 1), (1, 0, 1)), _BRACKETLESS),
        ("Λ̂_1^1", _HALF, ((0, 0, 1), (1, 1, 1)), _BRACKETLESS),
        ("Λ̂_1^2", _HALF, ((0, 0, -1), (1, 1, 1)), _BRACKETLESS),
        ("Λ̂_1^3", -_HALF, ((0, 1, 1),), ""),
        ("Λ̂_1^4", _HALF, ((1, 2, 1),), ""),
        ("Λ̂_1^5", _HALF, ((1, 2, 1),), ""),
        ("Λ̂_1^6", _HALF, ((0, 2, 1),), ""),
        ("Λ̂_1^7", _HALF, ((0, 2, 1),), ""),
        ("Λ̂_1^8", _INV_2SQRT3, ((0, 1, 1), (1, 0, -2)),
         "closing bracket missing in source"),
    ],
    2: [
        ("Λ_2^0", INV_SQRT6, ((0, 1, 1), (1, 0, -1)), ""),
        ("Λ_2^1", _HALF, ((0, 0, 1), (1, 1, -1)), _BRACKETLESS),
        ("Λ_2^2", -_HALF, ((0, 0, 1), (1, 1, 1)), _BRACKETLESS),
        ("Λ_2^3", -_HALF, ((0, 1, 1),), ""),
        ("Λ_2^4", -_HALF, ((1, 2, 1),), ""),
        ("Λ_2^5", -_HALF, ((1, 2, 1),), ""),
        ("Λ_2^6", _HALF, ((0, 2, 1),), ""),
        ("Λ_2^7", _HALF, ((0, 2, 1),), ""),
        ("Λ_2^8", _INV_2SQRT3, ((1, 0, 2), (0, 1, 1)), ""),
    ],
    3: [
        ("Λ_3^0", INV_SQRT6, ((1, 1, -1), (2, 2, 1)), ""),
        ("Λ_3^1", -_HALF, ((1, 0, 1),), ""),
        ("Λ_3^2", _HALF, ((1, 0, 1),), ""),
        ("Λ_3^3", _HALF, ((1, 1, 1), (2, 2, 1)), ""),
        ("Λ_3^4", _HALF, ((2, 0, 1),), ""),
        ("Λ_3^5", -_HALF, ((2, 0, 1),), ""),
        ("Λ_3^6", _HALF, ((1, 2, -1), (2, 1, 1)), ""),
        ("Λ_3^7", -_HALF, ((1, 2, 1), (2, 1, 1)), ""),
        ("Λ_3^8", _INV_2SQRT3, ((1, 1, -1), (2, 2, 1)), ""),
    ],
    4: [
        ("Λ_4^0", INV_SQRT6, ((0, 2, 1), (2, 0, 1)), ""),
        ("Λ_4^1", _HALF, ((2, 1, 1),), ""),
        ("Λ_4^2", _HALF, ((2, 1, 1),), ""),
        ("Λ_4^3", _HALF, ((0, 2, 1),), ""),
        ("Λ_4^4", _HALF, ((2, 2, 1), (0, 0, 1)), ""),
        ("Λ_4^5", _HALF, ((2, 2, 1), (0, 0, -1)), ""),
        ("Λ_4^6", _HALF, ((0, 1, 1),), ""),
        ("Λ_4^7", -_HALF, ((0, 1, 1),), ""),
        ("Λ_4^8", _INV_2SQRT3, ((0, 2, 1), (2, 0, -2)), ""),
    ],
    5: [
        ("Λ_5^0", INV_SQRT6, ((0, 2, 1), (2, 0, -1)),
         "mismatched bracket sizes in source"),
        ("Λ_5^1", -_HALF, ((2, 1, 1),), ""),
        ("Λ_5^2", -_HALF, ((2, 1, 1),), ""),
        ("Λ_5^3", _HALF, ((0, 2, 1),), "closing bracket missing in source"),
        ("Λ_5^4", _HALF, ((0, 0, 1), (2, 2, -1)), ""),
        ("Λ_5^5", -_HALF, ((0, 0, 1), (2, 2, 1)), ""),
        ("Λ_5^6", _HALF, ((0, 1, 1),), ""),
        ("Λ_5^7", -_HALF, ((0, 1, 1),), ""),
        ("Λ_5^8", _INV_2SQRT3, ((0, 2, 1), (2, 0, 2)), ""),
    ],
    6: [
        ("Λ_6^0", INV_SQRT6, ((0, 1, 1), (1, 2, 1)), ""),
        ("Λ_6^1", _HALF, ((0, 0, 1),), ""),
        ("Λ_6^2", -_HALF, ((0, 0, 1),), ""),
        ("Λ_6^3", _HALF, ((0, 1, -1), (1, 2, 1)), ""),
        ("Λ_6^4", _HALF, ((0, 1, -1), (1, 2, 1)),
         "printed identical to the previous gate in source"),
        ("Λ_6^5", -_HALF, ((1, 0, 1),), ""),
        ("Λ_6^6", _HALF, ((0, 2, 1), (1, 1, 1)), ""),
        ("Λ_6^7", _HALF, ((0, 2, 1), (1, 1, -1)), ""),
        ("Λ_6^8", _INV_2SQRT3, ((0, 1, 1), (1, 2, 1)), ""),
    ],
    7: [
        ("Λ_7^0", INV_SQRT6, ((0, 1, -1), (1, 2, 1)), ""),
        ("Λ_7^1", -_HALF, ((0, 0, 1),), ""),
        ("Λ_7^2", _HALF, ((0, 0, 1),), ""),
        ("Λ_7^3", _HALF, ((0, 1, 1), (1, 2, 1)), ""),
        ("Λ_7^4", _HALF, ((1, 0, 1),), ""),
        ("Λ_7^5", -_HALF, ((1, 0, 1),), ""),
        ("Λ_7^6", _HALF, ((1, 1, 1), (0, 2, -1)), ""),
        ("Λ_7^7", -_HALF, ((1, 1, 1), (0, 2, 1)), ""),
        ("Λ_7^8", _INV_2SQRT3, ((0, 1, -1), (1, 2, 1)), ""),
    ],
    8: [
        ("Λ_0^8", _INV_3SQRT2, ((0, 0, -2), (1, 1, 1)),
         "channel/outcome indices printed swapped"),
        ("Λ_1^8", _INV_2SQRT3, ((0, 1, -2), (1, 0, 1)),
         "channel/outcome indices printed swapped"),
        ("Λ_2^8", -_INV_2SQRT3, ((0, 1, 2), (1, 0, 1)),
         "channel/outcome indices printed swapped"),
        ("Λ_3^8", -_INV_2SQRT3, ((1, 1, 1),),
         "channel/outcome indices printed swapped"),
        ("Λ_4^8", -_INV_2SQRT3, ((0, 2, -2), (2, 0, 1)),
         "channel/outcome indices printed swapped"),
        ("Λ_5^8", -_INV_2SQRT3, ((0, 2, 2), (2, 0, 1)),
         "channel/outcome indices printed swapped"),
        ("Λ_6^8", _INV_2SQRT3, ((1, 2, 1), (2, 1, 1)),
         "channel/outcome indices printed swapped"),
        ("Λ_7^8", _INV_2SQRT3, ((1, 2, 1), (2, 1, -1)),
         "channel/outcome indices printed swapped"),
        ("Λ_8^8", _SIXTH, ((0, 0, 4), (1, 1, 1)), ""),
    ],
}

# ---------------------------------------------------------------------------
# Basis-inversion rows as printed: |a2>|b> expanded over the entangled
# states.  Terms are (state index, exact coefficient); the printed overall
# prefactor is already folded in.
# ---------------------------------------------------------------------------

_SQRT_3_OVER_2 = ExtScalar(q6=Fraction(1, 2))  # sqrt(3/2) = sqrt6/2

_EXPANSION_SRC = {
    (0, 0): ("Eq. (4a)", INV_SQRT3, ((0, ONE), (8, -SQRT2))),
    (1, 1): ("Eq. (4b)", INV_SQRT3, ((0, ONE), (3, -_SQRT_3_OVER_2), (8, INV_SQRT2))),
    (1, 0): ("Eq. (4c)", INV_SQRT2, ((1, ONE), (2, ONE))),
    (0, 1): ("Eq. (4d)", INV_SQRT2, ((1, ONE), (2, -ONE))),
    (2, 0): ("Eq. (4e)", INV_SQRT2, ((4, ONE), (5, ONE))),
    (0, 2): ("Eq. (4f)", INV_SQRT2, ((4, ONE), (5, -ONE))),
    (2, 1): ("Eq. (4g)", INV_SQRT2, ((6, ONE), (7, ONE))),
    (1, 2): ("Eq. (4h)", INV_SQRT2, ((6, ONE), (7, -ONE))),
    (2, 2): ("Eq. (4i)", INV_SQRT3, ((0, ONE), (3, _SQRT_3_OVER_2), (8, INV_SQRT2))),
}

# Document-level label anomalies that carry no numeric payload.
_DOCUMENT_ANOMALIES = (
    ("Eq. (3e)", "(3e)",
     "equation label printed twice, for both the fourth and fifth states; "
     "states are keyed by their subscripts"),
    ("Eq. (9)", "|Ψ_5^0⟩_{A1A2}",
     "stray superscript 0 on a summand label; read as |Ψ_5⟩_{A1A2}"),
    ("Eq. (9)", "|Ψ_7⟩_{TA}",
     "site subscript printed TA; read as A1A2"),
    ("Eq. (11g)", "λ_0^6",
     "gate label printed lowercase and first term printed as ket-ket"),
    ("Appendix (viii), pre-measurement list", "s_8^0 … s_8^8",
     "outcome labels printed out of order (0,1,2,3,8,4,5,7,8): k=6 missing, "
     "k=8 duplicated; mapping from position to outcome is ambiguous and the "
     "transcription keys entries by position"),
    ("Appendix (viii), gate list", "Λ_0^8 … Λ_8^8",
     "channel and outcome indices printed swapped throughout; entries keyed "
     "by list position"),
)

_ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")
_EQ_LETTERS = "abcdefghi"


def _source_row(source: dict, i: int, k: int, missing: str) -> tuple:
    """Row k of channel i in a printed grid table, by list position."""
    i, k = _check_index("channel", i, None), _check_index("outcome", k, None)
    rows = source.get(i, ())
    if not 0 <= k < len(rows):
        raise KeyError(f"no printed {missing} for channel {i}, outcome {k}")
    return rows[k]


@lru_cache(maxsize=None, typed=True)
def paper_premeasure(i: int, k: int) -> Operator3:
    """The printed pre-measurement state; term (amplitude j, ket b, weight)
    sits at grid row b, column j."""
    _, scale, terms, _ = _source_row(_PREMEASURE_SRC, i, k, "pre-measurement state")
    return Operator3.from_terms(scale, ((b, j, w) for j, b, w in terms))


@lru_cache(maxsize=None, typed=True)
def paper_gate(i: int, k: int) -> Operator3:
    _, scale, terms, _ = _source_row(_GATE_SRC, i, k, "gate")
    return Operator3.from_terms(scale, terms)


@lru_cache(maxsize=None, typed=True)
def paper_expansion(a2: int, b: int) -> ExpansionRow:
    a2, b = _check_index("a2", a2, None), _check_index("b", b, None)
    try:
        _, scale, terms = _EXPANSION_SRC[(a2, b)]
    except KeyError:
        raise KeyError(f"no printed expansion row for |{a2}>|{b}>")
    weights = dict(terms)
    return ExpansionRow(a2, b, tuple(scale * weights.get(i, 0) for i in range(9)))


# ---------------------------------------------------------------------------
# Errata diff.
# ---------------------------------------------------------------------------


class ErrataEntry(namedtuple(
    "ErrataEntry",
    "location kind channel outcome printed_label discrepancy notes paper_value oracle_value",
    defaults=(None, None),
)):
    """One diffed value.  Equality and hashing ignore `paper_value` and
    `oracle_value`, the two values the other fields describe."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:7] == other[:7]

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:7])


class ErrataReport(namedtuple("ErrataReport", "entries summary")):
    __slots__ = ()

    def mismatches(self) -> tuple:
        return tuple(
            e
            for e in self.entries
            if e.kind != KIND_LABEL and e.discrepancy != MATCH
        )


def _classify(paper: tuple, oracle: tuple, support, swapped=None) -> str:
    """The discrepancy ladder over two flat tuples of exact scalars; `==` is
    exact because `ExtScalar` is canonical.  `swapped` is the kind's index-swap
    test, if it has one, and `support` gives the nonzero positions that count."""
    if paper == oracle:
        return MATCH
    if paper == tuple(-x for x in oracle):
        return SIGN
    if swapped is not None and swapped():
        return INDEX_SWAP
    paper_support, oracle_support = support(paper), support(oracle)
    if paper_support < oracle_support:
        return MISSING_TERM
    if oracle_support < paper_support:
        return EXTRA_TERM
    return COEFFICIENT


def _support(values: tuple) -> frozenset:
    return frozenset(i for i, v in enumerate(values) if not v.is_zero())


def _row_support(values: tuple) -> frozenset:
    return frozenset(i // 3 for i in _support(values))


def classify_ket(paper: Operator3, oracle: Operator3) -> str:
    """Grids with row b = the amplitude on |b>: a row permutation is an index
    swap, and the support is the nonzero rows."""
    return _classify(
        paper.flat(),
        oracle.flat(),
        _row_support,
        lambda: oracle.rows in permutations(paper.rows),
    )


def classify_gate(paper: Operator3, oracle: Operator3) -> str:
    """A transpose is an index swap; the support is the nonzero entries."""
    return _classify(
        paper.flat(), oracle.flat(), _support, lambda: paper == oracle.dagger()
    )


def classify_expansion(paper: ExpansionRow, oracle: ExpansionRow) -> str:
    """No index swap; the support is the nonzero coefficients."""
    return _classify(paper.coefficients, oracle.coefficients, _support)


def compare_tables() -> ErrataReport:
    """Exact diff of every transcribed value against the oracle derivation.

    Deterministic: entry order is expansion rows, then pre-measurement
    states, then gates (each in index order), then document anomalies.
    """
    entries = []
    for (a2, b), (location, _, _) in sorted(_EXPANSION_SRC.items()):
        paper, oracle = paper_expansion(a2, b), expand_product(a2, b)
        entries.append(ErrataEntry(
            location, KIND_EXPANSION, None, None, f"|{a2}⟩|{b}⟩",
            classify_expansion(paper, oracle), "", paper, oracle,
        ))
    for kind, source, paper_of, classify, equation in (
        (KIND_PREMEASURE, _PREMEASURE_SRC, paper_premeasure, classify_ket, "10"),
        (KIND_GATE, _GATE_SRC, paper_gate, classify_gate, "11"),
    ):
        for i, rows in source.items():
            for k, (label, _, _, notes) in enumerate(rows):
                if i == 0:
                    location = f"Eq. ({equation}{_EQ_LETTERS[k]})"
                else:
                    location = f"Appendix ({_ROMAN[i - 1]}), {label}"
                paper, oracle = paper_of(i, k), engine.derive_gate(i, k)
                entries.append(ErrataEntry(
                    location, kind, i, k, label, classify(paper, oracle), notes,
                    paper, oracle,
                ))
    entries.extend(
        ErrataEntry(location, KIND_LABEL, None, None, label, LABEL_ANOMALY, notes)
        for location, label, notes in _DOCUMENT_ANOMALIES
    )

    summary = {name: 0 for name in DISCREPANCY_CLASSES}
    for e in entries:
        summary[e.discrepancy] += 1
    return ErrataReport(tuple(entries), summary)
