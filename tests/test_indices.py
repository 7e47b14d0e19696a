"""One index rule for every public name that takes an index.

Each channel, outcome, entangled-state or ket index goes through
`basis._check_index`: a bool or a non-integer raises TypeError naming the
argument, an int out of range raises ValueError (the printed tables of
`published` raise their KeyError instead), and a numpy integer reads as the
int it equals.  The index-keyed caches are typed, so every bad value is
tried after the int's entry has been warmed: an untyped cache would hand
``True`` or ``1.0`` that entry.  An object that cannot be hashed cannot
key a cache, so a cached name refuses it with the hash's own TypeError,
before the check.  `test_cli_contract.py` runs the same table over arbitrary objects.
"""

import numpy as np
import pytest

from qutrit_teleport.analysis import (
    channel_census,
    channel_profiles,
    completeness,
    expected_fidelities,
)
from qutrit_teleport.basis import entangled_state, expand_product, family_of
from qutrit_teleport.engine import delta_qt, derive_gate, reconstruction_residual
from qutrit_teleport.published import paper_expansion, paper_gate, paper_premeasure
from qutrit_teleport.render import channel_name
from qutrit_teleport.simulate import (
    fidelity_after_recovery,
    numeric_channel,
    outcome_distribution,
    outcome_probability,
    run_batch,
    run_trial,
)

# every amplitude nonzero, so every outcome of every channel has mass
_PHI = (1 / 3, 2j / 3, 2 / 3)
_GATE = derive_gate(1, 1)
_GATE_MISSING = "no printed gate for channel {0}, outcome {1}"
_PREMEASURE_MISSING = "no printed pre-measurement state for channel {0}, outcome {1}"
_EXPANSION_MISSING = "no printed expansion row for |{0}>|{1}>"

# (function, valid arguments, position of the index, its name, its size,
# the KeyError message of a printed table that has no such row or None)
INDEX_ARGUMENTS = [
    (entangled_state, (1,), 0, "entangled state", 9, None),
    (family_of, (1,), 0, "entangled state", 9, None),
    (expand_product, (1, 1), 0, "a2", 3, None),
    (expand_product, (1, 1), 1, "b", 3, None),
    (derive_gate, (1, 1), 0, "channel", 9, None),
    (derive_gate, (1, 1), 1, "outcome", 9, None),
    (delta_qt, (1, 1, _GATE), 0, "channel", 9, None),
    (delta_qt, (1, 1, _GATE), 1, "outcome", 9, None),
    (reconstruction_residual, (1,), 0, "channel", 9, None),
    (completeness, (1,), 0, "channel", 9, None),
    (channel_profiles, (1,), 0, "channel", 9, None),
    (channel_census, (1,), 0, "channel", 9, None),
    (numeric_channel, (1, False), 0, "channel", 9, None),
    (outcome_distribution, (1, _PHI), 0, "channel", 9, None),
    (outcome_probability, (1, 1, _PHI), 0, "channel", 9, None),
    (outcome_probability, (1, 1, _PHI), 1, "outcome", 9, None),
    (fidelity_after_recovery, (1, 1, _PHI), 0, "channel", 9, None),
    (fidelity_after_recovery, (1, 1, _PHI), 1, "outcome", 9, None),
    (expected_fidelities, (1, _PHI), 0, "channel", 9, None),
    (paper_gate, (1, 1), 0, "channel", 9, _GATE_MISSING),
    (paper_gate, (1, 1), 1, "outcome", 9, _GATE_MISSING),
    (paper_premeasure, (1, 1), 0, "channel", 9, _PREMEASURE_MISSING),
    (paper_premeasure, (1, 1), 1, "outcome", 9, _PREMEASURE_MISSING),
    (paper_expansion, (1, 1), 0, "a2", 3, _EXPANSION_MISSING),
    (paper_expansion, (1, 1), 1, "b", 3, _EXPANSION_MISSING),
    (run_trial, (1, _PHI, 0), 0, "channel", 9, None),
    (run_batch, (1, 20, 0, _PHI), 0, "channel", 9, None),
    (channel_name, (1, True), 0, "channel", 9, None),
]


def case_id(case) -> str:
    return f"{case[0].__name__}-{case[3].replace(' ', '_')}"


def with_index(case, value) -> tuple:
    """The case's valid arguments with `value` at the index position."""
    args, position = case[1], case[2]
    return args[:position] + (value,) + args[position + 1:]


def expected_error(case, value):
    """(exception type, message) that the rule raises for `value`, or None."""
    fn, _, _, name, size, missing = case
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        if hasattr(fn, "cache_info"):
            try:
                hash(value)
            except TypeError as exc:
                return TypeError, str(exc)
        return TypeError, f"{name} must be an integer, not {type(value).__name__}"
    if 0 <= value < size:
        return None
    if missing is not None:
        return KeyError, missing.format(*with_index(case, int(value)))
    return ValueError, f"{name} index {value} out of range 0..{size - 1}"


@pytest.mark.parametrize("value", [True, 1.0, "1", None, -1, 9], ids=repr)
@pytest.mark.parametrize("case", INDEX_ARGUMENTS, ids=case_id)
def test_a_bad_index_raises_the_rules_error_after_the_int_ran(case, value):
    fn = case[0]
    fn(*case[1])
    error, message = expected_error(case, value)
    with pytest.raises(error) as info:
        fn(*with_index(case, value))
    assert info.type is error
    assert info.value.args == (message,)


@pytest.mark.parametrize("case", INDEX_ARGUMENTS, ids=case_id)
def test_a_numpy_integer_index_reads_as_its_int(case):
    fn = case[0]
    want = fn(*case[1])
    entries = numeric_channel.cache_info().currsize
    np.testing.assert_equal(fn(*with_index(case, np.int64(1))), want)
    # a direct call keys its own typed entry; every other name passes the int on
    if fn is not numeric_channel:
        assert numeric_channel.cache_info().currsize == entries
