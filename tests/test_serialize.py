"""The exact JSON wire form against `Fraction`-based oracles.

`dumps_canonical` is the package's own JSON writer, which writes each
`ExtScalar` as its four-key object directly, and `scalar_from_obj` builds
an element from four integer pairs.  The oracles here are the forms they
replaced: each scalar as a dict of `Fraction` "p/q" strings encoded by
plain ``json.dumps``, and the `Fraction` parse of each literal.
"""

import enum
import json
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, strategies as st

from qutrit_teleport import cli, serialize
from qutrit_teleport.exact import ExtScalar
from qutrit_teleport.serialize import _RATIONAL_RE, _SCALAR_KEYS, scalar_from_obj


def fraction_scalar_obj(x: ExtScalar) -> dict:
    return {
        key: f"{q.numerator}/{q.denominator}"
        for key, q in zip(_SCALAR_KEYS, (x.q1, x.q2, x.q3, x.q6))
    }


def _plain(doc):
    """`doc` with every `ExtScalar` replaced by its `Fraction` dict."""
    if isinstance(doc, ExtScalar):
        return fraction_scalar_obj(doc)
    if isinstance(doc, dict):
        return {key: _plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(value) for value in doc]
    return doc


def oracle_dumps(doc) -> str:
    return json.dumps(_plain(doc), ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _holds_scalar(doc) -> bool:
    if isinstance(doc, ExtScalar):
        return True
    if isinstance(doc, dict):
        return any(map(_holds_scalar, doc.values()))
    if isinstance(doc, (list, tuple)):
        return any(map(_holds_scalar, doc))
    return False


@pytest.mark.parametrize(
    "argv",
    [
        ["export"],
        ["derive", "--channel", "3", "--format", "json"],
        ["derive", "--channel", "5", "--outcome", "2", "--format", "json"],
        ["basis", "--format", "json"],
        ["analyze", "--format", "json"],
        ["analyze", "--channel", "6", "--format", "json"],
        ["compare", "--format", "json"],
    ],
    ids=lambda argv: "-".join(a.strip("-") for a in argv),
)
def test_cli_documents_equal_the_fraction_encoding(argv, capsys, monkeypatch):
    documents = []
    writer = serialize.dumps_canonical

    def recording(doc):
        documents.append(doc)
        return writer(doc)

    monkeypatch.setattr(serialize, "dumps_canonical", recording)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    [doc] = documents
    assert _holds_scalar(doc)
    assert out == oracle_dumps(doc)


_HUGE = 2**80
_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-8, max_value=8, max_denominator=8),
    st.builds(Fraction, st.integers(-_HUGE, _HUGE), st.integers(1, _HUGE)),
)
_scalars = st.builds(ExtScalar, _rationals, _rationals, _rationals, _rationals)
# NUL and digits drawn often: a string of them must be written as any other
_strings = st.text(alphabet=st.one_of(st.sampled_from("\0" + "0123"), st.characters()), max_size=8)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Text(str):
    pass


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_leaves = st.one_of(
    _scalars,
    st.none(),
    st.booleans(),
    st.integers(-_HUGE, _HUGE),
    _finite_floats,
    _strings,
    # subclasses of int, float and str are written as their base type
    st.sampled_from(_Level),
    _finite_floats.map(np.float64),
    _strings.map(_Text),
)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_strings, children, max_size=4),
    ),
    max_leaves=24,
)


@given(_documents)
def test_writer_equals_the_fraction_encoding_at_every_depth(doc):
    assert serialize.dumps_canonical(doc) == oracle_dumps(doc)


def test_a_nul_and_digits_string_beside_a_scalar_is_written_as_json_writes_it():
    doc = {"a": ExtScalar(1), "b": "\0" + "0", "c": ["\0" + "1", ExtScalar(0, 2)]}
    assert serialize.dumps_canonical(doc) == oracle_dumps(doc)
    assert '"b": "\\u00000"' in serialize.dumps_canonical(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [{2: "b", 1: "a"}, {2.5: "x", -0.5: "y"}, {True: "t", False: "f"}, {None: "n"}],
        {"n": float("nan"), "i": float("inf"), "m": float("-inf")},
        [np.float64(0.1), _Level.HIGH, _Text("t"), False, (), {}, [[]]],
    ],
    ids=["non-string-keys", "non-finite-floats", "subclasses-and-empties"],
)
def test_writer_equals_json_on_keys_non_finite_floats_and_subclasses(doc):
    assert serialize.dumps_canonical(doc) == oracle_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [{1, 2}, [b"bytes"], {"a": np.bool_(True)}, {"a": [object()]}, {(1, 2): 0}, {None: 0, "a": 1}],
    ids=["set", "bytes", "numpy-bool", "object", "tuple-key", "unsortable-keys"],
)
def test_an_unsupported_value_raises_the_type_error_json_raises(doc):
    with pytest.raises(TypeError) as expected:
        oracle_dumps(doc)
    with pytest.raises(TypeError) as raised:
        serialize.dumps_canonical(doc)
    assert str(raised.value) == str(expected.value)


def fraction_scalar_from_obj(obj) -> ExtScalar:
    """The parse `scalar_from_obj` replaced: each literal through `Fraction`."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a scalar object, got {type(obj).__name__}")
    serialize._check_keys(obj, _SCALAR_KEYS, "scalar")
    for key in _SCALAR_KEYS:
        raw = obj[key]
        if not isinstance(raw, str) or not _RATIONAL_RE.fullmatch(raw):
            raise ValueError(f"malformed rational literal for {key}: {raw!r}")
    return ExtScalar(*(Fraction(obj[key]) for key in _SCALAR_KEYS))


_zeros = st.integers(0, 3).map(lambda n: "0" * n)
_literals = st.builds(
    lambda sign, zn, p, zq, q: f"{sign}{zn}{p}/{zq}{q}",
    st.sampled_from(["", "-"]),
    _zeros,
    st.integers(0, _HUGE),
    _zeros,
    st.one_of(st.integers(1, 12), st.integers(1, _HUGE)),
)


@given(st.tuples(_literals, _literals, _literals, _literals))
def test_parser_equals_the_fraction_parse(literals):
    obj = dict(zip(_SCALAR_KEYS, literals))
    parsed = scalar_from_obj(obj)
    assert parsed._n == fraction_scalar_from_obj(obj)._n


def test_parser_reads_leading_zero_denominators():
    obj = {"q1": "3/007", "q2": "-0/0012", "q3": "-006/4", "q6": "0/1"}
    assert scalar_from_obj(obj)._n == (6, 0, -21, 0, 14)
    assert scalar_from_obj(obj)._n == fraction_scalar_from_obj(obj)._n


_VALID = {"q1": "1/2", "q2": "0/1", "q3": "-3/4", "q6": "0/1"}
# Too long for int() where Python limits the digits it reads from a string
# (3.10.7 and later); where it does not, both parses read it.
_LONG = "1" * 5000
_MALFORMED = [
    ["q1", "1/2"],
    {"q1": "1/2"},
    {**_VALID, "q7": "0/1"},
    {**_VALID, "q2": 5},
    {**_VALID, "q2": None},
    {**_VALID, "q2": "1.5"},
    {**_VALID, "q2": "1/0"},
    {**_VALID, "q2": "-3/00"},
    {**_VALID, "q2": "\u0663/4"},
    {**_VALID, "q2": "1/1\u0662"},
    {**_VALID, "q2": "1/2\n"},
    {**_VALID, "q2": " 1/2"},
    {**_VALID, "q2": "+1/2"},
    {**_VALID, "q2": "1_0/2"},
    {**_VALID, "q2": "1"},
    {**_VALID, "q2": _LONG + "/3"},
    {**_VALID, "q2": "1/" + _LONG},
    {**_VALID, "q1": _LONG + "/3", "q6": "x"},
]


def _outcome(parse, obj):
    try:
        return parse(obj)._n
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("obj", _MALFORMED, ids=range(len(_MALFORMED)))
def test_malformed_literal_messages_equal_the_fraction_parse(obj):
    expected = _outcome(fraction_scalar_from_obj, obj)
    assert _outcome(scalar_from_obj, obj) == expected
    assert isinstance(expected, str) or _LONG in str(obj)
