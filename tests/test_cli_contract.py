"""The failure contract of every subcommand, driven by hypothesis.

Whatever the argv or the file, `cli.main` returns instead of raising; the
exit code is 0, 1 or 2; stderr holds at most one line; and a usage error
(exit 1) writes nothing to stdout and creates no `--out` file.  A numpy
warning would be a second stderr line in a real process, so warnings are
errors here.  Accepted trial counts stay at or below 10**4, so each
example is cheap; the invalid counts must be refused before the batch
allocates anything.  No argv holds ``-h``: help, like ``--version``,
prints to stdout even when ``--out`` is given, and `test_cli.py` covers
both.  The library keeps the one index rule of `test_indices.py` for any
object passed as an index.  Each test runs at least its own number of
examples, more under a profile that asks for more.
"""

import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st
from test_indices import INDEX_ARGUMENTS, case_id, expected_error, with_index

from qutrit_teleport import engine, serialize, simulate
from qutrit_teleport.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

_CONTRACT = settings(
    max_examples=max(500, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _run(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- simulate --------------------------------------------------------------------

# the invalid trial counts: none may reach the batch
_BAD_TRIALS = ["0", "-1", str(2**32), str(2**64), "ten", "1.5", "", "1e3", "0x10"]
_TRIALS = (
    st.integers(1, 40).map(str)
    | st.sampled_from(["1000", "1001", str(10**4), "1_0", " 7 "])
    | st.sampled_from(_BAD_TRIALS)
)
_CHANNEL_TEXT = st.integers(-3, 12).map(str) | st.text(max_size=4)
_SEEDS = (
    st.integers(0, 2**64 + 5).map(str)
    | st.sampled_from(["-1", str(3**200), "1" * 5000, "seed", ""])
)
_NUMBER_TEXT = st.floats().map(repr) | st.sampled_from(
    ["0", "1", "0.6", "0.8", "-0.8", "nan", "inf", "1e400", "1e-170", ""]
)


def _unit_text(components):
    norm = math.sqrt(sum(x * x for x in components))
    return ",".join(repr(x / norm) for x in components)


_STATES = (
    st.sampled_from(["1,0,0,0,0,0", "0.6,0,0,0.8,0,0", "0,0.6,0,0,0,-0.8", "0.6,0,0,0.8"])
    | st.lists(st.floats(-1, 1), min_size=6, max_size=6)
    .filter(lambda xs: any(abs(x) > 1e-3 for x in xs))
    .map(_unit_text)
    | st.lists(_NUMBER_TEXT, min_size=6, max_size=6).map(",".join)
    | st.lists(_NUMBER_TEXT | st.text(max_size=4), max_size=8).map(",".join)
)
_OUT_NAMES = st.sampled_from(["sim.out", "other.out", "missing/sim.out", ".", ""])


def _out_path(out_dir, name):
    """`name` under `out_dir`; the empty name stays the empty path."""
    return str(out_dir / name) if name else ""


def _options(out_dir):
    out = _OUT_NAMES.map(lambda name: ["--out", _out_path(out_dir, name)])
    return st.one_of(
        _CHANNEL_TEXT.map(lambda c: ["--channel", c]),
        _TRIALS.map(lambda t: ["--trials", t]),
        _TRIALS.map(lambda t: [f"--trials={t}"]),
        _SEEDS.map(lambda s: ["--seed", s]),
        _STATES.map(lambda s: [f"--state={s}"]),
        _STATES.map(lambda s: ["--state", s]),
        st.just(["--haar"]),
        st.just(["--use-paper-gates"]),
        st.sampled_from(["json", "csv", "xml", ""]).map(lambda f: ["--format", f]),
        out,
    )


@_CONTRACT
@given(data=st.data())
def test_simulate_argv_keeps_the_failure_contract(tmp_path, capsys, data):
    channel = data.draw(st.sampled_from([None, "0", "8"]) | st.integers(0, 8).map(str))
    options = data.draw(st.lists(_options(tmp_path), max_size=6))
    argv = ["simulate", *(["--channel", channel] if channel else [])]
    argv += [token for option in options for token in option]
    outs = [tmp_path / name for name in ("sim.out", "other.out")]
    try:
        code, out, err = _run(capsys, argv)
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_USAGE)
        assert err.count("\n") <= 1
        if code == EXIT_USAGE:
            assert out == ""
            assert err.startswith("usage error: ") and err.endswith("\n")
            assert not any(path.exists() for path in outs)
        elif "--out" not in argv:
            assert err == ""
            assert out.startswith(("{", "trial_index,"))
    finally:
        for path in outs:
            path.unlink(missing_ok=True)


@pytest.mark.parametrize("haar", [False, True], ids=["fixed", "haar"])
@pytest.mark.parametrize("trials", _BAD_TRIALS)
def test_invalid_trial_counts_are_refused_before_any_allocation(capsys, trials, haar):
    # the channel's cached arrays are built first; what is left to trace is
    # parsing, validation and the refusal
    simulate.numeric_channel(0, False)
    mode = ["--haar"] if haar else ["--state=0.6,0,0,0.8,0,0"]
    main(["simulate", "--channel", "0", "--trials", "1", *mode])
    capsys.readouterr()
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, ["simulate", "--channel", "0", f"--trials={trials}", *mode])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert peak < 2**20


# -- the exact subcommands -------------------------------------------------------

_FORMATS = {
    "basis": ("text", "json", "latex"),
    "derive": ("json", "latex", "text"),
    "compare": ("json", "markdown", "latex"),
    "analyze": ("json", "markdown"),
}
# index texts out of 0..8, odd spellings and no number at all; a free text
# never starts with "-", which could read as an option (-h among them)
_BAD_INDEX = st.sampled_from(
    ["-1", "9", "12", "", " 3", "3.0", "+4", "08", "0x1", "1_0"]
) | st.text(max_size=3).filter(lambda t: not t.startswith("-"))
_BAD_FORMATS = ["xml", "", "JSON"]
# --out paths that cannot be written
_BAD_OUT = ["missing/exact.out", ".", ""]
_BAD_OUT += ["/dev/full"] if os.path.exists("/dev/full") else []
# tokens no subcommand here accepts, and options left without their value
# (a bare --out is left out: it would write to the token after it)
_STRAY = st.sampled_from(
    [["--bogus"], ["extra"], ["--trials", "3"], ["--haar"], ["--roman=1"], ["--channel"],
     ["--format"]]
)


def _exact_options(command, out_dir, valid):
    """One option of `command`; when not `valid`, its value may be refused."""
    def values(good, bad):
        return st.sampled_from(good) if valid else st.sampled_from(good) | bad

    outs = values(["exact.out"], st.sampled_from(_BAD_OUT))
    options = [outs.map(lambda name: ["--out", _out_path(out_dir, name)])]
    if command in _FORMATS:
        formats = values(_FORMATS[command], st.sampled_from(_BAD_FORMATS))
        options += [formats.map(lambda f: ["--format", f]), formats.map(lambda f: [f"--format={f}"])]
    index = values([str(i) for i in range(9)], _BAD_INDEX)
    if command in ("derive", "analyze"):
        options.append(index.map(lambda c: ["--channel", c]))
    if command == "derive":
        options.append(index.map(lambda k: ["--outcome", k]))
    if command in ("derive", "compare", "analyze"):
        options.append(st.just(["--roman"]))
    if command == "compare":
        options.append(st.just(["--fail-on-mismatch"]))
    return st.one_of(options)


@pytest.mark.parametrize("command", ["basis", "derive", "verify", "compare", "analyze", "export"])
@settings(_CONTRACT, max_examples=max(300, settings.default.max_examples))
@given(data=st.data())
def test_exact_argv_keeps_the_failure_contract(tmp_path, capsys, monkeypatch, command, data):
    # run in the empty tmp_path, so any file the run creates shows up there
    monkeypatch.chdir(tmp_path)
    # half the argvs are valid ones, so that the handlers run as often as
    # the refusals
    valid = data.draw(st.booleans())
    options = data.draw(st.lists(_exact_options(command, tmp_path, valid), max_size=5))
    if not valid:
        for stray in data.draw(st.lists(_STRAY, max_size=1)):
            options.insert(data.draw(st.integers(0, len(options))), stray)
    argv = [command, *(token for option in options for token in option)]
    out = tmp_path / "exact.out"
    try:
        code, stdout, err = _run(capsys, argv)
        event(f"exit {code}")
        # only a report of mismatches exits 2
        assert code in (EXIT_OK, EXIT_USAGE) or (command, code) == ("compare", EXIT_VIOLATION)
        assert code != EXIT_USAGE or not valid
        assert err.count("\n") <= 1
        if code == EXIT_USAGE:
            assert stdout == ""
            assert err.startswith("usage error: ") and err.endswith("\n")
            assert not any(tmp_path.iterdir())
        else:
            assert err == ""
            # the output went to --out, or else to stdout
            assert (stdout == "") == ("--out" in argv)
            assert stdout or out.read_text(encoding="utf-8")
            assert [path.name for path in tmp_path.iterdir()] == ([] if stdout else [out.name])
    finally:
        out.unlink(missing_ok=True)


# -- import ----------------------------------------------------------------------

_TABLE_TEXT = serialize.gate_table_dumps(
    {(i, k): engine.derive_gate(i, k) for i in range(9) for k in range(9)}
)
_ODD_VALUES = st.sampled_from(
    [True, False, None, 1.5, -1, 2**70, "x", "1/3", "1/0", "0" * 5000 + "1/3", [], {}, [[[[]]]]]
) | st.integers()


@st.composite
def _byte_mutations(draw):
    """The table's bytes with up to three slices deleted, replaced,
    duplicated or cut short, or digits changed."""
    data = bytearray(_TABLE_TEXT.encode())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = min(len(data), i + draw(st.integers(0, 40)))
        kind = draw(st.sampled_from(["digit", "delete", "insert", "duplicate", "truncate"]))
        if kind == "digit":
            at = [t for t, byte in enumerate(data) if chr(byte).isdigit()]
            if at:
                data[draw(st.sampled_from(at))] = ord(draw(st.sampled_from("0123456789")))
        elif kind == "delete":
            del data[i:j]
        elif kind == "insert":
            data[i:j] = draw(
                st.binary(max_size=8)
                | st.sampled_from([b"NaN", b"Infinity", b"1e999", b'"', b"{", b"]", b"\xff"])
            )
        elif kind == "duplicate":
            data[i:i] = data[i:j]
        else:
            del data[i:]
    return bytes(data)


@st.composite
def _structure_mutations(draw):
    """The parsed table with one key dropped, added or given a value of the
    wrong type, a huge literal, a NaN or deep nesting, written back."""
    doc = json.loads(_TABLE_TEXT)
    gate = doc["gates"][draw(st.integers(0, len(doc["gates"]) - 1))]
    row = gate["entries"][draw(st.integers(0, 2))]
    scalar = row[draw(st.integers(0, 2))]
    target = draw(st.sampled_from([doc, gate, scalar]))
    key = draw(st.sampled_from(sorted(target)) | st.sampled_from(["extra", "q9", ""]))
    kind = draw(st.sampled_from(["drop", "value", "nan", "nest"]))
    if kind == "drop":
        target.pop(key, None)
    elif kind == "value":
        target[key] = draw(_ODD_VALUES)
    elif kind == "nan":
        target[key] = float("nan")
    else:
        target[key] = "\u0000"
        depth = draw(st.sampled_from([3, 100, 5000]))
        return json.dumps(doc).replace('"\\u0000"', "[" * depth + "]" * depth).encode()
    return json.dumps(doc).encode()


@_CONTRACT
@given(content=st.binary(max_size=300) | _byte_mutations() | _structure_mutations())
def test_import_files_keep_the_failure_contract(tmp_path, capsys, content):
    path = tmp_path / "table.json"
    path.write_bytes(content)
    code, out, err = _run(capsys, ["import", str(path)])
    event(f"exit {code}" + (" with a report" if code == EXIT_VIOLATION and out else ""))
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION)
    assert err.count("\n") <= 1
    if code == EXIT_OK:
        assert err == "" and out.endswith(" gates match the derivation exactly\n")
    elif err:
        # a table that cannot be read: one line on stderr, nothing on stdout
        assert out == "" and err.startswith("malformed gate table: ") and err.endswith("\n")
    else:
        # a readable table that differs: the report on stdout
        assert code == EXIT_VIOLATION and " gates differ from the derivation: " in out


# -- library index arguments ------------------------------------------------------

_ANY_OBJECT = (
    st.integers()
    | st.integers(-2, 10).map(np.int64)
    | st.integers(-2, 10).map(np.int32)
    | st.booleans()
    | st.none()
    | st.floats()
    | st.fractions()
    | st.decimals()
    | st.complex_numbers()
    | st.text(max_size=3)
    | st.binary(max_size=3)
    | st.lists(st.integers(0, 8), max_size=2)
    | st.tuples(st.integers(0, 8))
)


@_CONTRACT
@given(case=st.sampled_from(INDEX_ARGUMENTS), value=_ANY_OBJECT)
def test_any_object_as_an_index_keeps_the_index_rule(case, value):
    fn = case[0]
    event(case_id(case))
    fn(*case[1])  # the int's cache entry is warm
    expected = expected_error(case, value)
    if expected is None:
        # an in-range integer of any type reads as the plain int
        np.testing.assert_equal(fn(*with_index(case, value)), fn(*with_index(case, int(value))))
        return
    with pytest.raises(expected[0]) as info:
        fn(*with_index(case, value))
    assert info.type is expected[0] and info.value.args == (expected[1],)
