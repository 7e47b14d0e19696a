"""CLI behavior: exit codes, schemas, determinism, round-trips."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qutrit_teleport
from qutrit_teleport import analysis, cli, engine, serialize, simulate
from qutrit_teleport.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from qutrit_teleport.exact import ONE, rational
from qutrit_teleport.linalg import Operator3


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == EXIT_OK
    assert "all checks passed" in out
    assert out.count("ok  ") == 7


def _plus_unit(rows, r, c):
    """An exact grid with one added at (r, c)."""
    return tuple(
        tuple(x + ONE if (i, j) == (r, c) else x for j, x in enumerate(row))
        for i, row in enumerate(rows)
    )


# One case per verify check: the check's name, the attribute patched, the
# replacement built from the original, and the witness the check must print.
# The residual case's witness value is checked against delta_qt instead.
_BROKEN_CHECKS = [
    pytest.param(
        "orthonormality of the entangled basis",
        (cli, "gram_matrix"),
        lambda gram: lambda: _plus_unit(gram(), 2, 5),
        "Gram matrix - identity entry [2][5] = 1",
        id="orthonormality",
    ),
    pytest.param(
        "completeness of the entangled basis",
        (cli, "projector_sum"),
        lambda projectors: lambda: _plus_unit(projectors(), 4, 4),
        "projector sum - identity entry [4][4] = 1",
        id="basis-completeness",
    ),
    pytest.param(
        "product-state inversion round-trip",
        (cli, "reconstruct_product"),
        lambda rebuild: lambda row: rebuild(row).scaled(rational(2)),
        "(a2, b) = (0, 0): reconstruction - unit entry [0][0] = 1",
        id="inversion",
    ),
    pytest.param(
        # a transposed gate breaks the residual of every non-symmetric gate
        "teleportation residual zero for all 81 gates",
        (engine, "derive_gate"),
        lambda derive: lambda i, k: derive(i, k).dagger(),
        None,
        id="residual",
    ),
    pytest.param(
        "composite-state reconstruction per channel",
        (engine, "reconstruction_residual"),
        lambda residual: lambda i: (
            _plus_unit(residual(i), 3, 1) if i == 2 else residual(i)
        ),
        "channel 2: residual entry [3][1] = 1",
        id="reconstruction",
    ),
    pytest.param(
        "measurement completeness per channel",
        (analysis, "completeness"),
        lambda total: lambda i: total(i).scaled(rational(3)) if i == 5 else total(i),
        "channel 5: sum of G^T G - identity entry [0][0] = 2",
        id="measurement-completeness",
    ),
    pytest.param(
        "non-unitarity of all 81 gates",
        (engine, "derive_gate"),
        lambda derive: lambda i, k: (
            Operator3.identity() if (i, k) == (6, 7) else derive(i, k)
        ),
        "(channel, outcome) = (6, 7): G^T G = identity",
        id="non-unitarity",
    ),
]


@pytest.mark.parametrize("check, target, breaker, expected", _BROKEN_CHECKS)
def test_verify_failure_names_a_location_and_a_witness(
    capsys, monkeypatch, check, target, breaker, expected
):
    module, name = target
    original = getattr(module, name)
    monkeypatch.setattr(module, name, breaker(original))
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == EXIT_VIOLATION
    lines = out.splitlines()
    at = lines.index(f"FAIL {check}")
    if expected is None:
        witness = re.fullmatch(
            r"     first failure: \(channel, outcome\) = \((\d), (\d)\): "
            r"residual entry \[(\d)\]\[(\d)\] = (.+)",
            lines[at + 1],
        )
        assert witness is not None
        i, k, r, c = (int(x) for x in witness.groups()[:4])
        residual = engine.delta_qt(i, k, original(i, k).dagger())
        assert str(residual.entry(r, c)) == witness.group(5) != "0"
    else:
        assert lines[at + 1] == f"     first failure: {expected}"
    assert all(
        line.startswith("     first failure: ")
        for prev, line in zip(lines, lines[1:])
        if prev.startswith("FAIL ")
    )


def test_compare_fail_on_mismatch_exits_2(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--fail-on-mismatch"])
    assert code == EXIT_VIOLATION
    assert "Errata report" in out


def test_compare_json_validates_against_schema(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, serialize.load_schema("errata.schema.json"))
    assert doc["summary"]["match"] == 134


def test_derive_single_gate_json(capsys):
    code, out, _ = run_cli(
        capsys, ["derive", "--channel", "0", "--outcome", "0", "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, serialize.load_schema("gate_table.schema.json"))
    [gate] = doc["gates"]
    assert gate["channel"] == 0 and gate["outcome"] == 0
    for r in range(3):
        for c in range(3):
            expected = "1/3" if r == c else "0/1"
            assert gate["entries"][r][c]["q1"] == expected


def test_derive_full_table_json(capsys):
    code, out, _ = run_cli(capsys, ["derive", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, serialize.load_schema("gate_table.schema.json"))
    assert len(doc["gates"]) == 81


def test_basis_formats_run(capsys):
    for fmt in ("text", "json", "latex"):
        code, out, _ = run_cli(capsys, ["basis", "--format", fmt])
        assert code == EXIT_OK
        assert out


def test_basis_json_gram_is_identity(capsys):
    _, out, _ = run_cli(capsys, ["basis", "--format", "json"])
    doc = json.loads(out)
    assert len(doc["states"]) == 9
    for a in range(9):
        for b in range(9):
            expected = "1/1" if a == b else "0/1"
            assert doc["gram"][a][b]["q1"] == expected


def test_analyze_markdown_and_json(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "--channel", "0"])
    assert code == EXIT_OK
    assert "proportional_to_unitary" in out
    code, out, _ = run_cli(capsys, ["analyze", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["channels"]) == 9
    assert all(ch["completeness_is_identity"] for ch in doc["channels"])


def test_simulate_json_schema_and_determinism(capsys):
    argv = ["simulate", "--channel", "0", "--trials", "64", "--seed", "11"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    doc = json.loads(out1)
    jsonschema.validate(doc, serialize.load_schema("batch_summary.schema.json"))
    assert doc["trials"] == 64
    code, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_simulate_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--channel", "0", "--trials", "5", "--seed", "3", "--format", "csv"],
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "trial_index,outcome,probability,fidelity,recovery_applied"
    assert len(lines) == 6


def test_simulate_haar_and_custom_state(capsys):
    code, _, _ = run_cli(
        capsys, ["simulate", "--channel", "1", "--trials", "10", "--seed", "2", "--haar"]
    )
    assert code == EXIT_OK
    code, _, _ = run_cli(
        capsys,
        [
            "simulate",
            "--channel",
            "1",
            "--trials",
            "10",
            "--seed",
            "2",
            "--state",
            "0,0,1,0,0,0",
        ],
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_non_finite_column_is_a_usage_error_before_any_output(
    tmp_path, capsys, monkeypatch, fmt
):
    run_batch_columns = simulate.run_batch_columns

    def with_nan(*args, **kwargs):
        summary, columns = run_batch_columns(*args, **kwargs)
        probabilities = columns[4].copy()
        probabilities[1] = float("nan")
        return summary, (*columns[:4], probabilities, *columns[5:])

    monkeypatch.setattr(simulate, "run_batch_columns", with_nan)
    argv = ["simulate", "--channel", "0", "--trials", "3", "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "usage error: the batch holds a non-finite outcome probability,"
        " which cannot be written\n"
    )
    path = tmp_path / "sim.out"
    code, _, err = run_cli(capsys, [*argv, "--out", str(path)])
    assert code == EXIT_USAGE and err.count("\n") == 1
    assert not path.exists()


def test_simulate_into_a_closed_pipe_ends_without_a_traceback():
    # 20k haar trials make 17 MB of JSON, far past any pipe buffer, so the
    # writer is still writing when the reader goes away.
    env = dict(os.environ, PYTHONPATH=str(Path(qutrit_teleport.__file__).parents[1]))
    argv = ["simulate", "--channel", "0", "--trials", "20000", "--haar"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qutrit_teleport.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        # stderr is tiny, so waiting before reading it cannot deadlock
        code = proc.wait(timeout=120)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
    assert err == ""  # no traceback, and no "Exception ignored" line either
    assert code == EXIT_USAGE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["simulate", "--channel", "0", "--trials", "2000", "--haar"]],
    ids=["verify", "simulate"],
)
def test_stdout_on_a_full_disk_fails_in_one_line(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(qutrit_teleport.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qutrit_teleport.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    err = proc.stderr.decode()
    assert err == "cannot write output: No space left on device\n"
    assert proc.returncode == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [["basis"], ["derive", "--channel", "0"], ["compare", "--format", "json"]],
    ids=["basis", "derive", "compare"],
)
def test_stdout_is_utf8_on_an_ascii_locale(tmp_path, argv):
    # these outputs hold non-ASCII text (kets, square roots, Greek
    # letters), which an ASCII stdout could not encode
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(qutrit_teleport.__file__).parents[1]),
        PYTHONIOENCODING="ascii",
    )
    command = [sys.executable, "-m", "qutrit_teleport.cli", *argv]
    path = tmp_path / "out.txt"
    written = subprocess.run([*command, "--out", str(path)], capture_output=True, env=env)
    printed = subprocess.run(command, capture_output=True, env=env)
    assert (written.returncode, written.stdout, written.stderr) == (EXIT_OK, b"", b"")
    assert (printed.returncode, printed.stderr) == (EXIT_OK, b"")
    assert not printed.stdout.isascii()
    assert printed.stdout == path.read_bytes()


def test_out_of_memory_fails_in_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(simulate, "run_batch_columns", exhausted)
    code, out, err = run_cli(capsys, ["simulate", "--channel", "0", "--haar"])
    assert (code, out, err) == (EXIT_USAGE, "", "out of memory\n")


def test_simulate_rejects_bad_state(capsys):
    code, _, err = run_cli(
        capsys,
        ["simulate", "--channel", "0", "--trials", "5", "--state", "1,0,0"],
    )
    assert code == EXIT_USAGE
    assert "usage error" in err

    code, _, err = run_cli(
        capsys,
        ["simulate", "--channel", "0", "--trials", "5", "--state", "1,0,1,0,0,0"],
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "state",
    ["nan,0,0,0,0,0", "1e400,0,0,0,0,0", "inf,0,0,0,0,0", "1,nan,0,0,0,0", "-inf,0,0,0,0,0"],
)
def test_simulate_rejects_non_finite_state(capsys, state):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            capsys, ["simulate", "--channel", "0", "--trials", "3", f"--state={state}"]
        )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: input state norm ")
    assert err.count("\n") == 1


def test_simulate_negative_seed_names_the_flag(capsys):
    code, out, err = run_cli(
        capsys, ["simulate", "--channel", "0", "--trials", "3", "--seed", "-1"]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "usage error: --seed must be non-negative\n"


def test_simulate_trial_count_past_32_bits_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, ["simulate", "--channel", "0", "--trials", str(2**32)]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "usage error: at most 4294967295 trials per batch\n"


def test_usage_errors_exit_1(capsys):
    code, _, _ = run_cli(capsys, ["no-such-command"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, [])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, ["derive", "--channel", "12"])
    assert code == EXIT_USAGE


def test_export_import_roundtrip(tmp_path, capsys):
    table = tmp_path / "gates.json"
    code, _, _ = run_cli(capsys, ["export", "--out", str(table)])
    assert code == EXIT_OK
    doc = json.loads(table.read_text())
    jsonschema.validate(doc, serialize.load_schema("gate_table.schema.json"))
    assert len(doc["gates"]) == 81

    code, out, _ = run_cli(capsys, ["import", str(table)])
    assert code == EXIT_OK
    assert "81 gates match the derivation exactly" in out


def test_import_detects_tampering(tmp_path, capsys):
    table = tmp_path / "gates.json"
    run_cli(capsys, ["export", "--out", str(table)])
    doc = json.loads(table.read_text())
    doc["gates"][40]["entries"][0][0]["q1"] = "7/1"
    table.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["import", str(table)])
    assert code == EXIT_VIOLATION
    assert "differ" in out
    witness = re.search(
        r"^first difference: \(channel, outcome\) = \(4, 4\): "
        r"file - derivation entry \[0\]\[0\] = (.+)$",
        out,
        re.MULTILINE,
    )
    assert witness is not None
    tampered = serialize.gate_table_loads(table.read_text())[4, 4]
    difference = tampered.entry(0, 0) - engine.derive_gate(4, 4).entry(0, 0)
    assert witness.group(1) == str(difference) != "0"


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "errata.json"
    code, _, _ = run_cli(capsys, ["compare", "--format", "json", "--out", str(path)])
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, ["compare", "--format", "json"])
    assert path.read_text(encoding="utf-8") == out


def test_roman_numeral_display(capsys):
    code, out, _ = run_cli(
        capsys, ["derive", "--channel", "8", "--outcome", "8", "--roman"]
    )
    assert code == EXIT_OK
    assert "8 (IX)" in out


def _scalar(q1):
    return {"q1": q1, "q2": "0/1", "q3": "0/1", "q6": "0/1"}


def _gate_doc(drop=(), **overrides):
    # the oracle gate (0, 0) is the identity over three
    gate = {
        "channel": 0,
        "outcome": 0,
        "provenance": "oracle",
        "entries": [[_scalar("1/3" if r == c else "0/1") for c in range(3)] for r in range(3)],
    }
    gate.update(overrides)
    for key in drop:
        del gate[key]
    return {"gates": [gate]}


@pytest.mark.parametrize(
    "content",
    [
        b"[]",
        b'{"gates": [1]}',
        b"\xff\xfe not utf-8",
        b"{not json",
        b"[" * 100_000,
        b'{"gates": []}',
        b'{"gates": "abc"}',
        json.dumps(_gate_doc(entries=[[1, 2, 3]] * 3)).encode(),
        json.dumps(_gate_doc(entries=[[_scalar("1/0")] * 3] * 3)).encode(),
        json.dumps(_gate_doc(channel=9)).encode(),
        json.dumps(_gate_doc(channel=None)).encode(),
        json.dumps(_gate_doc(channel="0")).encode(),
        json.dumps(_gate_doc(outcome=True)).encode(),
        json.dumps(_gate_doc(provenance=["oracle"])).encode(),
        json.dumps(_gate_doc(drop=("provenance",))).encode(),
        json.dumps(_gate_doc(provenance="forged")).encode(),
        json.dumps(_gate_doc(provenance=7)).encode(),
        json.dumps(_gate_doc(label="Λ_0^0")).encode(),
        json.dumps(_gate_doc(entries=[[dict(_scalar("0/1"), q9="0/1")] * 3] * 3)).encode(),
        json.dumps(dict(_gate_doc(), version=1)).encode(),
    ],
    ids=[
        "array",
        "non-object-gate",
        "not-utf8",
        "not-json",
        "deep-nesting",
        "no-gates",
        "gates-string",
        "non-object-scalars",
        "zero-denominator",
        "channel-out-of-range",
        "channel-null",
        "channel-string",
        "outcome-bool",
        "provenance-list",
        "provenance-missing",
        "provenance-forged",
        "provenance-number",
        "extra-gate-key",
        "extra-scalar-key",
        "extra-top-level-key",
    ],
)
def test_import_malformed_table_exits_2_with_one_line(tmp_path, capsys, content):
    path = tmp_path / "table.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, ["import", str(path)])
    assert code == EXIT_VIOLATION
    assert out == ""
    assert err.startswith("malformed gate table: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "literal", ["\u0663/4", "1/2\n"], ids=["arabic-indic-digit", "trailing-newline"]
)
def test_import_rejects_a_literal_the_schema_pattern_rejects(tmp_path, capsys, literal):
    # The schema's ECMA-262 pattern ^-?[0-9]+/[0-9]+$ rejects both; Python's
    # \d and $ would read them as 3/4 and 1/2
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_gate_doc(entries=[[_scalar(literal)] * 3] * 3)))
    code, out, err = run_cli(capsys, ["import", str(path)])
    assert code == EXIT_VIOLATION
    assert out == ""
    assert err == f"malformed gate table: malformed rational literal for q1: {literal!r}\n"


def test_import_null_tag_names_the_rule_beyond_the_schema(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_gate_doc(outcome=None)))
    code, _, err = run_cli(capsys, ["import", str(path)])
    assert code == EXIT_VIOLATION
    assert err == (
        "malformed gate table: import needs integer channel and outcome tags in 0..8"
        " on every gate (the schema also allows null)\n"
    )


def test_import_unknown_provenance_names_it(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_gate_doc(provenance="forged")))
    code, _, err = run_cli(capsys, ["import", str(path)])
    assert code == EXIT_VIOLATION
    assert err == "malformed gate table: unknown provenance 'forged'\n"


def test_import_of_a_good_table_still_passes(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_gate_doc()))
    code, out, _ = run_cli(capsys, ["import", str(path)])
    assert code == EXIT_OK
    assert out == "1 gates match the derivation exactly\n"


@pytest.mark.parametrize("provenance", ["paper", "derived-recovery"])
def test_import_accepts_every_schema_provenance(tmp_path, capsys, provenance):
    # nothing writes "derived-recovery" any more, but the schema still allows it
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_gate_doc(provenance=provenance)))
    code, out, _ = run_cli(capsys, ["import", str(path)])
    assert code == EXIT_OK
    assert out == "1 gates match the derivation exactly\n"


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_import_unreadable_path_is_a_usage_error(tmp_path, capsys, name):
    code, out, err = run_cli(capsys, ["import", str(tmp_path / name)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: cannot read ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "name", ["missing/x.json", ".", ""], ids=["missing-dir", "directory", "empty"]
)
@pytest.mark.parametrize(
    "argv",
    [["export"], ["verify"], ["simulate", "--channel", "0", "--trials", "3", "--haar"]],
    ids=["export", "verify", "simulate"],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, name):
    # the empty path (`--out=`) names no file, so it must not mean stdout
    path = str(tmp_path / name) if name else ""
    code, out, err = run_cli(capsys, [*argv, "--out", path])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"usage error: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["--version"], f"qutrit-teleport {qutrit_teleport.__version__}\n"),
        (["-h"], "usage: qutrit-teleport "),
        (["--help"], "usage: qutrit-teleport "),
        (["basis", "-h"], "usage: qutrit-teleport basis "),
        (["simulate", "--help"], "usage: qutrit-teleport simulate "),
        (["verify", "--out", "x.out", "-h"], "usage: qutrit-teleport verify "),
    ],
)
def test_help_and_version_return_0_in_process(tmp_path, capsys, monkeypatch, argv, printed):
    # argparse prints and exits for these flags; `main` returns the code
    # instead of raising, as it does for every other argv
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(printed)
    assert not any(tmp_path.iterdir())


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)
# near misses of a gate table: the right keys around arbitrary values
_GATE_LIKE = st.fixed_dictionaries(
    {"channel": _JSON_VALUES, "outcome": _JSON_VALUES, "entries": _JSON_VALUES}
)
_TABLE_LIKE = st.fixed_dictionaries({"gates": st.lists(_GATE_LIKE | _JSON_VALUES, max_size=3)})


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_JSON_VALUES | _TABLE_LIKE)
def test_import_of_arbitrary_json_never_tracebacks(tmp_path, capsys, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, ["import", str(path)])
    assert code in (EXIT_USAGE, EXIT_VIOLATION)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


_NUMBER_TEXT = st.floats().map(repr) | st.sampled_from(
    ["0", "1", "0.6", "0.8", "-0.8", "nan", "inf", "-inf", "1e400", "1e-400", "1_0"]
)
_STATE_TEXT = (
    st.lists(_NUMBER_TEXT, min_size=6, max_size=6).map(",".join)
    | st.lists(_NUMBER_TEXT | st.text(max_size=5), max_size=7).map(",".join)
    | st.sampled_from(["1,0,0,0,0,0", "0.6,0,0,0.8,0,0", "0,0.6,0,0,0,-0.8"])
    | st.text(max_size=20)
)
_CHANNEL_TEXT = st.integers(-2, 10).map(str) | st.text(max_size=4)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(state=_STATE_TEXT, channel=_CHANNEL_TEXT, use_paper_gates=st.booleans())
def test_simulate_state_and_channel_strings_never_traceback(
    capsys, state, channel, use_paper_gates
):
    argv = ["simulate", f"--channel={channel}", f"--state={state}", "--trials", "3"]
    if use_paper_gates:
        argv.append("--use-paper-gates")
    # a numpy warning would be a second stderr line in a real process
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, argv)
    assert code in (EXIT_OK, EXIT_USAGE)
    assert err.count("\n") <= 1
    assert "Traceback" not in err
    if code == EXIT_OK:
        json.loads(out, parse_constant=_reject_constant)
