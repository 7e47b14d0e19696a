"""Byte-for-byte golden output of the exact CLI subcommands.

Each case runs `cli.main` in process and compares the SHA-256 of stdout
with its digest in `golden_cli.json`, frozen from a known-good build.  The
cases cover every format that renders the basis, the pre-measurement
states, the gates, the Δ_QT column, the errata report and the analysis, so
a change of representation behind them cannot alter a single output byte
unnoticed.

`CASES` is the one case list; the store is generated from it, never
edited.  `PYTHONPATH=src python tests/freeze.py` rewrites it (with the
other golden stores) only when a change of output is intended.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qutrit_teleport import cli

STORE = Path(__file__).with_name("golden_cli.json")
CASES = [
    "basis --format text",
    "basis --format json",
    "basis --format latex",
    "derive --format text",
    "derive --format json",
    "derive --format latex",
    "derive --channel 8 --outcome 8",
    "compare --format markdown",
    "compare --format json",
    "compare --format latex",
    "analyze --format markdown",
    "analyze --format json",
    "analyze --channel 8 --format json",
    "derive --channel 3 --outcome 5 --format json",
    "derive --outcome 4",
    "derive --format latex --outcome 3",
    "derive --channel 8 --roman",
    "derive --format latex --channel 8 --roman",
    "derive --channel 0 --outcome 0 --roman",
    "export",
    "verify",
]


def stdout_digest(case: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(case.split())
    if code != cli.EXIT_OK:  # never freeze the output of a failed run
        raise RuntimeError(f"{case!r} exited with {code}")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def freeze() -> None:
    """Rewrite the store from the program as it stands."""
    digests = {case: stdout_digest(case) for case in CASES}
    STORE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def store():
    return json.loads(STORE.read_text(encoding="utf-8"))


def test_every_case_has_a_digest_and_every_digest_a_case(store):
    assert sorted(store) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_stdout_matches_frozen_digest(store, case):
    assert stdout_digest(case) == store[case]


def test_every_exact_output_format_has_a_case(store):
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    want = {("verify", None), ("export", None)} | {
        (name, fmt)
        for name in ("basis", "derive", "compare", "analyze")
        for fmt in sub.choices[name]._option_string_actions["--format"].choices
    }
    parsed = [parser.parse_args(case.split()) for case in store]
    assert want <= {(args.command, getattr(args, "format", None)) for args in parsed}
