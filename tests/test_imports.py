"""Cold-start contract: each process loads only what its subcommand needs.

The exact subcommands, a bare package import and an import of any module
but `simulate` never load numpy or scipy, nor `dataclasses` or the
`inspect` it imports; `simulate`, the one numpy module, loads numpy
(which imports `inspect`) and `dataclasses`, but never scipy.  No
command, `--version` and `simulate` included, loads `fractions` or the
`decimal` it imports: `exact` reads its components as int pairs and
builds a `Fraction` only when a caller asks for one.  A bare package
import loads no submodule at all.  Within the package, a subcommand loads
the transcription (`published`), the text renderers (`render`) and the
JSON layer (`serialize`) only when its output uses them.  Every check
runs in a fresh interpreter, because this test process has all of them
loaded already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qutrit_teleport
from qutrit_teleport import simulate

_SRC = str(Path(qutrit_teleport.__file__).resolve().parents[1])

# Runs the cli.main argv lists given as JSON in argv[1] after running the
# import statement in argv[2], then prints the exit codes and which of
# dataclasses, inspect, numpy and scipy ended up in sys.modules.
_PROBE = """
import contextlib, io, json, sys
exec(sys.argv[2])
commands, codes = json.loads(sys.argv[1]), []
if commands:
    from qutrit_teleport import cli
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in commands]
loaded = sorted(m for m in ("dataclasses", "inspect", "numpy", "scipy") if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _run(script, *args):
    """The JSON that `script` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def _probe(commands, statement="pass"):
    return _run(_PROBE, json.dumps(commands), statement)


@pytest.mark.parametrize(
    "statement",
    [
        "import qutrit_teleport",
        "import qutrit_teleport.cli",
        "import qutrit_teleport.analysis",
        "import qutrit_teleport.basis",
        "import qutrit_teleport.render",
        "import qutrit_teleport.serialize",
        "import qutrit_teleport.published",
    ],
)
def test_package_import_loads_no_numpy_scipy_or_dataclasses(statement):
    assert _probe([], statement) == {"codes": [], "loaded": []}


def test_expected_fidelities_load_simulate_and_numpy_only_when_called():
    script = (
        "import json, sys; from qutrit_teleport import analysis; "
        "loaded = lambda: [m in sys.modules for m in ('qutrit_teleport.simulate', 'numpy')]; "
        "before = loaded(); analysis.expected_fidelities(0, (1, 0, 0)); "
        "print(json.dumps([before, loaded()]))"
    )
    assert _run(script) == [[False, False], [True, True]]


@pytest.mark.parametrize(
    "commands",
    [
        [["basis"]],
        [["derive"]],
        [["verify"]],
        [["compare"]],
        [["analyze"]],
        [["export", "--out", "{table}"]],
        [["export", "--out", "{table}"], ["import", "{table}"]],
        [["basis", "--format", "json"], ["derive", "--format", "json"]],
        [["compare", "--format", "json"]],
        [["analyze", "--format", "json"]],
    ],
    ids=[
        "basis", "derive", "verify", "compare", "analyze", "export", "import",
        "basis-derive-json", "compare-json", "analyze-json",
    ],
)
def test_exact_subcommands_load_no_numpy_scipy_or_dataclasses(commands, tmp_path):
    table = str(tmp_path / "table.json")
    argvs = [[arg.format(table=table) for arg in argv] for argv in commands]
    assert _probe(argvs) == {"codes": [0] * len(argvs), "loaded": []}


# Runs the cli.main argv lists given as JSON in argv[1], printing after each
# how many printed values each of the three `published` lookups has cached.
_CACHE_PROBE = """
import contextlib, io, json, sys
from qutrit_teleport import cli, published
lookups = (published.paper_premeasure, published.paper_gate, published.paper_expansion)
sizes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        assert cli.main(argv) == 0
        sizes.append([f.cache_info().currsize for f in lookups])
print(json.dumps(sizes))
"""


def test_transcription_is_read_only_by_compare(tmp_path):
    commands = [
        ["basis"], ["derive"], ["verify"], ["analyze"],
        ["export", "--out", str(tmp_path / "table.json")], ["compare"],
    ]
    sizes = _run(_CACHE_PROBE, json.dumps(commands))
    assert sizes == [[0, 0, 0]] * 5 + [[81, 81, 9]]


# Runs the cli.main argv lists given as JSON in argv[1] (a --version exit
# is read as its code), then prints the exit codes and which of the modules
# named in argv[2:] ended up in sys.modules.
_MODULE_PROBE = """
import contextlib, io, json, sys
from qutrit_teleport import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""
_ALL = {"published", "render", "serialize", "simulate"}


@pytest.mark.parametrize(
    "commands, absent",
    [
        ([["--version"]], _ALL),
        ([["verify"]], _ALL),
        ([["basis"]], {"published", "serialize"}),
        ([["derive"]], {"published", "serialize"}),
        ([["derive", "--channel", "2", "--outcome", "7"]], {"published", "serialize"}),
        ([["analyze", "--channel", "4"]], {"published", "serialize"}),
        ([["export", "--out", "{table}"]], {"published", "render"}),
        ([["export", "--out", "{table}"], ["import", "{table}"]], {"published", "render"}),
        ([["analyze", "--format", "json"]], {"published", "render"}),
        ([["simulate", "--channel", "5", "--trials", "50"]], {"published", "render"}),
        ([["simulate", "--channel", "5", "--trials", "50", "--haar"]], {"published", "render"}),
    ],
    ids=[
        "version", "verify", "basis", "derive", "derive-one-gate", "analyze-channel",
        "export", "import", "analyze-json", "simulate", "simulate-haar",
    ],
)
def test_a_subcommand_loads_only_the_modules_its_output_uses(commands, absent, tmp_path):
    table = str(tmp_path / "table.json")
    argvs = [[arg.format(table=table) for arg in argv] for argv in commands]
    modules = sorted(f"qutrit_teleport.{m}" for m in absent)
    result = _run(_MODULE_PROBE, json.dumps(argvs), *modules)
    assert result == {"codes": [0] * len(argvs), "loaded": []}


_STATE = "--state=0.6,0,0,0.8,0,0"


@pytest.mark.parametrize(
    "commands",
    [
        [["--version"]],
        [["verify"]],
        [["analyze", "--format", "json"]],
        [["compare", "--format", "json"]],
        [["export", "--out", "{table}"], ["import", "{table}"]],
        [["basis"]],
        [["derive", "--channel", "2", "--outcome", "7"]],
        [["analyze", "--channel", "8"]],
        [
            ["basis", "--format", "json"], ["basis", "--format", "latex"],
            ["derive", "--format", "json"], ["derive", "--format", "latex"],
            ["compare"], ["compare", "--format", "latex"], ["analyze"],
        ],
        [["simulate", "--channel", "8", "--trials", "200", _STATE]],
        [["simulate", "--channel", "8", "--trials", "200", _STATE, "--use-paper-gates"]],
        [["simulate", "--channel", "5", "--trials", "200", "--haar"]],
        [["simulate", "--channel", "5", "--trials", "200", "--haar", "--use-paper-gates"]],
    ],
    ids=[
        "version", "verify", "analyze-json", "compare-json", "export-import", "basis",
        "derive-one-gate", "analyze-channel", "other-formats", "simulate-fixed",
        "simulate-fixed-paper", "simulate-haar", "simulate-haar-paper",
    ],
)
def test_no_command_loads_fractions_or_decimal(commands, tmp_path):
    table = str(tmp_path / "table.json")
    argvs = [[arg.format(table=table) for arg in argv] for argv in commands]
    result = _run(_MODULE_PROBE, json.dumps(argvs), "fractions", "decimal")
    assert result == {"codes": [0] * len(argvs), "loaded": []}


def test_the_cli_import_loads_the_exact_core():
    # The reason is perfbench's tracer: it installs right after `import
    # qutrit_teleport.cli`, reads `exact` and `engine.derive_gate` (which
    # bring `linalg` and `basis`), and wraps only the modules loaded by
    # then, so a lazy `analysis` would zero its per-layer metrics.  Once
    # perfbench stops wrapping functions (ROADMAP item 8), the `analysis`
    # pin can be lifted; the other four stay while the tracer reads them.
    script = (
        "import json, sys; import qutrit_teleport.cli; "
        "print(json.dumps([m in sys.modules for m in sys.argv[1:]]))"
    )
    core = ("exact", "linalg", "basis", "engine", "analysis")
    assert _run(script, *(f"qutrit_teleport.{m}" for m in core)) == [True] * len(core)


def test_a_bare_package_import_loads_no_submodule():
    # every public name and module loads on first access; the modules the
    # package root once imported eagerly still resolve as attributes
    script = (
        "import json, sys; import qutrit_teleport as q; "
        "loaded = sorted(m for m in sys.modules if m.startswith('qutrit_teleport.')); "
        "print(json.dumps([loaded, [getattr(q, m).__name__ for m in sys.argv[1:]]]))"
    )
    core = ("exact", "linalg", "basis", "engine", "analysis")
    assert _run(script, *core) == [[], [f"qutrit_teleport.{m}" for m in core]]


def test_simulate_loads_numpy_but_not_scipy():
    argv = ["simulate", "--channel", "0", "--trials", "200", "--haar"]
    assert _probe([argv]) == {"codes": [0], "loaded": ["dataclasses", "inspect", "numpy"]}


# each public name of the package root and the module that defines it, in
# the order of __all__
_PUBLIC_NAMES = [
    ("exact", "ExtScalar"),
    ("exact", "rational"),
    ("linalg", "Operator3"),
    ("basis", "ExpansionRow"),
    ("basis", "entangled_state"),
    ("basis", "expand_product"),
    ("engine", "derive_all"),
    ("engine", "derive_gate"),
    ("published", "compare_tables"),
    ("analysis", "GateProfile"),
    ("analysis", "profile_gate"),
    ("analysis", "recovery"),
    ("simulate", "BatchSummary"),
    ("simulate", "TrialRecord"),
    ("simulate", "run_batch"),
    ("simulate", "run_trial"),
]


def test_lazy_package_names_resolve():
    assert qutrit_teleport.__all__ == [name for _, name in _PUBLIC_NAMES]
    for module, name in _PUBLIC_NAMES:
        home = importlib.import_module(f"qutrit_teleport.{module}")
        assert getattr(qutrit_teleport, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        qutrit_teleport.no_such_name


def test_dir_lists_the_public_names_and_modules_before_any_is_loaded():
    script = (
        "import json, sys; import qutrit_teleport as q; names = dir(q); "
        "loaded = sorted(m for m in sys.modules if m.startswith('qutrit_teleport.')); "
        "print(json.dumps([names, loaded]))"
    )
    names, loaded = _run(script)
    assert names == sorted(names) and loaded == []
    expected = {*qutrit_teleport.__all__, *qutrit_teleport._PUBLIC, "__version__"}
    assert expected <= set(names)


def test_chi_square_table_matches_scipy_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")
    expected = tuple(
        float(stats.chi2.ppf(simulate._CHI2_QUANTILE, dof)) for dof in range(1, 9)
    )
    assert simulate._CHI2_THRESHOLDS == expected
