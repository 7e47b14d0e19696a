"""Benchmark of the qutrit-teleport package; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory.
The program is driven only through its public surface: cold
``python -m qutrit_teleport.cli ...`` processes with PYTHONPATH=src, and a
warm worker process that calls the public library.  One operation runs at
a time (a closed loop with one client).

Workloads (inputs come from --seed; the program sees only argv or call
arguments):

  exact-cli      cold verify, analyze --format json, compare --format json,
                 export then import, and three short commands
  simulate-cli   three cold 20k-trial simulate runs (JSON, two CSV)
  library-sweep  one warm process: run_batch over channels 0-8, fixed and
                 Haar inputs, 2k trials per batch

--trace 0 measures the workload untraced for --seconds and prints the
end-to-end metrics.  --trace 1 is the separate traced run of the same
workload: pairs of an untraced and a traced pass (at least two pairs),
reporting the per-layer metrics; the per-command breakdown goes to
perfbench/_work/trace_report.json.

Every operation is checked outside its timer: exit code, SHA-256 of its
output against perfbench/digests.json (or, where no digest is frozen,
against a repeat of the same operation), and a semantic check.  The last
stdout line is the result object; the line before it holds the
per-command figures, failures and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKER = HERE / "worker.py"
PACKAGE_DIR = ROOT / "src" / "qutrit_teleport"
SCHEMA = PACKAGE_DIR / "schemas" / "batch_summary.schema.json"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("exact-cli", "simulate-cli", "library-sweep")
SIM_TRIALS = {False: 20000, True: 500}     # keyed by --tiny
SWEEP_TRIALS = {False: 2000, True: 100}
SETUP_REPEATS = 3
TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 150
MANY_CYCLES = 10**9

EXPECTED_ERRATA = {
    "match": 134, "coefficient": 17, "index_swap": 13, "missing_term": 6,
    "sign": 1, "label_anomaly": 6, "extra_term": 0,
}
CSV_HEADER = "trial_index,outcome,probability,fidelity,recovery_applied"
NOTES = [
    "exact.mul_calls counts ExtScalar.__mul__ and __rmul__ calls; it is "
    "defined over the current ExtScalar API and must be redefined if that API changes.",
    "failed_frac is failed over attempted operations; setup runs and repeat "
    "checks count as operations.",
    "trace.overhead_frac compares summed per-op medians of the traced and the "
    "untraced passes; overhead_frac_by_pair shows how far pass-to-pass noise moves it.",
]


# -- inputs ------------------------------------------------------------------


def cli_op(label, group, *steps, trials=0):
    return {"label": label, "group": group, "steps": [list(s) for s in steps],
            "trials": trials}


def random_state(rng):
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return [z / norm for z in v]


def exact_cli_ops(rng, tiny):
    channel, outcome = rng.randrange(9), rng.randrange(9)
    gates = "perfbench/_work/gates.json"
    return [
        cli_op("verify", "verify", ["verify"]),
        cli_op("analyze", "analyze", ["analyze", "--format", "json"]),
        cli_op("compare", "compare", ["compare", "--format", "json"]),
        cli_op("export_import", "export_import",
               ["export", "--out", gates], ["import", gates]),
        cli_op("basis", "short_cmd", ["basis"]),
        cli_op("derive", "short_cmd",
               ["derive", "--channel", str(channel), "--outcome", str(outcome)]),
        cli_op("analyze_channel", "short_cmd", ["analyze", "--channel", str(channel)]),
    ]


def simulate_cli_ops(rng, tiny):
    n = SIM_TRIALS[tiny]
    seeds = [str(rng.randrange(2**32)) for _ in range(3)]
    state = ",".join(repr(x) for z in random_state(rng) for x in (z.real, z.imag))
    bell_like = str(rng.randrange(1, 8))
    common = ["--trials", str(n), "--seed"]
    return [
        cli_op("simulate_json", "simulate_json",
               ["simulate", "--channel", "0", "--haar", *common, seeds[0],
                "--format", "json"], trials=n),
        cli_op("simulate_csv_fixed", "simulate_csv",
               ["simulate", "--channel", "8", f"--state={state}", *common, seeds[1],
                "--format", "csv"], trials=n),
        cli_op("simulate_csv_paper", "simulate_csv",
               ["simulate", "--channel", bell_like, "--haar", "--use-paper-gates",
                *common, seeds[2], "--format", "csv"], trials=n),
    ]


def library_sweep_ops(rng, tiny):
    # Two fixed-state batches per Haar batch keep the median batch inside
    # one cluster: Haar batches are ~40% slower, and a 50/50 mix would put
    # the median on the gap between the clusters.
    ops = []
    for channel in range(9):
        for kind in ("fixed", "haar", "fixed"):
            state = None if kind == "haar" else [
                [z.real, z.imag] for z in random_state(rng)]
            ops.append({"channel": channel, "trials": SWEEP_TRIALS[tiny],
                        "seed": rng.randrange(2**32), "state": state})
    return ops


def sweep_key(op):
    return "run_batch " + json.dumps(op, sort_keys=True)


BUILDERS = {
    "exact-cli": exact_cli_ops,
    "simulate-cli": simulate_cli_ops,
    "library-sweep": library_sweep_ops,
}


# -- checks --------------------------------------------------------------------


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def semantic_problems(argv, data):
    """Checks that do not rely on frozen digests."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return ["output is not UTF-8"]
    cmd = argv[0]
    try:
        if cmd == "--version":
            return [] if text.startswith("qutrit-teleport ") else ["unexpected --version output"]
        if cmd == "verify":
            return [] if text.endswith("all checks passed\n") else ["verify did not pass"]
        if cmd == "import":
            ok = text == "81 gates match the derivation exactly\n"
            return [] if ok else ["import did not match the derivation"]
        if cmd == "compare":
            return compare_problems(json.loads(text))
        if cmd == "export":
            return [] if len(json.loads(text)["gates"]) == 81 else ["export lacks 81 gates"]
        if cmd == "analyze" and "json" in argv:
            return analyze_problems(json.loads(text))
        if cmd == "simulate":
            n = int(argv[argv.index("--trials") + 1])
            if "csv" in argv:
                return csv_problems(text, n)
            return simulate_json_problems(json.loads(text), n)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed {cmd} output: {exc!r}"]
    return [] if text else ["empty output"]


def compare_problems(doc):
    problems = []
    if doc["summary"] != EXPECTED_ERRATA:
        problems.append(f"errata summary {doc['summary']}")
    recount = {}
    for entry in doc["entries"]:
        recount[entry["discrepancy"]] = recount.get(entry["discrepancy"], 0) + 1
    if recount != {k: v for k, v in EXPECTED_ERRATA.items() if v}:
        problems.append(f"errata entries recount {recount}")
    return problems


def analyze_problems(doc):
    channels = doc["channels"]
    if [c["channel"] for c in channels] != list(range(9)):
        return ["analysis does not cover channels 0-8"]
    for c in channels:
        if len(c["gates"]) != 9 or sum(c["census"].values()) != 9:
            return [f"channel {c['channel']} lacks nine gates"]
        if not c["completeness_is_identity"]:
            return [f"channel {c['channel']} fails completeness"]
    return []


def simulate_json_problems(doc, n):
    problems = []
    if doc["trials"] != n or doc["summary"]["trials"] != n or len(doc["trial_log"]) != n:
        problems.append("trial count differs from --trials")
    if abs(sum(doc["summary"]["empirical_outcome_frequencies"]) - 1.0) > 1e-9:
        problems.append("outcome frequencies do not sum to 1")
    import jsonschema

    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = next(iter(validator.iter_errors(doc)), None)
    if error is not None:
        problems.append(f"schema violation: {error.message[:200]}")
    return problems


def csv_problems(text, n):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n:
        return ["CSV row count differs from --trials"]
    counts = [0] * 9
    for index, row in enumerate(rows):
        if len(row) != 5 or int(row[0]) != index or not 0.0 <= float(row[2]) <= 1.0:
            return [f"malformed CSV row {index}"]
        counts[int(row[1])] += 1
    if abs(sum(c / n for c in counts) - 1.0) > 1e-9:
        return ["outcome frequencies do not sum to 1"]
    return []


class Checker:
    """Collects per-operation outcomes; verdicts are made after measuring."""

    def __init__(self, frozen):
        self.frozen = frozen
        self.first = {}      # key -> first digest seen this run
        self.seen = {}       # key -> times seen
        self.payloads = {}   # digest -> (argv, bytes) for the semantic check
        self.ops = []        # (label, [problems], [(key, digest)])

    def record(self, label, results, problems=()):
        """results: [(key, argv or None, exit code, output bytes or digest)]."""
        problems = list(problems)
        keyed = []
        for key, argv, code, output in results:
            if code != 0:
                problems.append(f"{key}: exit code {code}")
            digest = output if isinstance(output, str) else sha256(output)
            if argv is not None and digest not in self.payloads:
                self.payloads[digest] = (argv, output)
            self.seen[key] = self.seen.get(key, 0) + 1
            self.first.setdefault(key, digest)
            keyed.append((key, digest))
        self.ops.append((label, problems, keyed))

    def once(self):
        """Keys seen once with no frozen digest; they need a repeat run."""
        return {k for k, n in self.seen.items() if n == 1 and k not in self.frozen}

    def verdicts(self):
        semantic = {d: semantic_problems(argv, data) for d, (argv, data) in self.payloads.items()}
        failures = []
        for label, problems, keyed in self.ops:
            problems = list(problems)
            for key, digest in keyed:
                expected = self.frozen.get(key, self.first[key])
                if digest != expected:
                    source = "frozen digest" if key in self.frozen else "a repeat of it"
                    problems.append(f"{key}: output differs from {source}")
                problems.extend(f"{key}: {p}" for p in semantic.get(digest, []))
            if problems:
                failures.append({"op": label, "problems": problems})
        return len(self.ops), failures


# -- processes -----------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_process(cmd, stdout_path):
    """Run one child to completion; returns (seconds, exit code or None)."""
    with open(stdout_path, "wb") as out, open(WORK / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        return time.perf_counter() - start, code


def run_cli_op(op, checker, trace_dir=None):
    """Run every step of a CLI op; returns (seconds, [trace file paths])."""
    seconds = 0.0
    results, traces = [], []
    for n, argv in enumerate(op["steps"]):
        stdout_path = WORK / f"{op['label']}.{n}.out"
        output_path = ROOT / argv[argv.index("--out") + 1] if "--out" in argv else stdout_path
        # A step that exits without writing must not leave an earlier
        # run's output to be checked in its place.
        output_path.unlink(missing_ok=True)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "qutrit_teleport.cli", *argv]
        else:
            trace = trace_dir / f"{op['label']}.{n}.json"
            spans = trace_dir / f"{op['label']}.{n}.spans.json"
            trace.unlink(missing_ok=True)
            cmd = [sys.executable, str(WORKER), "cli", str(trace), str(spans), *argv]
            traces.append(trace)
        dt, code = run_process(cmd, stdout_path)
        seconds += dt
        try:
            output = output_path.read_bytes()
        except OSError:
            output = b""
        results.append((" ".join(argv), argv, code, output))
    checker.record(op["label"], results)
    return seconds, traces


def run_sweep(ops, seconds, cycles, checker, trace_paths=()):
    """One worker process; returns its parsed result (None if it failed)."""
    ops_path, result_path = WORK / "sweep_ops.json", WORK / "sweep_result.json"
    ops_path.write_text(json.dumps(ops), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), "sweep", str(ops_path), str(result_path),
           repr(seconds), str(cycles), *map(str, trace_paths)]
    wall, code = run_process(cmd, WORK / "sweep.out")
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = None
    if code != 0 or result is None:
        checker.record("library-sweep worker", [], [f"worker exit code {code}"])
        return None
    for index, _batch_s, _op_s, digest, problems in result["ops"]:
        checker.record(f"run_batch op {index}",
                       [(sweep_key(ops[index]), None, 0, digest)], problems)
    result["wall_s"] = wall
    return result


# -- statistics ----------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            ranked = sorted(values)
            return pct, ranked[max(math.ceil(pct / 100 * n) - 1, 0)]
    return None


def timing(values):
    return {"value": statistics.median(values), "unit": "s", "samples": len(values)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- untraced measurement --------------------------------------------------------


def version_probe(checker):
    """One cold `--version` process: the CLI's set-up time."""
    argv = ["--version"]
    stdout_path = WORK / "version.out"
    dt, code = run_process([sys.executable, "-m", "qutrit_teleport.cli", *argv], stdout_path)
    checker.record("setup --version", [("--version", argv, code, stdout_path.read_bytes())])
    return dt


def measure_cli(ops, seconds, checker):
    # Set-up is sampled at the start, the middle and the end of the run, so
    # that its median spans the same drift of machine speed as the ops do.
    setup = [version_probe(checker)]
    samples = {op["label"]: [] for op in ops}
    start, n = time.perf_counter(), 0
    while True:
        op = ops[n % len(ops)]
        elapsed = time.perf_counter() - start
        # After the first pass, start an op only if it should end in time.
        if n >= len(ops) and elapsed + samples[op["label"]][-1] > seconds:
            break
        if len(setup) == 1 and elapsed >= seconds / 2:
            setup.append(version_probe(checker))
        dt, _ = run_cli_op(op, checker)
        samples[op["label"]].append(dt)
        n += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(version_probe(checker))
    for op in ops:
        if any(" ".join(s) in checker.once() for s in op["steps"]):
            run_cli_op(op, checker)

    groups = {}
    for op in ops:
        groups.setdefault(op["group"], []).extend(samples[op["label"]])
    details = {f"{g}_s": timing(v) for g, v in groups.items()}
    sim = [op for op in ops if op["trials"]]
    if sim:
        trials = sum(op["trials"] * len(samples[op["label"]]) for op in sim)
        busy = sum(sum(samples[op["label"]]) for op in sim)
        details["trials_per_s"] = {"value": trials / busy, "unit": "1/s"}
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(samples[op["label"]]) for op in ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, details


def measure_sweep(ops, seconds, checker):
    # Set-up probes run before and after the measuring worker, which also
    # reports its own set-up, so the median spans the run.
    setup = []
    result = None
    for cycles in (0, MANY_CYCLES, 0):
        worker = run_sweep(ops, seconds if cycles else 0.0, cycles, checker)
        if worker is not None:
            setup.append(worker["setup_s"])
        if cycles:
            result = worker
    if result is None:
        return None, {}
    if any(sweep_key(op) in checker.once() for op in ops):
        run_sweep(ops, 0.0, 1, checker)

    per_op = {}
    for index, _batch_s, op_s, _digest, _problems in result["ops"]:
        per_op.setdefault(index, []).append(op_s)
    batch = [row[1] for row in result["ops"]]
    trials = sum(ops[row[0]]["trials"] for row in result["ops"])
    details = {
        "batch_p50_s": timing(batch),
        "trials_per_s": {"value": trials / sum(batch), "unit": "1/s"},
    }
    tail_at = tail(batch)
    if tail_at is not None:
        details["batch_tail_s"] = {"value": tail_at[1], "unit": "s",
                                   "percentile": tail_at[0], "samples": len(batch)}
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(v) for v in per_op.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, details


# -- traced run --------------------------------------------------------------------


def trace_run(workload, ops, seconds, checker, units):
    """The traced run of one workload: pairs of an untraced and a traced pass.

    Each op runs untraced and traced back to back, the order flipping from
    pair to pair, so both sides see the same drift of machine speed.  At
    least TRACE_PAIRS pairs run, and more while --seconds allow.  Layer
    values are medians over the traced passes; counts must repeat exactly
    between them.
    """
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    times = {"untraced": {}, "traced": {}}   # side -> op key -> [seconds]
    passes = []                              # per traced pass: [command report]
    start, pair_s = time.perf_counter(), 0.0
    while len(passes) < TRACE_PAIRS or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        sides = ("untraced", "traced") if len(passes) % 2 == 0 else ("traced", "untraced")
        if workload == "library-sweep":
            reports = trace_sweep_pair(ops, sides, checker, trace_dir, times)
        else:
            reports = trace_cli_pair(ops, sides, checker, trace_dir, times)
        passes.append(reports)
        pair_s = time.perf_counter() - pair_start

    # A failed pass was recorded by the checker; it leaves its metrics out.
    per_pass = [layer_values(reports, units) for reports in passes if reports]
    values = {n: statistics.median(p[n] for p in per_pass) for n in per_pass[0]} \
        if per_pass else {}
    for name, unit in units.items():
        if unit in ("count", "bytes") and len({p[name] for p in per_pass}) > 1:
            checker.record("traced passes", [],
                           [f"{name} differs between traced passes: "
                            f"{[p[name] for p in per_pass]}"])
    pair_overheads = []
    if times["untraced"] and times["traced"]:
        medians = {side: sum(statistics.median(v) for v in by_op.values())
                   for side, by_op in times.items()}
        values["trace.overhead_frac"] = medians["traced"] / medians["untraced"] - 1.0
        pairs = min(len(v) for by_op in times.values() for v in by_op.values())
        pair_overheads = [sum(v[i] for v in times["traced"].values())
                          / sum(v[i] for v in times["untraced"].values()) - 1.0
                          for i in range(pairs)]

    per_gate = {}
    for entry in passes[0]:
        calls = entry["functions"].get("analysis.profile_gate", {}).get("calls", 0)
        if calls:
            per_gate[entry["command"]] = calls / entry["counters"]["analysis.gates_profiled"]
    (WORK / "trace_report.json").write_text(
        json.dumps({"workload": workload, "times_s": times, "passes": passes}, indent=1),
        encoding="utf-8")
    return values, {
        "traced_pairs": len(passes),
        "overhead_frac_by_pair": pair_overheads,
        "calls_per_gate_by_command": per_gate,
        "side_file": "perfbench/_work/trace_report.json",
    }


def trace_cli_pair(ops, sides, checker, trace_dir, times):
    reports, traces = [], []
    for op in ops:
        for side in sides:
            traced = side == "traced"
            seconds, paths = run_cli_op(op, checker, trace_dir if traced else None)
            times[side].setdefault(op["label"], []).append(seconds)
            if traced:
                traces = paths
        for path, argv in zip(traces, op["steps"]):
            try:
                report = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                checker.record(f"trace of {op['label']}", [], ["trace file missing"])
                continue
            reports.append({"command": " ".join(argv), **report})
    return reports


def trace_sweep_pair(ops, sides, checker, trace_dir, times):
    # The sweep is timed over its batch loop; the tracer is installed after
    # the worker's set-up, so set-up time would only dilute the overhead.
    paths = (trace_dir / "library-sweep.json", trace_dir / "library-sweep.spans.json")
    paths[0].unlink(missing_ok=True)
    for side in sides:
        result = run_sweep(ops, 0.0, 1, checker, paths if side == "traced" else ())
        if result is not None:
            times[side].setdefault("run_batch loop", []).append(
                sum(row[2] for row in result["ops"]))
    try:
        report = json.loads(paths[0].read_text(encoding="utf-8"))
    except (OSError, ValueError):
        checker.record("trace of library-sweep", [], ["trace file missing"])
        return []
    return [{"command": "run_batch sweep", **report}]


def layer_values(reports, units):
    """Per-layer values of one traced pass; trace.overhead_frac is left out."""
    def total(fn, field):
        return sum(r["functions"].get(fn, {}).get(field, 0) for r in reports)

    def counter(name):
        return sum(r["counters"][name] for r in reports)

    values = {}
    for name in units:
        head, _, field = name.rpartition(".")
        if name == "trace.overhead_frac":
            continue
        if name.startswith("import."):
            values[name] = statistics.median(r["imports"][name] for r in reports)
        elif name == "simulate.trials":
            values[name] = total("simulate.run_trial", "calls")
        elif name == "analysis.profile_gate.calls_per_gate":
            gates = counter("analysis.gates_profiled")
            values[name] = total("analysis.profile_gate", "calls") / gates if gates else 0.0
        elif field in ("self_s", "calls"):
            values[name] = total(head, field)
        else:
            values[name] = counter(name)
    return values


# -- main ---------------------------------------------------------------------------


def environment(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(str(path.relative_to(PACKAGE_DIR)).encode() + b"\0")
            source.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small trial counts, for the benchmark's own smoke tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE_DIR / "cli.py").is_file() or not SPEC.is_file():
        sys.stderr.write(f"perfbench: {PACKAGE_DIR} or {SPEC} not found; "
                         "run from a full checkout of the repository\n")
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    frozen = json.loads(DIGESTS.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    (WORK / "stderr.txt").write_bytes(b"")
    env = environment(args)
    env["loadavg_start"] = os.getloadavg()
    checker = Checker(frozen)

    ops = BUILDERS[args.workload](random.Random(args.seed), args.tiny)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, details = trace_run(args.workload, ops, args.seconds, checker, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if args.workload == "library-sweep":
            values, details = measure_sweep(ops, args.seconds, checker)
        else:
            values, details = measure_cli(ops, args.seconds, checker)

    attempted, failures = checker.verdicts()
    env["loadavg_end"] = os.getloadavg()
    if values is None:
        values = {}
    missing = sorted(set(units) - set(values))
    if missing:
        failures.append({"op": "metrics", "problems": [f"not measured: {missing}"]})
    details["failed_frac"] = {"value": len(failures) / max(attempted, 1), "unit": "1",
                              "attempted": attempted}
    print(json.dumps({"details": details, "failures": failures[:20], "notes": NOTES,
                      "env": env}))
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()
                    if n in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
