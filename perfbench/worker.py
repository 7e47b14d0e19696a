"""Child-process side of the benchmark; run.py starts it in a fresh interpreter.

    python perfbench/worker.py cli TRACE_OUT SPANS_OUT ARGV...
        Import the package, wrap its public functions (tracer.py), run
        qutrit_teleport.cli.main(ARGV) with stdout as the command's output,
        then write the per-function report and the spans.

    python perfbench/worker.py sweep OPS_JSON RESULT_OUT SECONDS MAX_CYCLES [TRACE_OUT SPANS_OUT]
        Import the package and warm its caches (this is the set-up time),
        then call simulate.run_batch (and analysis.expected_fidelities for
        fixed states) for each op in OPS_JSON, cycling through the list
        until SECONDS have passed and every op ran once, or MAX_CYCLES
        cycles are done.  Each op is timed alone; its result is digested
        and checked after its timer stops.  MAX_CYCLES 0 measures set-up
        only.  With TRACE_OUT the tracer is installed after set-up, so the
        trace covers the timed loop.
"""

import time

START = time.perf_counter()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402

WARM_TRIALS = 200  # per channel; every outcome has Haar probability >= 1/18


def timed_imports(package_module):
    clock = time.perf_counter
    t0 = clock()
    import numpy  # noqa: F401
    t1 = clock()
    import scipy.stats  # noqa: F401
    t2 = clock()
    __import__(package_module)
    t3 = clock()
    return {
        "import.numpy_s": t1 - t0,
        "import.scipy_stats_s": t2 - t1,
        "import.qutrit_teleport_s": t3 - t2,
    }


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def traced_cli(trace_out, spans_out, argv):
    imports = timed_imports("qutrit_teleport.cli")
    tracer = Tracer()
    tracer.install()
    code = sys.modules["qutrit_teleport.cli"].main(argv)
    sys.stdout.flush()
    write_json(trace_out, {"imports": imports, **tracer.report()})
    write_json(spans_out, tracer.spans_obj())
    return code


def summary_digest(summary, fidelities):
    doc = {"summary": dataclasses.asdict(summary), "expected_fidelities": fidelities}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def summary_problems(op, summary, fidelities):
    problems = []
    if summary.channel != op["channel"] or summary.trials != op["trials"]:
        problems.append("summary channel or trial count differs from the request")
    if abs(sum(summary.empirical_outcome_frequencies) - 1.0) > 1e-9:
        problems.append("outcome frequencies do not sum to 1")
    if not 0.0 <= summary.singular_outcome_rate <= 1.0:
        problems.append("singular outcome rate outside [0, 1]")
    fid = summary.mean_fidelity_invertible
    if fid is not None and abs(fid - 1.0) > 1e-9:
        problems.append("recovered fidelity differs from 1")
    if fidelities is not None:
        if not -1e-12 <= fidelities["invertible_mass"] <= 1.0 + 1e-9:
            problems.append("invertible mass outside [0, 1]")
        if not 0.0 <= fidelities["mean_fidelity_all_outcomes"] <= 1.0 + 1e-9:
            problems.append("all-outcome fidelity outside [0, 1]")
    return problems


def sweep(ops_path, result_out, seconds, max_cycles, trace_paths):
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    imports = timed_imports("qutrit_teleport")
    from qutrit_teleport import analysis, simulate

    for channel in range(9):
        simulate.run_batch(channel, WARM_TRIALS, 0, haar=True)
    for op in ops:
        if op["state"] is not None:
            analysis.expected_fidelities(op["channel"], op_state(op))
    setup_s = time.perf_counter() - START

    tracer = None
    if trace_paths:
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    results = []
    loop_start = clock()
    while len(results) < max_cycles * len(ops):
        index = len(results) % len(ops)
        if len(results) >= len(ops) and clock() - loop_start >= seconds:
            break
        op = ops[index]
        state = op_state(op)
        t0 = clock()
        summary = simulate.run_batch(
            op["channel"], op["trials"], op["seed"], input_state=state, haar=state is None
        )
        t1 = clock()
        fidelities = None if state is None else analysis.expected_fidelities(op["channel"], state)
        t2 = clock()
        results.append(
            [index, t1 - t0, t2 - t0, summary_digest(summary, fidelities),
             summary_problems(op, summary, fidelities)]
        )
    write_json(result_out, {"setup_s": setup_s, "imports": imports, "ops": results})
    if tracer is not None:
        write_json(trace_paths[0], {"imports": imports, **tracer.report()})
        write_json(trace_paths[1], tracer.spans_obj())


def op_state(op):
    if op["state"] is None:
        return None
    return tuple(complex(re, im) for re, im in op["state"])


def main(argv):
    mode = argv[0]
    if mode == "cli":
        return traced_cli(argv[1], argv[2], argv[3:])
    if mode == "sweep":
        sweep(argv[1], argv[2], float(argv[3]), int(argv[4]), argv[5:7])
        return 0
    sys.stderr.write(f"unknown worker mode {mode!r}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
