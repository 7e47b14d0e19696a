"""Regenerate perfbench/digests.json from the program as it stands.

    python3 perfbench/freeze.py

Run it only on a commit whose outputs are known to be right: every later
benchmark run compares its outputs against these digests.  It covers the
exact-cli commands for every seed (all 81 `derive --channel I --outcome K`
and all 9 `analyze --channel I` variants) and the simulate-cli and
library-sweep operations of the default seed 0, at full and --tiny size.
Each output must also pass the benchmark's semantic checks.
"""

import json
import random
import sys

import run


def main():
    run.WORK.mkdir(exist_ok=True)
    checker = run.Checker({})
    ops = run.exact_cli_ops(random.Random(0), False)
    ops += [
        run.cli_op(f"derive_{i}_{k}", "short_cmd",
                   ["derive", "--channel", str(i), "--outcome", str(k)])
        for i in range(9) for k in range(9)
    ]
    ops += [run.cli_op(f"analyze_{i}", "short_cmd", ["analyze", "--channel", str(i)])
            for i in range(9)]
    for tiny in (False, True):
        ops += run.simulate_cli_ops(random.Random(0), tiny)
    for op in ops:
        run.run_cli_op(op, checker)
    for tiny in (False, True):
        run.run_sweep(run.library_sweep_ops(random.Random(0), tiny), 0.0, 1, checker)

    _, failures = checker.verdicts()
    if failures:
        print(json.dumps(failures, indent=1))
        return 1
    run.DIGESTS.write_text(json.dumps(checker.first, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"froze {len(checker.first)} digests into {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
