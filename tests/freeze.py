"""Re-freeze every golden store from the program as it stands.

    PYTHONPATH=src python tests/freeze.py

Run it only for an intended change of output, and log in CHANGES.md the
entries that `git diff` then names.  It runs `perfbench/freeze.py`, which
writes `perfbench/digests.json` only when every output passes the
benchmark's semantic checks, and stops with that script's exit code if it
fails.  Then it rewrites `golden_simulate.json` and `golden_cli.json`, and
prints each store file whose bytes changed.
"""

import subprocess
import sys
from pathlib import Path

import test_golden_cli
import test_golden_simulate

ROOT = Path(__file__).resolve().parent.parent
STORES = (ROOT / "perfbench" / "digests.json", test_golden_simulate.GOLDEN, test_golden_cli.STORE)


def main() -> int:
    before = {path: path.read_bytes() for path in STORES}
    code = subprocess.call([sys.executable, str(ROOT / "perfbench" / "freeze.py")])
    if code:
        return code
    test_golden_simulate.freeze()
    test_golden_cli.freeze()
    for path in STORES:
        changed = path.read_bytes() != before[path]
        print("rewrote" if changed else "unchanged", path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
