"""Record the reference outputs that ``run.py`` checks at seed 42.

Usage (from the repository root, only when the program's outputs are
meant to change):

    python3 bench/record_reference.py

Runs one untraced pass of every workload at the reference seed and writes
``bench/reference.json``.  Refuses to write if any invocation fails.
"""

from __future__ import annotations

import json
import sys

from run import WORK_DIR, load_harness


def main() -> int:
    harness = load_harness()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    reference = {"seed": harness.REFERENCE_SEED}
    for workload in harness.WORKLOADS:
        runner = harness.Runner(workload, harness.REFERENCE_SEED, None)
        result = runner.run_pass()
        if result.problems:
            print("\n".join(result.problems), file=sys.stderr)
            return 1
        reference[workload] = [harness.reference_entry(inv)
                               for inv in result.invocations]
        print(f"{workload}: {result.wall_s:.2f} s", file=sys.stderr)
    with open(harness.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
