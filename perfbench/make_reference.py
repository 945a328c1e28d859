"""Regenerate ``reference.json``: per-method mean sum-SE at each workload's reference seed.

    python3 perfbench/make_reference.py

Only rerun this when a change to the simulator's numbers is intended, and
say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REFERENCE_SEED = 1
REL_TOL = 1e-6


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_phase
    from perfbench.checks import REFERENCE_PATH, mean_sum_se
    from perfbench.workloads import WORKLOADS

    entries = {}
    for name, workload in WORKLOADS.items():
        phase = run_phase(workload.config(REFERENCE_SEED, workload.reference_trials))
        if phase.problems or len(phase.ends) != workload.reference_trials:
            print(f"{name}: {phase.problems}", file=sys.stderr)
            return 1
        entries[name] = {
            "seed": REFERENCE_SEED,
            "trials": workload.reference_trials,
            "sum_se": mean_sum_se(phase.results),
        }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"rel_tol": REL_TOL, "workloads": entries}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
