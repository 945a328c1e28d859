"""Correctness checks on the simulator's outputs.

Two kinds: seed-independent invariants checked on every trial, and a
comparison of the per-method mean sum-SE at a workload's reference seed with
the values committed in ``reference.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Floating-point slack for the genie-CSIR ordering circle <= bound, per device.
ORDER_SLACK = 1e-9


def trial_problems(results, csir: str) -> list[str]:
    """Invariant violations among the results of one trial.

    Every SE is finite and nonnegative; under genie CSIR each device's
    ``circle`` SE does not exceed its ``bound`` SE.
    """
    problems = []
    per_device = {}
    for res in results:
        se = np.asarray(res.per_device_se, dtype=float)
        where = f"trial {res.trial_index} {res.method}"
        if not (np.all(np.isfinite(se)) and math.isfinite(res.sum_se_bits_per_use)):
            problems.append(f"{where}: non-finite SE")
        elif np.any(se < 0) or res.sum_se_bits_per_use < 0:
            problems.append(f"{where}: negative SE")
        per_device[res.method] = se
    if csir == "genie" and {"circle", "bound"} <= per_device.keys():
        circle, bound = per_device["circle"], per_device["bound"]
        if circle.shape != bound.shape or np.any(circle > bound + ORDER_SLACK * (1 + np.abs(bound))):
            problems.append(f"trial {results[0].trial_index}: circle SE exceeds bound under genie CSIR")
    return problems


def mean_sum_se(results, n_trials: int | None = None) -> dict[str, float]:
    """Mean sum-SE per method over trials ``0 .. n_trials-1`` (all when None)."""
    sums: dict[str, list[float]] = {}
    for res in results:
        if n_trials is None or res.trial_index < n_trials:
            sums.setdefault(res.method, []).append(res.sum_se_bits_per_use)
    return {method: float(np.mean(values)) for method, values in sums.items()}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_problems(means: dict[str, float], expected: dict[str, float], rel_tol: float) -> list[str]:
    """Mismatches between measured and reference per-method mean sum-SE."""
    problems = []
    for method in sorted(expected.keys() | means.keys()):
        if method not in means or method not in expected:
            problems.append(f"reference: method {method} missing on one side")
        elif not math.isclose(means[method], expected[method], rel_tol=rel_tol, abs_tol=0.0):
            problems.append(
                f"reference: sum_se.{method} {means[method]!r} != {expected[method]!r} "
                f"(rel_tol {rel_tol})"
            )
    return problems
