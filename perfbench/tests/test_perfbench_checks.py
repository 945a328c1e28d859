"""Correctness checks on synthetic results."""

import math

import numpy as np

from circle_mimo.harness import TrialResult
from perfbench import checks


def _result(method, se, trial=0):
    se = np.asarray(se, dtype=float)
    return TrialResult(trial, method, None, None, float(np.sum(se)), se, (), 0, 0.0)


def test_good_trial_has_no_problems():
    batch = [_result("bound", [2.0, 3.0]), _result("circle", [1.5, 3.0])]
    assert checks.trial_problems(batch, "genie") == []


def test_non_finite_and_negative_se_are_problems():
    assert checks.trial_problems([_result("zf", [1.0, math.nan])], "estimated")
    assert checks.trial_problems([_result("zf", [1.0, math.inf])], "estimated")
    assert checks.trial_problems([_result("mrt", [1.0, -0.5])], "estimated")


def test_circle_above_bound_is_a_problem_only_under_genie_csir():
    batch = [_result("bound", [2.0, 3.0]), _result("circle", [2.5, 1.0])]
    assert checks.trial_problems(batch, "genie")
    assert checks.trial_problems(batch, "estimated") == []


def test_mean_sum_se_uses_leading_trials():
    results = [_result("bound", [1.0], 0), _result("bound", [3.0], 1), _result("bound", [9.0], 2)]
    assert checks.mean_sum_se(results) == {"bound": 13.0 / 3}
    assert checks.mean_sum_se(results, 2) == {"bound": 2.0}


def test_reference_comparison():
    expected = {"bound": 10.0, "wmmse": 20.0}
    assert checks.reference_problems({"bound": 10.0 + 1e-9, "wmmse": 20.0}, expected, 1e-6) == []
    assert checks.reference_problems({"bound": 10.1, "wmmse": 20.0}, expected, 1e-6)
    assert checks.reference_problems({"bound": 10.0}, expected, 1e-6)
    assert checks.reference_problems({**expected, "zf": 1.0}, expected, 1e-6)


def test_committed_reference_covers_every_workload():
    from perfbench.workloads import WORKLOADS

    reference = checks.load_reference()
    assert set(reference["workloads"]) == set(WORKLOADS)
    for name, entry in reference["workloads"].items():
        assert set(entry["sum_se"]) == set(WORKLOADS[name].base.methods)
