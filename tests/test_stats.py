"""The paired statistics of ``tests/stats.py`` on a hand-computed example."""

import math

import numpy as np
import pytest

from circle_mimo.harness import TrialResult, write_csv
from stats import paired, sum_se


def rows(method, values, sweep_value=10):
    return [
        TrialResult(t, method, "n_devices", sweep_value, v, np.zeros(0), (), 0, 0.0)
        for t, v in enumerate(values)
    ]


# trials 0..2: a = 1, 2, 3 and b = 2, 4, 5, so b - a = 1, 2, 2: mean 5/3,
# sample variance ((2/3)^2 + 2 (1/3)^2) / 2 = 1/3, standard error
# sqrt(1/3) / sqrt(3) = 1/3, z = 5, smallest difference 1
A, B = (1.0, 2.0, 3.0), (2.0, 4.0, 5.0)


def check_hand_example(stats):
    assert list(stats) == [10]
    got = stats[10]
    assert got.mean == pytest.approx(5 / 3, rel=1e-15)
    assert got.stderr == pytest.approx(1 / 3, rel=1e-15)
    assert got.z == pytest.approx(5.0, rel=1e-14)
    assert got.smallest == 1.0 and got.n == 3


def test_three_trials_from_rows():
    both = rows("circle", A) + rows("r-circle", B)
    check_hand_example(paired(sum_se(both, "circle"), sum_se(both, "r-circle")))


def test_three_trials_from_two_csvs(tmp_path):
    write_csv(rows("mrt", A), tmp_path / "a.csv")
    write_csv(rows("mrt", B), tmp_path / "b.csv")
    check_hand_example(paired(sum_se(tmp_path / "a.csv", "mrt"), sum_se(tmp_path / "b.csv", "mrt")))


def test_csv_and_rows_give_the_same_keys(tmp_path):
    results = rows("zf", A, sweep_value=-5.0) + rows("zf", B, sweep_value=None)
    write_csv(results, tmp_path / "run.csv")
    assert sum_se(tmp_path / "run.csv", "zf") == sum_se(results, "zf")


def test_matched_per_sweep_value():
    a = sum_se(rows("circle", A, 10) + rows("circle", B, 20), "circle")
    b = sum_se(rows("circle", B, 10) + rows("circle", B, 20), "circle")
    stats = paired(a, b)
    check_hand_example({10: stats[10]})
    assert (stats[20].mean, stats[20].stderr, stats[20].smallest) == (0.0, 0.0, 0.0)
    assert math.isnan(stats[20].z)


def test_differing_trial_sets_raise():
    with pytest.raises(ValueError, match="trial sets differ on 1"):
        paired(sum_se(rows("mrt", A), "mrt"), sum_se(rows("mrt", B[:2]), "mrt"))


def test_a_single_trial_raises():
    with pytest.raises(ValueError, match="need at least 2"):
        paired(sum_se(rows("mrt", A[:1]), "mrt"), sum_se(rows("mrt", B[:1]), "mrt"))
