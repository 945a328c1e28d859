"""Metric arithmetic on synthetic timestamps."""

import pytest

from perfbench import metrics


def test_setup_subtracts_one_typical_trial():
    # called at 10.0 s, first result at 12.5 s, a typical trial takes 0.5 s
    assert metrics.setup_seconds(10.0, 12.5, 0.5) == pytest.approx(2.0)


def test_steady_figures_skip_trial_zero():
    starts = [0.0, 3.0, 3.5, 4.0]
    ends = [3.0, 3.5, 4.0, 4.5]  # trial 0 carries 2.5 s of set-up
    assert metrics.steady_durations(starts, ends) == pytest.approx([0.5, 0.5, 0.5])
    assert metrics.steady_trials_per_s(ends) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        metrics.steady_trials_per_s([1.0])


def test_p90_needs_ten_samples_beyond_it():
    durations = [i / 1000 for i in range(1, 100)]  # 1..99 ms
    assert set(metrics.trial_percentiles_ms(durations)) == {"p50"}
    assert metrics.trial_percentiles_ms(durations)["p50"] == pytest.approx(50.0)
    report = metrics.trial_percentiles_ms(durations + [0.1])  # 100 samples
    assert set(report) == {"p50", "p90"}
    assert report["p90"] == pytest.approx(90.1)
    with pytest.raises(ValueError):
        metrics.trial_percentiles_ms([])


def test_self_times_must_cover_the_untraced_trial_within_the_overhead():
    # untraced 100 ms/trial, traced 110 ms: the sum may be off by 10 ms + 5 ms
    assert metrics.self_time_problems(0.108, 0.100, 0.110) == []
    assert metrics.self_time_problems(0.086, 0.100, 0.110) == []
    assert metrics.self_time_problems(0.084, 0.100, 0.110)
    assert metrics.self_time_problems(0.116, 0.100, 0.110)


def test_error_rate_counts_against_attempted():
    assert metrics.error_rate(0, 40) == 0.0
    assert metrics.error_rate(3, 60) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        metrics.error_rate(0, 0)


def test_machine_context_records_blas_threading():
    ctx = metrics.machine_context()
    for key in ("nproc", "python", "numpy", "blas", "blas_version",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert key in ctx
    assert metrics.peak_rss_mib() > 0
