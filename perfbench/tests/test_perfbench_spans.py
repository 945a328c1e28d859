"""Span recorder: self time, wrapping at the harness's names, missing names."""

import types
import warnings
from dataclasses import replace

import pytest

import circle_mimo.harness as harness
from perfbench import spans
from perfbench.bench import run_phase
from perfbench.workloads import WORKLOADS


def test_self_time_subtracts_child_coverage():
    rec = spans.SpanRecorder()
    rec.spans = [
        ["root", 1, 0.0, 10.0, -1],
        ["a", 1, 1.0, 4.0, 0],
        ["a.inner", 1, 2.0, 3.0, 1],
        ["b", 1, 5.0, 6.0, 0],
    ]
    assert rec.self_times() == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_wrap_records_nesting_trial_and_arguments():
    rec = spans.SpanRecorder()
    seen = []
    inner = rec.wrap(lambda x: x + 1, "inner")
    outer = rec.wrap(lambda x, scale=1: inner(x) * scale, "outer",
                     lambda r, args, result: seen.append((args, result)))
    rec.begin_trial(4)
    assert outer(2, 3) == 9
    rec.end_trial()
    names = [(s[0], s[1], s[4]) for s in rec.spans]
    assert names == [(spans.ROOT, 4, -1), ("outer", 4, 0), ("inner", 4, 1)]
    assert seen == [((2, 3), 9)]


def test_missing_name_records_zero_calls_with_a_warning():
    calls = []
    fake = types.SimpleNamespace(
        sample_channel=lambda *a: calls.append(a),
        baselines=types.SimpleNamespace(),
    )
    original = fake.sample_channel
    rec = spans.SpanRecorder()
    with pytest.warns(RuntimeWarning) as caught:
        with spans.instrument(rec, fake):
            assert fake.sample_channel is not original
            rec.begin_trial(1)
            rec.end_trial()
    assert fake.sample_channel is original
    assert any("pairwise_diagonals" in str(w.message) for w in caught)
    assert "dftcore.pairwise_diagonals" in rec.missing
    assert "baselines.wmmse" in rec.missing
    metrics = spans.layer_metrics(rec)
    assert metrics["dftcore.pairwise_diagonals.s"] == 0.0
    assert metrics["baselines.wmmse.calls"] == 0.0


def test_instrument_restores_the_harness():
    before = (harness.sample_channel, harness.baselines.wmmse, harness.pairwise_diagonals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with spans.instrument(spans.SpanRecorder()):
            assert harness.sample_channel is not before[0]
            assert harness.baselines.wmmse is not before[1]
    assert (harness.sample_channel, harness.baselines.wmmse, harness.pairwise_diagonals) == before


def test_layer_metrics_of_a_small_traced_run():
    k, m, q = 3, 2, 16
    config = replace(
        WORKLOADS["wideband-estimate"].config(5, 3),
        n_devices=k, q_levels=q, n_subcarriers=m,
        methods=("bound", "circle", "r-circle", "mrt", "zf", "wmmse"),
    )
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        phase = run_phase(config, recorder=rec)
    assert phase.failed == 0 and len(phase.ends) == 3
    out = spans.layer_metrics(rec)
    assert {name for name, _ in spans.PER_LAYER} - set(out) == {"trace.overhead_ratio"}
    assert out["channel.sample_channel.calls"] == k
    assert out["transceiver.receive.calls"] == k * m
    assert out["estimation.narrowband_search.calls"] == k * m
    assert out["estimation.wideband_search.calls"] == k
    assert out["estimation.candidates_scored"] == 2 * k * m * q
    assert out["baselines.wmmse.calls"] == m
    assert 0.0 <= out["estimation.angle_hit_ratio"] <= 1.0
    assert 1 <= out["baselines.wmmse.iterations_mean"] <= 100
    assert out["dftcore.computed_mib"] == pytest.approx(3 * (k + 2) ** 3 * 16 / 2**20)
    # self times of one trial add up to the trial's span
    steady = [s for s in rec.spans if s[0] == spans.ROOT and s[1] >= 1]
    mean_trial = sum(s[3] - s[2] for s in steady) / len(steady)
    assert sum(spans.trial_seconds(out).values()) == pytest.approx(mean_trial)
