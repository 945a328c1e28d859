"""Benchmark runs: CSV determinism under tracing, failure accounting, the contract file."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circle_mimo.harness as harness
from circle_mimo.harness import write_csv
from perfbench import bench, spans
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_traced_and_untraced_runs_write_identical_csvs(tmp_path):
    config = WORKLOADS["wideband-estimate"].config(7, 2)
    write_csv(bench.run_phase(config).results, tmp_path / "plain.csv")
    with spans.instrument(spans.SpanRecorder()) as rec:
        write_csv(bench.run_phase(config, recorder=rec).results, tmp_path / "traced.csv")
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()


def test_traced_workload_run_is_correct(tmp_path):
    record = bench.run_workload("wideband-estimate", 2, 0.5, trace=True, out_dir=tmp_path)
    assert record["correct"], record["problems"]
    assert set(record["metrics"]) == {name for name, _ in spans.PER_LAYER}
    stem = tmp_path / "wideband-estimate-seed2-trace1"
    assert Path(f"{stem}.untraced.csv").read_bytes() == Path(f"{stem}.traced.csv").read_bytes()
    assert Path(f"{stem}.spans.jsonl").stat().st_size > 0


def test_setup_takes_the_fastest_probe_less_the_fastest_trial():
    slow = bench.Phase(t_call=0.0, starts=[0.0, 3.0, 3.6], ends=[3.0, 3.6, 4.2])
    fast = bench.Phase(t_call=10.0, starts=[10.0, 12.5, 13.0], ends=[12.5, 13.0, 13.7])
    assert bench.probe_setup_s([slow, fast]) == pytest.approx(2.5 - 0.5)


def test_phase_keeps_only_the_leading_results():
    config = WORKLOADS["csit-benchmarks"].config(1, 4, methods=("bound", "zf"))
    phase = bench.run_phase(config, keep=2)
    assert len(phase.ends) == 4
    assert [(r.trial_index, r.method) for r in phase.results] == [
        (0, "bound"), (0, "zf"), (1, "bound"), (1, "zf")]


def test_invariant_failure_is_counted_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(harness, "per_device_max_se", lambda *a, **k: np.full(30, np.nan))
    phase = bench.run_phase(WORKLOADS["csit-benchmarks"].config(1, 2, methods=("bound",)))
    assert len(phase.ends) == 2 and phase.failed == 2 and phase.attempted == 2


def test_raising_trial_is_counted_and_ends_the_phase(monkeypatch):
    def boom(*args, **kwargs):
        raise FloatingPointError("synthetic")

    monkeypatch.setattr(harness, "per_device_max_se", boom)
    phase = bench.run_phase(WORKLOADS["csit-benchmarks"].config(1, 3, methods=("bound",)))
    assert phase.raised and phase.failed == 1 and phase.attempted == 1
    assert phase.problems == ["trial 0 raised"]


def test_run_with_a_broken_layer_reports_instead_of_crashing(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise FloatingPointError("synthetic")

    monkeypatch.setattr(harness, "per_device_max_se", boom)
    record = bench.run_workload("csit-benchmarks", 1, 0.1, trace=False, out_dir=tmp_path)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0
    assert "trials_per_s" not in record["metrics"] and "setup_s" not in record["metrics"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)[:2]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def test_run_fails_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "massive-genie", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
