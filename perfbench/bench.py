"""Run one workload through ``circle_mimo.harness.run_experiment`` and report.

A run first replays the workload's reference seed and compares the per-method
mean sum-SE with ``reference.json``.  ``--trace 0`` then measures set-up on
``bound``-only probes of the same sweep point and runs the workload at the
given seed for the given seconds, reporting the end-to-end metrics.
``--trace 1`` runs the seed untraced for half the time, then the same trials
again with every layer wrapped in spans, and reports the per-layer metrics;
both halves write a CSV, which must be byte-identical.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans, CSVs (with ``--trace 0``, of the trials whose sum-SE is reported) and a
result file with the machine context go to ``perfbench/out``.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from circle_mimo.harness import run_experiment, write_csv

from . import checks, metrics
from .spans import PER_LAYER, SpanRecorder, instrument, layer_metrics, trial_seconds
from .workloads import WORKLOADS

OUT_DIR = Path(__file__).with_name("out")

# The metrics the last line carries with --trace 0: each must exist, and be
# nonzero, on every workload.  Printed above it but left out here: the
# trial-time percentiles (on a machine whose speed flips between two levels
# every few seconds a median jumps between them from run to run, while the
# mean rate moves smoothly with the share of slow time), error_rate (zero on
# a healthy run; the last line carries it as failed/attempted) and the sum-SE
# of each method.  sum_se.primary is the sum-SE of the workload's main
# method (circle, r-circle or wmmse), so that a speed-up that costs accuracy
# shows in a gated metric.
END_TO_END = (
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sum_se.primary", "bit/s/Hz"),
)

# Set-up is measured ``workload.setup_probes`` times per run, half before and
# half after the timed phase.  The machine's speed flips between two levels
# that last seconds to minutes, so a median moves with the share of slow
# time; the fastest first result, less the fastest of the probes' later
# trials, stays on the fast level.
PROBE_TRIALS = 5  # bound-only trials per probe after the first result
MIN_STEADY_TRIALS = 3
UNBOUNDED = 10**9  # n_trials of a time-bounded phase; the deadline ends it


@dataclass
class Phase:
    """What one ``run_experiment`` call produced, with per-trial timestamps."""

    t_call: float = 0.0
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)
    failed: int = 0
    raised: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ends) + (1 if self.raised else 0)


def run_phase(config, seconds: float | None = None, min_trials: int = 1,
              recorder: SpanRecorder | None = None, keep: int | None = None) -> Phase:
    """Consume ``run_experiment(config)`` trial by trial.

    Stops after ``config.n_trials`` trials, or once ``seconds`` have passed
    and at least ``min_trials`` trials completed.  Only the results of the
    first ``keep`` trials are kept (all when None), so that a faster program
    running more trials does not raise the peak RSS.  A trial that raises ends
    the phase (the generator cannot resume) and counts as failed; a trial
    that breaks an invariant counts as failed and the phase goes on.
    """
    phase = Phase()
    n_methods = len(config.methods)
    phase.t_call = time.perf_counter()
    gen = run_experiment(config)
    try:
        for trial in range(config.n_trials):
            if (seconds is not None and trial >= min_trials
                    and time.perf_counter() - phase.t_call >= seconds):
                break
            if recorder is not None:
                recorder.begin_trial(trial)
            start = time.perf_counter()
            try:
                batch = list(islice(gen, n_methods))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                phase.raised = True
                phase.failed += 1
                phase.problems.append(f"trial {trial} raised")
                break
            finally:
                if recorder is not None:
                    recorder.end_trial()
            end = time.perf_counter()
            if len(batch) < n_methods:
                break
            phase.starts.append(start)
            phase.ends.append(end)
            problems = checks.trial_problems(batch, config.csir)
            if problems:
                phase.failed += 1
                phase.problems.extend(problems)
            if keep is None or trial < keep:
                phase.results.extend(batch)
    finally:
        gen.close()
    return phase


def reference_phase(workload) -> Phase:
    """Replay the reference seed; on a mismatch every one of its trials counts as failed."""
    reference = checks.load_reference()
    entry = reference["workloads"][workload.name]
    phase = run_phase(workload.config(entry["seed"], entry["trials"]))
    problems = checks.reference_problems(
        checks.mean_sum_se(phase.results), entry["sum_se"], reference["rel_tol"]
    )
    if len(phase.ends) != entry["trials"]:
        problems.append(f"reference: {len(phase.ends)} of {entry['trials']} trials completed")
    if problems:
        phase.failed = phase.attempted
        phase.problems += problems
    return phase


def setup_probes(workload, seed: int, count: int) -> list[Phase]:
    """``count`` bound-only runs of the sweep point, each timed for its set-up.

    The probe runs only ``bound`` so that the trial subtracted from its first
    result is short and steady.
    """
    config = workload.config(seed, 1 + PROBE_TRIALS, methods=("bound",))
    return [run_phase(config) for _ in range(count)]


def probe_setup_s(probes: list[Phase]) -> float:
    """The fastest call-to-first-result of ``probes``, less their fastest later trial."""
    first = min(probes, key=lambda p: p.ends[0] - p.t_call)
    trial_s = min(d for p in probes for d in metrics.steady_durations(p.starts, p.ends))
    return metrics.setup_seconds(first.t_call, first.ends[0], trial_s)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the result record (metrics in ``metrics``)."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    phases = [reference_phase(workload)]
    problems: list[str] = []
    shares: dict[str, float] = {}
    report: dict[str, tuple[float, str, str]] = {}  # name -> (value, unit, note)

    if not trace:
        probes = setup_probes(workload, seed, workload.setup_probes // 2)
        main = run_phase(workload.config(seed, UNBOUNDED), seconds, workload.se_trials,
                         keep=workload.se_trials)
        probes += setup_probes(workload, seed, workload.setup_probes - workload.setup_probes // 2)
        phases += [main, *probes]
        complete = [p for p in probes if len(p.ends) == 1 + PROBE_TRIALS]
        write_csv(main.results, f"{stem}.csv")
        durations = metrics.steady_durations(main.starts, main.ends)
        if len(durations) < MIN_STEADY_TRIALS:
            problems.append(f"only {len(durations)} steady trials")
        else:
            report["trials_per_s"] = (metrics.steady_trials_per_s(main.ends), "1/s", "")
            for key, value in metrics.trial_percentiles_ms(durations).items():
                report[f"trial_ms.{key}"] = (value, "ms", f"n={len(durations)}")
        if complete:
            report["setup_s"] = (probe_setup_s(complete), "s", f"fastest of {len(complete)} probes")
        report["peak_rss_mib"] = (metrics.peak_rss_mib(), "MiB", "")
        means = checks.mean_sum_se(main.results, workload.se_trials)
        note = f"mean of trials 0..{workload.se_trials - 1}"
        for method, value in means.items():
            report[f"sum_se.{method}"] = (value, "bit/s/Hz", note)
        if workload.primary in means:
            report["sum_se.primary"] = (means[workload.primary], "bit/s/Hz",
                                        f"sum_se.{workload.primary}")
    else:
        plain = run_phase(workload.config(seed, UNBOUNDED), seconds / 2, MIN_STEADY_TRIALS + 1)
        recorder = SpanRecorder()
        with instrument(recorder):
            traced = run_phase(workload.config(seed, len(plain.ends)), recorder=recorder)
        phases += [plain, traced]
        write_csv(plain.results, f"{stem}.untraced.csv")
        write_csv(traced.results, f"{stem}.traced.csv")
        recorder.write(f"{stem}.spans.jsonl")
        if Path(f"{stem}.untraced.csv").read_bytes() != Path(f"{stem}.traced.csv").read_bytes():
            problems.append("traced and untraced runs wrote different CSVs")
        if len(plain.ends) - 1 < MIN_STEADY_TRIALS or len(traced.ends) != len(plain.ends):
            problems.append("too few trials to trace")
        else:
            layers = layer_metrics(recorder)
            plain_rate = metrics.steady_trials_per_s(plain.ends)
            traced_rate = metrics.steady_trials_per_s(traced.ends)
            layers["trace.overhead_ratio"] = traced_rate / plain_rate
            units = dict(PER_LAYER)
            for key, value in layers.items():
                report[key] = (value, units[key], "")
            parts = trial_seconds(layers)
            total = sum(parts.values())
            shares = {k: round(v / total, 4) for k, v in parts.items() if v > 0}
            report["trace.self_time_sum_s"] = (total, "s/trial", "layer self times + harness.self_s")
            report["trace.untraced_trial_s"] = (1 / plain_rate, "s/trial", "steady-state mean")
            problems += metrics.self_time_problems(total, 1 / plain_rate, 1 / traced_rate)

    for phase in phases:
        problems.extend(phase.problems)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report["error_rate"] = (metrics.error_rate(failed, attempted), "ratio", f"{failed}/{attempted} trials")

    wanted = PER_LAYER if trace else END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": metrics.machine_context(),
        "problems": problems,
        "shares": shares,
        "report": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in report.items()},
        "correct": not problems and all(k in report for k, _ in wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": u} for k, u in wanted if k in report},
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict, out=sys.stdout) -> None:
    ctx = record["context"]
    print(f"# workload {record['workload']} seed {record['seed']} seconds {record['seconds']} "
          f"trace {record['trace']}", file=out)
    print("# context " + " ".join(f"{k}={v}" for k, v in ctx.items()), file=out)
    for key, item in record["report"].items():
        note = f"  ({item['note']})" if item["note"] else ""
        print(f"{key} {item['value']:.6g} {item['unit']}{note}", file=out)
    if record["shares"]:
        print("# shares of traced trial time " + json.dumps(record["shares"]), file=out)
    for problem in record["problems"]:
        print(f"# PROBLEM {problem}", file=out)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}), file=out)
