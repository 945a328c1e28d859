"""Metric arithmetic on trial timestamps, and the machine context of a run.

A phase of a run records, for each trial, the ``perf_counter`` value just
before asking ``run_experiment`` for the trial's results and the value once
they arrived.  Trial 0 also carries the sweep point's set-up, so the
steady-state figures use trials 1 onward.
"""

from __future__ import annotations

import os
import platform
import resource
import sys

import numpy as np

# A percentile is reported only when at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100

# Share of the untraced trial time that the summed self times may miss it by
# beyond the tracing overhead: the time between trials, outside every span.
SELF_TIME_SLACK = 0.05


def steady_durations(starts: list[float], ends: list[float]) -> list[float]:
    """Durations in seconds of trials 1 onward."""
    return [end - start for start, end in zip(starts[1:], ends[1:])]


def steady_trials_per_s(ends: list[float]) -> float:
    """Trials completed per second after the first result."""
    if len(ends) < 2:
        raise ValueError("need at least two trials for a steady-state rate")
    return (len(ends) - 1) / (ends[-1] - ends[0])


def trial_percentiles_ms(durations: list[float]) -> dict[str, float]:
    """p50 always, p90 only with at least ``P90_MIN_SAMPLES`` samples, in ms."""
    if not durations:
        raise ValueError("no trial durations")
    ms = np.asarray(durations) * 1e3
    out = {"p50": float(np.percentile(ms, 50))}
    if len(ms) >= P90_MIN_SAMPLES:
        out["p90"] = float(np.percentile(ms, 90))
    return out


def setup_seconds(t_call: float, t_first_result: float, trial_s: float) -> float:
    """Time from calling ``run_experiment`` to its first result, less one trial."""
    return t_first_result - t_call - trial_s


def self_time_problems(self_sum_s: float, untraced_s: float, traced_s: float) -> list[str]:
    """Whether the traced layer self times account for the untraced trial time.

    ``self_sum_s`` is the per-trial sum of layer self times and
    ``harness.self_s``; ``untraced_s`` and ``traced_s`` are the steady-state
    seconds per trial of the untraced and the traced run.  The sum may differ
    from ``untraced_s`` by the tracing overhead ``|traced_s - untraced_s|``
    plus ``SELF_TIME_SLACK`` of ``untraced_s``.
    """
    allowed = abs(traced_s - untraced_s) + SELF_TIME_SLACK * untraced_s
    if abs(self_sum_s - untraced_s) <= allowed:
        return []
    return [f"layer self times sum to {self_sum_s:.6g} s/trial, untraced trial "
            f"{untraced_s:.6g} s, traced {traced_s:.6g} s"]


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no trials attempted")
    return failed / attempted


def peak_rss_mib() -> float:
    """Peak resident set size of this process in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def machine_context() -> dict:
    """Core count, interpreter, numpy and BLAS, and the BLAS threading in effect."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas_name = blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }
