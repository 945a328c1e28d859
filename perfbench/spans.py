"""Span recorder for the traced run.

The harness binds its layer functions with ``from ... import``, so the
recorder wraps them where the harness looks them up: the globals of
``circle_mimo.harness`` and the attributes of ``circle_mimo.harness.baselines``.
Each span records its name, the trial index it belongs to (the spans of one
trial share it), start, end and the index of its parent span.  Spans stay in
memory and are written out once the run ends.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = "harness.trial"

# Set-up layers: reported per run, not per trial.
SETUP_LAYERS = ("dftcore.build_family", "dftcore.build_precoders", "dftcore.pairwise_diagonals")

PER_LAYER = (
    ("dftcore.build_family.s", "s"),
    ("dftcore.build_precoders.s", "s"),
    ("dftcore.pairwise_diagonals.s", "s"),
    ("dftcore.computed_mib", "MiB"),
    ("channel.sample_channel.calls", "calls/trial"),
    ("channel.sample_channel.s", "s/trial"),
    ("transceiver.make_frame.s", "s/trial"),
    ("transceiver.transmit.s", "s/trial"),
    ("transceiver.receive.calls", "calls/trial"),
    ("transceiver.receive.s", "s/trial"),
    ("estimation.narrowband_search.calls", "calls/trial"),
    ("estimation.narrowband_search.s", "s/trial"),
    ("estimation.wideband_search.calls", "calls/trial"),
    ("estimation.wideband_search.s", "s/trial"),
    ("estimation.candidates_scored", "count/trial"),
    ("estimation.angle_hit_ratio", "ratio"),
    ("receiver.per_device_achieved_se.s", "s/trial"),
    ("receiver.per_device_max_se.s", "s/trial"),
    ("baselines.wmmse.calls", "calls/trial"),
    ("baselines.wmmse.s", "s/trial"),
    ("baselines.wmmse.iterations_mean", "iterations"),
    ("baselines.wmmse.converged_ratio", "ratio"),
    ("baselines.zf.s", "s/trial"),
    ("baselines.mrt.s", "s/trial"),
    ("baselines.per_device_csit_se.s", "s/trial"),
    ("harness.self_s", "s/trial"),
    ("trace.overhead_ratio", "ratio"),
)


class SpanRecorder:
    """In-memory spans plus the counters observed at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, trial, start, end, parent index or -1]
        self._stack: list[int] = []
        self.trial = -1
        self.los_aod: dict[tuple[int, int], float] = {}  # (trial, device) -> true LoS angle
        self.searches: list[tuple] = []  # (trial, device, q_star, codebook, subcarriers)
        self.wmmse: list[tuple[int, int, bool]] = []  # (trial, iterations, converged)
        self.computed_bytes = 0
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.trial, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def begin_trial(self, trial: int) -> None:
        self.trial = trial
        self._root = self.open(ROOT)

    def end_trial(self) -> None:
        self.close(self._root)

    def self_times(self) -> list[float]:
        out = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                out[span[4]] -= span[3] - span[2]
        return out

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span; ``observe`` sees the positional arguments
        and the result once the span closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "trial", "start", "end", "parent"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_channel(rec: SpanRecorder, args: tuple, result) -> None:
    rec.los_aod[(rec.trial, result.device)] = result.los_aod


# The harness passes (block or blocks, family, codebook, ...) by position.
def _observe_narrowband(rec: SpanRecorder, args: tuple, result) -> None:
    rec.searches.append((rec.trial, result.device, result.q_star, args[2], 1))


def _observe_wideband(rec: SpanRecorder, args: tuple, result) -> None:
    rec.searches.append((rec.trial, result.device, result.q_star, args[2], len(args[0])))


def _observe_wmmse(rec: SpanRecorder, args: tuple, result) -> None:
    rec.wmmse.append((rec.trial, result.iterations, result.converged))


def _observe_dftcore(rec: SpanRecorder, args: tuple, result) -> None:
    rec.computed_bytes += _array_bytes(result)


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


# (layer, attribute path under circle_mimo.harness, observer)
TARGETS = (
    ("dftcore.build_family", "build_family", _observe_dftcore),
    ("dftcore.build_precoders", "build_precoders", _observe_dftcore),
    ("dftcore.pairwise_diagonals", "pairwise_diagonals", _observe_dftcore),
    ("channel.sample_channel", "sample_channel", _observe_channel),
    ("transceiver.make_frame", "make_frame", None),
    ("transceiver.transmit", "transmit", None),
    ("transceiver.receive", "receive", None),
    ("estimation.narrowband_search", "narrowband_search", _observe_narrowband),
    ("estimation.wideband_search", "wideband_search", _observe_wideband),
    ("receiver.per_device_achieved_se", "per_device_achieved_se", None),
    ("receiver.per_device_max_se", "per_device_max_se", None),
    ("baselines.wmmse", "baselines.wmmse", _observe_wmmse),
    ("baselines.zf", "baselines.zf", None),
    ("baselines.mrt", "baselines.mrt", None),
    ("baselines.per_device_csit_se", "baselines.per_device_csit_se", None),
)


@contextmanager
def instrument(recorder: SpanRecorder, harness=None):
    """Wrap every target name while the block runs; restore the originals after.

    A name the harness no longer has records zero calls, with a warning.
    """
    if harness is None:
        import circle_mimo.harness as harness
    patched = []
    try:
        for layer, path, observe in TARGETS:
            *parents, attr = path.split(".")
            owner = harness
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                warnings.warn(
                    f"circle_mimo.harness.{path} not found; layer {layer} records zero calls",
                    RuntimeWarning,
                    stacklevel=3,
                )
                recorder.missing.append(layer)
                continue
            original = getattr(owner, attr)
            setattr(owner, attr, recorder.wrap(original, layer, observe))
            patched.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _angle_hit(codebook, q_star: int, los_aod: float, sines_cache: dict) -> bool:
    """Whether ``q_star`` is a grid index nearest the true angle in sine.

    The steering vector depends on the angle only through its sine, so an
    angle and its mirror about pi/2 are the same candidate.
    """
    key = id(codebook)
    if key not in sines_cache:
        sines_cache[key] = np.sin(codebook.angles)
    dist = np.abs(sines_cache[key] - math.sin(los_aod))
    return bool(dist[q_star - 1] <= dist.min() + 1e-12)


def trial_seconds(layers: dict[str, float]) -> dict[str, float]:
    """The per-trial self times among ``layers``; they sum to the traced trial time."""
    return {
        key: value for key, value in layers.items()
        if key == "harness.self_s" or (key.endswith(".s") and key[:-2] not in SETUP_LAYERS)
    }


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, except ``trace.overhead_ratio``.

    Set-up layers are summed over the run; every other figure is per trial,
    averaged over trials 1 onward (trial 0 also carries the set-up).
    Layers that did not run report 0.
    """
    self_times = rec.self_times()
    steady = {span[1] for span in rec.spans if span[0] == ROOT and span[1] >= 1}
    if not steady:
        raise ValueError("no steady-state trial was traced")
    per_trial = 1.0 / len(steady)
    calls: Counter = Counter()
    seconds: dict[str, float] = defaultdict(float)
    setup: dict[str, float] = defaultdict(float)
    for span, own in zip(rec.spans, self_times):
        name, trial = span[0], span[1]
        if name in SETUP_LAYERS:
            setup[name] += own
        if trial in steady:
            calls[name] += 1
            seconds[name] += own

    out = {f"{layer}.s": setup[layer] for layer in SETUP_LAYERS}
    out["dftcore.computed_mib"] = rec.computed_bytes / 2**20
    for layer in ("channel.sample_channel", "transceiver.receive", "estimation.narrowband_search",
                  "estimation.wideband_search", "baselines.wmmse"):
        out[f"{layer}.calls"] = calls[layer] * per_trial
    for layer, _, _ in TARGETS:
        if layer not in SETUP_LAYERS:
            out[f"{layer}.s"] = seconds[layer] * per_trial
    out["harness.self_s"] = seconds[ROOT] * per_trial

    searches = [s for s in rec.searches if s[0] in steady]
    cache: dict = {}
    hits = sum(
        _angle_hit(codebook, q_star, rec.los_aod[(trial, device)], cache)
        for trial, device, q_star, codebook, _ in searches
    )
    out["estimation.candidates_scored"] = sum(
        codebook.q_levels * subcarriers for _, _, _, codebook, subcarriers in searches
    ) * per_trial
    out["estimation.angle_hit_ratio"] = hits / len(searches) if searches else 0.0

    solves = [s for s in rec.wmmse if s[0] in steady]
    out["baselines.wmmse.iterations_mean"] = float(np.mean([s[1] for s in solves])) if solves else 0.0
    out["baselines.wmmse.converged_ratio"] = float(np.mean([s[2] for s in solves])) if solves else 0.0
    return out
