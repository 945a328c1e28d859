"""Paired statistics of two sets of per-trial sum SE.

Two methods of one run, or one method of two runs, see the same channels in
trial t at a sweep value, so their per-trial difference varies far less than
either sum SE.  :func:`paired` matches the two sides on (trial, sweep value)
and reports, per sweep value, the mean difference b - a, its standard error,
z = mean / standard error, the smallest per-trial difference and n.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from circle_mimo.harness import _parse_number


@dataclass(frozen=True)
class PairedDifference:
    """Per-trial differences b - a at one sweep value."""

    mean: float
    stderr: float  # sample standard deviation (ddof=1) over sqrt(n)
    z: float  # mean / stderr: nan when every difference is 0
    smallest: float
    n: int


def sum_se(rows, method: str) -> dict:
    """{(trial, sweep value): sum SE} of one method.

    ``rows`` is a CSV path as ``harness.write_csv`` writes it, or an iterable
    of ``TrialResult``.  A CSV's sweep values are read back as numbers, so
    they match the ``TrialResult`` values they were written from.
    """
    if isinstance(rows, (str, Path)):
        out = {}
        with open(rows, newline="") as fh:
            for r in csv.DictReader(fh):
                if r["method"] == method:
                    value = _parse_number(r["sweep_value"]) if r["sweep_value"] else None
                    out[int(r["trial"]), value] = float(r["sum_se"])
        return out
    return {
        (r.trial_index, r.sweep_value): r.sum_se_bits_per_use for r in rows if r.method == method
    }


def paired(a: dict, b: dict) -> dict:
    """{sweep value: PairedDifference of b - a} from two :func:`sum_se` maps.

    Raises ValueError unless both hold the same (trial, sweep value) keys,
    or if a sweep value has fewer than two trials.
    """
    if a.keys() != b.keys():
        raise ValueError(f"trial sets differ on {len(a.keys() ^ b.keys())} (trial, sweep value) keys")
    diffs: dict = {}
    for key in a:
        diffs.setdefault(key[1], []).append(b[key] - a[key])
    out = {}
    for value, d in diffs.items():
        d = np.asarray(d)
        if d.size < 2:
            raise ValueError(f"sweep value {value!r} has {d.size} trial, need at least 2")
        mean = float(d.mean())
        stderr = float(d.std(ddof=1)) / math.sqrt(d.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = float(np.float64(mean) / stderr)
        out[value] = PairedDifference(mean, stderr, z, float(d.min()), int(d.size))
    return out
