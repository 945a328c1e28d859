from dataclasses import replace

import numpy as np
import pytest

from circle_mimo.channel import ArrayGeometry, ChannelRealization, array_response
from circle_mimo.dftcore import build_family, build_precoders
from circle_mimo.harness import _SweepContext, run_experiment


@pytest.fixture(scope="session")
def family16():
    return build_family(16)


@pytest.fixture(scope="session")
def precoders16(family16):
    return build_precoders(family16)


def los_channel(geometry: ArrayGeometry, alpha, theta: float, device: int = 1) -> ChannelRealization:
    """Pure line-of-sight realization with explicit gain(s) and angle."""
    mm = geometry.n_subcarriers
    gains = np.broadcast_to(np.asarray(alpha, dtype=complex), (mm,)).copy()
    h = np.stack([gains[m0] * array_response(geometry, theta, m0 + 1) for m0 in range(mm)])
    return ChannelRealization(
        device=device,
        los_gain=gains,
        los_aod=theta,
        nlos_gains=np.zeros((mm, 0), dtype=complex),
        nlos_aods=np.zeros(0),
        h=h,
    )


def random_channel_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Generic dense complex vector with entries bounded away from zero."""
    while True:
        h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        if np.min(np.abs(h)) > 1e-6:
            return h


def _comparable(row):
    """A TrialResult without its wall time and with its array as bytes, so rows compare with ==."""
    return replace(row, wall_time_s=0.0, per_device_se=row.per_device_se.tobytes())


def assert_trial_rows_order_free(config) -> None:
    """A trial's rows depend only on the config and the trial index.

    A fresh ``_SweepContext`` per sweep point runs its trials in reverse
    order; every row must equal that of the serial ``run_experiment`` run.
    A generator or buffer the context kept across trials would fail this.
    """
    serial = [_comparable(row) for row in run_experiment(config)]
    backward = []
    for value in config.sweep_values or (None,):
        ctx = _SweepContext(config, value)
        batches = [ctx.run_trial(t) for t in reversed(range(ctx.config.n_trials))]
        backward += [_comparable(row) for batch in reversed(batches) for row in batch]
    assert backward == serial
