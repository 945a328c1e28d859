import numpy as np
import pytest

from circle_mimo.channel import ArrayGeometry, ChannelRealization, array_response
from circle_mimo.dftcore import build_family, build_precoders


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
