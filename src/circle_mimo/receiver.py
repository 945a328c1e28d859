"""Achieved and maximum spectral efficiency of the combining receivers.

Device k combines its block as d = h_tilde^T F_k^* y, where F_k is family
member k and h_tilde inverts the conjugate channel entrywise.  With the
true channel the desired gain is exactly N and every interference gain is
exactly zero, for any channel with nonzero entries; the achieved SE below
is built on that decomposition.

Every method's SE ends in :func:`spectral_efficiency`; narrowband is its
M = 1 case.  Two SINR normalizations coexist on purpose: the narrowband
maximum divides the channel gain by N*sigma^2, the wideband one by sigma^2
only.  Neither is silently corrected.
"""

from __future__ import annotations

import numpy as np

from .channel import NoiseModel

__all__ = [
    "DegenerateChannelError",
    "SINR_CAP",
    "spectral_efficiency",
    "per_device_max_se",
    "per_device_achieved_se",
]

# Cap applied to an infinite (perfectly cancelled) SINR before log2(1 + .);
# the default of every function that consumes a SINR, and no config field.
SINR_CAP = 1e30

# Entries closer to zero than this make the entrywise inverse meaningless.
_DEGENERATE_TOL = 1e-12


class DegenerateChannelError(ValueError):
    """A channel entry is (numerically) zero, so its inverse is undefined."""


def inverse_channel(h: np.ndarray) -> np.ndarray:
    """Entrywise inverse of the conjugate channel: entry p is 1/conj(h_p)."""
    h = np.asarray(h, dtype=complex)
    if np.any(np.abs(h) < _DEGENERATE_TOL):
        raise DegenerateChannelError("channel has a (near-)zero entry")
    return 1.0 / h.conj()


def spectral_efficiency(sinr: np.ndarray, geometry, cap: float = SINR_CAP) -> np.ndarray:
    """Per-device SE sum_m log2(1 + min(SINR_km, cap)) / (M + L_cp), shape
    (K,), from per-subcarrier SINRs of shape (K, M)."""
    se = np.log2(1.0 + np.minimum(sinr, cap))
    return np.sum(se, axis=1) / (sinr.shape[1] + geometry.cp_len)


def per_device_max_se(channels: np.ndarray, noise: NoiseModel, geometry) -> np.ndarray:
    """Per-device maximum spectral efficiency, shape (K,).

    ``channels`` has shape (K, M, N).  The SINR of subcarrier m is
    p_t*||h_m||^2/(N*sigma^2) on a narrowband geometry (M = 1), a deliberate
    extra N divisor (see the module docstring), and p_t*||h_m||^2/sigma^2
    otherwise.
    """
    channels = np.asarray(channels)
    if channels.ndim != 3:
        raise ValueError("channels must have shape (K, M, N)")
    if noise.variance <= 0:
        raise ValueError("maximum SE requires a positive noise variance")
    _, mm, n = channels.shape
    if geometry.is_narrowband and mm != 1:
        raise ValueError("a narrowband geometry has a single subcarrier")
    gains = np.sum(np.abs(channels) ** 2, axis=2)  # (K, M)
    divisor = n * noise.variance if geometry.is_narrowband else noise.variance
    return spectral_efficiency(noise.tx_power * gains / divisor, geometry)


def per_device_achieved_se(
    h_hat: np.ndarray,
    h_true: np.ndarray,
    diagonals: np.ndarray,
    noise: NoiseModel,
    geometry,
    cap: float = SINR_CAP,
) -> np.ndarray:
    """Per-device achieved SE with estimated combining channels, shape (K,).

    Both channel arrays have shape (K, M, N); device k (row k-1) combines
    with family member k.  ``diagonals`` is the family's (N, N, N)
    ``dftcore.pairwise_diagonals``, its only input here.  The SINR of device k on subcarrier m is
    (p_t/N)|g|^2 over (p_t/N)*sum|v|^2 + sigma^2*||h_tilde||^2, with g the
    desired and v the interference gains of combining with ``h_hat`` against
    ``h_true``; every (device, subcarrier) is evaluated in one batched pass.
    Any (near-)zero entry of ``h_hat`` raises DegenerateChannelError.
    """
    h_hat = np.asarray(h_hat)
    h_true = np.asarray(h_true)
    if h_hat.shape != h_true.shape or h_hat.ndim != 3:
        raise ValueError("channel arrays must share shape (K, M, N)")
    k_dev, _, n = h_hat.shape
    h_tilde = inverse_channel(h_hat)

    w = h_tilde * h_true.conj()
    # cross[k0, j, m0] = (conj(diagonals[k0]) @ w[k0, m0])[j], the gain of
    # slot j+1 at device k0+1; the conjugation moves onto w
    cross = np.matmul(diagonals[:k_dev], w.conj().transpose(0, 2, 1)).conj()
    scale = noise.tx_power / n
    devices = np.arange(k_dev)
    powers = np.abs(cross) ** 2
    signal = scale * powers[devices, devices]  # (K, M)
    powers[devices, devices] = 0.0
    denom = scale * np.sum(powers, axis=1) + noise.variance * np.sum(
        np.abs(h_tilde) ** 2, axis=2
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom == 0.0, np.where(signal > 0, np.inf, 0.0), signal / denom)
    return spectral_efficiency(sinr, geometry, cap)

