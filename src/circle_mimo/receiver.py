"""Linear combining, interference decomposition, SINR and spectral efficiency.

Device k combines its block as d = h_tilde^T F_k^* y, where F_k is family
member k and h_tilde inverts the conjugate channel entrywise.  With the
true channel the desired gain is exactly N and every interference gain is
exactly zero, for any channel with nonzero entries; all metrics below are
built on that decomposition.

Two SINR normalizations coexist on purpose.  The narrowband maximum divides
the channel gain by N*sigma^2 while the wideband per-subcarrier maximum
divides by sigma^2 only; both are exposed (see :func:`sum_se_max`) and the
harness picks per mode.  Neither is silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseModel
from .dftcore import PermutedDftFamily, pairwise_diagonals
from .transceiver import ReceivedBlock

__all__ = [
    "DegenerateChannelError",
    "CombinerOutput",
    "SinrReport",
    "SINR_CAP",
    "inverse_channel",
    "combine",
    "desired_gain",
    "interference_gain",
    "decompose_combined",
    "exact_sinr",
    "sinr_bound",
    "estimated_sinr",
    "achieved_sinr",
    "se_bits",
    "sum_se_max",
    "per_device_max_se",
    "per_device_achieved_se",
    "sum_se_achieved",
]

# Cap applied to an infinite (perfectly cancelled) SINR before log2(1 + .);
# configuration-visible through every function that consumes a SINR.
SINR_CAP = 1e30

# Entries closer to zero than this make the entrywise inverse meaningless.
_DEGENERATE_TOL = 1e-12


class DegenerateChannelError(ValueError):
    """A channel entry is (numerically) zero, so its inverse is undefined."""


@dataclass(frozen=True)
class SinrReport:
    """An SINR value together with its spectral efficiency in bits.

    ``kind`` is one of "exact-full-csir", "estimated", "bound" or
    "achieved" (true SINR evaluated at an estimated channel).
    """

    sinr: float
    se_bits: float
    kind: str


@dataclass(frozen=True)
class CombinerOutput:
    """Diagnostic decomposition of one combined sample (needs ground truth)."""

    value: complex
    desired_gain: complex
    interference_terms: np.ndarray  # (N,) complex, entry k-1 unused (own slot)
    noise_term: complex


def inverse_channel(h: np.ndarray) -> np.ndarray:
    """Entrywise inverse of the conjugate channel: entry p is 1/conj(h_p)."""
    h = np.asarray(h, dtype=complex)
    if np.any(np.abs(h) < _DEGENERATE_TOL):
        raise DegenerateChannelError("channel has a (near-)zero entry")
    return 1.0 / h.conj()


def combine(
    h_hat: np.ndarray,
    family: PermutedDftFamily,
    k: int,
    block: ReceivedBlock | np.ndarray,
) -> complex:
    """Combined output h_tilde^T F_k^* y for device k (1-based)."""
    y = block.y if isinstance(block, ReceivedBlock) else np.asarray(block)
    h_tilde = inverse_channel(h_hat)
    f = family.member(k)
    return complex(h_tilde @ (f.conj() @ y))


def desired_gain(h: np.ndarray, family: PermutedDftFamily, k: int) -> complex:
    """Combining gain of the desired symbol: h_tilde^T F_k^* F_k^T h^*.

    Equals N for every channel with nonzero entries, independent of the
    fading mix, because the family members are unitary.
    """
    h = np.asarray(h, dtype=complex)
    h_tilde = inverse_channel(h)
    f = family.member(k)
    return complex(h_tilde @ (f.conj() @ (f.T @ h.conj())))


def interference_gain(
    h: np.ndarray, family: PermutedDftFamily, k: int, k2: int
) -> complex:
    """Combining gain of interferer k2 at device k: h_tilde^T F_k^* F_k2^T h^*.

    Equals zero for every channel with nonzero entries because the cross
    products of distinct family members are zero-trace diagonals.
    """
    if k == k2:
        raise ValueError("interferer index must differ from the device index")
    h = np.asarray(h, dtype=complex)
    h_tilde = inverse_channel(h)
    f = family.member(k)
    f2 = family.member(k2)
    return complex(h_tilde @ (f.conj() @ (f2.T @ h.conj())))


def decompose_combined(
    h_hat: np.ndarray,
    h_true: np.ndarray,
    family: PermutedDftFamily,
    k: int,
    frame_symbols: np.ndarray,
    noise: NoiseModel,
    noise_realization: np.ndarray | None = None,
) -> CombinerOutput:
    """Ground-truth decomposition of the combined sample at device k.

    Reconstitutes value = sqrt(p_t/N) * (s(k)*g + sum_{k2 != k} s(k2)*v_k2)
    plus the combined noise, where g and v use the combining channel h_hat
    against the true channel h_true.  Diagnostic only; a real receiver never
    has the pieces.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    h_true = np.asarray(h_true, dtype=complex)
    s = np.asarray(frame_symbols, dtype=complex)
    n = family.n
    h_tilde = inverse_channel(h_hat)
    f = family.member(k)

    w = h_tilde * h_true.conj()
    diagonals = pairwise_diagonals(family)
    cross = diagonals[k - 1].conj() @ w  # entry k2-1: gain of symbol slot k2
    g = cross[k - 1]
    terms = cross.copy()

    if noise_realization is None:
        noise_out = 0.0 + 0.0j
    else:
        noise_out = complex(h_tilde @ (f.conj() @ np.asarray(noise_realization)))

    scale = math.sqrt(noise.tx_power / n)
    others = np.delete(np.arange(n), k - 1)
    value = scale * (s[k - 1] * g + np.sum(s[others] * terms[others])) + noise_out
    return CombinerOutput(
        value=complex(value),
        desired_gain=complex(g),
        interference_terms=terms,
        noise_term=complex(noise_out),
    )


def exact_sinr(h: np.ndarray, noise: NoiseModel) -> SinrReport:
    """Post-combining SINR with perfect receiver channel knowledge.

    p_t*N / (sigma^2 * sum_p 1/|h_p|^2): interference cancels exactly and
    only the combined noise survives.
    """
    if noise.variance <= 0:
        raise ValueError("exact SINR requires a positive noise variance")
    h = np.asarray(h, dtype=complex)
    h_tilde = inverse_channel(h)
    n = h.shape[0]
    sinr = noise.tx_power * n / (noise.variance * float(np.sum(np.abs(h_tilde) ** 2)))
    return SinrReport(sinr=sinr, se_bits=se_bits(sinr), kind="exact-full-csir")


def sinr_bound(h: np.ndarray, noise: NoiseModel) -> SinrReport:
    """Upper bound p_t*||h||^2 / (N*sigma^2) on the exact SINR.

    The exact SINR is a harmonic mean of the per-antenna gains and the bound
    is the arithmetic mean; they coincide exactly when all |h_p| are equal
    (pure line of sight).
    """
    if noise.variance <= 0:
        raise ValueError("SINR bound requires a positive noise variance")
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    sinr = noise.tx_power * float(np.sum(np.abs(h) ** 2)) / (n * noise.variance)
    return SinrReport(sinr=sinr, se_bits=se_bits(sinr), kind="bound")


def estimated_sinr(
    h_hat: np.ndarray,
    family: PermutedDftFamily,
    block: ReceivedBlock,
    pilot_value: complex,
    noise: NoiseModel,
    cap: float = SINR_CAP,
) -> SinrReport:
    """Pilot-based SINR estimate from the last frame slot.

    The desired power is taken as |sqrt(p_t*N)*s(N)|^2 and the residual is
    the combined pilot slot minus that reference.  A zero residual (perfect
    cancellation, noiseless oracles) reports +inf; callers see the cap only
    through ``se_bits``.  Instantaneous magnitudes of the single observation
    are used, no averaging window.
    """
    n = family.n
    p_hat = math.sqrt(noise.tx_power * n) * pilot_value
    d = combine(h_hat, family, n, block)
    resid = d - p_hat
    if resid == 0:
        sinr = math.inf
    else:
        sinr = abs(p_hat) ** 2 / abs(resid) ** 2
    return SinrReport(sinr=sinr, se_bits=se_bits(sinr, cap), kind="estimated")


def achieved_sinr(
    h_hat: np.ndarray,
    h_true: np.ndarray,
    family: PermutedDftFamily,
    k: int,
    noise: NoiseModel,
    diagonals: np.ndarray | None = None,
    cap: float = SINR_CAP,
) -> SinrReport:
    """True SINR of device k when combining with an estimated channel.

    Expectation over symbols and noise with the channels held fixed:
    desired power (p_t/N)|g|^2 against (p_t/N)*sum|v|^2 + sigma^2*||h_tilde||^2.
    With h_hat equal to the true channel this reduces to :func:`exact_sinr`.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    h_true = np.asarray(h_true, dtype=complex)
    n = family.n
    h_tilde = inverse_channel(h_hat)
    if diagonals is None:
        diagonals = pairwise_diagonals(family)

    w = h_tilde * h_true.conj()
    cross = diagonals[k - 1].conj() @ w
    g = cross[k - 1]
    powers = np.abs(cross) ** 2
    powers[k - 1] = 0.0
    interference = float(np.sum(powers))

    scale = noise.tx_power / n
    signal = scale * abs(g) ** 2
    denom = scale * interference + noise.variance * float(np.sum(np.abs(h_tilde) ** 2))
    if denom == 0.0:
        sinr = math.inf if signal > 0 else 0.0
    else:
        sinr = signal / denom
    return SinrReport(sinr=sinr, se_bits=se_bits(sinr, cap), kind="achieved")


def se_bits(sinr: float, cap: float = SINR_CAP) -> float:
    """log2(1 + sinr) with the +inf sentinel capped before the log."""
    return math.log2(1.0 + min(sinr, cap))


def per_device_max_se(
    channels: np.ndarray,
    noise: NoiseModel,
    geometry,
    kind: str | None = None,
) -> np.ndarray:
    """Per-device maximum spectral efficiency, shape (K,).

    ``channels`` has shape (K, M, N).  kind "narrowband-bound" uses
    log2(1 + p_t*||h||^2/(N*sigma^2)) and requires M = 1; kind
    "wideband-bound" uses log2(1 + p_t*||h||^2/sigma^2) per subcarrier with
    the 1/(M + L_cp) cyclic-prefix penalty.  Default picks by geometry.
    The two coexisting normalizations (the extra N divisor) are deliberate;
    see the module docstring.  kind "combining-bound" applies the N-divided
    SINR per subcarrier with the cyclic-prefix penalty; it is the ceiling
    the combining scheme itself can reach and is what the estimated scheme
    converges to as power and codebook resolution grow.
    """
    channels = np.asarray(channels)
    if channels.ndim != 3:
        raise ValueError("channels must have shape (K, M, N)")
    if noise.variance <= 0:
        raise ValueError("maximum SE requires a positive noise variance")
    if kind is None:
        kind = "narrowband-bound" if geometry.is_narrowband else "wideband-bound"
    k_dev, mm, n = channels.shape
    gains = np.sum(np.abs(channels) ** 2, axis=2)  # (K, M)
    if kind == "narrowband-bound":
        if mm != 1:
            raise ValueError("narrowband-bound applies to a single subcarrier")
        sinr = noise.tx_power * gains[:, 0] / (n * noise.variance)
        return np.log2(1.0 + sinr)
    if kind == "wideband-bound":
        sinr = noise.tx_power * gains / noise.variance
        return np.sum(np.log2(1.0 + sinr), axis=1) / (mm + geometry.cp_len)
    if kind == "combining-bound":
        sinr = noise.tx_power * gains / (n * noise.variance)
        return np.sum(np.log2(1.0 + sinr), axis=1) / (mm + geometry.cp_len)
    raise ValueError(f"unknown bound kind {kind!r}")


def sum_se_max(
    channels: np.ndarray,
    noise: NoiseModel,
    geometry,
    kind: str | None = None,
) -> float:
    """Maximum sum spectral efficiency over all devices (and subcarriers)."""
    return float(np.sum(per_device_max_se(channels, noise, geometry, kind)))


def per_device_achieved_se(
    h_hat: np.ndarray,
    h_true: np.ndarray,
    family: PermutedDftFamily,
    noise: NoiseModel,
    geometry,
    diagonals: np.ndarray | None = None,
    cap: float = SINR_CAP,
) -> np.ndarray:
    """Per-device achieved SE with estimated combining channels, shape (K,).

    Both channel arrays have shape (K, M, N); device k (row k-1) combines
    with family member k.  Per-subcarrier rates carry the 1/(M + L_cp)
    penalty; for M = 1 with no cyclic prefix the penalty is 1.  Evaluates
    :func:`achieved_sinr` for every (device, subcarrier) in one batched
    pass; any (near-)zero entry of ``h_hat`` raises DegenerateChannelError.
    """
    h_hat = np.asarray(h_hat)
    h_true = np.asarray(h_true)
    if h_hat.shape != h_true.shape or h_hat.ndim != 3:
        raise ValueError("channel arrays must share shape (K, M, N)")
    k_dev, mm, n = h_hat.shape
    if diagonals is None:
        diagonals = pairwise_diagonals(family)
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
    se = np.log2(1.0 + np.minimum(sinr, cap))
    return np.sum(se, axis=1) / (mm + geometry.cp_len)


def sum_se_achieved(
    h_hat: np.ndarray,
    h_true: np.ndarray,
    family: PermutedDftFamily,
    noise: NoiseModel,
    geometry,
    diagonals: np.ndarray | None = None,
    cap: float = SINR_CAP,
) -> float:
    """Achieved sum spectral efficiency across devices and subcarriers."""
    return float(
        np.sum(
            per_device_achieved_se(h_hat, h_true, family, noise, geometry, diagonals, cap)
        )
    )
