"""Frame assembly, slot-by-slot precoded transmission, received blocks.

A frame is a length-N symbol vector: the first K = N - 2 entries carry
device payloads, the last two are known pilots (both 1 by default).  The
same frame is sent N times, once through each slot precoder, scaled by
1/sqrt(N) so the expected transmit power per slot is one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, NoiseModel
from .dftcore import PrecoderSet

__all__ = ["make_frame", "transmit", "receive"]

QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True)
class Frame:
    """Symbol vector with two trailing pilot slots."""

    symbols: np.ndarray  # (N,) complex

    @property
    def n(self) -> int:
        return self.symbols.shape[0]

    @property
    def info(self) -> np.ndarray:
        return self.symbols[: self.n - 2]

    @property
    def pilot1(self) -> complex:
        """Pilot in slot N-1 (used for gain estimation)."""
        return complex(self.symbols[-2])

    @property
    def pilot2(self) -> complex:
        """Pilot in slot N (used for SINR scoring)."""
        return complex(self.symbols[-1])


@dataclass(frozen=True)
class ReceivedBlock:
    """Concatenated receive samples of one device over the N time slots.

    The noise realization is retained so noiseless oracles can subtract it.
    """

    device: int
    subcarrier: int
    y: np.ndarray                  # (N,) complex
    noise_realization: np.ndarray  # (N,) complex


def make_frame(
    n: int,
    source: str = "gaussian",
    rng: np.random.Generator | None = None,
    pilot_values: tuple[complex, complex] = (1.0 + 0.0j, 1.0 + 0.0j),
) -> Frame:
    """Draw K = n - 2 unit-power information symbols and append the pilots.

    ``source`` is "qpsk" (unit-power QPSK points) or "gaussian" (circular
    complex Gaussian, unit variance).  Pilots default to 1; any fixed
    nonzero value works since the estimator divides by them.
    """
    if n < 3:
        raise ValueError(f"frame size must be at least 3 (2 pilots + 1 symbol), got {n}")
    if rng is None:
        rng = np.random.default_rng()
    k = n - 2
    if source == "qpsk":
        info = QPSK_POINTS[rng.integers(0, 4, size=k)]
    elif source == "gaussian":
        info = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown symbol source {source!r}")
    symbols = np.concatenate([info, np.asarray(pilot_values, dtype=complex)])
    return Frame(symbols=symbols)


def transmit(precoders: PrecoderSet, frame: Frame) -> np.ndarray:
    """Apply the slot precoders: row n0 is x_{n0+1} = P_{n0+1} @ s / sqrt(N)."""
    if frame.n != precoders.n:
        raise ValueError(
            f"frame length {frame.n} does not match precoder size {precoders.n}"
        )
    n = precoders.n
    # slots (n, n, n) @ s -> (n_slots, n_antennas)
    return np.einsum("npk,k->np", precoders.slots, frame.symbols) / np.sqrt(n)


def receive(
    channel: ChannelRealization,
    xs: np.ndarray,
    noise: NoiseModel,
    rng: np.random.Generator | None = None,
    m: int = 1,
) -> ReceivedBlock:
    """Synthesize one device's received block on subcarrier m.

    y(n) = sqrt(p_t) * h^H x_n + z(n) with z ~ CN(0, sigma^2 I).  With zero
    noise variance the block is exactly the noiseless signal (the generator
    is still consumed so seeded runs stay aligned).
    """
    h = channel.subcarrier(m)
    if xs.shape[1] != h.shape[0]:
        raise ValueError("transmit vectors and channel dimension mismatch")
    if rng is None:
        rng = np.random.default_rng()
    n_slots = xs.shape[0]
    re = rng.standard_normal(n_slots)
    im = rng.standard_normal(n_slots)
    # bitwise (re + 1j*im) * scale and sqrt(p_t) * (xs @ h^*) + z, in place
    scale = np.sqrt(noise.variance / 2.0)
    z = np.empty(n_slots, dtype=complex)
    np.multiply(re, scale, out=z.real)
    np.multiply(im, scale, out=z.imag)
    y = xs @ h.conj()
    y *= np.sqrt(noise.tx_power)
    y += z
    return ReceivedBlock(device=channel.device, subcarrier=m, y=y, noise_realization=z)
