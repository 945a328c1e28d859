"""mmWave channel model: ULA steering vectors, LoS + NLoS fading, noise.

The base station carries a half-wavelength-spaced uniform linear array.
A device channel is one line-of-sight path plus a configurable number of
weaker non-line-of-sight paths; departure angles are physical (shared by
all subcarriers), complex gains are drawn independently per subcarrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ArrayGeometry",
    "ChannelProfile",
    "NoiseModel",
    "db_to_linear",
    "sample_channel",
]


def db_to_linear(db: float) -> float:
    """Convert a power quantity in dB to linear scale."""
    return float(10.0 ** (db / 10.0))


@dataclass(frozen=True)
class ArrayGeometry:
    """Array size plus the OFDM frequency plan.

    Subcarrier m (1-based) sits at f_m = f_c + B*(2m - 1 - M) / (2M), so the
    M subcarriers are centered on the carrier.  Narrowband operation is
    M = 1, where f_1 equals the carrier whatever the bandwidth.
    """

    n_antennas: int
    carrier_freq_hz: float
    bandwidth_hz: float = 0.0
    n_subcarriers: int = 1
    cp_len: int = 0

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be positive")
        if not 0 < self.carrier_freq_hz < math.inf:  # written so that nan fails too
            raise ValueError("carrier_freq_hz must be finite and positive")
        if not 0 <= self.bandwidth_hz < math.inf:
            raise ValueError("bandwidth_hz must be finite and nonnegative")
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be positive")
        if self.cp_len < 0:
            raise ValueError("cp_len must be nonnegative")
        if self.subcarrier_freq_hz(1) <= 0:
            raise ValueError("lowest subcarrier frequency must be positive")

    @property
    def is_narrowband(self) -> bool:
        return self.n_subcarriers == 1

    def subcarrier_freq_hz(self, m: int) -> float:
        """Frequency of subcarrier m, 1-based."""
        if not 1 <= m <= self.n_subcarriers:
            raise ValueError(f"subcarrier {m} out of range 1..{self.n_subcarriers}")
        mm = self.n_subcarriers
        return self.carrier_freq_hz + self.bandwidth_hz * (2 * m - 1 - mm) / (2 * mm)

    @cached_property
    def freq_ratios(self) -> np.ndarray:
        """(M,) read-only ratios f_m/f_c, the phase slopes that ``phase_base``
        and ``Codebook.tables`` read."""
        freqs = [self.subcarrier_freq_hz(m) for m in range(1, self.n_subcarriers + 1)]
        ratios = np.array(freqs) / self.carrier_freq_hz
        ratios.flags.writeable = False
        return ratios

    @cached_property
    def phase_base(self) -> np.ndarray:
        """(M, 1, N) phases i*pi*(f_m/f_c)*p of antenna p per unit sine on
        subcarrier m, built once per geometry for :func:`sample_channel`."""
        p = np.arange(self.n_antennas)
        base = ((1j * np.pi * self.freq_ratios)[:, None] * p)[:, None, :]
        base.flags.writeable = False
        return base


@dataclass(frozen=True)
class ChannelProfile:
    """Fading statistics: LoS gain variance, NLoS variance and path count,
    and the angular domain [0, angular_range) the departure angles live in."""

    los_var: float = 1.0
    nlos_var: float = 0.0
    n_nlos: int = 0
    angular_range: float = 2.0 * math.pi

    def __post_init__(self):
        if not (0 <= self.los_var < math.inf and 0 <= self.nlos_var < math.inf):
            raise ValueError("gain variances must be finite and nonnegative")
        if self.n_nlos < 0:
            raise ValueError("n_nlos must be nonnegative")
        if not 0 < self.angular_range <= 2.0 * math.pi:
            raise ValueError("angular_range must lie in (0, 2*pi]")

    @property
    def mean_channel_gain(self) -> float:
        """E[|h_p|^2] for a single antenna element."""
        return self.los_var + self.n_nlos * self.nlos_var


@dataclass(frozen=True)
class ChannelRealization:
    """One device's channel across all subcarriers.

    ``h[m0]`` is the length-N channel of subcarrier m0+1 and always equals
    the LoS term plus the sum of NLoS terms for that subcarrier.
    """

    device: int
    los_gain: np.ndarray        # (M,) complex
    los_aod: float              # radians, frequency independent
    nlos_gains: np.ndarray      # (M, L) complex
    nlos_aods: np.ndarray       # (L,) radians
    h: np.ndarray               # (M, N) complex

    def subcarrier(self, m: int) -> np.ndarray:
        """Channel vector of subcarrier m, 1-based."""
        if not 1 <= m <= self.h.shape[0]:
            raise ValueError(f"subcarrier {m} out of range 1..{self.h.shape[0]}")
        return self.h[m - 1]


@dataclass(frozen=True)
class NoiseModel:
    variance: float = 1.0   # sigma^2
    tx_power: float = 1.0   # p_t

    def __post_init__(self):
        if not 0 <= self.variance < math.inf:
            raise ValueError("noise variance must be finite and nonnegative")
        if not 0 <= self.tx_power < math.inf:
            raise ValueError("tx power must be finite and nonnegative")


def array_response(geometry: ArrayGeometry, theta: float, m: int = 1) -> np.ndarray:
    """Steering vector of the ULA for departure angle theta on subcarrier m.

    Entry p (0-based) is exp(i*pi*(f_m/f_c)*p*sin(theta)).  Antenna spacing
    is half the carrier wavelength, so the phase slope scales with the
    subcarrier-to-carrier frequency ratio; with a single subcarrier (M = 1)
    this reduces to the familiar narrowband steering vector.  Entries are unit
    modulus, hence ||a||^2 = N for every angle.
    """
    ratio = geometry.subcarrier_freq_hz(m) / geometry.carrier_freq_hz
    p = np.arange(geometry.n_antennas)
    return np.exp(1j * np.pi * ratio * p * np.sin(theta))


def sample_channel(
    geometry: ArrayGeometry,
    device: int,
    rng: np.random.Generator,
    profile: ChannelProfile = ChannelProfile(),
) -> ChannelRealization:
    """Draw one channel realization for a device.

    The LoS departure angle and all NLoS angles are uniform on
    [0, angular_range) and shared across subcarriers; gains are circular
    complex Gaussian, independent across subcarriers and paths.  Draw order
    is fixed (angles first, then per-subcarrier gains) so a seeded generator
    reproduces the realization bit for bit.
    """
    mm = geometry.n_subcarriers
    ll = profile.n_nlos

    theta = float(rng.uniform(0.0, profile.angular_range))
    nlos_aods = rng.uniform(0.0, profile.angular_range, size=ll)

    los_gain = _complex_normal(rng, profile.los_var, (mm,))
    nlos_gains = _complex_normal(rng, profile.nlos_var, (mm, ll))

    # responses[m0, 0] is the LoS steering vector on subcarrier m0+1 and
    # responses[m0, 1 + l0] that of NLoS path l0.  The phase products run in
    # array_response's order and the paths are summed LoS first, so h is
    # bit-identical to summing array_response over the paths.
    sines = np.sin(np.concatenate([[theta], nlos_aods]))
    responses = np.exp(geometry.phase_base * sines[None, :, None])
    h = los_gain[:, None] * responses[:, 0]
    for l0 in range(ll):
        h += nlos_gains[:, l0, None] * responses[:, 1 + l0]

    return ChannelRealization(
        device=device,
        los_gain=los_gain,
        los_aod=theta,
        nlos_gains=nlos_gains,
        nlos_aods=nlos_aods,
        h=h,
    )


def _complex_normal(rng: np.random.Generator, var: float, shape) -> np.ndarray:
    """CN(0, var) draws: real and imaginary parts i.i.d. N(0, var/2).

    The real parts are drawn first, then the imaginary parts, each scaled
    by sqrt(var/2) straight into the result.  Draws are always consumed,
    even for var = 0, so realizations with different variances but the
    same seed stay coupled draw for draw.
    """
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    scale = math.sqrt(var / 2.0)
    out = np.empty(re.shape, dtype=complex)
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out
