"""Scalar reference formulas for the paper's identities.

The simulator evaluates each quantity here once, in batched code:
``dftcore.pairwise_diagonals``, ``receiver.per_device_achieved_se`` and
``per_device_max_se``, ``estimation.sweep_scores`` and
``seeding.seed_words``.  This module writes each as one plain formula for
one device, one candidate or one pair of family members, built from
``family.member(k)`` and ``precoders[n - 1]`` products and never from the
batched code, so the tests can hold that code to something it does not
share.  The simulator never evaluates two of them: ``snr_db``, the
received SNR of one realization, whose ensemble mean in linear scale the
config field of that name sets, and ``combining_ceiling``, the yardstick of
the estimated scheme.  ``key_rng`` builds one spawn key's generator from
``SeedSequence`` itself, and ``receiver_noise`` repeats
``transceiver.receive``'s draw, so ``received_block`` rebuilds a block,
noise included, slot by slot; from these and the per-candidate formulas
the tests rebuild every row of small genie and estimated-CSIR runs.
Device, member and slot indices are 1-based, as in the paper.
"""

import math

import numpy as np

from circle_mimo.receiver import SINR_CAP, inverse_channel


def key_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of one spawn key, built on its own."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def receiver_noise(rng, n: int, noise) -> np.ndarray:
    """The noise ``transceiver.receive`` adds when given ``rng``: n real
    normals, then n imaginary ones, both times sqrt(sigma^2/2)."""
    scale = math.sqrt(noise.variance / 2.0)
    re = scale * rng.standard_normal(n)
    return re + 1j * (scale * rng.standard_normal(n))


def received_block(h, symbols, precoders, noise, rng) -> np.ndarray:
    """One device's block on one subcarrier, slot by slot:
    y_n = sqrt(p_t) * h^H (P_n s / sqrt(N)) + z_n, with P_n = ``precoders[n - 1]``
    and z the :func:`receiver_noise` of ``rng``."""
    n = len(symbols)
    signal = [np.vdot(h, precoders[s - 1] @ symbols / math.sqrt(n)) for s in range(1, n + 1)]
    return math.sqrt(noise.tx_power) * np.array(signal) + receiver_noise(rng, n, noise)


def circulant_index(n: int) -> np.ndarray:
    """The n x n circulant index matrix, entry (i, k) = ((i - k) mod n) + 1."""
    if n < 1:
        raise ValueError(f"matrix size must be a positive integer, got {n}")
    i = np.arange(n)
    return (i[:, None] - i[None, :]) % n + 1


def pairwise_product(family, k: int, k2: int) -> np.ndarray:
    """member_k @ member_k2^H: the identity if k = k2, else a zero-trace diagonal."""
    return family.member(k) @ family.member(k2).conj().T


def cross_gains(h_hat, h_true, family, k: int) -> np.ndarray:
    """Gain h_tilde^T F_k^* F_k2^T h^* of slot k2's symbol at device k, for k2 = 1..N.

    Device k combines with the inverted conjugate of ``h_hat``; the symbols
    reach it through ``h_true``.  With h_hat = h_true the desired gain
    (k2 = k) is N and every other is 0, for any channel with nonzero entries.
    """
    row = inverse_channel(h_hat) @ family.member(k).conj()  # h_tilde^T F_k^*
    members = np.array([family.member(k2) for k2 in range(1, family.n + 1)])
    columns = members.transpose(0, 2, 1) @ np.conj(h_true)  # F_k2^T h^*, one row per k2
    return columns @ row


def desired_gain(h, family, k: int) -> complex:
    return complex(cross_gains(h, h, family, k)[k - 1])


def interference_gain(h, family, k: int, k2: int) -> complex:
    if k == k2:
        raise ValueError("interferer index must differ from the device index")
    return complex(cross_gains(h, h, family, k)[k2 - 1])


def combine(h_hat, family, k: int, y) -> complex:
    """Combined output h_tilde^T F_k^* y of device k."""
    return complex(inverse_channel(h_hat) @ (family.member(k).conj() @ y))


def decompose_combined(h_hat, h_true, family, k: int, symbols, noise, z):
    """Device k's combined sample rebuilt from its parts, and every slot's gain.

    sqrt(p_t/N) * sum_k2 s(k2) * gain_k2 plus the combined noise
    h_tilde^T F_k^* z; a real receiver never has the pieces.
    """
    gains = cross_gains(h_hat, h_true, family, k)
    noise_out = combine(h_hat, family, k, z)
    return math.sqrt(noise.tx_power / family.n) * (symbols @ gains) + noise_out, gains


def snr_db(noise, h) -> float:
    """Received SNR in dB for the deterministic-precoder transmission.

    With a unitary slot precoder and unit-variance symbols the expected
    received signal power is p_t*||h||^2/N, so the SNR is
    10*log10(p_t*||h||^2 / (N*sigma^2)).
    """
    if noise.variance == 0:
        raise ValueError("SNR is undefined for zero noise variance")
    h = np.asarray(h)
    n = h.shape[-1]
    power = noise.tx_power * float(np.sum(np.abs(h) ** 2)) / n
    return 10.0 * math.log10(power / noise.variance)


def se_bits(sinr: float, cap: float = SINR_CAP) -> float:
    """log2(1 + sinr), with an infinite SINR capped before the log."""
    return math.log2(1.0 + min(sinr, cap))


def exact_sinr(h, noise) -> float:
    """p_t*N / (sigma^2 * sum_p 1/|h_p|^2): receiver CSI is exact, so only noise survives."""
    if noise.variance <= 0:
        raise ValueError("exact SINR requires a positive noise variance")
    inverse_gains = float(np.sum(np.abs(inverse_channel(h)) ** 2))
    return noise.tx_power * len(h) / (noise.variance * inverse_gains)


def sinr_bound(h, noise) -> float:
    """p_t*||h||^2 / (N*sigma^2), the arithmetic mean of the per-antenna gains
    where :func:`exact_sinr` takes their harmonic mean: never below it, and
    equal exactly when all |h_p| are equal (pure line of sight)."""
    if noise.variance <= 0:
        raise ValueError("SINR bound requires a positive noise variance")
    return noise.tx_power * float(np.sum(np.abs(h) ** 2)) / (len(h) * noise.variance)


def combining_ceiling(h, noise, geometry) -> float:
    """SE ceiling of the combining scheme for one device's (M, N) channel.

    The N-divided SINR of :func:`sinr_bound` on each subcarrier, the rates
    summed with the 1/(M + L_cp) cyclic-prefix penalty.  The estimated scheme
    approaches it as power and codebook resolution grow.
    """
    rates = [math.log2(1.0 + sinr_bound(row, noise)) for row in h]
    return sum(rates) / (len(rates) + geometry.cp_len)


def achieved_sinr(h_hat, h_true, family, k: int, noise) -> float:
    """True SINR of device k combining with ``h_hat``, symbols and noise averaged.

    (p_t/N)|g|^2 against (p_t/N)*sum_{k2 != k}|v_k2|^2 + sigma^2*||h_tilde||^2,
    with g and v the gains of :func:`cross_gains`.
    """
    powers = noise.tx_power / family.n * np.abs(cross_gains(h_hat, h_true, family, k)) ** 2
    signal = float(powers[k - 1])
    interference = float(np.sum(np.delete(powers, k - 1)))
    denom = interference + noise.variance * float(np.sum(np.abs(inverse_channel(h_hat)) ** 2))
    if denom == 0.0:
        return math.inf if signal > 0 else 0.0
    return signal / denom


def estimated_sinr(h_hat, family, y, pilot2: complex, noise) -> float:
    """Pilot-slot-N SINR estimate |p|^2 / |d - p|^2, with d slot N combined
    with ``h_hat`` and p = sqrt(p_t*N) * pilot2; +inf for a zero residual."""
    p_hat = math.sqrt(noise.tx_power * family.n) * pilot2
    resid = combine(h_hat, family, family.n, y) - p_hat
    return math.inf if resid == 0 else abs(p_hat) ** 2 / abs(resid) ** 2


def estimate_gain(candidate, y, family, pilot1: complex, noise) -> complex:
    """Gain estimate of a unit-modulus candidate steering vector from slot N-1.

    The candidate is its own inverted conjugate, so slot N-1 combined with
    it, over sqrt(p_t*N) * pilot1, is the conjugate gain.
    """
    if pilot1 == 0:
        raise ValueError("pilot symbol must be nonzero")
    n = family.n
    d = candidate @ (family.member(n - 1).conj() @ y)
    return complex(np.conj(d / (math.sqrt(noise.tx_power * n) * pilot1)))


def score_candidate(candidate, alpha_hat, y, family, pilot2, noise, cap=SINR_CAP) -> float:
    """Score log2(1 + estimated SINR) of the channel guess alpha_hat * candidate."""
    if alpha_hat == 0:
        return 0.0
    return se_bits(estimated_sinr(alpha_hat * candidate, family, y, pilot2, noise), cap)


def lowest_same_sine(codebook) -> np.ndarray:
    """The lowest 0-based grid index whose sine equals that of each grid
    index to within 1e-12, one comparison against the whole grid per index."""
    sines = np.sin(codebook.angles)
    return np.array([np.flatnonzero(np.abs(sines - s) <= 1e-12)[0] for s in sines])


def detect_qpsk(values) -> np.ndarray:
    """Nearest unit-power QPSK point of each complex decision."""
    values = np.asarray(values)
    re = np.where(values.real >= 0, 1.0, -1.0)
    im = np.where(values.imag >= 0, 1.0, -1.0)
    return (re + 1j * im) / np.sqrt(2.0)
