"""Full-CSIT benchmark precoders: MRT, ZF and WMMSE.

The benchmarks transmit one unit-norm beam per device; the received-signal
model scales every beam by (N/K)*sqrt(p_t), an amplitude normalization that
credits the benchmarks with the pilot overhead the deterministic scheme
spends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ArrayGeometry, NoiseModel

__all__ = [
    "WMMSE_MAX_ITERS",
    "SingularChannelError",
    "mrt",
    "zf",
    "wmmse",
    "csit_amplitude",
    "per_device_csit_se",
]

# outer-iteration cap of wmmse; a solve that reaches it reports converged=False
WMMSE_MAX_ITERS = 100


class SingularChannelError(ValueError):
    """The channels admit no beams: a zero channel, or more devices than antennas."""


@dataclass(frozen=True)
class CsitPrecoder:
    """Per-device unit-norm beams, rows of ``vectors`` (K, N)."""

    vectors: np.ndarray
    converged: bool = True
    iterations: int = 0
    wsr_history: np.ndarray = field(default_factory=lambda: np.zeros(0))


def mrt(channels: np.ndarray) -> CsitPrecoder:
    """Maximum ratio transmission: each beam points along its own channel."""
    h = np.asarray(channels, dtype=complex)
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise SingularChannelError("zero channel vector")
    return CsitPrecoder(vectors=h / norms)


def zf(channels: np.ndarray) -> CsitPrecoder:
    """Zero forcing: normalized columns of the stacked-channel pseudo-inverse.

    Rows of ``channels`` are the device channels h_k; the beams satisfy
    h_k^H f_k2 = 0 for k != k2 when the stack has full rank K <= N.  A
    numerically rank-deficient stack gets the pseudo-inverse's beams, which
    null only what its numerical range allows.
    """
    h = np.asarray(channels, dtype=complex)
    k, n = h.shape
    if k > n:
        raise SingularChannelError(f"cannot zero-force {k} devices with {n} antennas")
    stack = h.conj()  # rows h_k^H
    pinv = np.linalg.pinv(stack)  # (N, K), stack @ pinv = I at full rank
    vectors = pinv.T
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise SingularChannelError("zero channel vector")
    return CsitPrecoder(vectors=vectors / norms)


def wmmse(
    channels: np.ndarray,
    noise: NoiseModel,
    max_iters: int = WMMSE_MAX_ITERS,
    tol: float = 1e-4,
) -> CsitPrecoder:
    """Weighted-MMSE beams via alternating receiver/weight/precoder updates.

    The precoder block is solved under a unit-power constraint per beam,
    matching the evaluation model where every device's beam transmits at
    the same amplitude.  (Iterating under a relaxed sum-power budget and
    renormalizing afterwards lets the optimizer starve weak devices, whose
    renormalized beams then wreck the ordering against zero forcing.)
    Starts from regularized-inversion directions, which for a single device
    coincide with MRT; a matched-beam start converges to stationary points
    below plain zero forcing when the array is much larger than the device
    count.  The weighted sum rate of the iterates is nondecreasing and
    iteration stops once its change drops below ``tol``.  The channels are
    scaled by the common beam amplitude of :func:`csit_amplitude`.

    Each precoder block is solved exactly by :func:`_solve_unit_ball`: one
    eigendecomposition, then a few monotone Newton steps on all beams' water
    levels at once, started at max(0, 2 mu_t - mu_{t-1}) from the last two
    iterations' levels.  The MSE weights divide by the interference-plus-noise
    power summed directly: 1 - |desired|^2/total cancels to zero, an
    infinite weight, when the noise is negligible next to the signal.
    """
    if noise.variance <= 0:
        raise ValueError("WMMSE requires a positive noise variance")
    h = np.asarray(channels, dtype=complex)
    k, n = h.shape
    amplitude = csit_amplitude(n, k, noise)
    g = amplitude * h  # effective channels under the benchmark signal model
    gt, gh = g.T, g.conj()  # g_k as columns, g_k^H as rows
    sigma2 = noise.variance

    # beams as columns, w[:, k] = w_k; cross gains c[k, j] = g_k^H w_j
    w = _regularized_inversion(h, k * sigma2 / (amplitude * amplitude)).T
    c = gh @ w
    sig, rest = _desired_and_rest(c, sigma2)
    mu = mu_prev = np.zeros(k)
    history = []
    converged = False
    for it in range(max_iters):
        totals = sig + rest
        u = np.diagonal(c) / totals
        lam = totals / rest  # 1 / MSE

        # precoder block: minimize w^H A w - 2 Re(b_k^H w) per beam over the
        # unit ball, A = sum_j lam_j |u_j|^2 g_j g_j^H, b_k = lam_k u_k^* g_k;
        # one shared eigendecomposition serves every beam's water level, each
        # warm-started where the last two levels point
        a = (gt * (lam * np.abs(u) ** 2)) @ gh
        start = np.maximum(2.0 * mu - mu_prev, 0.0)
        mu_prev = mu
        w, mu = _solve_unit_ball(a, gt * (lam * np.conj(u)), start)

        c = gh @ w
        sig, rest = _desired_and_rest(c, sigma2)
        wsr = float(np.log2(1.0 + sig / rest).sum())
        history.append(wsr)
        if it > 0 and abs(history[-1] - history[-2]) < tol:
            converged = True
            break

    w = w.T
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    # the evaluation model transmits unit power per device regardless, so a
    # beam left strictly inside the ball is scaled up to the boundary and a
    # beam driven to zero falls back to its MRT direction
    small = norms[:, 0] < 1e-12
    if np.any(small):
        w[small] = mrt(channels).vectors[small]
        norms = np.linalg.norm(w, axis=1, keepdims=True)
    vectors = w / norms
    return CsitPrecoder(
        vectors=vectors,
        converged=converged,
        iterations=len(history),
        wsr_history=np.asarray(history),
    )


def _desired_and_rest(c: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Desired power |c_kk|^2 and interference-plus-noise power per device.

    The interference sums the off-diagonal cross gains directly, so it
    stays exact however small it is next to the desired power.
    """
    power = np.abs(c) ** 2
    sig = power.diagonal().copy()
    power.flat[:: power.shape[1] + 1] = 0.0
    return sig, power.sum(axis=1) + sigma2


def _regularized_inversion(h: np.ndarray, reg: float) -> np.ndarray:
    """Unit-norm MMSE-regularized inversion beams, rows per device."""
    stack = h.conj()  # rows h_k^H
    k = stack.shape[0]
    w = (stack.conj().T @ np.linalg.inv(stack @ stack.conj().T + reg * np.eye(k))).T
    return w / np.linalg.norm(w, axis=1, keepdims=True)


_NEWTON_TOL = 1e-13  # stop a beam once | ||w_k|| - 1 | is this small
_NEWTON_STEPS = 50  # per-solve cap; Newton needs about 15 steps from a cold start


def _solve_unit_ball(
    a: np.ndarray, b: np.ndarray, mu0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise solve of min w^H a w - 2 Re(b_k^H w) over the unit ball.

    KKT: w_k = (a + mu_k I)^{-1} b_k with the smallest mu_k >= 0 giving
    ||w_k|| <= 1.  Returns the solutions as columns, (N, K), and the water
    levels mu, (K,).  ``a`` is Hermitian PSD and may be singular; components
    of b below the numerical rank are discarded, which is safe because every
    b_k lies in the range of ``a`` up to roundoff.

    In the eigenbasis of ``a``, ||w_k(mu)||^2 = sum_i |bt_ik|^2/(l_i + mu)^2
    with bt = V^H b, so ||w_k(mu)|| < ||bt_k||/mu and the root of the
    secular equation ||w_k(mu)|| = 1 lies in (0, ||bt_k||).  The beams whose
    unconstrained solution leaves the ball take Newton steps together on
    1/||w_k(mu)|| = 1 (Moré & Sorensen 1983), mu <- max(0, mu + (||p||^2 /
    ||q||^2)(||p|| - 1)) with ||p|| = ||w_k(mu)||, ||q||^2 = sum_i
    |bt_ik|^2/(l_i + mu)^3.  No bracket is needed: 1/||w_k(mu)|| is concave
    and increasing, so a step from below the root stays below it and rises
    monotonically, and a step from above lands below it (or at 0) at once.
    ``mu0`` warm-starts each beam where it lies in (0, ||bt_k||), else at 0.
    The steps stop once every beam has | ||w_k|| - 1 | <= _NEWTON_TOL; after
    _NEWTON_STEPS steps a beam still outside it takes ||bt_k||, where
    ||w_k|| < 1, and the others keep their last evaluated level.
    """
    vals, vecs = np.linalg.eigh(a)
    # eigh's values ascend, so the numerical range is a trailing slice
    rank0 = vals.searchsorted(max(vals[-1], 0.0) * 1e-12, side="right")
    vals, vecs = vals[rank0:, None], vecs[:, rank0:]
    bt = vecs.conj().T @ b
    weights = np.abs(bt) ** 2  # (rank, K)

    mu = np.zeros(bt.shape[1])
    beams = ((weights / vals**2).sum(axis=0) > 1.0).nonzero()[0]
    if beams.size:
        wt = weights[:, beams]
        hi = np.sqrt(wt.sum(axis=0))
        x = np.zeros(beams.size) if mu0 is None else mu0[beams]
        x = np.where((x > 0.0) & (x < hi), x, 0.0)
        for _ in range(_NEWTON_STEPS):
            inv = 1.0 / (vals + x)
            terms = wt * inv**2
            p2 = terms.sum(axis=0)
            excess = np.sqrt(p2) - 1.0  # ||w_k(x)|| - 1
            if np.abs(excess).max() <= _NEWTON_TOL:
                break
            level, x = x, np.maximum(x + p2 / (terms * inv).sum(axis=0) * excess, 0.0)
        else:
            x = np.where(np.abs(excess) <= _NEWTON_TOL, level, hi)
        mu[beams] = x

    return vecs @ (bt / (vals + mu)), mu


def csit_amplitude(n: int, k: int, noise: NoiseModel) -> float:
    """Common beam amplitude (N/K)*sqrt(p_t) of the benchmark received-signal model."""
    return (n / k) * math.sqrt(noise.tx_power)


def per_device_csit_se(
    precoders: list[CsitPrecoder],
    channels: np.ndarray,
    noise: NoiseModel,
    geometry: ArrayGeometry,
) -> np.ndarray:
    """Per-device benchmark SE, shape (K,), with the cyclic-prefix penalty.

    ``channels`` has shape (K, M, N) and ``precoders`` one entry per
    subcarrier.  SINR of device k on subcarrier m is
    |a h_k^H f_k|^2 / (sum_{k2 != k} |a h_k^H f_k2|^2 + sigma^2) with the
    common amplitude a from :func:`csit_amplitude`.  The interference sums
    the off-diagonal terms directly, so it does not cancel at high SNR.
    """
    channels = np.asarray(channels)
    k_dev, mm, n = channels.shape
    if len(precoders) != mm:
        raise ValueError("one precoder per subcarrier required")
    amp = csit_amplitude(n, k_dev, noise)
    out = np.zeros(k_dev)
    for m0 in range(mm):
        f = precoders[m0].vectors  # (K, N)
        cross = amp * (channels[:, m0, :].conj() @ f.T)  # (K rx, K beams)
        sig, rest = _desired_and_rest(cross, noise.variance)
        out += np.log2(1.0 + sig / rest)
    return out / (mm + geometry.cp_len)
