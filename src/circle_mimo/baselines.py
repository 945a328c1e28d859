"""Full-CSIT benchmark precoders: MRT, ZF and WMMSE.

The benchmarks transmit one unit-norm beam per device; the received-signal
model scales every beam by (N/K)*sqrt(p_t), an amplitude normalization that
credits the benchmarks with the pilot overhead the deterministic scheme
spends.  A power-based reading (sqrt(N/K)) is selectable for sensitivity
checks.
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

    kind: str
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
    return CsitPrecoder(kind="mrt", vectors=h / norms)


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
    return CsitPrecoder(kind="zf", vectors=vectors / norms)


def wmmse(
    channels: np.ndarray,
    noise: NoiseModel,
    max_iters: int = WMMSE_MAX_ITERS,
    tol: float = 1e-4,
    amplitude: float | None = None,
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
    iteration stops once its change drops below ``tol``.  ``amplitude`` is
    the common beam amplitude of the received-signal model and defaults to
    (N/K)*sqrt(p_t).

    Each precoder block is solved exactly by :func:`_solve_unit_ball`: one
    eigendecomposition, then a few safeguarded Newton steps per beam on its
    water level, warm-started from the previous outer iteration's levels.
    The MSE weights divide by the interference-plus-noise power summed
    directly: 1 - |desired|^2/total cancels to zero, an infinite weight,
    when the noise is negligible next to the signal.
    """
    if noise.variance <= 0:
        raise ValueError("WMMSE requires a positive noise variance")
    h = np.asarray(channels, dtype=complex)
    k, n = h.shape
    if amplitude is None:
        amplitude = (n / k) * math.sqrt(noise.tx_power)
    g = amplitude * h  # effective channels under the benchmark signal model
    sigma2 = noise.variance

    w = _regularized_inversion(h, k * sigma2 / (amplitude * amplitude))
    # cross gains: c[k, j] = g_k^H w_j
    c = g.conj() @ w.T
    sig, rest = _desired_and_rest(c, sigma2)
    mu = np.zeros(k)
    history = []
    converged = False
    iterations = 0
    for it in range(max_iters):
        iterations = it + 1
        totals = sig + rest
        u = np.diagonal(c) / totals
        lam = totals / rest  # 1 / MSE

        # precoder block: minimize w^H A w - 2 Re(b_k^H w) per beam over the
        # unit ball, A = sum_j lam_j |u_j|^2 g_j g_j^H, b_k = lam_k u_k^* g_k;
        # one shared eigendecomposition serves every beam's water level.
        coeffs = lam * np.abs(u) ** 2
        a = (g.T * coeffs) @ g.conj()
        b = g.T * (lam * np.conj(u))
        w, mu = _solve_unit_ball(a, b, mu)
        w = w.T

        c = g.conj() @ w.T
        sig, rest = _desired_and_rest(c, sigma2)
        wsr = float(np.sum(np.log2(1.0 + sig / rest)))
        history.append(wsr)
        if it > 0 and abs(history[-1] - history[-2]) < tol:
            converged = True
            break

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
        kind="wmmse",
        vectors=vectors,
        converged=converged,
        iterations=iterations,
        wsr_history=np.asarray(history),
    )


def _desired_and_rest(c: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Desired power |c_kk|^2 and interference-plus-noise power per device.

    The interference sums the off-diagonal cross gains directly, so it
    stays exact however small it is next to the desired power.
    """
    power = np.abs(c) ** 2
    sig = np.diagonal(power).copy()
    np.fill_diagonal(power, 0.0)
    return sig, np.sum(power, axis=1) + sigma2


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
    with bt = V^H b, so ||w_k(mu)|| <= ||bt_k||/mu and the root of the
    secular equation ||w_k(mu)|| = 1 lies in [0, ||bt_k||].  Each beam whose
    unconstrained solution leaves the ball takes Newton steps on
    1/||w_k(mu)|| = 1 (Moré & Sorensen 1983), mu <- mu + (||p||^2/||q||^2)
    (||p|| - 1) with ||q||^2 = sum_i |bt_ik|^2/(l_i + mu)^3; a step that
    leaves the current bracket is replaced by a bisection step.  As
    1/||w_k(mu)|| is concave in mu, the steps approach the root
    monotonically once below it.  ``mu0`` warm-starts each beam where it
    lies inside the bracket; otherwise a beam starts at mu = 0.  A beam
    stops once | ||w_k|| - 1 | <= _NEWTON_TOL; one still open after
    _NEWTON_STEPS steps takes the upper end of its bracket, where
    ||w_k|| <= 1.
    """
    vals, vecs = np.linalg.eigh(a)
    keep = vals > max(vals[-1], 0.0) * 1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    bt = vecs.conj().T @ b
    weights = np.abs(bt) ** 2  # (rank, K)

    mu = np.zeros(bt.shape[1])
    beams = np.flatnonzero(np.sum(weights / vals[:, None] ** 2, axis=0) > 1.0)
    wt = weights[:, beams]
    lo = np.zeros(beams.size)
    hi = np.sqrt(np.sum(wt, axis=0))
    x = np.zeros(beams.size) if mu0 is None else mu0[beams]
    x = np.where((x > lo) & (x < hi), x, lo)
    for _ in range(_NEWTON_STEPS):
        if beams.size == 0:
            break
        inv = 1.0 / (vals[:, None] + x)
        terms = wt * inv**2
        p2 = terms.sum(axis=0)
        q2 = (terms * inv).sum(axis=0)
        p = np.sqrt(p2)
        outside = p > 1.0
        lo = np.where(outside, x, lo)
        hi = np.where(outside, hi, x)
        step = x + (p2 / q2) * (p - 1.0)
        x_next = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        done = np.abs(p - 1.0) <= _NEWTON_TOL
        mu[beams[done]] = x[done]
        open_ = ~done
        beams, wt, lo, hi, x = beams[open_], wt[:, open_], lo[open_], hi[open_], x_next[open_]
    mu[beams] = hi

    return vecs @ (bt / (vals[:, None] + mu)), mu


def csit_amplitude(
    n: int, k: int, noise: NoiseModel, normalization: str = "amplitude"
) -> float:
    """Common beam amplitude of the benchmark received-signal model."""
    if normalization == "amplitude":
        return (n / k) * math.sqrt(noise.tx_power)
    if normalization == "power":
        return math.sqrt((n / k) * noise.tx_power)
    raise ValueError(f"unknown csit normalization {normalization!r}")


def per_device_csit_se(
    precoders: list[CsitPrecoder],
    channels: np.ndarray,
    noise: NoiseModel,
    geometry: ArrayGeometry,
    normalization: str = "amplitude",
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
    amp = csit_amplitude(n, k_dev, noise, normalization)
    out = np.zeros(k_dev)
    for m0 in range(mm):
        f = precoders[m0].vectors  # (K, N)
        cross = amp * (channels[:, m0, :].conj() @ f.T)  # (K rx, K beams)
        sig, rest = _desired_and_rest(cross, noise.variance)
        out += np.log2(1.0 + sig / rest)
    return out / (mm + geometry.cp_len)
