"""Codebook-based channel estimation from the two pilot slots.

The receiver never trains: it sweeps a grid of candidate departure angles,
estimates the complex gain of each candidate from pilot slot N-1, scores
the resulting channel guess with the pilot-slot-N SINR estimate, and keeps
the best-scoring candidate.  The wideband variant shares the angle grid
across subcarriers and ranks candidates by the subcarrier-averaged score,
which is what makes it robust to noise and multipath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, NoiseModel
from .dftcore import PermutedDftFamily
from .receiver import SINR_CAP
from .transceiver import ReceivedBlock

__all__ = [
    "Codebook",
    "EstimationResult",
    "make_codebook",
    "estimate_gain",
    "score_candidate",
    "sweep_scores",
    "narrowband_search",
    "wideband_search",
    "complexity_psi",
]


@dataclass(frozen=True)
class Codebook:
    """Q quantized departure angles spanning [range_start, range_start + range_span).

    Angle q (1-based) is range_start + (q - 1) * range_span / Q.  The default
    grid spans the full circle starting at -pi; restricted angular domains
    keep Q fixed over the smaller span (finer effective resolution).
    """

    q_levels: int
    range_start: float
    range_span: float
    angles: np.ndarray  # (Q,)

    def vectors(self, geometry: ArrayGeometry, m: int = 1) -> np.ndarray:
        """Candidate steering vectors on subcarrier m, shape (N, Q)."""
        ratio = geometry.subcarrier_freq_hz(m) / geometry.carrier_freq_hz
        p = np.arange(geometry.n_antennas)
        return np.exp(1j * np.pi * ratio * np.outer(p, np.sin(self.angles)))


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of a codebook sweep for one device."""

    device: int
    q_star: int               # 1-based winning grid index
    alpha_hat: np.ndarray     # (M,) complex gain per subcarrier
    h_hat: np.ndarray         # (M, N) estimated channel per subcarrier
    score: float              # value of the maximized objective
    multiply_count: int


def make_codebook(
    q_levels: int,
    range_start: float = -math.pi,
    range_span: float = 2.0 * math.pi,
) -> Codebook:
    if q_levels < 1:
        raise ValueError("q_levels must be positive")
    if range_span <= 0:
        raise ValueError("range_span must be positive")
    q = np.arange(q_levels)
    angles = range_start + q * (range_span / q_levels)
    return Codebook(
        q_levels=q_levels, range_start=range_start, range_span=range_span, angles=angles
    )


def estimate_gain(
    candidate: np.ndarray,
    block: ReceivedBlock,
    family: PermutedDftFamily,
    pilot1: complex,
    noise: NoiseModel,
) -> complex:
    """Estimate the complex LoS gain assuming the candidate steering vector.

    Combines the block with family member N-1 (the first pilot slot) using
    the unit-modulus candidate as the channel, then divides by the known
    pilot.  Returns alpha_hat (conjugation already applied).
    """
    if pilot1 == 0:
        raise ValueError("pilot symbol must be nonzero")
    n = family.n
    # unit-modulus candidate: the entrywise inverse conjugate is the vector itself
    d = np.asarray(candidate) @ (family.member(n - 1).conj() @ block.y)
    alpha_conj = d / (math.sqrt(noise.tx_power * n) * pilot1)
    return complex(np.conj(alpha_conj))


def score_candidate(
    candidate: np.ndarray,
    alpha_hat: complex,
    block: ReceivedBlock,
    family: PermutedDftFamily,
    pilot2: complex,
    noise: NoiseModel,
    cap: float = SINR_CAP,
) -> float:
    """Spectral-efficiency score log2(1 + estimated SINR) of one candidate."""
    n = family.n
    p_hat = math.sqrt(noise.tx_power * n) * pilot2
    if alpha_hat == 0:
        return 0.0
    d = (np.asarray(candidate) @ (family.member(n).conj() @ block.y)) / np.conj(alpha_hat)
    resid = d - p_hat
    if resid == 0:
        return math.log2(1.0 + cap)
    gamma = abs(p_hat) ** 2 / abs(resid) ** 2
    return math.log2(1.0 + min(gamma, cap))


def sweep_scores(
    ys: np.ndarray,
    family: PermutedDftFamily,
    vectors: list[np.ndarray],
    pilots: np.ndarray,
    noise: NoiseModel,
    cap: float = SINR_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Codebook sweep of one device over all its subcarriers at once.

    ``ys`` holds the device's received blocks, (M, N); ``vectors[m0]`` the
    (N, Q) candidate steering vectors of subcarrier m0+1; ``pilots`` the
    (M, 2) pilot pairs.  Every block is combined with members N-1 and N in
    one product, then every candidate on every subcarrier is scored in one
    elementwise pass with the formula of :func:`estimate_gain` and
    :func:`score_candidate`.  Returns ``(scores, alpha_conj)``, each (M, Q).
    """
    ys = np.asarray(ys)
    pilots = np.asarray(pilots, dtype=complex)
    mm, n = ys.shape
    if np.any(pilots == 0):
        raise ValueError("pilot symbols must be nonzero")
    scale = math.sqrt(noise.tx_power * n)

    # combined[m0, j] = member(N-1+j)^* @ ys[m0] and d[m0, j] = vectors[m0]^T
    # @ combined[m0, j], each a batch of matrix-vector products
    combiners = family.members[n - 2 :].conj().reshape(2 * n, n)
    combined = np.matmul(combiners, ys[:, :, None]).reshape(mm, 2, n, 1)
    d = np.empty((mm, 2, vectors[0].shape[1]), dtype=complex)
    for m0 in range(mm):
        np.matmul(vectors[m0].T, combined[m0], out=d[m0, :, :, None])

    alpha_conj = d[:, 0] / (scale * pilots[:, :1])
    p_hat = scale * pilots[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = d[:, 1] / alpha_conj - p_hat
        gamma = np.abs(p_hat) ** 2 / np.abs(resid) ** 2
    # zero gain estimate -> unusable candidate; zero residual -> capped sentinel
    gamma[alpha_conj == 0] = 0.0
    gamma = np.nan_to_num(gamma, nan=0.0, posinf=cap)
    scores = np.log2(1.0 + np.minimum(gamma, cap))
    return scores, alpha_conj


def narrowband_search(
    block: ReceivedBlock,
    family: PermutedDftFamily,
    codebook: Codebook,
    geometry: ArrayGeometry,
    pilots: tuple[complex, complex],
    noise: NoiseModel,
    cap: float = SINR_CAP,
    vectors: np.ndarray | None = None,
    sweep: tuple[np.ndarray, np.ndarray] | None = None,
) -> EstimationResult:
    """Single-subcarrier codebook sweep.

    Visits every grid index, keeps the best score, and breaks exact ties
    toward the lowest index.  ``vectors`` can carry precomputed candidate
    steering vectors for the block's subcarrier, and ``sweep`` the block's
    precomputed ``(scores, alpha_conj)`` rows of :func:`sweep_scores`.
    """
    if vectors is None:
        vectors = codebook.vectors(geometry, block.subcarrier)
    if sweep is None:
        scores, alpha_conj = sweep_scores(
            block.y[None, :], family, [vectors], [pilots], noise, cap
        )
        sweep = scores[0], alpha_conj[0]
    scores, alpha_conj = sweep
    q0 = int(np.argmax(scores))  # first maximum: lowest-index tie break
    alpha = np.conj(alpha_conj[q0])
    h_hat = alpha * vectors[:, q0]
    return EstimationResult(
        device=block.device,
        q_star=q0 + 1,
        alpha_hat=np.array([alpha]),
        h_hat=h_hat[None, :],
        score=float(scores[q0]),
        multiply_count=complexity_psi(family.n, 1, codebook.q_levels),
    )


def wideband_search(
    blocks: list[ReceivedBlock],
    family: PermutedDftFamily,
    codebook: Codebook,
    geometry: ArrayGeometry,
    pilots: list[tuple[complex, complex]] | tuple[complex, complex],
    noise: NoiseModel,
    cap: float = SINR_CAP,
    vectors: list[np.ndarray] | None = None,
    sweep: tuple[np.ndarray, np.ndarray] | None = None,
) -> EstimationResult:
    """Joint sweep across subcarriers sharing one departure angle.

    Per-subcarrier scores for each grid index are averaged with the
    1/(M + L_cp) cyclic-prefix weight and the argmax of that mean picks a
    single angle; per-subcarrier gains are read off at the winner.  With a
    single subcarrier and no cyclic prefix this reduces exactly to
    :func:`narrowband_search`.  ``sweep`` can carry the blocks' precomputed
    ``(scores, alpha_conj)`` of :func:`sweep_scores`, each (M, Q).
    """
    mm = len(blocks)
    if mm == 0:
        raise ValueError("need at least one received block")
    if isinstance(pilots, tuple):
        pilots = [pilots] * mm
    if len(pilots) != mm:
        raise ValueError("one pilot pair per subcarrier required")
    if vectors is None:
        vectors = [codebook.vectors(geometry, b.subcarrier) for b in blocks]
    if sweep is None:
        ys = np.stack([b.y for b in blocks])
        sweep = sweep_scores(ys, family, vectors, pilots, noise, cap)
    scores, alpha_conj = sweep
    mean_scores = scores.sum(axis=0) / (mm + geometry.cp_len)

    q0 = int(np.argmax(mean_scores))
    alpha = np.conj(alpha_conj[:, q0])
    h_hat = alpha[:, None] * np.stack([v[:, q0] for v in vectors])
    return EstimationResult(
        device=blocks[0].device,
        q_star=q0 + 1,
        alpha_hat=alpha,
        h_hat=h_hat,
        score=float(mean_scores[q0]),
        multiply_count=complexity_psi(family.n, mm, codebook.q_levels),
    )


def complexity_psi(n: int, m: int, q_levels: int) -> int:
    """Closed-form complex-multiplication count M*(2*N^2 + Q*N).

    Two combiner-matrix products per subcarrier plus one length-N inner
    product per candidate.  Exact integer arithmetic, no overflow.
    """
    if n < 1 or m < 1 or q_levels < 1:
        raise ValueError("all complexity arguments must be positive")
    return m * (2 * n * n + q_levels * n)
