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
from dataclasses import dataclass, field

import numpy as np

from .channel import ArrayGeometry, NoiseModel
from .dftcore import PermutedDftFamily
from .receiver import SINR_CAP
from .transceiver import ReceivedBlock

__all__ = [
    "make_codebook",
    "sweep_scores",
    "narrowband_search",
    "wideband_search",
    "complexity_psi",
]

# sines closer than this are one candidate: the ULA cannot tell them apart
_SAME_SINE_TOL = 1e-12


@dataclass(frozen=True)
class Codebook:
    """Q quantized departure angles spanning [0, range_span).

    Angle q (1-based) is (q - 1) * range_span / Q.  The grid starts at 0, as
    the channel's departure angles do (``ChannelProfile.angular_range``):
    the default spans the full circle, and a restricted angular domain keeps
    Q fixed over the smaller span (finer effective resolution).

    A ULA sees an angle only through its sine, and an angle and its mirror
    pi - theta (mod 2*pi) share it.  ``distinct`` lists, in ascending order,
    the lowest 0-based grid index of each sine (sines within 1e-12 are one),
    D of them: the candidate tables, the sweep and the searches all work on
    these D columns, and a search maps its winning column j to the grid
    index ``distinct[j]`` only at the end.  On a grid inside [0, pi/2) every
    index is its own sine (D = Q); on the rho = 2 grid [0, 2*pi) the
    distinct sines are [0, Q/4] and (Q/2, 3Q/4], 257 of Q = 512.
    """

    q_levels: int
    range_span: float
    angles: np.ndarray  # (Q,)
    distinct: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sines = np.sin(self.angles)
        order = np.argsort(sines, kind="stable")
        # runs of sorted sines closer than the tolerance form one group,
        # represented by its lowest grid index
        starts = np.flatnonzero(np.diff(sines[order], prepend=-np.inf) > _SAME_SINE_TOL)
        object.__setattr__(self, "distinct", np.sort(np.minimum.reduceat(order, starts)))

    def tables(self, geometry: ArrayGeometry) -> np.ndarray:
        """Candidate steering vectors on each of the M subcarriers, (M, N, D).

        Column j is the steering vector of ``angles[distinct[j]]``: entry
        (p, j) on subcarrier m is z**p for the unit phasor
        z = exp(i*pi*(f_m/f_c)*sin(theta)), theta = angles[distinct[j]].
        Rows 0 and 1 are exactly 1 and z, and rows [k, 2k) are rows [0, k)
        times z**k, so a table takes one exp per (subcarrier, distinct sine)
        and one multiply per entry.  Against an extended-precision reference
        the powers are at least as close as a direct exp per entry at
        N >= 32 (1.5e-13 against 2.4e-13 at N = 514).
        """
        ratios = geometry.freq_ratios[:, None]
        z = np.exp(1j * np.pi * ratios * np.sin(self.angles)[self.distinct])  # (M, D)
        n = geometry.n_antennas
        out = np.empty((len(z), n, self.distinct.size), dtype=complex)
        out[:, :1] = 1.0
        k, z_k = 1, z
        while k < n:
            np.multiply(out[:, : min(k, n - k)], z_k[:, None], out=out[:, k : 2 * k])
            k, z_k = 2 * k, z_k * z_k
        return out


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of a codebook sweep for one device."""

    device: int
    q_star: int               # 1-based winning grid index
    alpha_hat: np.ndarray     # (M,) complex gain per subcarrier
    h_hat: np.ndarray         # (M, N) estimated channel per subcarrier
    score: float              # value of the maximized objective


def make_codebook(q_levels: int, range_span: float = 2.0 * math.pi) -> Codebook:
    if q_levels < 1:
        raise ValueError("q_levels must be positive")
    if not math.isfinite(range_span):
        raise ValueError(f"range_span must be finite, got {range_span!r}")
    if range_span <= 0:
        raise ValueError("range_span must be positive")
    angles = np.arange(q_levels) * (range_span / q_levels)
    return Codebook(q_levels=q_levels, range_span=range_span, angles=angles)


def sweep_scores(
    ys: np.ndarray,
    family: PermutedDftFamily,
    vectors: np.ndarray | list[np.ndarray],
    pilots: np.ndarray,
    noise: NoiseModel,
    cap: float = SINR_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Codebook sweep over all subcarriers of one device or of a few at once.

    ``ys`` holds one device's received blocks, (M, N), or those of C
    devices that share the pilots, (C, M, N); ``vectors[m0]`` the (N, D)
    candidate steering vectors of subcarrier m0+1, as an (M, N, D) array
    (:meth:`Codebook.tables`) or a list, which each call stacks; ``pilots``
    the (M, 2) pilot pairs.  Every block is combined with members N-1 and N
    in one batch of matrix-vector products; then, per subcarrier, one
    matrix product over the 2*C combined rows forms every candidate's pair
    of inner products d_1, d_2, and one elementwise pass scores them: the
    gain estimate alpha^* = d_1 / p_1 and log2(1 + gamma), where
    gamma = |p_2|^2 |alpha|^2 / |d_2 - p_2 alpha|^2 is the pilot-slot-N SINR
    estimate without the division by the gain and p_j = sqrt(p_t*N) pilot j.

    Every column of ``vectors`` is scored; the tables of a codebook hold
    one column per distinct sine.  Returns ``(scores, alpha_conj)``, each
    (M, D) or (C, M, D) as ``ys``, with one column per column of
    ``vectors``.
    """
    ys = np.asarray(ys)
    vectors = np.asarray(vectors)
    pilots = np.asarray(pilots, dtype=complex)
    one_device = ys.ndim == 2
    if one_device:
        ys = ys[None]
    c, mm, n = ys.shape
    if np.any(pilots == 0):
        raise ValueError("pilot symbols must be nonzero")
    scale = math.sqrt(noise.tx_power * n)

    # combined[k0, m0, j] = member(N-1+j)^* @ ys[k0, m0], one matrix-vector
    # product per block, regrouped as 2*C rows (device, member) per subcarrier
    combined = np.matmul(family.combiners, ys[..., None]).reshape(c, mm, 2, n)
    rows = combined.transpose(1, 0, 2, 3).reshape(mm, 2 * c, n)
    d = np.matmul(rows, vectors).reshape(mm, c, 2, -1)

    alpha_conj = d[:, :, 0] * (1.0 / (scale * pilots[:, :1, None]))
    p_hat = scale * pilots[:, 1:, None]
    resid = d[:, :, 1]
    resid -= p_hat * alpha_conj
    gamma = _abs2(alpha_conj)
    gamma *= _abs2(p_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma /= _abs2(resid)
    del d, resid  # the products are done with; keep the chunk's peak low
    # a zero gain estimate gives 0 (or nan from 0/0), a zero residual with a
    # nonzero gain inf, a nan candidate nan: cap, then score nan as 0, in place
    scores = np.minimum(gamma, cap, out=gamma)
    np.fmax(scores, 0.0, out=scores)
    scores += 1.0
    np.log2(scores, out=scores)

    # (M, C, D) to per-device (C, M, D) rows, as views
    scores = scores.transpose(1, 0, 2)
    alpha_conj = alpha_conj.transpose(1, 0, 2)
    if one_device:
        return scores[0], alpha_conj[0]
    return scores, alpha_conj


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real**2 + x.imag**2


def narrowband_search(
    block: ReceivedBlock,
    family: PermutedDftFamily,
    codebook: Codebook,
    geometry: ArrayGeometry,
    pilots: tuple[complex, complex],
    noise: NoiseModel,
    vectors: np.ndarray | None = None,
    sweep: tuple[np.ndarray, np.ndarray] | None = None,
) -> EstimationResult:
    """Single-subcarrier codebook sweep: the pick of :func:`wideband_search`
    on one block, with weight 1 so that the score is the block's own.

    The candidates that share a sine share a steering vector, so the sweep
    scores each distinct sine once and the pick lands on the lowest grid
    index with that sine (``Codebook.distinct``); exact ties between sines
    go to the lowest index too, as ``distinct`` ascends.  ``vectors`` can
    carry the precomputed (N, D) table of the block's subcarrier, and
    ``sweep`` the block's precomputed ``(scores, alpha_conj)`` rows of
    :func:`sweep_scores` on it, each (D,).
    """
    if vectors is not None:
        vectors = vectors[None]
    if sweep is not None:
        sweep = (sweep[0][None], sweep[1][None])
    return _search([block], family, codebook, geometry, pilots, noise, vectors, sweep, 1.0)


def wideband_search(
    blocks: list[ReceivedBlock],
    family: PermutedDftFamily,
    codebook: Codebook,
    geometry: ArrayGeometry,
    pilots: np.ndarray | list[tuple[complex, complex]] | tuple[complex, complex],
    noise: NoiseModel,
    vectors: np.ndarray | list[np.ndarray] | None = None,
    sweep: tuple[np.ndarray, np.ndarray] | None = None,
) -> EstimationResult:
    """Joint sweep across subcarriers sharing one departure angle.

    Per-subcarrier scores of each distinct sine are summed with the
    1/(M + L_cp) cyclic-prefix weight and the best mean picks a single
    angle, at its lowest grid index as in :func:`narrowband_search`;
    per-subcarrier gains are read off at it.  ``pilots`` is one pair for
    every subcarrier, shape (2,), or one pair per subcarrier, shape (M, 2).
    ``vectors`` can carry the blocks' precomputed (M, N, D) tables
    (:meth:`Codebook.tables`), and ``sweep`` their precomputed
    ``(scores, alpha_conj)`` of :func:`sweep_scores` on them, each (M, D).
    """
    weight = float(len(blocks) + geometry.cp_len)
    return _search(blocks, family, codebook, geometry, pilots, noise, vectors, sweep, weight)


def _search(blocks, family, codebook, geometry, pilots, noise, vectors, sweep, weight):
    """The one angle pick of both searches: the best of the D columns of the
    blocks' summed scores over ``weight``, first on exact ties, with
    ``h_hat`` gathered from the (M, N, D) tables at that column.  Without
    ``vectors`` the search takes its blocks' rows of :meth:`Codebook.tables`,
    and without ``sweep`` it scores them at :func:`sweep_scores`' own cap.
    ``weight`` comes as a float, which NumPy 2 divides by at about half the
    cost of an int; narrowband picks run K*M times a trial."""
    mm = len(blocks)
    if mm == 0:
        raise ValueError("need at least one received block")
    pilots = np.asarray(pilots, dtype=complex)
    if pilots.shape not in ((2,), (mm, 2)):
        raise ValueError(
            f"pilots must be one pair, shape (2,), or one pair per subcarrier, "
            f"shape ({mm}, 2); got shape {pilots.shape}"
        )
    if vectors is None:
        vectors = codebook.tables(geometry)[[b.subcarrier - 1 for b in blocks]]
    vectors = np.asarray(vectors)
    if sweep is None:
        ys = np.stack([b.y for b in blocks])
        # one pair, as a (1, 2) row, broadcasts over the subcarriers
        sweep = sweep_scores(ys, family, vectors, pilots.reshape(-1, 2), noise)
    scores, alpha_conj = sweep
    width = codebook.distinct.size
    if scores.shape[-1] != width or vectors.shape[-1] != width:
        raise ValueError(
            f"sweep rows and tables must hold the codebook's {width} distinct sines, "
            f"got rows of width {scores.shape[-1]} and tables of width {vectors.shape[-1]}"
        )
    # one row is its own sum: skip the reduction, K*M times a trial
    mean_scores = (scores[0] if len(scores) == 1 else scores.sum(axis=0)) / weight
    col = int(mean_scores.argmax())
    alpha = np.conj(alpha_conj[:, col])
    return EstimationResult(
        device=blocks[0].device,
        q_star=int(codebook.distinct[col]) + 1,
        alpha_hat=alpha,
        h_hat=alpha[:, None] * vectors[:, :, col],
        score=float(mean_scores[col]),
    )


def complexity_psi(n: int, m: int, q_levels: int) -> int:
    """Closed-form complex-multiplication count M*(2*N^2 + Q*N).

    Two combiner-matrix products per subcarrier plus one length-N inner
    product per candidate.  Exact integer arithmetic, no overflow.  This is
    the paper's count for a receiver that scores every grid candidate; the
    simulator's sweep scores each distinct sine once (``Codebook.distinct``),
    so it does less work than this on a grid that holds mirror angles: 257
    of Q = 512 candidates on [0, 2*pi).
    """
    if n < 1 or m < 1 or q_levels < 1:
        raise ValueError("all complexity arguments must be positive")
    return m * (2 * n * n + q_levels * n)
