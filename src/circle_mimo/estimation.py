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

# sines closer than this are one candidate: the ULA cannot tell them apart
_SAME_SINE_TOL = 1e-12


@dataclass(frozen=True)
class Codebook:
    """Q quantized departure angles spanning [range_start, range_start + range_span).

    Angle q (1-based) is range_start + (q - 1) * range_span / Q.  The default
    grid spans the full circle starting at -pi; restricted angular domains
    keep Q fixed over the smaller span (finer effective resolution).

    A ULA sees an angle only through its sine, and an angle and its mirror
    pi - theta (mod 2*pi) share it.  ``first_same_sine[q0]`` is the lowest
    0-based grid index whose sine equals angle q0's to within 1e-12, so the
    searches can break such ties exactly; on a grid inside [0, pi/2) it is
    the identity.  The indices that are their own ``first_same_sine`` hold
    each distinct sine once: ``distinct`` lists them in ascending order,
    ``sine_runs`` as contiguous 0-based [start, stop) runs, and
    ``sine_column[q0]`` is the position of angle q0's sine in ``distinct``,
    so ``distinct[sine_column] == first_same_sine``.  On the rho = 2 grid
    [0, 2*pi) the runs are [0, Q/4] and (Q/2, 3Q/4], 257 sines at Q = 512.
    """

    q_levels: int
    range_start: float
    range_span: float
    angles: np.ndarray  # (Q,)
    first_same_sine: np.ndarray = field(init=False, repr=False, compare=False)
    distinct: np.ndarray = field(init=False, repr=False, compare=False)
    sine_runs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    sine_column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sines = np.sin(self.angles)
        order = np.argsort(sines, kind="stable")
        # runs of sorted sines closer than the tolerance form one group
        new_group = np.diff(sines[order], prepend=-np.inf) > _SAME_SINE_TOL
        group = np.cumsum(new_group) - 1
        first = np.empty_like(order)
        first[order] = np.minimum.reduceat(order, np.flatnonzero(new_group))[group]
        distinct = first == np.arange(self.q_levels)
        # index 0 opens a run; the edges where distinct flips then alternate
        # between closing and opening one, and Q closes the last if open
        flips = np.flatnonzero(distinct[1:] != distinct[:-1]) + 1
        edges = [0, *flips.tolist(), self.q_levels]
        object.__setattr__(self, "first_same_sine", first)
        object.__setattr__(self, "distinct", np.flatnonzero(distinct))
        object.__setattr__(self, "sine_runs", tuple(zip(edges[::2], edges[1::2])))
        object.__setattr__(self, "sine_column", (np.cumsum(distinct) - 1)[first])

    def tables(self, geometry: ArrayGeometry, subcarriers=None) -> np.ndarray:
        """Candidate steering vectors on each of ``subcarriers``, shape (len, N, Q).

        ``subcarriers`` lists 1-based indices and defaults to all M.  Entry
        (p, q) on subcarrier m is z**p for the unit phasor
        z = exp(i*pi*(f_m/f_c)*sin(theta_q)): rows 0 and 1 are exactly 1 and
        z, and rows [k, 2k) are rows [0, k) times z**k, so a table takes one
        exp per (subcarrier, candidate) and one multiply per entry.  Against
        an extended-precision reference the powers are at least as close as
        a direct exp per entry at N >= 32 (1.5e-13 against 2.4e-13 at
        N = 514).
        """
        if subcarriers is None:
            subcarriers = range(1, geometry.n_subcarriers + 1)
        freqs = np.array([geometry.subcarrier_freq_hz(m) for m in subcarriers])
        ratios = freqs[:, None] / geometry.carrier_freq_hz
        z = np.exp(1j * np.pi * ratios * np.sin(self.angles))  # (len, Q)
        n = geometry.n_antennas
        out = np.empty((len(z), n, self.q_levels), dtype=complex)
        out[:, :1] = 1.0
        k, z_k = 1, z
        while k < n:
            np.multiply(out[:, : min(k, n - k)], z_k[:, None], out=out[:, k : 2 * k])
            k, z_k = 2 * k, z_k * z_k
        return out

    def vectors(self, geometry: ArrayGeometry, m: int = 1) -> np.ndarray:
        """Candidate steering vectors on subcarrier m, shape (N, Q)."""
        return self.tables(geometry, (m,))[0]


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
    for name, value in (("range_start", range_start), ("range_span", range_span)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
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
    vectors: np.ndarray | list[np.ndarray],
    pilots: np.ndarray,
    noise: NoiseModel,
    cap: float = SINR_CAP,
    codebook: Codebook | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Codebook sweep over all subcarriers of one device or of a few at once.

    ``ys`` holds one device's received blocks, (M, N), or those of C
    devices that share the pilots, (C, M, N); ``vectors[m0]`` the (N, Q)
    candidate steering vectors of subcarrier m0+1, as an (M, N, Q) array
    (:meth:`Codebook.tables`) or a list, which each call stacks; ``pilots``
    the (M, 2) pilot pairs.  Every block is combined with members N-1 and N
    in one batch of matrix-vector products; then, per subcarrier, one
    matrix product over the 2*C combined rows forms every candidate's pair
    of inner products, and one elementwise pass scores them with the
    formula of :func:`estimate_gain` and :func:`score_candidate`, rewritten
    without the division by the gain:
    gamma = |p_hat|^2 |alpha|^2 / |d_2 - p_hat alpha|^2.

    With the ``codebook`` that built ``vectors``, only its D distinct sines
    are scored, one product per run of ``Codebook.sine_runs`` on a column
    view of the table; without one, every candidate is its own sine
    (D = Q).  Returns ``(scores, alpha_conj)``, each (M, D) or (C, M, D) as
    ``ys``, with one column per distinct sine: column j holds grid index
    ``codebook.distinct[j]``, and grid index q0 reads column
    ``codebook.sine_column[q0]``.
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
    if codebook is not None and codebook.q_levels != vectors.shape[2]:
        raise ValueError("vectors must be tables of the codebook's Q candidates")
    scale = math.sqrt(noise.tx_power * n)
    runs = codebook.sine_runs if codebook is not None else ((0, vectors.shape[2]),)

    # combined[k0, m0, j] = member(N-1+j)^* @ ys[k0, m0], one matrix-vector
    # product per block, regrouped as 2*C rows (device, member) per subcarrier
    combiners = family.members[n - 2 :].conj().reshape(2 * n, n)
    combined = np.matmul(combiners, ys[..., None]).reshape(c, mm, 2, n)
    rows = combined.transpose(1, 0, 2, 3).reshape(mm, 2 * c, n)
    d = np.empty((mm, 2 * c, sum(stop - start for start, stop in runs)), dtype=complex)
    col = 0
    for start, stop in runs:
        np.matmul(rows, vectors[:, :, start:stop], out=d[:, :, col : col + stop - start])
        col += stop - start
    d = d.reshape(mm, c, 2, -1)

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
    cap: float = SINR_CAP,
    vectors: np.ndarray | None = None,
    sweep: tuple[np.ndarray, np.ndarray] | None = None,
) -> EstimationResult:
    """Single-subcarrier codebook sweep.

    Scores each distinct sine of the codebook once and keeps the best, at
    the lowest grid index with that sine (``Codebook.distinct``): the
    candidates that share a sine share a steering vector, so no grid index
    but the lowest is ever picked.  Exact ties between sines go to the
    lowest index too, as ``distinct`` ascends.  ``vectors`` can carry
    precomputed (N, Q) candidate steering vectors for the block's
    subcarrier, and ``sweep`` the block's precomputed ``(scores,
    alpha_conj)`` rows of :func:`sweep_scores` with this codebook, each (D,).
    """
    if vectors is None:
        vectors = codebook.vectors(geometry, block.subcarrier)
    if sweep is None:
        scores, alpha_conj = sweep_scores(
            block.y[None, :], family, vectors[None], [pilots], noise, cap, codebook
        )
        sweep = scores[0], alpha_conj[0]
    scores, alpha_conj = sweep
    col, q0 = _winner(scores, codebook)
    alpha = np.conj(alpha_conj[col])
    h_hat = alpha * vectors[:, q0]
    return EstimationResult(
        device=block.device,
        q_star=q0 + 1,
        alpha_hat=np.array([alpha]),
        h_hat=h_hat[None, :],
        score=float(scores[col]),
        multiply_count=complexity_psi(family.n, 1, codebook.q_levels),
    )


def wideband_search(
    blocks: list[ReceivedBlock],
    family: PermutedDftFamily,
    codebook: Codebook,
    geometry: ArrayGeometry,
    pilots: np.ndarray | list[tuple[complex, complex]] | tuple[complex, complex],
    noise: NoiseModel,
    cap: float = SINR_CAP,
    vectors: np.ndarray | list[np.ndarray] | None = None,
    sweep: tuple[np.ndarray, np.ndarray] | None = None,
) -> EstimationResult:
    """Joint sweep across subcarriers sharing one departure angle.

    Per-subcarrier scores of each distinct sine are averaged with the
    1/(M + L_cp) cyclic-prefix weight and the argmax of that mean picks a
    single angle, at its lowest grid index as in :func:`narrowband_search`;
    per-subcarrier gains are read off at it.  ``pilots`` is one pair for
    every subcarrier, shape (2,), or one pair per subcarrier, shape (M, 2).
    With a single subcarrier and no cyclic prefix this reduces exactly to
    :func:`narrowband_search`.  ``sweep`` can carry the blocks' precomputed
    ``(scores, alpha_conj)`` of :func:`sweep_scores` with this codebook,
    each (M, D).
    """
    mm = len(blocks)
    if mm == 0:
        raise ValueError("need at least one received block")
    pilots = np.asarray(pilots, dtype=complex)
    if pilots.shape == (2,):
        pilots = np.broadcast_to(pilots, (mm, 2))
    elif pilots.shape != (mm, 2):
        raise ValueError(
            f"pilots must be one pair, shape (2,), or one pair per subcarrier, "
            f"shape ({mm}, 2); got shape {pilots.shape}"
        )
    if vectors is None:
        vectors = codebook.tables(geometry, [b.subcarrier for b in blocks])
    vectors = np.asarray(vectors)
    if sweep is None:
        ys = np.stack([b.y for b in blocks])
        sweep = sweep_scores(ys, family, vectors, pilots, noise, cap, codebook)
    scores, alpha_conj = sweep
    mean_scores = scores.sum(axis=0) / (mm + geometry.cp_len)

    col, q0 = _winner(mean_scores, codebook)
    alpha = np.conj(alpha_conj[:, col])
    h_hat = alpha[:, None] * vectors[:, :, q0]
    return EstimationResult(
        device=blocks[0].device,
        q_star=q0 + 1,
        alpha_hat=alpha,
        h_hat=h_hat,
        score=float(mean_scores[col]),
        multiply_count=complexity_psi(family.n, mm, codebook.q_levels),
    )


def _winner(scores: np.ndarray, codebook: Codebook) -> tuple[int, int]:
    """The column of the best of one row of per-sine ``scores``, first on
    exact ties, and its 0-based grid index."""
    if scores.shape != codebook.distinct.shape:
        raise ValueError(
            f"sweep rows must hold the codebook's {codebook.distinct.size} distinct sines, "
            f"got {scores.shape[-1]} columns"
        )
    col = int(scores.argmax())
    return col, int(codebook.distinct[col])


def complexity_psi(n: int, m: int, q_levels: int) -> int:
    """Closed-form complex-multiplication count M*(2*N^2 + Q*N).

    Two combiner-matrix products per subcarrier plus one length-N inner
    product per candidate.  Exact integer arithmetic, no overflow.  This is
    the paper's count for a receiver that scores every grid candidate; the
    simulator's sweep scores each distinct sine once (``Codebook.sine_runs``),
    so it does less work than this on a grid that holds mirror angles: 257
    of Q = 512 candidates on [0, 2*pi).
    """
    if n < 1 or m < 1 or q_levels < 1:
        raise ValueError("all complexity arguments must be positive")
    return m * (2 * n * n + q_levels * n)
