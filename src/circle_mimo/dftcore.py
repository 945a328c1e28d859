"""Circulant-permuted DFT matrices and the deterministic slot precoders.

Everything the transmitter and the receivers use is derived from a single
N x N unitary DFT matrix whose columns are reordered by the columns of a
circulant index matrix, entry (i, k) = ((i - k) mod N) + 1.  The key
structural property is that the product of two distinct family members is
a diagonal matrix whose diagonal sums to zero.  That zero-trace diagonal
is what lets a matched linear combiner cancel all inter-device interference.
In closed form, with omega = exp(-2i*pi/N) and 0-based indices,

    members[k0][:, j] = u[:, (j - k0) mod N]
    diag(members[k0] @ members[l0]^H)[p] = omega^(p * (l0 - k0)),

so members and diagonals are windows of two tables: the DFT matrix laid
twice side by side (N x 2N) and the root table omega^(p*d) laid twice on
top of itself (2N x N).  The three N x N x N arrays here are read-only views
of those tables, and the whole set-up costs O(N^2) in time and memory.

Index conventions: the construction is naturally 1-based (member k, slot n,
device k), and the ``member`` accessor takes a 1-based argument.  All
ndarray storage is plain 0-based numpy: ``slots[n0]`` is slot n0 + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["build_family", "build_precoders", "pairwise_diagonals"]


@dataclass(frozen=True)
class PermutedDftFamily:
    """The n column permutations of the DFT matrix.

    ``members[k0]`` is the DFT matrix with column order given by column
    ``k0`` (0-based) of the circulant index matrix.  Member 1 (``k0 = 0``)
    is the DFT matrix itself.  ``members`` is a read-only window view.
    """

    n: int
    members: np.ndarray  # (n, n, n) complex, read-only; members[k0] is n x n

    def member(self, k: int) -> np.ndarray:
        """1-based accessor for family member k (the combiner of device k)."""
        if not 1 <= k <= self.n:
            raise ValueError(f"member index {k} out of range 1..{self.n}")
        return self.members[k - 1]

    @cached_property
    def combiners(self) -> np.ndarray:
        """Members n-1 and n conjugated and stacked, (2n, n) and read-only: the
        codebook sweep's block combiners, built once per family (in C order,
        which copies the strided members row by row, 10x faster at n = 258)."""
        out = np.conjugate(self.members[self.n - 2 :], order="C").reshape(2 * self.n, self.n)
        out.flags.writeable = False
        return out


def build_dft(n: int) -> np.ndarray:
    """The unitary n x n DFT matrix, u[p, j] = exp(-2i*pi*p*j/n) / sqrt(n) (0-based)."""
    if n < 1:
        raise ValueError(f"matrix size must be a positive integer, got {n}")
    p = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(p, p) / n) / np.sqrt(n)


def build_family(n: int) -> PermutedDftFamily:
    """Construct all n column permutations of the unitary DFT matrix.

    Member k0 (0-based) is the DFT matrix with its columns rotated right by
    k0, ``members[k0][:, j] = u[:, (j - k0) mod n]``, the order column k0 of
    the circulant index matrix gives.  With ``uu = [u u]`` (n x 2n) that is
    ``members[k0, p, j] = uu[p, n - k0 + j]``, so ``members`` is a read-only
    view of ``uu`` built from its sliding n-column windows: O(n^2) in time
    and memory.
    """
    u = build_dft(n)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([u, u], axis=1), n, axis=1)
    return PermutedDftFamily(n=n, members=windows[:, n:0:-1].transpose(1, 0, 2))


def build_precoders(family: PermutedDftFamily) -> np.ndarray:
    """The per-slot precoders of a permuted-DFT family, shape (n, n, n).

    ``slots[n0]`` is the precoder of slot n0 + 1, and its column k0 is
    member k0 + 1's column n0, so restacking the k-th columns across all
    slots reproduces member k exactly.  The slots are a read-only
    transposed view of ``family.members``, with no copy.
    """
    return family.members.transpose(2, 1, 0)


def pairwise_diagonals(family: PermutedDftFamily) -> np.ndarray:
    """Diagonals of all pairwise member products, shape (n, n, n).

    ``out[k0, k20, :]`` is the diagonal of member_{k0+1} @ member_{k20+1}^H.
    Off-diagonal entries of those products vanish, so this tensor carries
    the full interference structure used by the receiver metrics.

    The diagonals are built in closed form, ``out[k0, k20, p] =
    omega^(p * (k20 - k0))`` with ``omega = exp(-2i*pi/n)``: row d of an
    n x n table holds ``omega^(p*d)``, read from one table of the n-th
    roots of unity, and pair (k0, k20) takes row ``(k20 - k0) mod n``.
    With ``rows2 = [rows; rows]`` that row is ``rows2[n - k0 + k20]``, so the
    tensor is a read-only view of ``rows2`` whose ``out[k0]`` are C-contiguous
    windows: O(n^2), with ``out[k, k]`` exactly 1 and other rows summing to 0.
    """
    n = family.n
    p = np.arange(n)
    roots = np.exp(-2j * np.pi * p / n)
    rows = roots[np.outer(p, p) % n]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([rows, rows]), n, axis=0)
    return windows[n:0:-1].transpose(0, 2, 1)  # windows[s, p, w] = rows2[s + w, p]
