"""Circulant-permuted DFT matrices and the deterministic slot precoders.

Everything the transmitter and the receivers use is derived from a single
N x N unitary DFT matrix whose columns are reordered by the columns of a
circulant index matrix.  The key structural property, exposed here through
:func:`pairwise_product`, is that the product of two distinct family members
is a diagonal matrix whose diagonal sums to zero.  That zero-trace diagonal
is what lets a matched linear combiner cancel all inter-device interference.
In closed form, with omega = exp(-2i*pi/N) and 0-based indices,

    members[k0][:, j] = u[:, (j - k0) mod N]
    diag(members[k0] @ members[l0]^H)[p] = omega^(p * (l0 - k0)),

so every tensor here is a gather from the DFT matrix or from one table of
N-th roots of unity, and the whole set-up costs O(N^3): one write per
output entry.

Index conventions: the construction is naturally 1-based (member k, slot n,
device k), so the index matrix stores values in 1..N and ``entry(i, k)``
takes 1-based arguments.  All ndarray storage is plain 0-based numpy; the
conversion lives entirely inside :class:`CirculantIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CirculantIndex",
    "DftMatrix",
    "PermutedDftFamily",
    "PrecoderSet",
    "build_circulant_index",
    "build_dft",
    "build_family",
    "build_precoders",
    "pairwise_product",
    "pairwise_diagonals",
]


@dataclass(frozen=True)
class CirculantIndex:
    """Circulant index matrix with entry(i, k) = ((i - k) mod n) + 1."""

    n: int
    entries: np.ndarray  # (n, n) ints in 1..n

    def entry(self, i: int, k: int) -> int:
        """1-based accessor: row i, column k."""
        return int(self.entries[i - 1, k - 1])

    @property
    def zero_based(self) -> np.ndarray:
        """Same matrix shifted to 0..n-1, usable directly as column indices."""
        return self.entries - 1


@dataclass(frozen=True)
class DftMatrix:
    """Unitary DFT matrix, u[p, j] = exp(-2i*pi*p*j/n) / sqrt(n) (0-based)."""

    n: int
    u: np.ndarray  # (n, n) complex


@dataclass(frozen=True)
class PermutedDftFamily:
    """The n column permutations of the DFT matrix.

    ``members[k0]`` is the DFT matrix with column order given by column
    ``k0`` (0-based) of the circulant index matrix.  Member 1 (``k0 = 0``)
    is the DFT matrix itself.
    """

    n: int
    members: np.ndarray  # (n, n, n) complex; members[k0] is n x n

    def member(self, k: int) -> np.ndarray:
        """1-based accessor for family member k (the combiner of device k)."""
        if not 1 <= k <= self.n:
            raise ValueError(f"member index {k} out of range 1..{self.n}")
        return self.members[k - 1]


@dataclass(frozen=True)
class PrecoderSet:
    """Per-slot transmit matrices; slot n, column k picks family member k, column n."""

    n: int
    slots: np.ndarray  # (n, n, n) complex; slots[n0] is the slot-(n0+1) precoder

    def slot(self, n: int) -> np.ndarray:
        """1-based accessor for the precoder applied in time slot n."""
        if not 1 <= n <= self.n:
            raise ValueError(f"slot index {n} out of range 1..{self.n}")
        return self.slots[n - 1]


def build_circulant_index(n: int) -> CirculantIndex:
    """Construct the n x n circulant index matrix.

    Each row and column is a permutation of 1..n, and consecutive columns
    are circular downward shifts of each other.
    """
    if n < 1:
        raise ValueError(f"matrix size must be a positive integer, got {n}")
    i = np.arange(n)
    entries = (i[:, None] - i[None, :]) % n + 1
    return CirculantIndex(n=n, entries=entries)


def build_dft(n: int) -> DftMatrix:
    """Construct the unitary n x n DFT matrix (roots of exp(-2i*pi/n))."""
    if n < 1:
        raise ValueError(f"matrix size must be a positive integer, got {n}")
    p = np.arange(n)
    u = np.exp(-2j * np.pi * np.outer(p, p) / n) / np.sqrt(n)
    return DftMatrix(n=n, u=u)


def build_family(n: int) -> PermutedDftFamily:
    """Construct all n column permutations of the unitary DFT matrix.

    Member k0 (0-based) is the DFT matrix with its columns rotated right by
    k0, ``members[k0][:, j] = u[:, (j - k0) mod n]``, the order column k0 of
    the circulant index matrix gives.  Each member is one contiguous slice
    of the DFT matrix laid twice side by side, written straight into the
    (k0, antenna, slot) layout: O(n^3) copies and no temporary beyond the
    output.
    """
    u = build_dft(n).u
    uu = np.concatenate([u, u], axis=1)
    members = np.empty((n, n, n), dtype=complex)
    for k0 in range(n):
        members[k0] = uu[:, n - k0:2 * n - k0]
    return PermutedDftFamily(n=n, members=members)


def build_precoders(family: PermutedDftFamily) -> PrecoderSet:
    """Assemble the per-slot precoders from a permuted-DFT family.

    Slot n, column k equals family member k, column n, so restacking the
    k-th columns across all slots reproduces member k exactly.
    """
    n = family.n
    # members[k0][:, n0] and slots[n0][:, k0] are the same DFT column.
    slots = np.ascontiguousarray(np.transpose(family.members, (2, 1, 0)))
    return PrecoderSet(n=n, slots=slots)


def pairwise_product(family: PermutedDftFamily, k: int, k2: int) -> np.ndarray:
    """Return member_k @ member_k2^H (1-based indices).

    The result is the identity when ``k == k2`` and a zero-trace diagonal
    matrix otherwise; callers can assert that structure directly.
    """
    a = family.member(k)
    b = family.member(k2)
    return a @ b.conj().T


def pairwise_diagonals(family: PermutedDftFamily) -> np.ndarray:
    """Diagonals of all pairwise member products, shape (n, n, n).

    ``out[k0, k20, :]`` is the diagonal of member_{k0+1} @ member_{k20+1}^H.
    Off-diagonal entries of those products vanish, so this tensor carries
    the full interference structure used by the receiver metrics.

    The diagonals are built in closed form, ``out[k0, k20, p] =
    omega^(p * (k20 - k0))`` with ``omega = exp(-2i*pi/n)``: row d of an
    n x n table holds ``omega^(p*d)``, read from one table of the n-th
    roots of unity, and pair (k0, k20) takes row ``(k20 - k0) mod n``.
    That is O(n^3) for the whole tensor, with ``out[k, k]`` exactly 1 and
    every other row summing to zero.
    """
    n = family.n
    p = np.arange(n)
    roots = np.exp(-2j * np.pi * p / n)
    rows = roots[np.outer(p, p) % n]
    return rows[(p[None, :] - p[:, None]) % n]
