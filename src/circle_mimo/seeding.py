"""Seed words for many spawn keys in one pass.

``generator(seed_words(seed, keys)[i])`` is the generator
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=keys[i]))``:
the same PCG64 state, so the same stream.  ``SeedSequence`` hashes its entropy
word by word in interpreted loops, tens of microseconds per key.  Here
NumPy's documented hash (the entropy assembly, ``hashmix``/``mix`` into a
4-word pool and ``generate_state(4, uint64)``) runs once over uint32 arrays
that hold every key, and each PCG64 seeds itself from its four words through
NumPy's own code.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["generator", "seed_words"]

_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, ``[0]`` for 0."""
    value = int(value)
    if value < 0:
        raise ValueError("the seed must be nonnegative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(init: int, mult: int):
    """NumPy's word hash, whose constant starts at ``init`` and is
    multiplied by ``mult`` at every call."""
    const = init

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        out = value ^ const
        const = (const * mult) & _MASK32
        out *= const
        out ^= out >> _XSHIFT
        return out

    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def seed_words(seed: int, keys: Sequence[Sequence[int]]) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)`` per key.

    Returns a (len(keys), 4) uint64 array.  Keys may differ in length.  The
    seed may be any nonnegative integer; keys with an element of 2**32 or
    more are handed to ``SeedSequence`` itself.
    """
    n = len(keys)
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=n)
    try:
        parts = np.fromiter(chain.from_iterable(keys), dtype=np.int64, count=int(lengths.sum()))
    except OverflowError:
        parts = None
    if parts is None or (parts.size and (parts.min() < 0 or parts.max() > _MASK32)):
        return np.array(
            [np.random.SeedSequence(seed, spawn_key=tuple(k)).generate_state(4, np.uint64)
             for k in keys],
            dtype=np.uint64,
        ).reshape(n, 4)

    # one word per key element after the run entropy, which is zero-padded
    # to the pool size ahead of a spawn key (without one the pool is filled
    # by hashing zeros, which is the same)
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = np.zeros((len(run) + int(lengths.max(initial=0)), n), dtype=np.uint32)
    entropy[: len(run)] = np.array(run, dtype=np.uint32)[:, None]
    key_of = np.repeat(np.arange(n), lengths)
    entropy[len(run) + np.arange(parts.size) - (np.cumsum(lengths) - lengths)[key_of], key_of] = parts
    lengths += len(run)
    width = len(entropy)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, width):
        # only the keys whose entropy reaches word i_src take it in
        present = lengths > i_src
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = np.where(present, _mix(pool[i_dst], hashmix(entropy[i_src])), pool[i_dst])

    # generate_state(4, np.uint64): eight words drawn round the pool, read
    # as little-endian pairs
    draw = _hasher(_INIT_B, _MULT_B)
    state = np.empty((n, 2 * _POOL_SIZE), dtype="<u4")
    for i_dst in range(2 * _POOL_SIZE):
        state[:, i_dst] = draw(pool[i_dst % _POOL_SIZE])
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands PCG64 four seed words derived by :func:`seed_words`."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds exactly the four uint64 words PCG64 asks for")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 generator seeded with one row of :func:`seed_words`.

    ``generator(seed_words(seed, [key])[0])`` draws the same stream as
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``.
    """
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))
