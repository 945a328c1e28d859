"""Seed words for a tree of spawn keys, one pass per key level.

``generator(seed_words(seed, *key)[-1])`` is the generator
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``: the
same PCG64 state, so the same stream.  ``SeedSequence`` hashes its entropy
word by word in interpreted loops, tens of microseconds per key.  Here
NumPy's documented hash runs over uint32 arrays: the run entropy goes into
the 4-word pool once, each key level's word is mixed (``hashmix``/``mix``)
into its prefix's pool, and ``generate_state(4, uint64)`` draws every key's
words from its pool.  Each PCG64 seeds itself from its four words through
NumPy's own code.
"""

from __future__ import annotations

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
    return [(value >> shift) & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


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
    # not in place: y may be wider than x, and the result takes the wider shape
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def seed_words(seed: int, *levels) -> list[np.ndarray]:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)`` for
    every key of a tree.

    Level i holds the keys' word i: an integer or an integer array in
    [0, 2**32) that broadcasts against the earlier levels.  Returns one
    (*shape, 4) uint64 array per level, ``shape`` the broadcast shape of the
    levels up to it, whose entry j is the words of the key made of every
    level's word at j.  The seed may be any nonnegative integer; a key word
    outside [0, 2**32) raises ValueError.
    """
    # the run entropy is zero-padded to the pool size ahead of a spawn key
    # (without one the pool is filled by hashing zeros, which is the same);
    # the pool holds uint32 arrays of ndim >= 1, so no step meets NumPy's
    # scalar arithmetic
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = np.array(run, dtype=np.uint32)[:, None]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        pool = [_mix(p, hashmix(word)) for p in pool]

    shape, out = (), []
    for level in levels:
        word = np.asarray(level)
        if word.dtype.kind not in "iu" or (word.size and (word.min() < 0 or word.max() > _MASK32)):
            raise ValueError(f"key words must be integers in [0, 2**32), got {level!r}")
        shape = np.broadcast_shapes(shape, word.shape)
        word = np.atleast_1d(word.astype(np.uint32))
        pool = [_mix(p, hashmix(word)) for p in pool]

        # generate_state(4, np.uint64): eight words drawn round the pool,
        # read as little-endian pairs
        draw = _hasher(_INIT_B, _MULT_B)
        state = np.stack([draw(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=-1)
        out.append(state.astype("<u4").view("<u8").astype(np.uint64).reshape(shape + (4,)))
    return out


class _SeedWords(ISeedSequence):
    """Hands PCG64 four seed words derived by :func:`seed_words`."""

    def __init__(self, words: np.ndarray) -> None:
        words = np.asarray(words)
        # PCG64 reads the raw buffer: anything but four unsigned 64-bit
        # words would be misread, so any other shape or type is refused
        if words.shape != (4,) or words.dtype.kind != "u" or words.dtype.itemsize != 8:
            raise ValueError(f"PCG64 takes four uint64 seed words, got {words.dtype} {words.shape}")
        self.words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds exactly the four uint64 words PCG64 asks for")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 generator seeded with one key's words from :func:`seed_words`.

    ``generator(seed_words(seed, *key)[-1])`` draws the same stream as
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``.
    ``words`` must hold four unsigned 64-bit words, shape (4,), in any
    layout or byte order; anything else raises ValueError.
    """
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))
