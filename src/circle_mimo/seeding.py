"""Seed words for a tree of spawn keys, one pass per key level.

``generator(seed_words(seed, *key)[-1])`` is the generator
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``: the
same PCG64 state, so the same stream.  ``SeedSequence`` hashes its entropy
word by word in interpreted loops, tens of microseconds per key.  The run
entropy's 4-word pool is NumPy's own, ``SeedSequence(seed).pool``; here
NumPy's documented hash then runs over uint32 arrays: each key level's word
is mixed (``hashmix``/``mix``) into its prefix's pool, and
``generate_state(4, uint64)`` draws every key's words from its pool.  Each
PCG64 seeds itself from its four words through NumPy's own code.
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
    level's word at j.  The run pool comes from NumPy's ``SeedSequence``,
    the levels are hashed here.  The seed must be a nonnegative integer: a
    negative one raises ValueError, a float, string, sequence or bool
    TypeError.  A key word outside [0, 2**32) raises ValueError.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"the seed must be an integer, got {seed!r}")
    # the levels' hash resumes after the 4 * max(4, w) calls that mixed the
    # pool (w = the seed's 32-bit words); ndim >= 1 avoids scalar arithmetic
    pool = list(np.random.SeedSequence(seed).pool[:, None])
    calls = _POOL_SIZE * max(_POOL_SIZE, -(-int(seed).bit_length() // 32))
    hashmix = _hasher(_INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32, _MULT_A)

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
