"""Seeded sub-streams: sub-stream i of a master seed, for many i at once.

Sub-stream i of a non-negative integer master seed is
``numpy.random.default_rng(SeedSequence(master_seed, spawn_key=(i,)))``, bit
for bit, for every i below 2**32 (a one-word spawn key).  Most of the cost of
building one ``SeedSequence`` and generator per sub-stream is the entropy
hash, a fixed algorithm of 32-bit multiplies and xor-shifts.  Here numpy
mixes the master seed's words once, into the pool of
``SeedSequence(master_seed)``, and the package mixes only the spawn keys, a
block of them at once, in uint32 arithmetic; numpy still seeds each ``PCG64``
from the resulting words.  On a 2-vCPU VM, 10 000 sub-streams take about
0.05 s this way against 0.25 s one ``SeedSequence`` at a time.
``SeedSequence`` itself is the reference the tests compare against.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator

import numpy as np

__all__ = ["substream", "substreams"]

#: sub-streams whose seed words ``substreams`` derives together; blocks keep
#: the hash's temporaries small (one 10 000-key block raised the peak RSS of a
#: 10 000-vector sweep by 0.7 MB)
_SEED_BLOCK = 1024

# ``numpy.random.SeedSequence``'s hash, on 32-bit words: its pool size, the
# running hash constants of the entropy mix (A) and of ``generate_state`` (B),
# and the multipliers of its ``mix``
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """The running hash constant as (before, after) pairs, one per hashed word."""
    while True:
        after = const * mult & _MASK32
        yield const, after
        const = after


def _hashmix(value, before, after):
    """``SeedSequence``'s hashmix of uint32 words."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """``SeedSequence``'s mix of two uint32 words."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _spawn_words(master_seed: int):
    """``words(start, count)``: one row per index i = start, ...,
    start + count - 1, holding
    ``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, uint64)``.

    The spawn key is the last entropy word, after the master seed's words
    (zero-padded to the pool size).  ``SeedSequence(master_seed).pool`` is
    the pool with those words mixed in, after 4 hash steps per pool word and
    4 per word past the pool; the key's mixing into the pool, continuing the
    running hash constant from there, and ``generate_state`` run over a block
    of indices at once, one uint32 column per pool word.
    """
    seed = operator.index(master_seed)
    pool = np.random.SeedSequence(seed).pool
    steps = _POOL_SIZE * max(_POOL_SIZE, (seed.bit_length() + 31) // 32)
    consts = _hash_consts(_INIT_A * pow(_MULT_A, steps, _MASK32 + 1) & _MASK32, _MULT_A)
    a = np.array([next(consts) for _ in range(_POOL_SIZE)], dtype=np.uint32).T
    consts = _hash_consts(_INIT_B, _MULT_B)
    b = np.array([next(consts) for _ in range(2 * _POOL_SIZE)], dtype=np.uint32).T

    def words(start: int, count: int) -> np.ndarray:
        keys = np.arange(start, start + count, dtype=np.uint32)[:, None]
        mixed = _mix(pool, _hashmix(keys, *a))
        state = _hashmix(np.tile(mixed, 2), *b)  # eight words, the pool cycled
        return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)

    return words


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence type that replays one precomputed
    ``generate_state(4, uint64)``, the only request ``PCG64`` makes.  Made on
    first use, because numpy loads ``numpy.random`` lazily and importing this
    package should not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype != np.uint64:
                raise ValueError("holds only generate_state(4, uint64)")
            return self.words

    return SeedWords


def substreams(master_seed: int, count: int, start: int = 0) -> Iterator[np.random.Generator]:
    """Sub-streams ``start``, ..., ``start + count - 1`` of a master seed, made
    as they are iterated.  The seed and the indices are checked up front, and
    the seed words are derived ``_SEED_BLOCK`` sub-streams at a time."""
    words = _spawn_words(master_seed)
    start = operator.index(start)
    if start < 0:
        raise ValueError("expected non-negative integer")
    if start + count > 1 << 32:
        raise ValueError("sub-stream indices must lie below 2**32")
    stop = start + count
    seed_words = _seed_words_type()
    return (np.random.Generator(np.random.PCG64(seed_words(row)))
            for first in range(start, stop, _SEED_BLOCK)
            for row in words(first, min(_SEED_BLOCK, stop - first)))


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Sub-stream ``index`` of a master seed (counter scheme)."""
    return next(substreams(master_seed, 1, index))
