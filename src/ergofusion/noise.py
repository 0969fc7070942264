"""Per-frame camera noise streams, seeded for a whole segment at once.

Frame k of camera ``index`` under ``seed`` draws its noise from
``np.random.default_rng((seed, index, k))``: numpy converts each int to
its 32-bit words, low first, hashes the words with ``SeedSequence`` into
four 64-bit PCG64 seed words, and seeds a ``PCG64`` with them. Building
that generator once per camera-frame costs more than the projection it
perturbs, almost all of it in the hash. ``seed_words`` runs the hash
once over every frame of a segment (a frame's entropy differs from the
next only in its last word), and ``frame_generators`` seeds each frame's
``PCG64`` with its row, so each frame still draws the same stream,
bit for bit.

The constants and steps are those of numpy's ``SeedSequence``
(``numpy/random/bit_generator.pyx``, after M. E. O'Neill's
``seed_seq_fe``), in uint32 arithmetic that wraps.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_WORD = 0xFFFFFFFF


def uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: 32-bit words, low first."""
    words = [n & _WORD]
    while n > _WORD:
        n >>= 32
        words.append(n & _WORD)
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_words(entropy) -> np.ndarray:
    """The PCG64 seed words of each row of an (F, L) uint32 entropy array:
    row k gives ``SeedSequence(entropy[k]).generate_state(4, np.uint64)``,
    returned as an (F, 4) uint64 array."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    n_rows, n_words = entropy.shape
    # The hash constant steps the same way for every row, so it is one int.
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _WORD
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    # The entropy up to the pool size, then zeros; every pool word mixed
    # into every other; then each remaining entropy word into every one.
    zeros = np.zeros(n_rows, np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))

    # generate_state(4, np.uint64): eight uint32 words cycling over the
    # pool, read as little-endian pairs.
    hash_const = _INIT_B
    state = np.empty((n_rows, 2 * _POOL_SIZE), np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _WORD
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed words already hashed: what a PCG64 asks its seed sequence for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly this, and seed_words made it.
        assert n_words == _POOL_SIZE and np.dtype(dtype) == np.uint64
        return self.words


def frame_generators(seed: int, index: int, n_frames: int) -> Iterator[Generator]:
    """For k in range(n_frames), the generator ``default_rng((seed, index, k))``,
    built from one hash over all the frames."""
    prefix = uint32_words(seed) + uint32_words(index)
    # A frame index below 2**32 is one word.
    entropy = np.empty((n_frames, len(prefix) + 1), np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(n_frames)
    for words in seed_words(entropy):
        yield Generator(PCG64(_SeedWords(words)))
