"""The random stream of ``numpy.random.default_rng(seed)``, reproduced in
pure Python: the ``SeedSequence`` entropy pool, PCG64 (a 128-bit LCG with
the XSL-RR output; O'Neill 2014) and the two draws raretag makes, so that
no command imports ``numpy.random``. That package loads nine extension
modules and, through ``secrets`` and ``hmac``, OpenSSL's libcrypto: about
6 MB resident for a few thousand draws. A draw here costs about 0.7 µs
(Python 3.11, 2-vCPU x86-64 host).
"""

from __future__ import annotations

import math

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_TO_UNIT = 1.0 / (1 << 53)  # the 53 high bits of a draw as a double in [0, 1)
# SeedSequence's hash constants, and its pool of 4 uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value = (value ^ hash_a) * hash_a * _MULT_A & _MASK32
        hash_a = hash_a * _MULT_A & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_b = [], _INIT_B
    for i in range(8):
        value = (pool[i % _POOL] ^ hash_b) * hash_b * _MULT_B & _MASK32
        hash_b = hash_b * _MULT_B & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """``numpy.random.default_rng(seed)`` for ``uniform`` and ``shuffle``."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER
                       + self._inc) & _MASK128
        self._upper = None  # the unused upper half of a 64-bit draw

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._upper is not None:
            upper, self._upper = self._upper, None
            return upper
        draw = self._next64()
        self._upper = draw >> 32
        return draw & _MASK32

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Doubles in [low, high) of shape ``size``, in C order."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        count, span = math.prod(shape), high - low
        return np.fromiter((low + span * ((self._next64() >> 11) * _TO_UNIT)
                            for _ in range(count)), float, count).reshape(shape)

    def shuffle(self, x) -> None:
        """Permute a mutable sequence of under 2**32 items in place
        (Fisher–Yates from the end, each index drawn by masked rejection
        over 32-bit draws)."""
        for i in range(len(x) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            x[i], x[j] = x[j], x[i]
