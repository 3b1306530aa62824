"""Deterministic byte stream and samplers used by key generation.

All key material is derived from a single SHAKE-256 stream keyed by the
seed, read strictly left to right.  The sampler call order is therefore
part of the key format: replaying the same seed reproduces the same key
bit for bit.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

_MASK64 = (1 << 64) - 1


class Xof:
    """Incremental reader over a SHAKE-256 output stream."""

    def __init__(self, seed: bytes):
        self._shake = hashlib.shake_256(seed)
        self._buf = b""
        self._pos = 0

    def bytes(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            # shake digests are prefix-stable, so growing the buffer
            # never changes bytes already handed out
            size = max(4096, 2 * len(self._buf), end)
            self._buf = self._shake.digest(size)
        out = self._buf[self._pos:end]
        self._pos = end
        return out

    def u64(self) -> int:
        return int.from_bytes(self.bytes(8), "little")

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by 64-bit rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = ((1 << 64) // bound) * bound
        while True:
            u = self.u64()
            if u < threshold:
                return u % bound

    def distinct(self, x: int, y: int) -> list[int]:
        """y distinct integers from {0, .., x-1} (partial Fisher-Yates)."""
        if y > x:
            raise ValueError("cannot draw more values than the range holds")
        swapped: dict[int, int] = {}
        out = []
        for i in range(y):
            j = i + self.below(x - i)
            vi = swapped.get(i, i)
            vj = swapped.get(j, j)
            out.append(vj)
            swapped[j] = vi
        return out

    def permutation(self, x: int) -> list[int]:
        """Uniform permutation of {0, .., x-1}."""
        return self.distinct(x, x)

    def bit_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Random rows x cols 0/1 uint8 array.

        Row i is the little-endian bits of the i-th of `rows` consecutive
        ceil(cols/8)-byte draws, the bits at and above cols dropped.
        """
        nbytes = (cols + 7) // 8
        raw = np.frombuffer(self.bytes(rows * nbytes), dtype=np.uint8)
        return np.unpackbits(raw.reshape(rows, nbytes), axis=1, count=cols,
                             bitorder="little")

    def sparse_poly(self, p: int, weight: int) -> int:
        """Random polynomial mod x^p + 1 with the given coefficient count."""
        v = 0
        for pos in self.distinct(p, weight):
            v |= 1 << pos
        return v

    def rotation(self, p: int) -> int:
        """Exponent t of a random circulant permutation x^t."""
        return self.below(p)


def fresh_xof() -> Xof:
    """Xof keyed from the operating system entropy pool."""
    return Xof(os.urandom(32))
