"""Deterministic byte stream and samplers used by key generation.

All key material is derived from a single SHAKE-256 stream keyed by the
seed, read strictly left to right.  The sampler call order is therefore
part of the key format: replaying the same seed reproduces the same key
bit for bit.

Every bounded draw goes through Xof.below_each, the one rejection
sampler.  A draw below b reads 64-bit little-endian words until one is
below the largest multiple of b that fits in 2^64, and returns that
word mod b.  below_each serves a whole sequence of such draws from one
read, so its bounds must be known before the first word is read.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np


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

    def _words(self, count: int) -> np.ndarray:
        return np.frombuffer(self.bytes(8 * count), dtype="<u8")

    def below_each(self, bounds) -> np.ndarray:
        """One uniform draw from [0, b) per bound b, in order, as int64.

        The draws read the same words as drawing one bound at a time
        with 64-bit rejection sampling.  bounds is an integer array with
        every entry in [1, 2^63].
        """
        b = np.asarray(bounds)
        if b.dtype.kind not in "iu":
            raise ValueError("bounds must be an integer array")
        # as uint64, a bound below 1 wraps to 2^63 or above, where only
        # an unsigned 2^63 itself is valid
        top_bound = (1 << 63) - (b.dtype.kind == "i")
        b = b.astype(np.uint64).ravel()
        if np.count_nonzero(b - 1 >= top_bound):
            raise ValueError("every bound must lie in [1, 2^63]")
        words = self._words(b.size)
        while True:
            # word u is accepted when u < (2^64 // b) * b, that is when its
            # run of b values from u - u % b on ends below 2^64: u - u % b
            # is at most 2^64 - b, which is -b in uint64.  The threshold
            # itself would not fit in uint64 for b a power of two.
            rest = words % b
            rejected = words - rest > -b
            if not np.count_nonzero(rejected):
                return rest.astype(np.int64)
            # the first rejected word is spent; the words already read
            # after it, and one more, serve the draws from there on
            k = int(rejected.argmax())
            words = np.concatenate((words[:k], words[k + 1:], self._words(1)))

    def distinct(self, x: int, y: int) -> np.ndarray:
        """y distinct integers from {0, .., x-1} (partial Fisher-Yates).

        Only the touched positions are held, so x may be large.
        """
        if y > x:
            raise ValueError("cannot draw more values than the range holds")
        steps = self.below_each(np.arange(x, x - y, -1)).tolist()
        return np.array(fisher_yates(steps), dtype=np.int64)

    def permutation(self, x: int) -> np.ndarray:
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


def fisher_yates(steps: list[int]) -> list[int]:
    """Partial Fisher-Yates, the one shuffle of Xof.distinct and cw_encode:
    slot i swaps position i with i + steps[i] and outputs the value that
    lands at i.  Only the touched positions are held, so the range may be
    large."""
    swapped: dict[int, int] = {}
    out = []
    for i, step in enumerate(steps):
        j = i + step
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return out


def shuffle_rows(x: int, steps: np.ndarray) -> np.ndarray:
    """Partial Fisher-Yates over {0, .., x-1}, one per row, all rows at once.

    steps is a (rows, y) int64 array with steps[:, i] in [0, x - i).  Slot
    i of a row swaps position i with position i + steps[:, i] and outputs
    the value that lands at i, as fisher_yates does for one row.  Each row
    holds all x positions, so this is for many rows over a small range.
    """
    rows, y = steps.shape
    perm = np.tile(np.arange(x), (rows, 1))
    row = np.arange(rows)
    targets = np.ascontiguousarray((np.arange(y) + steps).T)
    out = np.empty((y, rows), dtype=np.int64)
    for i in range(y):
        out[i] = perm[row, targets[i]]
        perm[row, targets[i]] = perm[:, i]
    return out.T


def fresh_xof() -> Xof:
    """Xof keyed from the operating system entropy pool."""
    return Xof(os.urandom(32))
