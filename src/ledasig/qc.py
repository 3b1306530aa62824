"""Bit-packed arithmetic for quasi-cyclic GF(2) linear algebra.

Polynomials in GF(2)[x]/<x^p + 1> are held by their supports (int64
arrays) or in the wire layout below; a p x p circulant matrix is
identified with the polynomial of its first row.  Python ints packing
coefficient i at bit i are left only inside inverse_shifts, which inverts
E, and in the verifier's r-bit comparison (SparseVector.to_int).

Conventions used throughout the package:

* circulant row r of poly a = a rotated left by r, i.e. C[r][c] = a[(c-r) % p]
* product of circulants = product of polynomials
* C(a) . vec corresponds to a(x^-1) * v(x) on column vectors

A sparse quasi-cyclic operator, one whose blocks are zero or a single
power of x, is held as a (blocks, rots) table, and qc_map is the one
implementation of its index map: V, the permutation part M of Q and the
whole scrambler S all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotInvertible, Singular

# ---------------------------------------------------------------------------
# GF(2) sums of unit vectors


def odd_positions(pos: np.ndarray) -> np.ndarray:
    """Ascending int32 positions that occur an odd number of times in pos.

    This is the support of the GF(2) sum of the unit vectors at pos, which
    all lie below 2**31; int32 sorts in about half the time of int64.  In
    sorted order equal positions form runs; each pass drops the first two
    copies of every run, so a position is left exactly once when it
    occurs an odd number of times, and not at all otherwise.
    """
    pos = np.sort(pos.astype(np.int32))
    pairs = np.flatnonzero(pos[1:] == pos[:-1])
    while pairs.size:
        first = pairs[np.diff(pairs, prepend=-2) != 1]
        keep = np.ones(pos.size, dtype=bool)
        keep[first] = keep[first + 1] = False
        pos = pos[keep]
        if first.size == pairs.size:    # no run was longer than two
            break
        pairs = np.flatnonzero(pos[1:] == pos[:-1])
    return pos


def sorts_faster(m: int, n: int) -> bool:
    """True when sorting m positions costs less than an n-sized count."""
    return m * math.log2(m + 1) < n


def odd_bits(pos: np.ndarray, n: int) -> np.ndarray:
    """Length-n bool array set where a position occurs an odd number of times.

    This is the GF(2) sum of the unit vectors at pos.  While m log2 m stays
    below n, sorting the m positions (odd_positions) costs less than an
    n-sized count.  Larger m (signatures, the dense a3 rows) are counted.
    """
    if not sorts_faster(pos.size, n):
        counts = np.bincount(pos, minlength=n)
        counts &= 1
        return counts.astype(bool)
    bits = np.zeros(n, dtype=bool)
    bits[odd_positions(pos).astype(np.intp)] = True    # intp scatters fastest
    return bits


# ---------------------------------------------------------------------------
# raw polynomial kernels (ints, little-endian coefficient packing)


def _divmod_gf2(a: int, b: int) -> tuple[int, int]:
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def inverse_int(a: int, p: int) -> int:
    """Inverse of a mod x^p + 1 via the extended Euclidean algorithm."""
    modulus = (1 << p) | 1
    a &= (1 << p) - 1
    if a == 0:
        raise NotInvertible("zero polynomial")
    r0, r1 = modulus, a
    s0, s1 = 0, 1
    while r1:
        q, rem = _divmod_gf2(r0, r1)
        r0, r1 = r1, rem
        # s update: s0 - q*s1 over GF(2)[x] (no modular reduction needed)
        acc = s0
        qq = q
        while qq:
            low = qq & -qq
            acc ^= s1 << (low.bit_length() - 1)
            qq ^= low
        s0, s1 = s1, acc
    if r0 != 1:
        raise NotInvertible("gcd(a, x^p + 1) != 1")
    _, inv = _divmod_gf2(s0, modulus)
    return inv


def inverse_shifts(shifts: np.ndarray, n: int) -> np.ndarray:
    """Support of the inverse mod x^n + 1 of the polynomial whose distinct
    exponents are shifts, as ascending int64."""
    inv = inverse_int(sum(1 << d for d in shifts.tolist()), n)
    return np.array([d for d in range(n) if inv >> d & 1], dtype=np.int64)


# ---------------------------------------------------------------------------
# wire layout of circulant blocks: ceil(p/64) little-endian 64-bit words,
# coefficient i at bit i, the bits at and above p clear


def pack_blocks(bits: np.ndarray) -> np.ndarray:
    """Words of a (..., p) array of 0/1 coefficients, shape (..., ceil(p/64))."""
    p = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + ((p + 63) // 64 * 8,), dtype=np.uint8)
    out[..., :(p + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


def padding_clear(words: np.ndarray, p: int) -> bool:
    """True when no block of words (..., ceil(p/64)) has a bit at or above p."""
    used = p - 64 * (words.shape[-1] - 1)   # bits of a block's last word below p
    return used == 64 or not (words[..., -1] >> np.uint64(used)).any()


# ---------------------------------------------------------------------------
# typed wrappers


@dataclass(frozen=True)
class SparseVector:
    """Bit vector stored by its sorted support."""

    length: int
    support: tuple[int, ...]

    def __post_init__(self):
        s = self.support
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            object.__setattr__(self, "support", tuple(sorted(set(s))))
            s = self.support
        if s and (s[0] < 0 or s[-1] >= self.length):
            raise DimensionError("support position out of range")

    def to_int(self) -> int:
        v = 0
        for i in self.support:
            v |= 1 << i
        return v

    @property
    def weight(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class PackedVector:
    """Bit vector of `blocks` length-p blocks, held in its wire layout.

    Block b is ceil(p/64) little-endian 64-bit words of `words`, its
    coefficient i at bit i; vector position b*p + i is that coefficient.
    The bits at and above p of every block stay clear.  Equality and
    hashing go by the bytes; the support is derived on demand.
    """

    blocks: int
    p: int
    words: bytes

    def __post_init__(self):
        nw = (self.p + 63) // 64
        if len(self.words) != self.blocks * nw * 8:
            raise DimensionError("payload is not blocks x ceil(p/64) words")
        if not padding_clear(self._array(), self.p):
            raise DimensionError("bit set at or above p in a block")

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "PackedVector":
        """Pack a (blocks, p) array of 0/1 coefficients."""
        return cls(*bits.shape, pack_blocks(bits).tobytes())

    @classmethod
    def from_support(cls, blocks: int, p: int, support) -> "PackedVector":
        pos = np.asarray(support, dtype=np.int64)
        if len(pos) and (pos.min() < 0 or pos.max() >= blocks * p):
            raise DimensionError("support position out of range")
        bits = np.zeros(blocks * p, dtype=bool)
        bits[pos] = True
        return cls.from_bits(bits.reshape(blocks, p))

    def _array(self) -> np.ndarray:
        return np.frombuffer(self.words, dtype="<u8").reshape(self.blocks, -1)

    @property
    def length(self) -> int:
        return self.blocks * self.p

    @property
    def weight(self) -> int:
        return int(np.bitwise_count(self._array()).sum())

    def positions(self) -> np.ndarray:
        """Sorted int64 positions of the set bits."""
        raw = self._array().view(np.uint8)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        return np.flatnonzero(bits[:, :self.p])

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.positions().tolist())


# ---------------------------------------------------------------------------
# dense bit matrices: 0/1 uint8 arrays, entry (i, j) at [i, j]


def dense_invert(m: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse over GF(2); raises Singular when rank-deficient."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError("matrix must be square")
    n = len(m)
    work = np.concatenate((m.astype(np.uint8) & 1,
                           np.eye(n, dtype=np.uint8)), axis=1)
    for col in range(n):
        pivots = np.flatnonzero(work[col:, col])
        if not len(pivots):
            raise Singular(f"no pivot in column {col}")
        work[[col, col + pivots[0]]] = work[[col + pivots[0], col]]
        rows = np.flatnonzero(work[:, col])
        work[rows[rows != col]] ^= work[col]
    return work[:, n:]


# ---------------------------------------------------------------------------
# sparse quasi-cyclic operators


def qc_map(table: tuple[np.ndarray, np.ndarray], pos: np.ndarray,
           p: int) -> np.ndarray:
    """Images of the int64 positions pos under a sparse QC operator.

    table is (blocks, rots), two (b, m) int64 arrays: input block i goes
    to output block blocks[i, j] rotated by rots[i, j], for each column j.
    Position i*p + o has the m images blocks[i, j]*p + (o + rots[i, j]) % p;
    they are returned flat, those of pos[0] first.  The operator's output
    is their GF(2) sum, so an image repeated an even number of times
    cancels.
    """
    blocks, rots = table
    b, o = np.divmod(pos, p)
    return (blocks[b] * p + (o[:, None] + rots[b]) % p).ravel()
