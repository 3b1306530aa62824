"""Bit-packed arithmetic for quasi-cyclic GF(2) linear algebra.

Polynomials in GF(2)[x]/<x^p + 1> are packed little-endian into Python
integers (coefficient i at bit i).  A p x p circulant matrix is identified
with the polynomial of its first row.

Conventions used throughout the package:

* circulant row r of poly a = a rotated left by r, i.e. C[r][c] = a[(c-r) % p]
* product of circulants = product of polynomials
* C(a) . vec corresponds to transpose_int(a) * v(x) on column vectors

GenPermutation is the one implementation of a generalized permutation's
index map; the scrambler S and the permutation part M of Q both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NotInvertible, Singular

# ---------------------------------------------------------------------------
# GF(2) sums of unit vectors


def odd_bits(pos: np.ndarray, n: int) -> np.ndarray:
    """Length-n bool array set where a position occurs an odd number of times.

    This is the GF(2) sum of the unit vectors at pos.  While m log2 m stays
    below n, sorting the m positions costs less than an n-sized count: each
    pass over the sorted positions gives every one still present the pass's
    parity and drops one copy of each, so a position ends set iff it occurs
    an odd number of times.  Larger m (signatures, the dense a3 rows) are
    counted.
    """
    if pos.size * math.log2(pos.size + 1) >= n:
        counts = np.bincount(pos, minlength=n)
        counts &= 1
        return counts.astype(bool)
    pos = np.sort(pos)
    bits = np.zeros(n, dtype=bool)
    odd = True
    while pos.size:
        bits[pos] = odd
        pos = pos[np.flatnonzero(pos[1:] == pos[:-1]) + 1]
        odd = not odd
    return bits


# ---------------------------------------------------------------------------
# raw polynomial kernels (ints, little-endian coefficient packing)


def transpose_int(a: int, p: int) -> int:
    """Coefficient map i -> (-i) mod p (transpose of the circulant)."""
    out = a & 1
    rest = a >> 1
    pos = p - 1
    while rest:
        if rest & 1:
            out |= 1 << pos
        rest >>= 1
        pos -= 1
    return out


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

    @classmethod
    def from_int(cls, v: int, length: int) -> "SparseVector":
        sup = []
        while v:
            low = v & -v
            sup.append(low.bit_length() - 1)
            v ^= low
        return cls(length, tuple(sup))

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
# permutations and generalized (block) permutations


def invert_perm(perm) -> list[int]:
    """The inverse permutation: inv[perm[i]] = i."""
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv


@dataclass(frozen=True)
class GenPermutation:
    """Block permutation with a cyclic rotation inside each block.

    Index b*p + o of the input is sent to block_perm[b]*p + (o + rotations[b]) % p
    of the output.
    """

    block_perm: tuple[int, ...]
    rotations: tuple[int, ...]
    p: int

    def __post_init__(self):
        b = len(self.block_perm)
        if sorted(self.block_perm) != list(range(b)):
            raise DimensionError("block_perm is not a bijection")
        if len(self.rotations) != b:
            raise DimensionError("one rotation required per block")

    @cached_property
    def _maps(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self.block_perm, dtype=np.int64),
                np.array(self.rotations, dtype=np.int64))

    def apply(self, pos: np.ndarray) -> np.ndarray:
        """Images of the int64 positions pos, in the same order."""
        blocks, rots = self._maps
        b, o = np.divmod(pos, self.p)
        return blocks[b] * self.p + (o + rots[b]) % self.p


def genperm_from_left(perm_rows: list[int], rots: list[int], p: int) -> GenPermutation:
    """Generalized permutation equal to Diag(x^rots) . (P x I_p).

    P is the permutation matrix with P[i][j] = 1 iff j = perm_rows[i]; the
    rotation x^rots[i] scales block row i.
    """
    inv = invert_perm(perm_rows)
    return GenPermutation(tuple(inv), tuple((-rots[i]) % p for i in inv), p)


def genperm_from_right(perm_rows: list[int], rots: list[int], p: int) -> GenPermutation:
    """Generalized permutation equal to (P x I_p) . Diag(x^rots)."""
    return GenPermutation(tuple(invert_perm(perm_rows)),
                          tuple((-r) % p for r in rots), p)
