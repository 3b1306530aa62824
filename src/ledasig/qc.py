"""Bit-packed arithmetic for quasi-cyclic GF(2) linear algebra.

Polynomials in GF(2)[x]/<x^p + 1> are packed little-endian into Python
integers (coefficient i at bit i).  A p x p circulant matrix is identified
with the polynomial of its first row; quasi-cyclic matrices are grids of
such polynomials with an all-zero polynomial encoding a null block.

Conventions used throughout the package, matching the dense expansion
returned by QcMatrix.to_dense_rows:

* circulant row r of poly a = a rotated left by r, i.e. C[r][c] = a[(c-r) % p]
* product of circulants = product of polynomials
* C(a) . vec corresponds to transpose_int(a) * v(x) on column vectors

GenPermutation is the one implementation of a generalized permutation's
index map; the scrambler S and the permutation part M of Q both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NotInvertible, Singular

# ---------------------------------------------------------------------------
# raw polynomial kernels (ints, little-endian coefficient packing)


def mask_of(p: int) -> int:
    return (1 << p) - 1


def rotl_int(a: int, s: int, p: int) -> int:
    """Multiply by x^s, i.e. rotate coefficients left by s."""
    s %= p
    if s == 0:
        return a
    return ((a << s) | (a >> (p - s))) & mask_of(p)


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
    a &= mask_of(p)
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


def circulant_rows(a: int, p: int) -> list[int]:
    """Dense expansion: row r of the circulant of a, as p-bit ints."""
    return [rotl_int(a, r, p) for r in range(p)]


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
class QcMatrix:
    """Grid of circulant blocks; blocks[i][j] packs the (i, j) polynomial."""

    rows_blocks: int
    cols_blocks: int
    p: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.blocks) != self.rows_blocks or any(
                len(row) != self.cols_blocks for row in self.blocks):
            raise DimensionError("block grid does not match declared shape")
        m = mask_of(self.p)
        if any(b & ~m for row in self.blocks for b in row):
            raise DimensionError("block exceeds p coefficients")

    @classmethod
    def zero(cls, rows_blocks: int, cols_blocks: int, p: int) -> "QcMatrix":
        return cls(rows_blocks, cols_blocks, p,
                   tuple((0,) * cols_blocks for _ in range(rows_blocks)))

    @classmethod
    def identity(cls, nblocks: int, p: int) -> "QcMatrix":
        return cls(nblocks, nblocks, p,
                   tuple(tuple(1 if i == j else 0 for j in range(nblocks))
                         for i in range(nblocks)))

    @classmethod
    def from_blocks(cls, blocks, p: int) -> "QcMatrix":
        rows = tuple(tuple(row) for row in blocks)
        return cls(len(rows), len(rows[0]), p, rows)

    def to_dense_rows(self) -> list[int]:
        """Dense expansion as (rows_blocks*p) ints of cols_blocks*p bits."""
        p = self.p
        out = []
        for brow in self.blocks:
            expanded = [circulant_rows(b, p) for b in brow]
            for r in range(p):
                v = 0
                for jb in range(self.cols_blocks):
                    v |= expanded[jb][r] << (jb * p)
                out.append(v)
        return out


# ---------------------------------------------------------------------------
# dense bit matrices


@dataclass(frozen=True)
class DenseBitMatrix:
    """Row-major packed binary matrix; each row is a little-endian int."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_bits) != self.rows:
            raise DimensionError("row count mismatch")
        m = mask_of(self.cols)
        if any(r & ~m for r in self.row_bits):
            raise DimensionError("row exceeds declared columns")

    @classmethod
    def identity(cls, n: int) -> "DenseBitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows, cols: int) -> "DenseBitMatrix":
        rows = tuple(int(r) for r in rows)
        return cls(len(rows), cols, rows)

    def get(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1


def dense_invert(m: DenseBitMatrix) -> DenseBitMatrix:
    """Gauss-Jordan inverse over GF(2); raises Singular when rank-deficient."""
    if m.rows != m.cols:
        raise DimensionError("matrix must be square")
    n = m.rows
    work = list(m.row_bits)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if (work[r] >> col) & 1), None)
        if pivot is None:
            raise Singular(f"no pivot in column {col}")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return DenseBitMatrix(n, n, tuple(inv))


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
