"""Dense GF(2) oracles used to cross-check the structured fast paths.

Everything here expands matrices to dense row-int form, multiplies
naively or applies a factor's inverse map on its own; it is only meant
for toy-sized parameters.  The polynomial and quasi-cyclic products, the
inverse application procedures for S and Q, and the transposed
generalized-permutation map live here because only tests use them.
"""

from dataclasses import dataclass

import numpy as np

from ledasig.drbg import Xof
from ledasig.errors import DimensionError
from ledasig.keygen import (PrivateKey, gen_q, gen_s, gen_v,
                            q_correction_mask)
from ledasig.qc import (GenPermutation, QcMatrix, SparseVector,
                        circulant_rows, inverse_int, invert_perm, mask_of,
                        transpose_int)


def toy_private_key(prm, seed: bytes) -> PrivateKey:
    """Private key expanded from any seed, for parameters without a wire id."""
    xof = Xof(seed)
    return PrivateKey(params=prm, seed=bytes(seed), v=gen_v(prm, xof),
                      s=gen_s(prm, xof), q=gen_q(prm, xof))


# ---------------------------------------------------------------------------
# polynomial ring and quasi-cyclic products


def mul_int(a: int, b: int, p: int) -> int:
    """Product a*b mod x^p + 1, iterating over the sparser operand."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return (acc & mask_of(p)) ^ (acc >> p)


@dataclass(frozen=True)
class BitPoly:
    """Polynomial in GF(2)[x]/<x^p + 1>, coefficients packed in an int."""

    coeffs: int
    p: int

    def __post_init__(self):
        if self.p <= 0:
            raise DimensionError("p must be positive")
        if self.coeffs >> self.p:
            raise DimensionError("coefficients beyond x^(p-1)")

    @classmethod
    def unit(cls, p: int) -> "BitPoly":
        return cls(1, p)

    @classmethod
    def monomial(cls, t: int, p: int) -> "BitPoly":
        return cls(1 << (t % p), p)

    def to_dense(self) -> list[int]:
        return circulant_rows(self.coeffs, self.p)


def poly_mul(a: BitPoly, b: BitPoly) -> BitPoly:
    if a.p != b.p:
        raise DimensionError(f"modulus mismatch: {a.p} != {b.p}")
    return BitPoly(mul_int(a.coeffs, b.coeffs, a.p), a.p)


def poly_inverse(a: BitPoly) -> BitPoly:
    return BitPoly(inverse_int(a.coeffs, a.p), a.p)


def qc_mul(a: QcMatrix, b: QcMatrix) -> QcMatrix:
    """Block-wise product; block (i, j) = sum_k a[i,k] * b[k,j]."""
    if a.p != b.p:
        raise DimensionError("modulus mismatch")
    if a.cols_blocks != b.rows_blocks:
        raise DimensionError("inner block dimensions differ")
    p = a.p
    rows = []
    for i in range(a.rows_blocks):
        arow = a.blocks[i]
        row = []
        for j in range(b.cols_blocks):
            acc = 0
            for k in range(a.cols_blocks):
                x = arow[k]
                if x:
                    y = b.blocks[k][j]
                    if y:
                        acc ^= mul_int(x, y, p)
            row.append(acc)
        rows.append(tuple(row))
    return QcMatrix(a.rows_blocks, b.cols_blocks, p, tuple(rows))


def qc_vec_mul(a: QcMatrix, v: SparseVector) -> SparseVector:
    """Column action a . v^T, returning a vector of length rows_blocks*p."""
    p = a.p
    if v.length != a.cols_blocks * p:
        raise DimensionError("vector length does not match block columns")
    acc = [0] * a.rows_blocks
    vblocks: dict[int, int] = {}
    for pos in v.support:
        vblocks[pos // p] = vblocks.get(pos // p, 0) | (1 << (pos % p))
    for jb, vb in vblocks.items():
        for ib in range(a.rows_blocks):
            blk = a.blocks[ib][jb]
            if blk:
                acc[ib] ^= mul_int(transpose_int(blk, p), vb, p)
    out = 0
    for ib in range(a.rows_blocks):
        out |= acc[ib] << (ib * p)
    return SparseVector.from_int(out, a.rows_blocks * p)


def qc_transpose(mat: QcMatrix) -> QcMatrix:
    return QcMatrix(
        mat.cols_blocks, mat.rows_blocks, mat.p,
        tuple(tuple(transpose_int(mat.blocks[i][j], mat.p)
                    for i in range(mat.rows_blocks))
              for j in range(mat.cols_blocks)))


# ---------------------------------------------------------------------------
# inverse application procedures on supports


def genperm_transpose(perm: GenPermutation) -> GenPermutation:
    """P^T = P^-1 of a generalized permutation, itself one."""
    inv = invert_perm(perm.block_perm)
    return GenPermutation(tuple(inv),
                          tuple((-perm.rotations[b]) % perm.p for b in inv),
                          perm.p)


def kron_blockmix_apply(poly: int, n0: int, p: int, pos: np.ndarray) -> np.ndarray:
    """Sorted support of (C(poly) x I_p) . x for x given by support `pos`.

    C(poly) is the n0 x n0 circulant of `poly`; output block i collects
    input blocks (i + d) % n0 over the support d of poly.
    """
    offs = np.array([d for d in range(n0) if (poly >> d) & 1], dtype=np.int64)
    blk, o = pos // p, pos % p
    out_blk = (blk[:, None] - offs[None, :]) % n0
    flat = (out_blk * p + o[:, None]).ravel()
    counts = np.zeros(n0 * p, dtype=np.int32)
    np.add.at(counts, flat, 1)
    return np.flatnonzero(counts & 1).astype(np.int64)


def invert_s(sk: PrivateKey):
    """Application procedure for S^-1 = PiPhi^T (E^-1 x I_p) PiLambda^T."""
    prm = sk.params
    lam_t = genperm_transpose(sk.pi_lambda)
    phi_t = genperm_transpose(sk.pi_phi)

    def apply_s_inv(pos: np.ndarray) -> np.ndarray:
        out = kron_blockmix_apply(sk.s.e_inv, prm.n0, prm.p, lam_t.apply(pos))
        return np.sort(phi_t.apply(out))

    return apply_s_inv


def invert_q(sk: PrivateKey):
    """Application procedure for Q^-1 (column action on supports)."""
    prm = sk.params
    p, r0 = prm.p, prm.r0
    kmat = q_correction_mask(sk.q, r0)
    m_t = genperm_transpose(sk.m_perm)

    def apply_q_inv(pos: np.ndarray) -> np.ndarray:
        out = np.sort(m_t.apply(pos))
        # rank-z correction: block parities in, all-ones blocks out
        parities = np.zeros(r0, dtype=np.uint8)
        np.add.at(parities, pos // p, 1)
        flagged = (kmat @ (parities & 1)) & 1
        if flagged.any():
            ones = np.flatnonzero(flagged).astype(np.int64)
            full = (ones[:, None] * p + np.arange(p)[None, :]).ravel()
            counts = np.zeros(r0 * p, dtype=np.int32)
            np.add.at(counts, out, 1)
            np.add.at(counts, full, 1)
            out = np.flatnonzero(counts & 1).astype(np.int64)
        return out

    return apply_q_inv


# ---------------------------------------------------------------------------
# dense expansions


def dense_mul(a: list[int], b: list[int], cols_b: int) -> list[int]:
    """Rows-of-int product of a (rows x len(b)) and b (len(b) x cols_b)."""
    out = []
    for row in a:
        acc = 0
        rr = row
        while rr:
            low = rr & -rr
            acc ^= b[low.bit_length() - 1]
            rr ^= low
        out.append(acc)
    return out


def dense_eye(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def dense_vec_mul(rows: list[int], v: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        if (r & v).bit_count() & 1:
            out |= 1 << i
    return out


def kron_with_identity(rows: list[int], ncols: int, p: int) -> list[int]:
    """Dense rows of M x I_p given dense rows of M."""
    out = []
    for row in rows:
        for o in range(p):
            v = 0
            rr = row
            while rr:
                low = rr & -rr
                j = low.bit_length() - 1
                v |= 1 << (j * p + o)
                rr ^= low
            out.append(v)
    return out


def kron_all_ones(mat_rows: list[int], ncols: int, p: int) -> list[int]:
    """Dense rows of M x 1_{pxp}."""
    ones = mask_of(p)
    out = []
    for row in mat_rows:
        v = 0
        rr = row
        while rr:
            low = rr & -rr
            v |= ones << ((low.bit_length() - 1) * p)
            rr ^= low
        out.extend([v] * p)
    return out


def genperm_dense(perm: GenPermutation) -> list[int]:
    n = len(perm.block_perm) * perm.p
    rows = [0] * n
    for idx, dst in enumerate(perm.apply(np.arange(n, dtype=np.int64))):
        rows[dst] |= 1 << idx
    return rows


def s_dense(sk: PrivateKey) -> list[int]:
    """Dense S = PiLambda . (E x I_p) . PiPhi."""
    prm = sk.params
    e_rows = circulant_rows(sk.s.e_poly, prm.n0)
    ekron = kron_with_identity(e_rows, prm.n0, prm.p)
    lam = genperm_dense(sk.pi_lambda)
    phi = genperm_dense(sk.pi_phi)
    return dense_mul(dense_mul(lam, ekron, prm.n), phi, prm.n)


def s_inv_dense(sk: PrivateKey) -> list[int]:
    prm = sk.params
    e_rows = circulant_rows(sk.s.e_inv, prm.n0)
    ekron = kron_with_identity(e_rows, prm.n0, prm.p)
    lam_t = dense_transpose(genperm_dense(sk.pi_lambda), prm.n)
    phi_t = dense_transpose(genperm_dense(sk.pi_phi), prm.n)
    return dense_mul(dense_mul(phi_t, ekron, prm.n), lam_t, prm.n)


def q_dense(sk: PrivateKey) -> list[int]:
    """Dense Q = M + (A B^T) x 1_{pxp}."""
    prm = sk.params
    m_rows = genperm_dense(sk.m_perm)
    ab = []
    for i in range(prm.r0):
        row = 0
        for j in range(prm.r0):
            acc = 0
            for t in range(prm.z):
                acc ^= sk.q.a.get(i, t) & sk.q.b.get(j, t)
            row |= acc << j
        ab.append(row)
    r_rows = kron_all_ones(ab, prm.r0, prm.p)
    return [m ^ r for m, r in zip(m_rows, r_rows)]


def q_inv_dense(sk: PrivateKey) -> list[int]:
    prm = sk.params
    m_t = dense_transpose(genperm_dense(sk.m_perm), prm.r)
    k = q_correction_mask(sk.q, prm.r0)
    k_rows = [int("".join(str(b) for b in reversed(k[i])), 2) if k[i].any() else 0
              for i in range(prm.r0)]
    corr = kron_all_ones(k_rows, prm.r0, prm.p)
    return [m ^ c for m, c in zip(m_t, corr)]


def h_dense(sk: PrivateKey) -> list[int]:
    """Dense H = [V^T | I_r]."""
    prm = sk.params
    vt = qc_dense(qc_transpose(sk.v))
    return [row | (1 << (prm.k + i)) for i, row in enumerate(vt)]


def g_dense(sk: PrivateKey) -> list[int]:
    """Dense G = [I_k | V]."""
    prm = sk.params
    v_rows = qc_dense(sk.v)
    return [(1 << i) | (v_rows[i] << prm.k) for i in range(prm.k)]


def qc_dense(mat: QcMatrix) -> list[int]:
    return mat.to_dense_rows()


def dense_transpose(rows: list[int], ncols: int) -> list[int]:
    out = [0] * ncols
    for i, row in enumerate(rows):
        rr = row
        while rr:
            low = rr & -rr
            out[low.bit_length() - 1] |= 1 << i
            rr ^= low
    return out


def support_to_int(support) -> int:
    v = 0
    for i in support:
        v |= 1 << int(i)
    return v


def int_to_support(v: int) -> np.ndarray:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return np.array(out, dtype=np.int64)
