"""Dense GF(2) oracles used to cross-check the structured fast paths.

Everything here expands matrices to dense row-int form, multiplies
naively or applies a factor's inverse map on its own; it is only meant
for toy-sized parameters.  QcMatrix (a grid of circulant polynomials
packed in ints), the polynomial and quasi-cyclic products, the inverse
application procedures for S and Q, and the generalized permutations
Pi_Lambda, Pi_Phi and M built from the raw key factors live here because
only tests use them; they check the package's composed (blocks, rots)
tables independently.  So do the AND / XOR weight distributions that
apply the estimator's _fold_plan one step at a time (overlap_fold,
and_weight_dist, xor_weight_dist), which the exhaustive enumerations
check and through which the plan is tested; the scalar AND / XOR
weight-distribution loops and per-x steps that the estimator's sorted
reduceat fold must reproduce bit for bit; the written-out parity-sum
loops, the SIA count tails, the one-point _p_i_ge_j and the scalar
sia_wf and lca_wf built from these loops, which its array forms must
reproduce bit for bit, and the one-point form of sia_wf's lower bound on
a cell's work factor; and the full-range coincidence separation that its
live-window sums must reproduce; and the per-point Stern cost with its
coarse grid and hill climb, whose answers the exhaustive (l, j) scan
must reproduce.  So do the one-draw-at-a-time samplers and factor
generators that the batched Xof.below_each, gen_v, gen_s and gen_q must
match byte for byte, the constant-weight encoding with its own swap loop
that signer.cw_encode must match, and a salt search that hashes the
whole message on every trial.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ledasig import toy_params
from ledasig.drbg import Xof
from ledasig.errors import DimensionError
from ledasig.estimator import (LN2, NEG_INF, SiaEstimate, LcaEstimate,
                               SternParams, _GROVER_PREFACTOR_LOG2,
                               _LCA_MAX_COMBINATIONS, _P_INV_LOG2,
                               _SIA_MAX_COLLECTED, _bit_probabilities,
                               _codeword_row_parities, _fold_plan, _lb,
                               _safe_log2, _sia_wf_at, _speedup_log2,
                               log2_sum)
from ledasig.errors import NotInvertible, Singular
from ledasig.keygen import (PrivateKey, QFactors, SFactors, compute_d, gen_q,
                            gen_s, gen_v, q_correction_mask, sort_v_rows)
from ledasig.params import INSTANCES
from ledasig.qc import SparseVector, dense_invert, inverse_int, qc_map
from ledasig.signer import cw_encode, kernel_check

# published payload sizes in kiB (public key, signature), read by the
# acceptance suite's criterion 5 and by the codec's exact size test
REFERENCE_KIB = {
    "a3": (315.67, 3.55), "a6": (540.80, 6.52), "alpha3": (828.81, 9.32),
    "b3": (1364.28, 9.16), "b6": (3160.47, 27.98), "beta3": (3619.48, 35.15),
    "c3": (2818.20, 18.92), "c6": (11661.05, 89.02),
    "gamma3": (15590.80, 112.17),
}


def toy_private_key(prm, seed: bytes) -> PrivateKey:
    """Private key expanded from any seed, for parameters without a wire id."""
    xof = Xof(seed)
    return PrivateKey(params=prm, seed=bytes(seed), v=gen_v(prm, xof),
                      s=gen_s(prm, xof), q=gen_q(prm, xof))


# ---------------------------------------------------------------------------
# one draw at a time: the samplers and factor generators before batching


def below(xof: Xof, bound: int) -> int:
    """Uniform integer in [0, bound) by 64-bit rejection sampling."""
    threshold = ((1 << 64) // bound) * bound
    while True:
        u = xof.u64()
        if u < threshold:
            return u % bound


def distinct(xof: Xof, x: int, y: int) -> list[int]:
    """y distinct integers from {0, .., x-1} (partial Fisher-Yates)."""
    swapped: dict[int, int] = {}
    out = []
    for i in range(y):
        j = i + below(xof, x - i)
        vi = swapped.get(i, i)
        out.append(swapped.get(j, j))
        swapped[j] = vi
    return out


def gen_v_scalar(params, xof: Xof) -> tuple[np.ndarray, np.ndarray]:
    """keygen.gen_v, one row and one draw at a time."""
    shape = (params.k0, params.w_g - 1)
    cols = np.empty(shape, dtype=np.int64)
    rots = np.empty(shape, dtype=np.int64)
    for i in range(params.k0):
        cols[i] = distinct(xof, params.r0, params.w_g - 1)
        rots[i] = [below(xof, params.p) for _ in range(shape[1])]
    return sort_v_rows(cols, rots)


def gen_s_scalar(params, xof: Xof) -> SFactors:
    """keygen.gen_s, one draw at a time, inverting E as an int."""
    n0 = params.n0
    while True:
        e = np.sort(distinct(xof, n0, params.m_S))
        try:
            e_inv = int_to_support(inverse_int(support_to_int(e), n0))
        except NotInvertible:
            continue
        break
    perm1 = np.array(distinct(xof, n0, n0))
    perm2 = np.array(distinct(xof, n0, n0))
    rots = np.array([below(xof, params.p) for _ in range(2 * n0)])
    return SFactors(rots[0::2], rots[1::2], perm1, perm2, e, e_inv)


def gen_q_scalar(params, xof: Xof) -> QFactors:
    """keygen.gen_q, one draw at a time."""
    while True:
        perm = np.array(distinct(xof, params.r0, params.r0))
        a = xof.bit_matrix(params.r0, params.z)
        b = xof.bit_matrix(params.r0, params.z)
        try:
            d_inv = dense_invert(compute_d(params, perm, a, b))
        except Singular:
            continue
        psi = np.array([below(xof, params.p) for _ in range(params.r0)])
        return QFactors(perm, psi, a, b, d_inv)


def cw_encode_scalar(digest: bytes, length: int, weight: int) -> SparseVector:
    """signer.cw_encode reading one word at a time, with its own swap loop."""
    if weight > length:
        raise ValueError("weight cannot exceed length")
    if weight == 0:
        return SparseVector(length, ())
    stream = hashlib.shake_256(digest).digest(8 * weight)
    swapped: dict[int, int] = {}
    support = []
    for i in range(weight):
        u = int.from_bytes(stream[8 * i:8 * i + 8], "little")
        j = i + ((u * (length - i)) >> 64)
        vi = swapped.get(i, i)
        support.append(swapped.get(j, j))
        swapped[j] = vi
    return SparseVector(length, tuple(sorted(support)))


_SHA3 = {1: hashlib.sha3_256, 3: hashlib.sha3_384, 5: hashlib.sha3_512}


def gen_error_rehashing(sk: PrivateKey, message: bytes, xof: Xof):
    """signer.gen_error hashing message || theta afresh for every salt,
    with M applied through its GenPermutation; e's support comes sorted."""
    prm = sk.params
    while True:
        theta = xof.u64()
        digest = _SHA3[prm.category](
            message + theta.to_bytes(8, "little")).digest()
        s = cw_encode(digest, prm.r, prm.w)
        if kernel_check(sk.q.b, s, prm.p):
            pos = np.asarray(s.support, dtype=np.int64)
            return theta, np.sort(m_perm(sk).apply(pos)) + prm.k, s


def invert_perm(perm) -> list[int]:
    """The inverse permutation: inv[perm[i]] = i."""
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv


def sparse_from_int(v: int, length: int) -> SparseVector:
    """SparseVector of the set bits of v."""
    return SparseVector(length, tuple(int_to_support(v).tolist()))


# ---------------------------------------------------------------------------
# circulant and quasi-cyclic matrices of int-packed polynomials


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


def circulant_rows(a: int, p: int) -> list[int]:
    """Dense expansion: row r of the circulant of a is a rotated left by r."""
    mask = (1 << p) - 1
    return [((a << r) | (a >> (p - r))) & mask for r in range(p)]


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
        if any(b >> self.p for row in self.blocks for b in row):
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


def v_qc(sk: PrivateKey) -> QcMatrix:
    """V of a private key as its k0 x r0 grid of circulant permutations."""
    prm = sk.params
    rows = [[0] * prm.r0 for _ in range(prm.k0)]
    for i, (cols, rots) in enumerate(zip(*sk.v)):
        for c, t in zip(cols.tolist(), rots.tolist()):
            rows[i][c] = 1 << t
    return QcMatrix.from_blocks(rows, prm.p)


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
    return (acc & ((1 << p) - 1)) ^ (acc >> p)


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
    return sparse_from_int(out, a.rows_blocks * p)


def words_to_qc(words: np.ndarray, p: int) -> QcMatrix:
    """QcMatrix of an (r0, n0, ceil(p/64)) array of wire-layout blocks."""
    rows_blocks, cols_blocks, _ = words.shape
    return QcMatrix(rows_blocks, cols_blocks, p, tuple(
        tuple(int.from_bytes(blk.tobytes(), "little")
              for blk in row) for row in words))


def qc_to_words(mat: QcMatrix) -> np.ndarray:
    """Wire-layout block array of a QcMatrix, one block per int."""
    nb = (mat.p + 63) // 64 * 8
    buf = b"".join(b.to_bytes(nb, "little") for row in mat.blocks for b in row)
    return np.frombuffer(buf, dtype="<u8").reshape(
        mat.rows_blocks, mat.cols_blocks, -1)


def qc_transpose(mat: QcMatrix) -> QcMatrix:
    return QcMatrix(
        mat.cols_blocks, mat.rows_blocks, mat.p,
        tuple(tuple(transpose_int(mat.blocks[i][j], mat.p)
                    for i in range(mat.rows_blocks))
              for j in range(mat.cols_blocks)))


# ---------------------------------------------------------------------------
# generalized (block) permutations, built from the key's raw factors


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

    def apply(self, pos: np.ndarray) -> np.ndarray:
        """Images of the int64 positions pos, in the same order."""
        blocks = np.array(self.block_perm, dtype=np.int64)
        rots = np.array(self.rotations, dtype=np.int64)
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


def pi_lambda(sk: PrivateKey) -> GenPermutation:
    """PiLambda = Diag(x^lam_rots) . (P1 x I_p) of the scrambler S."""
    return genperm_from_left(list(sk.s.perm1), list(sk.s.lam_rots),
                             sk.params.p)


def pi_phi(sk: PrivateKey) -> GenPermutation:
    """PiPhi = (P2 x I_p) . Diag(x^phi_rots) of the scrambler S."""
    return genperm_from_right(list(sk.s.perm2), list(sk.s.phi_rots),
                              sk.params.p)


def m_perm(sk: PrivateKey) -> GenPermutation:
    """M = (P x I_p) . Diag(x^psi_rots), the permutation part of Q."""
    return genperm_from_right(list(sk.q.perm), list(sk.q.psi_rots),
                              sk.params.p)


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
    lam_t = genperm_transpose(pi_lambda(sk))
    phi_t = genperm_transpose(pi_phi(sk))
    e_inv = support_to_int(sk.s.e_inv)

    def apply_s_inv(pos: np.ndarray) -> np.ndarray:
        out = kron_blockmix_apply(e_inv, prm.n0, prm.p, lam_t.apply(pos))
        return np.sort(phi_t.apply(out))

    return apply_s_inv


def invert_q(sk: PrivateKey):
    """Application procedure for Q^-1 (column action on supports)."""
    prm = sk.params
    p, r0 = prm.p, prm.r0
    kmat = q_correction_mask(sk.q)
    m_t = genperm_transpose(m_perm(sk))

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
    ones = (1 << p) - 1
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


def table_dense(table, p: int) -> list[int]:
    """Dense rows of a square sparse QC operator held as a (blocks, rots)
    table, one image at a time."""
    n = len(table[0]) * p
    rows = [0] * n
    for idx in range(n):
        for dst in qc_map(table, np.array([idx], dtype=np.int64), p).tolist():
            rows[dst] ^= 1 << idx
    return rows


def s_dense(sk: PrivateKey) -> list[int]:
    """Dense S = PiLambda . (E x I_p) . PiPhi."""
    prm = sk.params
    e_rows = circulant_rows(support_to_int(sk.s.e), prm.n0)
    ekron = kron_with_identity(e_rows, prm.n0, prm.p)
    lam = genperm_dense(pi_lambda(sk))
    phi = genperm_dense(pi_phi(sk))
    return dense_mul(dense_mul(lam, ekron, prm.n), phi, prm.n)


def s_inv_dense(sk: PrivateKey) -> list[int]:
    prm = sk.params
    e_rows = circulant_rows(support_to_int(sk.s.e_inv), prm.n0)
    ekron = kron_with_identity(e_rows, prm.n0, prm.p)
    lam_t = dense_transpose(genperm_dense(pi_lambda(sk)), prm.n)
    phi_t = dense_transpose(genperm_dense(pi_phi(sk)), prm.n)
    return dense_mul(dense_mul(phi_t, ekron, prm.n), lam_t, prm.n)


def q_dense(sk: PrivateKey) -> list[int]:
    """Dense Q = M + (A B^T) x 1_{pxp}."""
    prm = sk.params
    m_rows = genperm_dense(m_perm(sk))
    ab = []
    for i in range(prm.r0):
        row = 0
        for j in range(prm.r0):
            acc = 0
            for t in range(prm.z):
                acc ^= int(sk.q.a[i, t] & sk.q.b[j, t])
            row |= acc << j
        ab.append(row)
    r_rows = kron_all_ones(ab, prm.r0, prm.p)
    return [m ^ r for m, r in zip(m_rows, r_rows)]


def q_inv_dense(sk: PrivateKey) -> list[int]:
    prm = sk.params
    m_t = dense_transpose(genperm_dense(m_perm(sk)), prm.r)
    k = q_correction_mask(sk.q)
    k_rows = [int("".join(str(b) for b in reversed(k[i])), 2) if k[i].any() else 0
              for i in range(prm.r0)]
    corr = kron_all_ones(k_rows, prm.r0, prm.p)
    return [m ^ c for m, c in zip(m_t, corr)]


def h_dense(sk: PrivateKey) -> list[int]:
    """Dense H = [V^T | I_r]."""
    prm = sk.params
    vt = qc_dense(qc_transpose(v_qc(sk)))
    return [row | (1 << (prm.k + i)) for i, row in enumerate(vt)]


def g_dense(sk: PrivateKey) -> list[int]:
    """Dense G = [I_k | V]."""
    prm = sk.params
    v_rows = qc_dense(v_qc(sk))
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


# ---------------------------------------------------------------------------
# scalar weight distributions of independent fixed-weight vectors


def _pair_and_dist_loop(n: int, w1: int, w2: int) -> np.ndarray:
    """log2 P[wt(v1 & v2) = x] over x = 0..min(w1, w2), one x at a time."""
    out = np.full(min(w1, w2) + 1, NEG_INF)
    denom = _lb(n, w2)
    for x in range(max(0, w1 + w2 - n), min(w1, w2) + 1):
        out[x] = _lb(w1, x) + _lb(n - w1, w2 - x) - denom
    return out


def and_step_loop(n: int, dist: np.ndarray, w: int, keep: int) -> np.ndarray:
    """AND one more weight-w vector into a weight distribution, one live
    weight x at a time; the result keeps weights 0..keep-1."""
    new = np.full(len(dist), NEG_INF)
    for x in np.flatnonzero(dist != NEG_INF).tolist():
        pair = _pair_and_dist_loop(n, x, w)
        stop = min(len(pair), len(new))
        new[:stop] = np.logaddexp2(new[:stop], dist[x] + pair[:stop])
    return new[:keep]


def and_weight_dist_loop(n: int, weights) -> np.ndarray:
    """log2 distribution of wt(v1 & ... & vm), scalar fold."""
    weights = list(weights)
    dist = np.full(weights[0] + 1, NEG_INF)
    dist[weights[0]] = 0.0
    for w in weights[1:]:
        dist = and_step_loop(n, dist, w, max(1, min(weights) + 1))
    return dist


def xor_step_loop(n: int, dist: np.ndarray, w: int) -> np.ndarray:
    """XOR one more weight-w vector into a weight distribution over 0..n,
    one live weight x at a time, in increasing x; a weight-x vector
    overlapping the new one in i positions gives weight x + w - 2i."""
    new = np.full(n + 1, NEG_INF)
    for x in np.flatnonzero(dist != NEG_INF).tolist():
        pair = _pair_and_dist_loop(n, x, w)
        i = np.flatnonzero(pair != NEG_INF)
        y = x + w - 2 * i
        new[y] = np.logaddexp2(new[y], dist[x] + pair[i])
    return new


def _pair_xor_dist_loop(n: int, w1: int, w2: int) -> np.ndarray:
    """log2 P[wt(v1 ^ v2) = y] over y = 0..n (parity-constrained)."""
    out = np.full(n + 1, NEG_INF)
    denom = _lb(n, w2)
    for y in range(abs(w1 - w2), min(w1 + w2, n) + 1):
        if (w1 + w2 - y) % 2:
            continue
        x = (w1 + w2 - y) // 2
        out[y] = _lb(w1, x) + _lb(n - w1, w2 - x) - denom
    return out


def xor_weight_dist_loop(n: int, weights) -> np.ndarray:
    """log2 distribution of wt(v1 ^ ... ^ vm) over 0..n, scalar fold over
    every weight 0..n."""
    weights = list(weights)
    dist = np.full(n + 1, NEG_INF)
    dist[weights[0]] = 0.0
    for w in weights[1:]:
        new = np.full(n + 1, NEG_INF)
        for x in range(n + 1):
            if dist[x] == NEG_INF:
                continue
            pair = _pair_xor_dist_loop(n, x, w)
            live = np.flatnonzero(pair != NEG_INF)
            new[live] = np.logaddexp2(new[live], dist[x] + pair[live])
        dist = new
    return dist


# ---------------------------------------------------------------------------
# weight distributions from one fold plan per step


def overlap_fold(n: int, dist: np.ndarray, w: int, size: int,
                 xor: bool = False) -> np.ndarray:
    """Combine one more independent weight-w vector with a weight
    distribution, into weights 0..size-1: the estimator's _fold_plan up to
    dist's last live weight, built and applied once."""
    live = np.flatnonzero(dist != NEG_INF)
    x_max = int(live[-1]) if live.size else -1
    return _fold_plan(n, w, x_max, xor).fold(dist, size)


def and_weight_dist(n: int, weights) -> np.ndarray:
    """log2 distribution of wt(v1 & ... & vm) for independent vectors."""
    weights = list(weights)
    dist = np.full(weights[0] + 1, NEG_INF)
    dist[weights[0]] = 0.0
    for w in weights[1:]:
        dist = overlap_fold(n, dist, w, min(weights) + 1)
    return dist


def xor_weight_dist(n: int, weights) -> np.ndarray:
    """log2 distribution of wt(v1 ^ ... ^ vm) over 0..n."""
    weights = list(weights)
    dist = np.full(n + 1, NEG_INF)
    dist[weights[0]] = 0.0
    for w in weights[1:]:
        dist = overlap_fold(n, dist, w, n + 1, xor=True)
    return dist


# ---------------------------------------------------------------------------
# written-out parity sums and SIA count tails


# small enough for the Monte-Carlo checks of the SIA bit model
SIATOY = toy_params("siatoy", n0=12, r0=6, p=2, z=2, m_S=3, w=4, w_g=3, m_g=2)

# the shapes whose full reports the estimator's exact checks cover
REPORT_PARAMS = [*INSTANCES.values(), toy_params("toy29"),
                 toy_params("toy29w")]


def signature_bit_probability_loop(params) -> float:
    """estimator.signature_bit_probability as its own odd-l loop."""
    n, m_s = params.n, params.m_S
    wprime = params.w + params.m_g * params.w_g
    total = NEG_INF
    for l in range(1, m_s + 1, 2):
        total = np.logaddexp2(
            total, _lb(m_s, l) + _lb(n - m_s, wprime - l) - _lb(n, wprime))
    return float(2.0 ** total)


def pair_coincidence_probs_loops(params) -> tuple[float, float]:
    """estimator._pair_coincidence_probs as three written-out double
    loops: shared, unshared and disjoint pairs."""
    n, m_s = params.n, params.m_S
    wp = params.w + params.m_g * params.w_g

    shared = NEG_INF
    for l in range(0, m_s, 2):
        for u in range(0, m_s, 2):
            t = (_lb(m_s - 1, l) + _lb(m_s - 1, u)
                 + _lb(n + 1 - 2 * m_s, wp - l - u - 1) - _lb(n - 1, wp - 1))
            shared = np.logaddexp2(shared, t)
    rho_shared = (wp / n) * float(2.0 ** shared)

    unshared = NEG_INF
    for l in range(1, m_s - 1, 2):
        for u in range(1, m_s - 1, 2):
            t = (_lb(m_s - 1, l) + _lb(m_s - 1, u)
                 + _lb(n + 1 - 2 * m_s, wp - l - u) - _lb(n - 1, wp))
            unshared = np.logaddexp2(unshared, t)
    rho_unshared = ((n - wp) / n) * float(2.0 ** unshared)

    rho1 = rho_shared + rho_unshared

    disjoint = NEG_INF
    for l in range(1, m_s + 1, 2):
        for u in range(1, m_s + 1, 2):
            t = (_lb(m_s, l) + _lb(m_s, u)
                 + _lb(n - 2 * m_s, wp - l - u) - _lb(n, wp))
            disjoint = np.logaddexp2(disjoint, t)
    rho0 = float(2.0 ** disjoint)
    return rho1, rho0


def _times(count: int, log: float) -> float:
    """count * log, with 0 * log2(0) taken as 0."""
    return count * log if count else 0.0


def count_tails(n: int, ell: int, wlw: int, p_i: float, p_j: float):
    """(pi_counts, pj_counts, pi_ge, pj_le, p_i_ge_j) over ell pairs for
    wlw tracked I-bits, every entry from x = 0 to ell:

    pi_counts[x], pj_counts[x]: log2 P[an I-bit / a J-bit set exactly x
    times]; pi_ge[x]: all I-bits set >= x times, one exactly x; pj_le[x]:
    all n - wlw J-bits set <= x times; p_i_ge_j is estimator._p_i_ge_j.
    """
    log_pi, log_qi = _safe_log2(p_i), _safe_log2(1 - p_i)
    log_pj, log_qj = _safe_log2(p_j), _safe_log2(1 - p_j)
    pi_counts = [_lb(ell, x) + _times(x, log_pi) + _times(ell - x, log_qi)
                 for x in range(ell + 1)]
    pj_counts = [_lb(ell, x) + _times(x, log_pj) + _times(ell - x, log_qj)
                 for x in range(ell + 1)]

    pi_tail = [log2_sum(pi_counts[x:]) for x in range(ell + 2)]
    pi_ge = []
    for x in range(ell + 1):
        hi, lo = pi_tail[x], pi_tail[x + 1]
        pi_ge.append(log2_pow_diff(hi, lo, wlw))
    pj_cdf = [log2_sum(pj_counts[:x + 1]) for x in range(ell + 1)]
    pj_le = [min(0.0, (n - wlw) * c) if c != NEG_INF else NEG_INF
             for c in pj_cdf]

    p_i_ge_j = log2_sum(
        pj_le[i] + pi_ge[i + 1] for i in range(ell) if pi_ge[i + 1] != NEG_INF)
    return pi_counts, pj_counts, pi_ge, pj_le, p_i_ge_j


def log2_pow_diff(hi: float, lo: float, power: float) -> float:
    """log2(2^(hi*power) - 2^(lo*power)) for hi >= lo, both <= 0."""
    if hi == NEG_INF:
        return NEG_INF
    if lo == NEG_INF:
        return power * hi
    a, b = power * hi, power * lo
    if b - a < -60:
        return a
    diff = -math.expm1((b - a) * LN2)
    if diff <= 0.0:
        return NEG_INF
    return a + math.log2(diff)


def p_i_ge_j_scalar(n: int, ell: int, wlw: int, p_i: float,
                    p_j: float) -> float:
    """estimator._p_i_ge_j at one point, building only the count and tail
    entries that its sum reads."""
    log_pi, log_qi = _safe_log2(p_i), _safe_log2(1 - p_i)
    log_pj, log_qj = _safe_log2(p_j), _safe_log2(1 - p_j)
    # P[an I-bit is set exactly x times], x = 1..ell; a J-bit, x = 0..ell-1
    pi_counts = [_lb(ell, x) + _times(x, log_pi) + _times(ell - x, log_qi)
                 for x in range(1, ell + 1)]
    pj_counts = [_lb(ell, x) + _times(x, log_pj) + _times(ell - x, log_qj)
                 for x in range(ell)]
    # P[an I-bit is set >= x times], x = 1..ell + 1
    pi_tail = [log2_sum(pi_counts[x:]) for x in range(ell + 1)]
    total = []
    for x in range(ell):
        # all I-bits set >= x + 1 times, one exactly x + 1 ...
        pi_ge = log2_pow_diff(pi_tail[x], pi_tail[x + 1], wlw)
        if pi_ge == NEG_INF:
            continue
        # ... and all J-bits set <= x times
        cdf = log2_sum(pj_counts[:x + 1])
        pj_le = min(0.0, (n - wlw) * cdf) if cdf != NEG_INF else NEG_INF
        total.append(pj_le + pi_ge)
    return log2_sum(total)


def sia_wf_scalar(params) -> SiaEstimate:
    """estimator.sia_wf one (L, w_L) point at a time, from the scalar
    oracles and an AND distribution extended by and_step_loop."""
    rows = _codeword_row_parities(params)
    bits = {w_l: _bit_probabilities(params, w_l, rows)
            for w_l in range(params.z, params.w + 1)}
    and_dist = and_weight_dist_loop(params.r, [params.w])
    best = (math.inf, 2, params.z)
    for ell in range(2, _SIA_MAX_COLLECTED + 1):
        and_dist = and_step_loop(params.r, and_dist, params.w, params.w + 1)
        for w_l, (_, p_i, _, p_j) in bits.items():
            p_igej = p_i_ge_j_scalar(params.n, ell, params.m_S * w_l, p_i, p_j)
            wf = _sia_wf_at(params, ell, w_l, float(and_dist[w_l]), p_igej)
            if wf < best[0]:
                best = (wf, ell, w_l)
    return SiaEstimate(*best)


def sia_bound_scalar(params, ell: int, w_l: int, p_and_log2: float) -> float:
    """sia_wf's lower bound B at one (L, w_L), written out from
    _sia_wf_at's own terms: max(c_ij, ((c_s1 - p_and) + lb(r, w_L)) -
    lb(w, w_L)), inf where p_and is -inf."""
    w, r, n = params.w, params.r, params.n
    c_s1 = math.log2((ell - 1) * w)
    c_ij = math.log2((ell - 1) * n * math.ceil(math.log2(ell))
                     + params.m_S * w_l * r)
    return max(c_ij, ((c_s1 - p_and_log2) + _lb(r, w_l)) - _lb(w, w_l))


def lca_wf_scalar(params) -> LcaEstimate:
    """estimator.lca_wf with its XOR steps from xor_step_loop."""
    w, r, k, m_g = params.w, params.r, params.k, params.m_g
    w_sigma = (params.w + params.w_c) * params.m_S
    best, best_l = math.inf, 2
    syndrome, info = np.full(r + 1, NEG_INF), np.full(k + 1, NEG_INF)
    syndrome[w], info[m_g] = 0.0, 0.0
    for ell in range(2, _LCA_MAX_COMBINATIONS + 1):
        syndrome = xor_step_loop(r, syndrome, w)
        info = xor_step_loop(k, info, m_g)
        p_syndrome = float(syndrome[w])
        p_info = log2_sum(info[:m_g + 1])
        if p_syndrome == NEG_INF or p_info == NEG_INF:
            continue
        cost = math.log2((ell - 1) * w + (ell - 1) * w_sigma)
        wf = cost - p_syndrome - p_info
        if wf < best:
            best, best_l = wf, ell
    return LcaEstimate(best, best_l)


# ---------------------------------------------------------------------------
# full-range coincidence separation


def binom_logpmfs_full(count: int, probs) -> list[np.ndarray]:
    """Natural-log Binomial(count, prob) pmfs over every x = 0..count."""
    x = np.arange(count + 1, dtype=np.float64)
    log_fact = gammaln(x + 1)
    return [log_fact[-1] - log_fact - log_fact[::-1]
            + x * math.log(prob) + (count - x) * math.log1p(-prob)
            for prob in probs]


def coincidence_separation_full(params, collected: int,
                                rhos) -> tuple[float, float]:
    """(q_v, rho_v) of estimator._coincidence_separation, summed over the
    whole range x = 0..collected."""
    n = params.n
    m2 = params.m_S * (params.m_S - 1) // 2
    n_bg = n * (n - 1) // 2 - n * m2
    logpmf1, logpmf0 = binom_logpmfs_full(collected, rhos)

    cdf1_incl = np.minimum(np.logaddexp.accumulate(logpmf1), 0.0)
    cdf1_excl = np.concatenate(([-np.inf], cdf1_incl[:-1]))
    with np.errstate(invalid="ignore"):
        delta = np.where(cdf1_excl == -np.inf, -np.inf, cdf1_excl - cdf1_incl)
    pmf_max = np.exp(m2 * cdf1_incl) * (-np.expm1(
        np.where(delta == -np.inf, -np.inf, m2 * delta)))

    tail0 = np.minimum(np.logaddexp.accumulate(logpmf0[::-1])[::-1], 0.0)
    with np.errstate(divide="ignore"):
        exponent = n_bg * np.log1p(-np.exp(tail0))
    q_v = float(np.sum(pmf_max * -np.expm1(exponent)))
    rho_v = float(np.sum(pmf_max * np.exp(exponent)))
    return q_v, rho_v


# ---------------------------------------------------------------------------
# per-point Stern cost and its grid-plus-climb search


def stern_success_log2_scalar(n: int, k: int, w: int, l: int, j: int) -> float:
    """log2 of the per-iteration success probability of Stern's algorithm."""
    num = (_lb(w, 2 * j) + _lb(n - w, k - 2 * j) + _lb(2 * j, j)
           + _lb(n - k - w + 2 * j, l))
    den = 2 * j + _lb(n, k) + _lb(n - k, l)
    if num == NEG_INF or den == NEG_INF:
        return NEG_INF
    return min(num - den, 0.0)


def stern_iteration_cost_log2_scalar(n: int, k: int, l: int, j: int) -> float:
    """log2 of c_it + c_inv for one (reversible) Stern iteration."""
    c_inv = math.log2(0.5 * (n - k) ** 3 + k * (n - k) ** 2)
    terms = [c_inv]
    if j > 0:
        lbkj = _lb(k / 2.0, j)
        if l > 0:
            terms.append(math.log2(2 * l * j) + lbkj)
        terms.append(math.log2(2 * j * (n - k)) + 2 * lbkj - l)
    return log2_sum(terms)


def stern_wf_scalar(n: int, k: int, w: int, l: int, j: int) -> float:
    """estimator._stern_wf at one (l, j)."""
    pe = stern_success_log2_scalar(n, k, w, l, j)
    if pe == NEG_INF:
        return math.inf
    iters = _GROVER_PREFACTOR_LOG2 + 0.5 * (-_P_INV_LOG2 - pe)
    return iters + stern_iteration_cost_log2_scalar(n, k, l, j)


def quantum_stern_wf_climb(target) -> tuple[float, SternParams]:
    """estimator.quantum_stern_wf as a step-4 grid over j <= min(w/2, 40),
    l <= 120, refined by a greedy hill climb with growing steps."""
    n, k, w = target.n, target.k, target.w_target
    best = (math.inf, SternParams(0, 0))
    for j in range(0, min(w // 2, 40) + 1):
        for l in range(0, 121, 4):
            wf = stern_wf_scalar(n, k, w, l, j)
            if wf < best[0]:
                best = (wf, SternParams(l, j))
    improved = True
    while improved:
        improved = False
        l0, j0 = best[1].l, best[1].j
        for dl in (-64, -16, -4, -1, 1, 4, 16, 64):
            for dj in (-2, -1, 0, 1, 2):
                l, j = l0 + dl, j0 + dj
                if l < 0 or j < 0 or 2 * j > w or l > n - k:
                    continue
                wf = stern_wf_scalar(n, k, w, l, j)
                if wf < best[0] - 1e-12:
                    best = (wf, SternParams(l, j))
                    improved = True
    return best[0] - _speedup_log2(target), best[1]
