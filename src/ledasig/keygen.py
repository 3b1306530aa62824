"""Key generation: sparse generator, structured scrambling factors and
the dense quasi-cyclic public key.

The private key is kept in factored form.  S = PiLambda . (E x I_p) . PiPhi
with E an invertible circulant over n0 and PiLambda/PiPhi generalized
permutations, so S^-1 costs one small polynomial inversion.  Q = M + R with
M a generalized permutation and R = (A . B^T) x 1_{pxp} of rank at most z;
Q^-1 = M^T + (Pi^T A D^-1 B^T Pi^T) x 1_{pxp} via the Woodbury identity,
where D = I_z + B^T Pi^T A for odd p and D = I_z for even p.

Signing applies S to sparse supports (apply_s), which packs S . x^T
straight into the signature's wire layout.  The public key needs S^-1
only through S^-T = PiLambda . (E^-T x I_p) . PiPhi, which has the shape
of S, so build_public_key runs the same chain with E^-T in place of E.
It packs each block row of H' straight into PublicKey.words, the key's
wire payload and the one form it is held in.

Everything is derived deterministically from a seed: the sampler call
order below is fixed and replaying a seed reproduces the key bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .drbg import Xof
from .errors import DimensionError, NotInvertible, Singular
from .packed import PackedQc
from .params import SysParams
from .qc import (DenseBitMatrix, GenPermutation, PackedVector, QcMatrix,
                 dense_invert, genperm_from_left, genperm_from_right,
                 inverse_int, invert_perm, pack_blocks, padding_clear,
                 transpose_int)


@dataclass(frozen=True)
class SFactors:
    """Factors of the row/column scrambler S (all sizes over n0 blocks)."""

    lam_rots: tuple[int, ...]
    phi_rots: tuple[int, ...]
    perm1: tuple[int, ...]
    perm2: tuple[int, ...]
    e_poly: int
    e_inv: int


@dataclass(frozen=True)
class QFactors:
    """Factors of the syndrome scrambler Q (all sizes over r0 blocks)."""

    perm: tuple[int, ...]
    psi_rots: tuple[int, ...]
    a: DenseBitMatrix          # r0 x z
    b: DenseBitMatrix          # r0 x z
    d_inv: DenseBitMatrix      # z x z


@dataclass(eq=False)
class PrivateKey:
    """Factored private key; treated as immutable after construction."""

    params: SysParams
    seed: bytes
    v: QcMatrix                # k0 x r0 grid of circulant permutations
    s: SFactors
    q: QFactors

    def __eq__(self, other):
        return (isinstance(other, PrivateKey)
                and (self.params, self.seed, self.v, self.s, self.q)
                == (other.params, other.seed, other.v, other.s, other.q))

    @cached_property
    def pi_lambda(self) -> GenPermutation:
        return genperm_from_left(list(self.s.perm1), list(self.s.lam_rots),
                                 self.params.p)

    @cached_property
    def pi_phi(self) -> GenPermutation:
        return genperm_from_right(list(self.s.perm2), list(self.s.phi_rots),
                                  self.params.p)

    @cached_property
    def m_perm(self) -> GenPermutation:
        return genperm_from_right(list(self.q.perm), list(self.q.psi_rots),
                                  self.params.p)

    @cached_property
    def v_row_structure(self):
        """Per block row: (block column indices, rotation exponents)."""
        cols, rots = [], []
        for row in self.v.blocks:
            cc = np.array([j for j, b in enumerate(row) if b], dtype=np.int64)
            tt = np.array([row[j].bit_length() - 1 for j in cc], dtype=np.int64)
            cols.append(cc)
            rots.append(tt)
        return cols, rots


@dataclass(eq=False)
class PublicKey:
    """H' as its wire payload, read-only: words[i, j] is block (i, j)."""

    params: SysParams
    words: np.ndarray          # (r0, n0, ceil(p/64)) '<u8'
    _packed: PackedQc | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        prm = self.params
        if self.words.shape != (prm.r0, prm.n0, prm.block_bytes // 8):
            raise DimensionError("key is not r0 x n0 blocks of ceil(p/64) words")
        if not padding_clear(self.words, prm.p):
            raise DimensionError("bit set at or above p in a block")
        self.words.flags.writeable = False

    @property
    def packed(self) -> PackedQc:
        if self._packed is None:
            self._packed = PackedQc(self.words, self.params.p)
        return self._packed

    def __eq__(self, other):
        return (isinstance(other, PublicKey) and self.params == other.params
                and np.array_equal(self.words, other.words))


# ---------------------------------------------------------------------------
# generation of the individual factors


def gen_v(params: SysParams, xof: Xof) -> QcMatrix:
    """Sparse k0 x r0 grid with w_g - 1 circulant permutations per row."""
    rows = []
    for _ in range(params.k0):
        row = [0] * params.r0
        for col in xof.distinct(params.r0, params.w_g - 1):
            row[col] = 1 << xof.rotation(params.p)
        rows.append(tuple(row))
    return QcMatrix(params.k0, params.r0, params.p, tuple(rows))


def gen_s(params: SysParams, xof: Xof) -> SFactors:
    n0 = params.n0
    while True:
        e_poly = xof.sparse_poly(n0, params.m_S)
        try:
            e_inv = inverse_int(e_poly, n0)
        except NotInvertible:
            # unreachable when ord_{n0}(2) = n0 - 1 and m_S is odd
            continue
        break
    perm1 = tuple(xof.permutation(n0))
    perm2 = tuple(xof.permutation(n0))
    lam, phi = [], []
    for _ in range(n0):
        lam.append(xof.rotation(params.p))
        phi.append(xof.rotation(params.p))
    return SFactors(tuple(lam), tuple(phi), perm1, perm2, e_poly, e_inv)


def compute_d(params: SysParams, perm, a: DenseBitMatrix,
              b: DenseBitMatrix) -> DenseBitMatrix:
    """D = I_z + B^T Pi^T A for odd p, I_z for even p."""
    z = params.z
    if params.p % 2 == 0:
        return DenseBitMatrix.identity(z)
    inv_perm = invert_perm(perm)
    d_rows = []
    for i in range(z):
        row = 0
        for j in range(z):
            acc = 1 if i == j else 0
            for k in range(params.r0):
                acc ^= ((b.row_bits[k] >> i)
                        & (a.row_bits[inv_perm[k]] >> j) & 1)
            row |= acc << j
        d_rows.append(row)
    return DenseBitMatrix.from_rows(d_rows, z)


def gen_q(params: SysParams, xof: Xof) -> QFactors:
    r0, z, p = params.r0, params.z, params.p
    while True:
        perm = tuple(xof.permutation(r0))
        a = DenseBitMatrix.from_rows(xof.bit_matrix(r0, z), z)
        b = DenseBitMatrix.from_rows(xof.bit_matrix(r0, z), z)
        try:
            d_inv = dense_invert(compute_d(params, perm, a, b))
        except Singular:
            continue
        psi = tuple(xof.rotation(p) for _ in range(r0))
        return QFactors(perm, psi, a, b, d_inv)


# ---------------------------------------------------------------------------
# the scrambler chain PiLambda . (C(e) x I_p) . PiPhi on sparse supports


def _support(poly: int, n: int) -> np.ndarray:
    return np.array([d for d in range(n) if (poly >> d) & 1], dtype=np.int64)


def _scramble(sk: PrivateKey, e_poly: int, pos: np.ndarray) -> np.ndarray:
    """Bits of PiLambda . (C(e_poly) x I_p) . PiPhi . x^T, x given by support.

    C(e_poly) is the n0 x n0 circulant of e_poly: output block b - d
    collects input block b for every d in the support of e_poly.  Positions
    keep their order and repeats until one parity count at the end.
    """
    prm = sk.params
    p, n0 = prm.p, prm.n0
    blk, o = np.divmod(sk.pi_phi.apply(pos), p)
    mixed = ((blk[:, None] - _support(e_poly, n0)) % n0) * p + o[:, None]
    counts = np.bincount(sk.pi_lambda.apply(mixed.ravel()), minlength=prm.n)
    counts &= 1
    return counts.astype(bool)


def apply_s(sk: PrivateKey, pos: np.ndarray) -> PackedVector:
    """S . x^T (column action) for x given by support, in the wire layout."""
    prm = sk.params
    bits = _scramble(sk, sk.s.e_poly, pos)
    return PackedVector.from_bits(bits.reshape(prm.n0, prm.p))


def q_correction_mask(q: QFactors, r0: int) -> np.ndarray:
    """Dense r0 x r0 matrix K = Pi^T A D^-1 B^T Pi^T of the rank-z term."""
    z = q.a.cols
    inv_perm = invert_perm(q.perm)
    pa = np.array([[q.a.get(inv_perm[k], j) for j in range(z)]
                   for k in range(r0)], dtype=np.uint8)
    dinv = np.array([[q.d_inv.get(i, j) for j in range(z)]
                     for i in range(z)], dtype=np.uint8)
    btp = np.array([[q.b.get(q.perm[j], i) for j in range(r0)]
                    for i in range(z)], dtype=np.uint8)
    return (pa @ dinv @ btp) & 1


# ---------------------------------------------------------------------------
# public key


def build_public_key(sk: PrivateKey) -> PublicKey:
    """Dense grid [Q^-1 V^T | Q^-1] . S^-1 built without expanding Q^-1 or S.

    Row i of H' is S^-T applied to row i of Q^-1 H, with H = [V^T | I_r].
    Q^-1 H = M^T H + (K x 1_{pxp}) H.  The first term has single-coefficient
    blocks, whose first rows go through the scrambler chain with E^-T.  The
    second has all-ones blocks, which rotations leave unchanged, so they
    travel as one flag per block through the block maps and E^-T.
    """
    prm = sk.params
    p, n0, r0, k0 = prm.p, prm.n0, prm.r0, prm.k0
    kmat = q_correction_mask(sk.q, r0)
    e_t = transpose_int(sk.s.e_inv, n0)

    # all-ones flags of (K x 1_{pxp}) H, then PiPhi, E^-T and PiLambda
    nzv = np.array([[1 if b else 0 for b in row] for row in sk.v.blocks],
                   dtype=np.uint8)
    flags = np.empty((r0, n0), dtype=np.uint8)
    flags[:, :k0] = (kmat @ nzv.T) & 1
    flags[:, k0:] = kmat
    phi = np.empty_like(flags)
    phi[:, sk.pi_phi.block_perm] = flags
    mixed = sum(np.roll(phi, -d, axis=1) for d in _support(e_t, n0)) & 1
    ones = np.empty((r0, n0), dtype=bool)
    ones[:, sk.pi_lambda.block_perm] = mixed

    words = np.empty((r0, n0, prm.block_bytes // 8), dtype="<u8")
    for i, ki in enumerate(invert_perm(sk.q.perm)):
        # first row of block row i of M^T H: one coefficient per block
        rot = -sk.q.psi_rots[i]
        sup = [j * p + (rot - blk.bit_length() + 1) % p
               for j, blk in enumerate(vrow[ki] for vrow in sk.v.blocks) if blk]
        sup.append((k0 + ki) * p + rot % p)
        bits = _scramble(sk, e_t, np.array(sup, dtype=np.int64)).reshape(n0, p)
        bits ^= ones[i][:, None]
        words[i] = pack_blocks(bits)
    return PublicKey(prm, words)


# ---------------------------------------------------------------------------
# seed expansion


def private_key_from_seed(seed: bytes, params: SysParams) -> PrivateKey:
    """Expand only the private half (verification key not materialized)."""
    if len(seed) != params.seed_bytes:
        raise ValueError(
            f"seed must be {params.seed_bytes} bytes for category "
            f"{params.category}, got {len(seed)}")
    xof = Xof(seed)
    v = gen_v(params, xof)
    s = gen_s(params, xof)
    q = gen_q(params, xof)
    return PrivateKey(params=params, seed=bytes(seed), v=v, s=s, q=q)


def keypair_from_seed(seed: bytes, params: SysParams) -> tuple[PrivateKey, PublicKey]:
    """Deterministic keypair: same seed and params give identical bits."""
    sk = private_key_from_seed(seed, params)
    return sk, build_public_key(sk)
