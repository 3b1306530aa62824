"""Key generation: sparse generator, structured scrambling factors and
the dense quasi-cyclic public key.

The private key is kept in factored form.  S = PiLambda . (E x I_p) . PiPhi
with E an invertible circulant over n0 and PiLambda/PiPhi generalized
permutations, so S^-1 costs one small polynomial inversion.  Q = M + R with
M a generalized permutation and R = (A . B^T) x 1_{pxp} of rank at most z;
Q^-1 = M^T + (Pi^T A D^-1 B^T Pi^T) x 1_{pxp} via the Woodbury identity,
where D = I_z + B^T Pi^T A for odd p and D = I_z for even p.

Each factor has one array form, shared by signing, build_public_key and
both private-key codecs.  V, a k0 x r0 grid with w_g - 1 circulant
permutations x^t per block row, is the pair (cols, rots) of (k0, w_g - 1)
int64 arrays, columns ascending in each row.  A and B are (r0, z) and
D^-1 is (z, z) 0/1 uint8 arrays, so D, the rank-z mask K and the
signer's kernel test are small matrix products.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .drbg import Xof
from .errors import DimensionError, NotInvertible, Singular
from .packed import PackedQc
from .params import SysParams
from .qc import (GenPermutation, PackedVector, dense_invert,
                 genperm_from_left, genperm_from_right, inverse_int,
                 invert_perm, odd_bits, pack_blocks, padding_clear,
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


@dataclass(frozen=True, eq=False)
class QFactors:
    """Factors of the syndrome scrambler Q (all sizes over r0 blocks).

    a, b and d_inv are 0/1 uint8 arrays; PrivateKey compares them.
    """

    perm: tuple[int, ...]
    psi_rots: tuple[int, ...]
    a: np.ndarray              # (r0, z)
    b: np.ndarray              # (r0, z)
    d_inv: np.ndarray          # (z, z)


@dataclass(eq=False)
class PrivateKey:
    """Factored private key; treated as immutable after construction.

    v is V as (cols, rots), two (k0, w_g - 1) int64 arrays: block row i of
    V holds x^rots[i, j] at block column cols[i, j], columns ascending.
    """

    params: SysParams
    seed: bytes
    v: tuple[np.ndarray, np.ndarray]
    s: SFactors
    q: QFactors

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (*self.v, self.q.a, self.q.b, self.q.d_inv)

    def __eq__(self, other):
        return (isinstance(other, PrivateKey)
                and (self.params, self.seed, self.s, self.q.perm,
                     self.q.psi_rots)
                == (other.params, other.seed, other.s, other.q.perm,
                    other.q.psi_rots)
                and all(map(np.array_equal, self._arrays(), other._arrays())))

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


@dataclass(eq=False)
class PublicKey:
    """H' as its wire payload, read-only: words[i, j] is block (i, j)."""

    params: SysParams
    words: np.ndarray          # (r0, n0, ceil(p/64)) '<u8'

    def __post_init__(self):
        prm = self.params
        if self.words.shape != (prm.r0, prm.n0, prm.block_bytes // 8):
            raise DimensionError("key is not r0 x n0 blocks of ceil(p/64) words")
        if not padding_clear(self.words, prm.p):
            raise DimensionError("bit set at or above p in a block")
        self.words.flags.writeable = False

    @cached_property
    def packed(self) -> PackedQc:
        return PackedQc(self.words, self.params.p)

    def __eq__(self, other):
        return (isinstance(other, PublicKey) and self.params == other.params
                and np.array_equal(self.words, other.words))


# ---------------------------------------------------------------------------
# generation of the individual factors


def gen_v(params: SysParams, xof: Xof) -> tuple[np.ndarray, np.ndarray]:
    """Sparse k0 x r0 grid with w_g - 1 circulant permutations per row.

    Each row draws its columns, then one rotation per column in draw
    order; the row is then sorted by column.
    """
    shape = (params.k0, params.w_g - 1)
    cols = np.empty(shape, dtype=np.int64)
    rots = np.empty(shape, dtype=np.int64)
    for i in range(params.k0):
        cols[i] = xof.distinct(params.r0, params.w_g - 1)
        rots[i] = [xof.rotation(params.p) for _ in range(shape[1])]
    return sort_v_rows(cols, rots)


def sort_v_rows(cols: np.ndarray,
                rots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V's entries with each row sorted by column, as int64 arrays."""
    order = np.argsort(cols, axis=1)
    return (np.take_along_axis(cols, order, axis=1).astype(np.int64),
            np.take_along_axis(rots, order, axis=1).astype(np.int64))


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


def compute_d(params: SysParams, perm, a: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """D = I_z + B^T Pi^T A for odd p, I_z for even p.

    The uint8 products wrap mod 256, which keeps their parity.
    """
    eye = np.eye(params.z, dtype=np.uint8)
    if params.p % 2 == 0:
        return eye
    return (eye + b.T @ a[invert_perm(perm)]) & 1


def gen_q(params: SysParams, xof: Xof) -> QFactors:
    r0, z, p = params.r0, params.z, params.p
    while True:
        perm = tuple(xof.permutation(r0))
        a = xof.bit_matrix(r0, z)
        b = xof.bit_matrix(r0, z)
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
    keep their order and repeats until one parity at the end, so a position
    repeated in pos cancels.
    """
    prm = sk.params
    p, n0 = prm.p, prm.n0
    blk, o = np.divmod(sk.pi_phi.apply(pos), p)
    mixed = ((blk[:, None] - _support(e_poly, n0)) % n0) * p + o[:, None]
    return odd_bits(sk.pi_lambda.apply(mixed.ravel()), prm.n)


def apply_s(sk: PrivateKey, pos: np.ndarray) -> PackedVector:
    """S . x^T (column action) in the wire layout.

    x is the sum of the unit vectors at pos, so a repeated position cancels.
    """
    prm = sk.params
    bits = _scramble(sk, sk.s.e_poly, pos)
    return PackedVector.from_bits(bits.reshape(prm.n0, prm.p))


def q_correction_mask(q: QFactors) -> np.ndarray:
    """Dense r0 x r0 matrix K = Pi^T A D^-1 B^T Pi^T of the rank-z term."""
    return (q.a[invert_perm(q.perm)] @ q.d_inv @ q.b[list(q.perm)].T) & 1


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
    kmat = q_correction_mask(sk.q)
    e_t = transpose_int(sk.s.e_inv, n0)
    cols, rots = sk.v

    # all-ones flags of (K x 1_{pxp}) H, then PiPhi, E^-T and PiLambda
    nzv = np.zeros((k0, r0), dtype=np.uint8)
    np.put_along_axis(nzv, cols, 1, axis=1)
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
        rows, slots = np.nonzero(cols == ki)
        sup = np.append(rows * p + (rot - rots[rows, slots]) % p,
                        (k0 + ki) * p + rot % p)
        bits = _scramble(sk, e_t, sup).reshape(n0, p)
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
