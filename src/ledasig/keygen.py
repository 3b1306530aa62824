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
int64 arrays, columns ascending in each row.  The permutations and
rotations of S and Q are int64 arrays too, inverted by np.argsort, and
so are the ascending block shifts of the circulants E and E^-1.  A and
B are (r0, z) and D^-1 is (z, z) 0/1 uint8 arrays, so D, the rank-z mask
K and the signer's kernel test are small matrix products.

The sparse quasi-cyclic operators V, M and S are each one (blocks, rots)
table, applied by qc.qc_map.  S is the three factors composed once per
key into an (n0, m_S) table; signing applies it to sparse supports
(apply_s) and packs S . x^T straight into the signature's wire layout.
The public key needs S^-1 only through S^-T = PiLambda . (E^-T x I_p) .
PiPhi, which has the shape of S, so build_public_key composes the same
table with E^-T in place of E, and reads M^T off M's table.  It packs
each block row of H' straight into PublicKey.words, the key's wire
payload and the one form it is held in.

Everything is derived deterministically from a seed: the sampler call
order below is fixed and replaying a seed reproduces the key bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .drbg import Xof, shuffle_rows
from .errors import DimensionError, NotInvertible, Singular
from .packed import PackedQc, index_cap
from .params import SysParams
from .qc import (PackedVector, dense_invert, inverse_shifts, odd_bits,
                 odd_positions, pack_blocks, padding_clear, qc_map,
                 sorts_faster)


@dataclass(frozen=True, eq=False)
class SFactors:
    """Factors of the row/column scrambler S (all sizes over n0 blocks)."""

    lam_rots: np.ndarray       # (n0,) int64, like the next three
    phi_rots: np.ndarray
    perm1: np.ndarray
    perm2: np.ndarray
    e: np.ndarray              # (m_S,) ascending block shifts of E
    e_inv: np.ndarray          # E^-1's block shifts, ascending


@dataclass(frozen=True, eq=False)
class QFactors:
    """Factors of the syndrome scrambler Q (all sizes over r0 blocks)."""

    perm: np.ndarray           # (r0,) int64, like psi_rots
    psi_rots: np.ndarray
    a: np.ndarray              # (r0, z) 0/1 uint8, like b and d_inv
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

    def _arrays(self) -> tuple:
        s, q = self.s, self.q
        return (*self.v, s.lam_rots, s.phi_rots, s.perm1, s.perm2, s.e,
                s.e_inv, q.perm, q.psi_rots, q.a, q.b, q.d_inv)

    def __eq__(self, other):
        return (isinstance(other, PrivateKey)
                and (self.params, self.seed) == (other.params, other.seed)
                and all(map(np.array_equal, self._arrays(), other._arrays())))

    @cached_property
    def s_map(self) -> tuple[np.ndarray, np.ndarray]:
        """S as its (n0, m_S) (blocks, rots) table."""
        return scrambler_map(self, self.s.e)

    @cached_property
    def m_map(self) -> tuple[np.ndarray, np.ndarray]:
        """M = (P x I_p) . Diag(x^psi) as its (r0, 1) (blocks, rots) table.

        P[i][j] = 1 iff j = perm[i], so block b goes to perm^-1[b],
        rotated by -psi[b].
        """
        perm, psi = self.q.perm, self.q.psi_rots
        return np.argsort(perm)[:, None], -psi[:, None] % self.params.p


@dataclass(eq=False)
class PublicKey:
    """H' as its wire payload, read-only: words[i, j] is block (i, j).

    sparse_rows is what build_public_key hands to the packed key: the
    blocks' all-ones flags and sparse parts as packed's sparse rows.  It
    is None for a decoded key; building the packed key rewrites its
    positions into the product's read-only index in place, and a later
    PackedQc given them reads the words instead.
    """

    params: SysParams
    words: np.ndarray          # (r0, n0, ceil(p/64)) '<u8'
    sparse_rows: tuple | None = field(default=None, compare=False,
                                      repr=False)

    def __post_init__(self):
        prm = self.params
        if self.words.shape != (prm.r0, prm.n0, prm.block_bytes // 8):
            raise DimensionError("key is not r0 x n0 blocks of ceil(p/64) words")
        if not padding_clear(self.words, prm.p):
            raise DimensionError("bit set at or above p in a block")
        self.words.flags.writeable = False

    @cached_property
    def packed(self) -> PackedQc:
        return PackedQc(self.words, self.params.p, self.sparse_rows)

    def __eq__(self, other):
        return (isinstance(other, PublicKey) and self.params == other.params
                and np.array_equal(self.words, other.words))


# ---------------------------------------------------------------------------
# generation of the individual factors


def gen_v(params: SysParams, xof: Xof) -> tuple[np.ndarray, np.ndarray]:
    """Sparse k0 x r0 grid with w_g - 1 circulant permutations per row.

    Each row draws its columns, then one rotation per column in draw
    order; the row is then sorted by column.  Every bound is known in
    advance, so all rows are drawn in one read and shuffled together.
    """
    k0, r0, slots = params.k0, params.r0, params.w_g - 1
    row_bounds = np.concatenate((r0 - np.arange(slots),
                                 np.full(slots, params.p)))
    draws = xof.below_each(np.tile(row_bounds, k0)).reshape(k0, 2 * slots)
    return sort_v_rows(shuffle_rows(r0, draws[:, :slots]),
                       draws[:, slots:])


def sort_v_rows(cols: np.ndarray,
                rots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V's entries with each row sorted by column, as int64 arrays."""
    order = np.argsort(cols, axis=1)
    return (np.take_along_axis(cols, order, axis=1).astype(np.int64),
            np.take_along_axis(rots, order, axis=1).astype(np.int64))


def gen_s(params: SysParams, xof: Xof) -> SFactors:
    n0 = params.n0
    while True:
        e = np.sort(xof.distinct(n0, params.m_S))
        try:
            e_inv = inverse_shifts(e, n0)
        except NotInvertible:
            # unreachable when ord_{n0}(2) = n0 - 1, m_S is odd and m_S < n0
            continue
        break
    perm1 = xof.permutation(n0)
    perm2 = xof.permutation(n0)
    # one (lambda, phi) pair per block, in stream order
    rots = xof.below_each(np.full(2 * n0, params.p))
    return SFactors(rots[0::2], rots[1::2], perm1, perm2, e, e_inv)


def compute_d(params: SysParams, perm, a: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """D = I_z + B^T Pi^T A for odd p, I_z for even p.

    The uint8 products wrap mod 256, which keeps their parity.
    """
    eye = np.eye(params.z, dtype=np.uint8)
    if params.p % 2 == 0:
        return eye
    return (eye + b.T @ a[np.argsort(perm)]) & 1


def gen_q(params: SysParams, xof: Xof) -> QFactors:
    r0, z, p = params.r0, params.z, params.p
    while True:
        perm = xof.permutation(r0)
        a = xof.bit_matrix(r0, z)
        b = xof.bit_matrix(r0, z)
        try:
            d_inv = dense_invert(compute_d(params, perm, a, b))
        except Singular:
            continue
        psi = xof.below_each(np.full(r0, p))
        return QFactors(perm, psi, a, b, d_inv)


# ---------------------------------------------------------------------------
# the scrambler PiLambda . (C(e) x I_p) . PiPhi as one table


def scrambler_map(sk: PrivateKey,
                  shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, rots) table of PiLambda . (C(e) x I_p) . PiPhi, supp(e) = shifts.

    PiPhi = (P2 x I_p) . Diag(x^phi) sends block b to perm2^-1[b] rotated
    by -phi[b]; C(e), the n0 x n0 circulant of e, sends block c to c - d
    for each d in shifts; PiLambda = Diag(x^lam) . (P1 x I_p) sends block
    c to c' = perm1^-1[c] rotated by -lam[c'].  The rotations add, so the
    product is one table with a column per shift.
    """
    s, p, n0 = sk.s, sk.params.p, sk.params.n0
    blocks = np.argsort(s.perm1)[(np.argsort(s.perm2)[:, None] - shifts) % n0]
    rots = (-s.phi_rots[:, None] - s.lam_rots[blocks]) % p
    return blocks, rots


def apply_s(sk: PrivateKey, pos: np.ndarray) -> PackedVector:
    """S . x^T (column action) in the wire layout.

    x is the sum of the unit vectors at pos, so a repeated position cancels.
    """
    prm = sk.params
    bits = odd_bits(qc_map(sk.s_map, pos, prm.p), prm.n)
    return PackedVector.from_bits(bits.reshape(prm.n0, prm.p))


def q_correction_mask(q: QFactors) -> np.ndarray:
    """Dense r0 x r0 matrix K = Pi^T A D^-1 B^T Pi^T of the rank-z term."""
    return (q.a[np.argsort(q.perm)] @ q.d_inv @ q.b[q.perm].T) & 1


# ---------------------------------------------------------------------------
# public key


def build_public_key(sk: PrivateKey) -> PublicKey:
    """Dense grid [Q^-1 V^T | Q^-1] . S^-1 built without expanding Q^-1 or S.

    Row i of H' is S^-T applied to row i of Q^-1 H, with H = [V^T | I_r].
    Q^-1 H = M^T H + (K x 1_{pxp}) H.  The first term has single-coefficient
    blocks, whose first rows go through the table of S^-T.  E^-T is the
    circulant of e_inv(x^-1), so its shifts are -e_inv mod n0.  The
    second term has all-ones blocks, which rotations leave unchanged, so
    each travels as one flag through the table's blocks alone.
    """
    prm = sk.params
    p, n0, r0, k0 = prm.p, prm.n0, prm.r0, prm.k0
    kmat = q_correction_mask(sk.q)
    s_t = scrambler_map(sk, -sk.s.e_inv % n0)
    cols, rots = sk.v

    # all-ones flags of (K x 1_{pxp}) H.  S^-T sends flag (i, b) to each
    # (i, blocks[b, j]); E^-T is dense, so their parity is taken as the
    # flags times the table's block incidence, not over a list of the
    # pairs.  The sums stay below n0, so float32 (BLAS) products are exact.
    nzv = np.zeros((k0, r0), dtype=np.uint8)
    np.put_along_axis(nzv, cols, 1, axis=1)
    flags = np.empty((r0, n0), dtype=np.uint8)
    flags[:, :k0] = (kmat @ nzv.T) & 1
    flags[:, k0:] = kmat
    incidence = np.zeros((n0, n0), dtype=np.float32)
    np.put_along_axis(incidence, s_t[0], 1, axis=1)
    ones = (flags @ incidence) % 2 == 1
    # V's entries in block column ki, row-major as np.nonzero lists them
    in_col = np.argsort(cols, axis=None, kind="stable")
    col_ends = np.searchsorted(cols.ravel()[in_col], np.arange(r0 + 1))

    words = np.empty((r0, n0, prm.block_bytes // 8), dtype="<u8")
    all_ones = pack_blocks(np.ones(p, dtype=bool))
    # each row's odd positions are its blocks' sparse parts; they are kept
    # for the packed key while they fit its index cap.  Row i scrambles
    # one support bit per entry of V in block column ki, plus one, into
    # one position per column of S^-T's table, so all rows hold at most
    # (cols.size + r0) * len(e_inv) of them.
    most = (cols.size + r0) * s_t[0].shape[1]
    sparse = np.empty(min(index_cap(words), most), dtype=np.int32)
    ends = [0]
    for i, ((ki,), (rot,)) in enumerate(zip(*sk.m_map)):
        # first row of block row i of M^T H: one coefficient per block
        rows, slots = np.divmod(in_col[col_ends[ki]:col_ends[ki + 1]],
                                cols.shape[1])
        sup = np.append(rows * p + (rot - rots[rows, slots]) % p,
                        (k0 + ki) * p + rot)
        scrambled = qc_map(s_t, sup, p)
        if ends and sorts_faster(scrambled.size, prm.n):
            odd = odd_positions(scrambled)
            bits = np.zeros(prm.n, dtype=bool)
            bits[odd.astype(np.intp)] = True
        else:
            odd, bits = None, odd_bits(scrambled, prm.n)
        if odd is not None and ends[-1] + odd.size <= sparse.size:
            sparse[ends[-1]:ends[-1] + odd.size] = odd
            ends.append(ends[-1] + odd.size)
        else:
            ends = []
        words[i] = pack_blocks(bits.reshape(n0, p))
        words[i, ones[i]] ^= all_ones
    return PublicKey(prm, words,
                     (ones, ends, sparse[:ends[-1]]) if ends else None)


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
