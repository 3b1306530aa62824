"""Signature generation.

A signature on m is sigma = (e + c) . S^T together with the 64-bit salt
Theta* that produced it.  The syndrome s = CW(H([m|Theta]), r, w) is
redrawn with fresh salts until it lies in the kernel of the rank-z part
of Q, which makes Q.s a pure permutation of s; the error vector is then
e = [0_k | (M.s)^T] and c is a random sparse codeword of weight close to
m_g * w_g.

sigma is held as its wire payload, a PackedVector of n0 blocks of
ceil(p/64) little-endian words: apply_s packs the scrambled parity
straight into it, the codec copies it, and the verifier's weight gate is
a popcount over it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .drbg import Xof, fisher_yates, fresh_xof
from .errors import RetryExhausted, ThetaExhausted
from .keygen import PrivateKey, apply_s
from .params import SysParams
from .qc import PackedVector, SparseVector, odd_positions, qc_map

THETA_MAX = (1 << 64) - 1
_THETA_ITER_CAP = 1 << 32
_CODEWORD_RETRY_CAP = 256

_HASHES = {1: hashlib.sha3_256, 3: hashlib.sha3_384, 5: hashlib.sha3_512}


@dataclass(frozen=True)
class Signature:
    sigma: PackedVector
    theta_star: int

    def __post_init__(self):
        if not 0 <= self.theta_star <= THETA_MAX:
            raise ValueError("theta must fit in 64 bits")


def absorb_message(message: bytes, params: SysParams):
    """The category's SHA-3 object with message absorbed, ready for salts."""
    h = _HASHES[params.category]()
    h.update(message)
    return h


def salted_digest(absorbed, theta: int) -> bytes:
    """Digest of an absorbed message followed by theta (8 bytes
    little-endian); absorbed itself is left as it was."""
    h = absorbed.copy()
    h.update(int(theta).to_bytes(8, "little"))
    return h.digest()


def hash_digest(message: bytes, theta: int, params: SysParams) -> bytes:
    """Category-matched digest of message || theta (8 bytes little-endian)."""
    return salted_digest(absorb_message(message, params), theta)


def cw_encode(digest: bytes, length: int, weight: int) -> SparseVector:
    """Deterministic constant-weight encoding of a digest.

    The digest keys a SHAKE-256 stream feeding a partial Fisher-Yates
    shuffle over [0, length); the multiply-shift reduction keeps every
    draw rejection-free with bias below 2^-64 per position.
    """
    if weight > length:
        raise ValueError("weight cannot exceed length")
    words = np.frombuffer(hashlib.shake_256(digest).digest(8 * weight), "<u8")
    steps = [(u * (length - i)) >> 64 for i, u in enumerate(words.tolist())]
    return SparseVector(length, tuple(sorted(fisher_yates(steps))))


def kernel_check(b: np.ndarray, s: SparseVector, p: int) -> bool:
    """True iff (B^T x 1_{1xp}) . s = 0, for B an (r0, z) 0/1 array.

    Column i of B selects length-p chunks of s; the condition holds when
    each selected chunk-weight sum is even.
    """
    chunks = np.asarray(s.support, dtype=np.int64) // p
    parity = np.bincount(chunks, minlength=len(b)) & 1
    return not ((parity @ b) & 1).any()


def codeword_weight_floor(params: SysParams) -> int:
    """Smallest accepted codeword weight.

    Summing m_g generator rows loses 2 bits per overlapping pair; the
    overlap count is close to Poisson with mean mu = C(m_g,2)(w_g-1)^2/r,
    so the floor allows m_g + mu + 3*sqrt(mu) cancellations.  For the
    sparsest instances mu is well above m_g, which makes a fixed
    m_g-cancellation window unreachable.
    """
    m_g, w_g = params.m_g, params.w_g
    mu = m_g * (m_g - 1) / 2 * (w_g - 1) ** 2 / params.r
    slack = m_g + math.ceil(mu + 3 * math.sqrt(mu))
    return max(m_g, m_g * w_g - 2 * slack)


def gen_codeword(sk: PrivateKey, xof: Xof) -> np.ndarray:
    """Support of a random codeword with weight close to m_g * w_g."""
    prm = sk.params
    p, k = prm.p, prm.k
    target = prm.m_g * prm.w_g
    floor = codeword_weight_floor(prm)
    for _ in range(_CODEWORD_RETRY_CAP):
        u = xof.distinct(k, prm.m_g)
        right = odd_positions(qc_map(sk.v, u, p))
        weight = prm.m_g + len(right)
        if floor <= weight <= target:
            return np.concatenate((np.sort(u), right + k))
    raise RetryExhausted(
        f"no codeword reached weight window after {_CODEWORD_RETRY_CAP} draws")


def gen_error(sk: PrivateKey, message: bytes, xof: Xof):
    """Salt search: returns (theta_star, e support, syndrome s).

    The message is hashed once; each salt trial adds theta to a copy.
    """
    prm = sk.params
    absorbed = absorb_message(message, prm)
    for _ in range(_THETA_ITER_CAP):
        theta = xof.u64()
        s = cw_encode(salted_digest(absorbed, theta), prm.r, prm.w)
        if kernel_check(sk.q.b, s, prm.p):
            s_perm = qc_map(sk.m_map, np.asarray(s.support, dtype=np.int64),
                            prm.p)
            return theta, s_perm + prm.k, s
    raise ThetaExhausted("no salt passed the kernel test")


def sign(sk: PrivateKey, message: bytes, rng: Xof | None = None) -> Signature:
    """Produce a signature; rng only controls salt and codeword choice."""
    xof = rng if rng is not None else fresh_xof()
    c_sup = gen_codeword(sk, xof)
    theta_star, e_sup, _ = gen_error(sk, message, xof)
    # apply_s takes the parity of repeated positions, so c + e needs no xor
    return Signature(apply_s(sk, np.concatenate((c_sup, e_sup))), theta_star)
