"""Signature verification against the public quasi-cyclic matrix."""

from __future__ import annotations

from .errors import FormatError
from .keygen import PublicKey
from .signer import Signature, cw_encode, hash_digest


def verify(pk: PublicKey, message: bytes, sig: Signature) -> bool:
    """Check sigma against H'. Returns False on any mismatch.

    The weight gate, a popcount over sigma's packed words, runs strictly
    before the matrix-vector product; the final syndrome comparison
    always covers all r bits.
    """
    prm = pk.params
    sigma = sig.sigma
    if (sigma.blocks, sigma.p) != (prm.n0, prm.p):
        raise FormatError(
            f"signature of {sigma.blocks} blocks of {sigma.p} bits does not "
            f"match n0={prm.n0}, p={prm.p}")
    if sigma.weight > prm.max_sig_weight:
        return False
    recomputed = pk.packed.mul_support(sigma.positions())
    digest = hash_digest(message, sig.theta_star, prm)
    expected = cw_encode(digest, prm.r, prm.w).to_int()
    return recomputed == expected
