"""Quasi-cyclic LDGM code-based digital signatures.

Library layout:
  params     parameter records for the nine proposed instances
  qc         bit-packed GF(2) polynomials, quasi-cyclic and dense bit
             matrices, and the generalized-permutation index map
  keygen     seed-deterministic key generation, the scrambler chain
             shared by signing and the public key
  packed     word-packed syndrome product for verification
  drbg       SHAKE-256 stream with the samplers used by key generation
  signer     constant-weight encoding and signature generation
  verifier   signature verification
  codec      byte-exact wire formats for keys and signatures
  estimator  attack work factors and key-lifetime bounds
  cli        command-line front end

The package root re-exports the key, signing and wire-format entry
points; everything else is imported from its module.
"""

from .codec import (decode_private_key_expanded, decode_public_key,
                    decode_signature, encode_private_key_at_rest,
                    encode_private_key_expanded, encode_public_key,
                    encode_signature, expand_private_key,
                    private_key_at_rest_bytes, public_key_bytes,
                    signature_bytes)
from .keygen import keypair_from_seed
from .params import INSTANCES, get_instance, toy_params
from .qc import SparseVector
from .signer import Signature, sign
from .verifier import verify

__version__ = "0.1.0"

__all__ = [
    "INSTANCES", "Signature", "SparseVector",
    "decode_private_key_expanded", "decode_public_key", "decode_signature",
    "encode_private_key_at_rest", "encode_private_key_expanded",
    "encode_public_key", "encode_signature", "expand_private_key",
    "get_instance", "keypair_from_seed", "private_key_at_rest_bytes",
    "public_key_bytes", "sign", "signature_bytes", "toy_params", "verify",
]
