"""Byte-exact serialization of keys and signatures.

Wire layout: a 6-byte header (magic "LSG1", object kind, instance id)
followed by the payload.  Circulant blocks are packed little-endian into
64-bit words, i.e. ceil(p/64)*8 bytes per block; this word-aligned
convention reproduces the reference public-key and signature sizes for
all nine instances.

A public key (PublicKey.words) and a signature's sigma (a PackedVector)
are held in memory as exactly their wire payloads, so encoding copies
their words and decoding checks only the length and that no block has a
bit set at or above p.

Payload sizes:
  public key   r0 * n0 * ceil(p/64) * 8
  signature    n0 * ceil(p/64) * 8 + 8         (sigma, then 64-bit salt)
  at-rest key  seed (32/48/64 by category) + z columns of ceil(r0/8)
               bytes holding B; expansion replays the seed and checks the
               stored B against the regenerated one.

The at-rest layout matches the reference 56-byte figure for category-1
instances with r0 <= 96 (a3, alpha3); the remaining published at-rest
figures are not decomposed anywhere, so deltas of a few bytes against
them are expected and documented rather than reverse-engineered.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import DimensionError, FormatError, IntegrityError, Singular
from .keygen import (PrivateKey, PublicKey, QFactors, SFactors,
                     build_public_key, compute_d, private_key_from_seed,
                     sort_v_rows)
from .params import INSTANCE_IDS, INSTANCES, SysParams
from .qc import PackedVector, dense_invert, inverse_int
from .signer import Signature

MAGIC = b"LSG1"

KIND_PUBLIC = 0
KIND_PRIVATE_EXPANDED = 1
KIND_PRIVATE_AT_REST = 2
KIND_SIGNATURE = 3

_ID_TO_NAME = {v: k for k, v in INSTANCE_IDS.items()}

# one entry of V in an expanded private key: block column, rotation
_V_ENTRY = np.dtype([("col", "<u2"), ("rot", "<u4")])


def _header(kind: int, params: SysParams) -> bytes:
    if params.name not in INSTANCE_IDS:
        raise ValueError(f"instance {params.name!r} has no wire identifier")
    return MAGIC + bytes([kind, INSTANCE_IDS[params.name]])


def _parse_header(data: bytes, expected_kind: int) -> SysParams:
    if len(data) < 6:
        raise FormatError("buffer shorter than the 6-byte header")
    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    kind, inst = data[4], data[5]
    if kind != expected_kind:
        raise FormatError(f"object kind {kind} where {expected_kind} expected")
    if inst not in _ID_TO_NAME:
        raise FormatError(f"unknown instance id {inst}")
    return INSTANCES[_ID_TO_NAME[inst]]


# ---------------------------------------------------------------------------
# size formulas (pure functions of the parameters)


def public_key_bytes(params: SysParams) -> int:
    return params.r0 * params.n0 * params.block_bytes


def signature_bytes(params: SysParams) -> int:
    return params.n0 * params.block_bytes + 8


def private_key_at_rest_bytes(params: SysParams) -> int:
    return params.seed_bytes + params.z * ((params.r0 + 7) // 8)


# ---------------------------------------------------------------------------
# public key


def encode_public_key(pk: PublicKey) -> bytes:
    return _header(KIND_PUBLIC, pk.params) + pk.words.tobytes()


def decode_public_key(data: bytes) -> PublicKey:
    prm = _parse_header(data, KIND_PUBLIC)
    expected = 6 + public_key_bytes(prm)
    if len(data) != expected:
        raise FormatError(f"public key must be {expected} bytes, got {len(data)}")
    # a copy: the key must not follow later writes to a mutable buffer
    words = np.frombuffer(data, dtype="<u8", offset=6).copy()
    try:
        return PublicKey(prm, words.reshape(prm.r0, prm.n0, -1))
    except DimensionError:
        raise FormatError("coefficients set beyond x^(p-1)") from None


# ---------------------------------------------------------------------------
# signature


def encode_signature(sig: Signature, params: SysParams) -> bytes:
    sigma = sig.sigma
    if (sigma.blocks, sigma.p) != (params.n0, params.p):
        raise ValueError(f"signature does not fit instance {params.name}")
    return (_header(KIND_SIGNATURE, params) + sigma.words
            + struct.pack("<Q", sig.theta_star))


def decode_signature(data: bytes) -> tuple[Signature, SysParams]:
    prm = _parse_header(data, KIND_SIGNATURE)
    expected = 6 + signature_bytes(prm)
    if len(data) != expected:
        raise FormatError(f"signature must be {expected} bytes, got {len(data)}")
    end = expected - 8
    try:
        sigma = PackedVector(prm.n0, prm.p, bytes(data[6:end]))
    except DimensionError:
        raise FormatError("coefficients set beyond x^(p-1)") from None
    theta = struct.unpack("<Q", data[end:])[0]
    return Signature(sigma, theta), prm


# ---------------------------------------------------------------------------
# private key, at rest (seed + B)


def _pack_bit_columns(m: np.ndarray) -> bytes:
    """Each column of a 0/1 array as ceil(rows/8) little-endian bytes."""
    return np.packbits(m.T, axis=1, bitorder="little").tobytes()


def _unpack_bit_columns(data: bytes, rows: int, cols: int) -> np.ndarray:
    nb = (rows + 7) // 8
    if len(data) != nb * cols:
        raise FormatError("bit-column payload has the wrong size")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(cols, nb)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    if bits[:, rows:].any():
        raise FormatError("bits set beyond the declared rows")
    return bits[:, :rows].T


def encode_private_key_at_rest(sk: PrivateKey) -> bytes:
    return (_header(KIND_PRIVATE_AT_REST, sk.params)
            + sk.seed + _pack_bit_columns(sk.q.b))


def expand_private_key(data: bytes) -> tuple[PrivateKey, PublicKey]:
    """Re-derive the keypair from an at-rest blob, checking stored B."""
    sk = expand_private_key_only(data)
    return sk, build_public_key(sk)


def expand_private_key_only(data: bytes) -> PrivateKey:
    """At-rest expansion without materializing the public matrix."""
    prm = _parse_header(data, KIND_PRIVATE_AT_REST)
    expected = 6 + private_key_at_rest_bytes(prm)
    if len(data) != expected:
        raise FormatError(f"at-rest key must be {expected} bytes, got {len(data)}")
    seed = data[6:6 + prm.seed_bytes]
    stored_b = _unpack_bit_columns(data[6 + prm.seed_bytes:], prm.r0, prm.z)
    sk = private_key_from_seed(seed, prm)
    if not np.array_equal(sk.q.b, stored_b):
        raise IntegrityError("stored B does not match the seed expansion")
    return sk


# ---------------------------------------------------------------------------
# private key, expanded (factor representation)


def encode_private_key_expanded(sk: PrivateKey) -> bytes:
    prm = sk.params
    entries = np.empty(sk.v[0].shape, dtype=_V_ENTRY)
    entries["col"], entries["rot"] = sk.v
    out = [_header(KIND_PRIVATE_EXPANDED, prm), sk.seed, entries.tobytes()]
    s = sk.s
    out.append(struct.pack(f"<{prm.n0}I", *s.lam_rots))
    out.append(struct.pack(f"<{prm.n0}I", *s.phi_rots))
    out.append(struct.pack(f"<{prm.n0}H", *s.perm1))
    out.append(struct.pack(f"<{prm.n0}H", *s.perm2))
    out.append(s.e_poly.to_bytes((prm.n0 + 7) // 8, "little"))
    q = sk.q
    out.append(struct.pack(f"<{prm.r0}H", *q.perm))
    out.append(struct.pack(f"<{prm.r0}I", *q.psi_rots))
    out.append(_pack_bit_columns(q.a))
    out.append(_pack_bit_columns(q.b))
    return b"".join(out)


def decode_private_key_expanded(data: bytes) -> PrivateKey:
    prm = _parse_header(data, KIND_PRIVATE_EXPANDED)
    off = 6
    n0, r0, p = prm.n0, prm.r0, prm.p

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise FormatError("truncated expanded key")
        chunk = data[off:off + n]
        off += n
        return chunk

    seed = take(prm.seed_bytes)
    shape = (prm.k0, prm.w_g - 1)
    raw = take(_V_ENTRY.itemsize * shape[0] * shape[1])
    entries = np.frombuffer(raw, dtype=_V_ENTRY).reshape(shape)
    cols, rots = sort_v_rows(entries["col"], entries["rot"])
    if ((cols >= r0).any() or (rots >= p).any()
            or (np.diff(cols, axis=1) == 0).any()):
        raise FormatError("invalid sparse row entry")

    lam = struct.unpack(f"<{n0}I", take(4 * n0))
    phi = struct.unpack(f"<{n0}I", take(4 * n0))
    perm1 = struct.unpack(f"<{n0}H", take(2 * n0))
    perm2 = struct.unpack(f"<{n0}H", take(2 * n0))
    e_poly = int.from_bytes(take((n0 + 7) // 8), "little")
    if e_poly >> n0 or e_poly.bit_count() != prm.m_S:
        raise FormatError("invalid scrambler polynomial")
    s = SFactors(lam, phi, perm1, perm2, e_poly, inverse_int(e_poly, n0))

    perm = struct.unpack(f"<{r0}H", take(2 * r0))
    psi = struct.unpack(f"<{r0}I", take(4 * r0))
    colbytes = ((r0 + 7) // 8) * prm.z
    a = _unpack_bit_columns(take(colbytes), r0, prm.z)
    b = _unpack_bit_columns(take(colbytes), r0, prm.z)
    if off != len(data):
        raise FormatError("trailing bytes after expanded key")
    for pm in (perm1, perm2):
        if sorted(pm) != list(range(n0)):
            raise FormatError("invalid permutation")
    if sorted(perm) != list(range(r0)):
        raise FormatError("invalid permutation")
    if any(x >= p for x in lam + phi + psi):
        raise FormatError("rotation exponent out of range")
    try:
        d_inv = dense_invert(compute_d(prm, perm, a, b))
    except Singular:
        raise FormatError("A and B give a singular D") from None
    q = QFactors(perm, psi, a, b, d_inv)
    return PrivateKey(params=prm, seed=seed, v=(cols, rots), s=s, q=q)


# ---------------------------------------------------------------------------
# atomic file I/O


def write_file(path: str, data: bytes) -> None:
    """Write via a temp file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ledasig-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
