"""Byte-exact serialization of keys and signatures.

Wire layout: a 6-byte header (magic "LSG1", object kind, instance id)
followed by the payload.  Circulant blocks are packed little-endian into
64-bit words, i.e. ceil(p/64)*8 bytes per block; this word-aligned
convention reproduces the reference public-key and signature sizes for
all nine instances.

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

from .errors import FormatError, IntegrityError, Singular
from .keygen import (PrivateKey, PublicKey, QFactors, SFactors,
                     build_public_key, compute_d, private_key_from_seed)
from .params import INSTANCE_IDS, INSTANCES, SysParams
from .qc import (DenseBitMatrix, QcMatrix, SparseVector, dense_invert,
                 inverse_int, mask_of)
from .signer import Signature

MAGIC = b"LSG1"

KIND_PUBLIC = 0
KIND_PRIVATE_EXPANDED = 1
KIND_PRIVATE_AT_REST = 2
KIND_SIGNATURE = 3

_ID_TO_NAME = {v: k for k, v in INSTANCE_IDS.items()}


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
    prm = pk.params
    nb = prm.block_bytes
    parts = [_header(KIND_PUBLIC, prm)]
    for row in pk.hp.blocks:
        for blk in row:
            parts.append(blk.to_bytes(nb, "little"))
    return b"".join(parts)


def decode_public_key(data: bytes) -> PublicKey:
    prm = _parse_header(data, KIND_PUBLIC)
    nb = prm.block_bytes
    expected = 6 + public_key_bytes(prm)
    if len(data) != expected:
        raise FormatError(f"public key must be {expected} bytes, got {len(data)}")
    mask = mask_of(prm.p)
    rows = []
    off = 6
    for _ in range(prm.r0):
        row = []
        for _ in range(prm.n0):
            v = int.from_bytes(data[off:off + nb], "little")
            if v & ~mask:
                raise FormatError("coefficients set beyond x^(p-1)")
            row.append(v)
            off += nb
        rows.append(tuple(row))
    return PublicKey(prm, QcMatrix(prm.r0, prm.n0, prm.p, tuple(rows)))


# ---------------------------------------------------------------------------
# signature


def encode_signature(sig: Signature, params: SysParams) -> bytes:
    nb = params.block_bytes
    p = params.p
    blocks = [0] * params.n0
    for pos in sig.sigma.support:
        blocks[pos // p] |= 1 << (pos % p)
    parts = [_header(KIND_SIGNATURE, params)]
    parts.extend(b.to_bytes(nb, "little") for b in blocks)
    parts.append(struct.pack("<Q", sig.theta_star))
    return b"".join(parts)


def decode_signature(data: bytes) -> tuple[Signature, SysParams]:
    prm = _parse_header(data, KIND_SIGNATURE)
    nb = prm.block_bytes
    expected = 6 + signature_bytes(prm)
    if len(data) != expected:
        raise FormatError(f"signature must be {expected} bytes, got {len(data)}")
    mask = mask_of(prm.p)
    support = []
    off = 6
    for jb in range(prm.n0):
        v = int.from_bytes(data[off:off + nb], "little")
        if v & ~mask:
            raise FormatError("coefficients set beyond x^(p-1)")
        base = jb * prm.p
        while v:
            low = v & -v
            support.append(base + low.bit_length() - 1)
            v ^= low
        off += nb
    theta = struct.unpack("<Q", data[off:off + 8])[0]
    return Signature(SparseVector(prm.n, tuple(support)), theta), prm


# ---------------------------------------------------------------------------
# private key, at rest (seed + B)


def _pack_bit_columns(m: DenseBitMatrix) -> bytes:
    nb = (m.rows + 7) // 8
    out = []
    for c in range(m.cols):
        v = 0
        for r in range(m.rows):
            v |= m.get(r, c) << r
        out.append(v.to_bytes(nb, "little"))
    return b"".join(out)


def _unpack_bit_columns(data: bytes, rows: int, cols: int) -> DenseBitMatrix:
    nb = (rows + 7) // 8
    if len(data) != nb * cols:
        raise FormatError("bit-column payload has the wrong size")
    row_bits = [0] * rows
    for c in range(cols):
        v = int.from_bytes(data[c * nb:(c + 1) * nb], "little")
        if v >> rows:
            raise FormatError("bits set beyond the declared rows")
        for r in range(rows):
            row_bits[r] |= ((v >> r) & 1) << c
    return DenseBitMatrix.from_rows(row_bits, cols)


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
    if sk.q.b != stored_b:
        raise IntegrityError("stored B does not match the seed expansion")
    return sk


# ---------------------------------------------------------------------------
# private key, expanded (factor representation)


def encode_private_key_expanded(sk: PrivateKey) -> bytes:
    prm = sk.params
    out = [_header(KIND_PRIVATE_EXPANDED, prm), sk.seed]
    for row in sk.v.blocks:
        for col, blk in enumerate(row):
            if blk:
                out.append(struct.pack("<HI", col, blk.bit_length() - 1))
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
    rows = []
    for _ in range(prm.k0):
        row = [0] * r0
        for _ in range(prm.w_g - 1):
            col, rot = struct.unpack("<HI", take(6))
            if col >= r0 or rot >= p or row[col]:
                raise FormatError("invalid sparse row entry")
            row[col] = 1 << rot
        rows.append(tuple(row))
    v = QcMatrix(prm.k0, r0, p, tuple(rows))

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
    return PrivateKey(params=prm, seed=seed, v=v, s=s, q=q)


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
