"""Byte-exact serialization of keys and signatures.

Wire layout: a 6-byte header (magic "LSG1", object kind, instance id)
followed by the payload.  Circulant blocks are packed little-endian into
64-bit words, i.e. ceil(p/64)*8 bytes per block; this word-aligned
convention reproduces the reference public-key and signature sizes for
all nine instances.

Each payload is one packed numpy record, written out once in _layout:
its itemsize is the payload size, _encode joins the fields' bytes in
layout order, and _decode checks the header and exact length and reads
the record in place.  A public key (PublicKey.words) and a signature's
sigma (a PackedVector) are held in memory as exactly their wire fields,
so encoding copies their words and decoding checks only that no block
has a bit set at or above p.

Payload sizes:
  public key    r0 * n0 * ceil(p/64) * 8
  signature     n0 * ceil(p/64) * 8 + 8         (sigma, then 64-bit salt)
  at-rest key   seed (32/48/64 by category) + z columns of ceil(r0/8)
                bytes holding B; expansion replays the seed and checks the
                stored B against the regenerated one.
  expanded key  seed, V as k0 x (w_g - 1) (u16 column, u32 rotation)
                entries, the factors of S and Q, then A and B as columns

The at-rest layout matches the reference 56-byte figure for category-1
instances with r0 <= 96 (a3, alpha3); the remaining published at-rest
figures are not decomposed anywhere, so deltas of a few bytes against
them are expected and documented rather than reverse-engineered.
"""

from __future__ import annotations

import os
import tempfile
from functools import cache

import numpy as np

from .errors import DimensionError, FormatError, IntegrityError, Singular
from .keygen import (PrivateKey, PublicKey, QFactors, SFactors,
                     build_public_key, compute_d, private_key_from_seed,
                     sort_v_rows)
from .params import INSTANCE_IDS, INSTANCES, SysParams
from .qc import PackedVector, dense_invert, inverse_shifts
from .signer import Signature

MAGIC = b"LSG1"

KIND_PUBLIC = 0
KIND_PRIVATE_EXPANDED = 1
KIND_PRIVATE_AT_REST = 2
KIND_SIGNATURE = 3

_ID_TO_NAME = {v: k for k, v in INSTANCE_IDS.items()}

# one entry of V in an expanded private key: block column, rotation
_V_ENTRY = np.dtype([("col", "<u2"), ("rot", "<u4")])


@cache
def _layout(kind: int, params: SysParams) -> np.dtype:
    """The payload of one object kind as a packed record, in wire order."""
    n0, r0, nw = params.n0, params.r0, params.block_bytes // 8
    seed = ("seed", "u1", params.seed_bytes)
    columns = ("u1", (params.z, (r0 + 7) // 8))     # a 0/1 array's columns
    return np.dtype({
        KIND_PUBLIC: [("words", "<u8", (r0, n0, nw))],
        KIND_SIGNATURE: [("sigma", "<u8", (n0, nw)), ("theta", "<u8")],
        KIND_PRIVATE_AT_REST: [seed, ("b", *columns)],
        KIND_PRIVATE_EXPANDED: [
            seed, ("v", _V_ENTRY, (params.k0, params.w_g - 1)),
            ("lam", "<u4", n0), ("phi", "<u4", n0),
            ("perm1", "<u2", n0), ("perm2", "<u2", n0),
            ("e", "u1", (n0 + 7) // 8),
            ("perm", "<u2", r0), ("psi", "<u4", r0),
            ("a", *columns), ("b", *columns)],
    }[kind])


def _encode(kind: int, params: SysParams, *fields) -> bytes:
    """Header, then each field's bytes in _layout(kind, params) order."""
    if params.name not in INSTANCE_IDS:
        raise ValueError(f"instance {params.name!r} has no wire identifier")
    layout = _layout(kind, params)
    parts = [MAGIC, bytes([kind, INSTANCE_IDS[params.name]])]
    parts += [np.asarray(value, layout[name].base).tobytes()
              for name, value in zip(layout.names, fields)]
    return b"".join(parts)


def _decode(data: bytes, kind: int) -> tuple[np.void, SysParams]:
    """The payload record of a blob of the given kind, read in place."""
    if len(data) < 6 or data[:4] != MAGIC:
        raise FormatError("no LSG1 header")
    if data[4] != kind:
        raise FormatError(f"object kind {data[4]} where {kind} expected")
    if data[5] not in _ID_TO_NAME:
        raise FormatError(f"unknown instance id {data[5]}")
    prm = INSTANCES[_ID_TO_NAME[data[5]]]
    layout = _layout(kind, prm)
    if len(data) != 6 + layout.itemsize:
        what = ("public key", "expanded key", "at-rest key", "signature")[kind]
        raise FormatError(f"{what} must be {6 + layout.itemsize} bytes, "
                          f"got {len(data)}")
    return np.frombuffer(data, layout, count=1, offset=6)[0], prm


# ---------------------------------------------------------------------------
# payload sizes (pure functions of the parameters)


def public_key_bytes(params: SysParams) -> int:
    return _layout(KIND_PUBLIC, params).itemsize


def signature_bytes(params: SysParams) -> int:
    return _layout(KIND_SIGNATURE, params).itemsize


def private_key_at_rest_bytes(params: SysParams) -> int:
    return _layout(KIND_PRIVATE_AT_REST, params).itemsize


def private_key_expanded_bytes(params: SysParams) -> int:
    return _layout(KIND_PRIVATE_EXPANDED, params).itemsize


# ---------------------------------------------------------------------------
# public key and signature


def encode_public_key(pk: PublicKey) -> bytes:
    return _encode(KIND_PUBLIC, pk.params, pk.words)


def decode_public_key(data: bytes) -> PublicKey:
    rec, prm = _decode(data, KIND_PUBLIC)
    # a copy: the key must not follow later writes to a mutable buffer
    try:
        return PublicKey(prm, rec["words"].copy())
    except DimensionError:
        raise FormatError("coefficients set beyond x^(p-1)") from None


def encode_signature(sig: Signature, params: SysParams) -> bytes:
    sigma = sig.sigma
    if (sigma.blocks, sigma.p) != (params.n0, params.p):
        raise ValueError(f"signature does not fit instance {params.name}")
    return _encode(KIND_SIGNATURE, params,
                   np.frombuffer(sigma.words, "<u8"), sig.theta_star)


def decode_signature(data: bytes) -> tuple[Signature, SysParams]:
    rec, prm = _decode(data, KIND_SIGNATURE)
    try:
        sigma = PackedVector(prm.n0, prm.p, rec["sigma"].tobytes())
    except DimensionError:
        raise FormatError("coefficients set beyond x^(p-1)") from None
    return Signature(sigma, int(rec["theta"])), prm


# ---------------------------------------------------------------------------
# private key, at rest (seed + B) and expanded (factor representation)


def _pack_bit_columns(m: np.ndarray) -> np.ndarray:
    """Each column of a 0/1 array as ceil(rows/8) little-endian bytes."""
    return np.packbits(m.T, axis=1, bitorder="little")


def _unpack_bit_columns(raw: np.ndarray, rows: int) -> np.ndarray:
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    if bits[:, rows:].any():
        raise FormatError("bits set beyond the declared rows")
    return bits[:, :rows].T


def encode_private_key_at_rest(sk: PrivateKey) -> bytes:
    return _encode(KIND_PRIVATE_AT_REST, sk.params,
                   np.frombuffer(sk.seed, "u1"), _pack_bit_columns(sk.q.b))


def expand_private_key(data: bytes) -> tuple[PrivateKey, PublicKey]:
    """Re-derive the keypair from an at-rest blob, checking stored B."""
    sk = expand_private_key_only(data)
    return sk, build_public_key(sk)


def expand_private_key_only(data: bytes) -> PrivateKey:
    """At-rest expansion without materializing the public matrix."""
    rec, prm = _decode(data, KIND_PRIVATE_AT_REST)
    stored_b = _unpack_bit_columns(rec["b"], prm.r0)
    sk = private_key_from_seed(rec["seed"].tobytes(), prm)
    if not np.array_equal(sk.q.b, stored_b):
        raise IntegrityError("stored B does not match the seed expansion")
    return sk


def encode_private_key_expanded(sk: PrivateKey) -> bytes:
    prm, s, q = sk.params, sk.s, sk.q
    entries = np.empty(sk.v[0].shape, dtype=_V_ENTRY)
    entries["col"], entries["rot"] = sk.v
    e = np.packbits(np.isin(np.arange(prm.n0), s.e), bitorder="little")
    return _encode(KIND_PRIVATE_EXPANDED, prm, np.frombuffer(sk.seed, "u1"),
                   entries, s.lam_rots, s.phi_rots, s.perm1, s.perm2, e,
                   q.perm, q.psi_rots, *map(_pack_bit_columns, (q.a, q.b)))


def decode_private_key_expanded(data: bytes) -> PrivateKey:
    rec, prm = _decode(data, KIND_PRIVATE_EXPANDED)
    n0, r0, p = prm.n0, prm.r0, prm.p
    cols, rots = sort_v_rows(rec["v"]["col"], rec["v"]["rot"])
    if ((cols >= r0).any() or (rots >= p).any()
            or (np.diff(cols, axis=1) == 0).any()):
        raise FormatError("invalid sparse row entry")
    e = np.flatnonzero(np.unpackbits(rec["e"], bitorder="little"))
    if len(e) != prm.m_S or e[-1] >= n0:
        raise FormatError("invalid scrambler polynomial")
    lam, phi, perm1, perm2, perm, psi = (
        rec[f].astype(np.int64)
        for f in ("lam", "phi", "perm1", "perm2", "perm", "psi"))
    for pm, size in ((perm1, n0), (perm2, n0), (perm, r0)):
        if not np.array_equal(np.sort(pm), np.arange(size)):
            raise FormatError("invalid permutation")
    if max(lam.max(), phi.max(), psi.max()) >= p:
        raise FormatError("rotation exponent out of range")
    a = _unpack_bit_columns(rec["a"], r0)
    b = _unpack_bit_columns(rec["b"], r0)
    try:
        d_inv = dense_invert(compute_d(prm, perm, a, b))
    except Singular:
        raise FormatError("A and B give a singular D") from None
    s = SFactors(lam, phi, perm1, perm2, e, inverse_shifts(e, n0))
    q = QFactors(perm, psi, a, b, d_inv)
    return PrivateKey(params=prm, seed=rec["seed"].tobytes(), v=(cols, rots),
                      s=s, q=q)


def decode_private_key(data: bytes) -> PrivateKey:
    """A private key from either encoding: expanded, or at rest."""
    if len(data) >= 5 and data[4] == KIND_PRIVATE_EXPANDED:
        return decode_private_key_expanded(data)
    return expand_private_key_only(data)


# ---------------------------------------------------------------------------
# atomic file I/O


def write_file(path: str, data: bytes) -> None:
    """Write via a temp file and rename, so readers never see partials.

    The temp file is flushed and fsynced before the rename, so a crash
    leaves the old file or the whole new one, not an empty one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ledasig-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
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
