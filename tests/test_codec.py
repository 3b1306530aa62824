import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_KIB, invert_perm
from ledasig import (decode_private_key_expanded, decode_public_key,
                     decode_signature, encode_private_key_at_rest,
                     encode_private_key_expanded, encode_public_key,
                     encode_signature, expand_private_key,
                     private_key_at_rest_bytes, public_key_bytes,
                     signature_bytes, verify)
from ledasig.codec import (expand_private_key_only,
                           private_key_expanded_bytes, write_file)
from ledasig.drbg import Xof
from ledasig.errors import DimensionError, FormatError, IntegrityError
from ledasig.keygen import keypair_from_seed, private_key_from_seed
from ledasig.params import INSTANCE_IDS, INSTANCES, get_instance
from ledasig.qc import PackedVector
from ledasig.signer import sign


@pytest.mark.parametrize("name", list(INSTANCES))
def test_payload_sizes_match_reference_tables(name):
    prm = get_instance(name)
    pk_kib = public_key_bytes(prm) / 1024
    sig_kib = signature_bytes(prm) / 1024
    ref_pk, ref_sig = REFERENCE_KIB[name]
    assert round(pk_kib, 2) == ref_pk
    assert round(sig_kib, 2) == ref_sig


def test_exact_sizes_a3():
    prm = get_instance("a3")
    assert public_key_bytes(prm) == 323_248
    assert signature_bytes(prm) == 3_640
    assert private_key_at_rest_bytes(prm) == 56


def test_public_key_roundtrip(a3_key):
    _, pk = a3_key
    blob = encode_public_key(pk)
    assert len(blob) == 6 + public_key_bytes(pk.params)
    back = decode_public_key(blob)
    assert back == pk


def test_public_key_header_errors(a3_key):
    _, pk = a3_key
    blob = encode_public_key(pk)
    with pytest.raises(FormatError):
        decode_public_key(blob[:100])
    with pytest.raises(FormatError):
        decode_public_key(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        decode_public_key(blob[:4] + bytes([9]) + blob[5:])   # wrong kind
    with pytest.raises(FormatError):
        decode_public_key(blob[:5] + bytes([200]) + blob[6:])  # bad instance
    with pytest.raises(FormatError):
        decode_public_key(b"")


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_public_key_padding_bit_rejected_in_any_block(a3_key, where):
    _, pk = a3_key
    prm = pk.params
    nblocks = prm.r0 * prm.n0
    block = {"first": 0, "middle": nblocks // 2, "last": nblocks - 1}[where]
    blob = encode_public_key(pk)
    for bit in range(prm.p, 64 * (prm.block_bytes // 8)):
        bad = bytearray(blob)
        bad[6 + block * prm.block_bytes + bit // 8] |= 1 << (bit % 8)
        with pytest.raises(FormatError):
            decode_public_key(bytes(bad))


def test_public_key_words_read_only(a3_key):
    # the packed key reads the words in place, so they must not change
    _, pk = a3_key
    for key in (pk, decode_public_key(encode_public_key(pk))):
        assert np.shares_memory(key.packed.by_row, key.words)
        with pytest.raises(ValueError):
            key.words[0, 0, 0] ^= 1
        with pytest.raises(ValueError):
            key.packed.by_col[0, 0] ^= 1


@pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "memoryview"])
def test_decoded_public_key_ignores_later_buffer_writes(a3_key, wrap):
    sk, pk = a3_key
    sig = sign(sk, b"m", rng=Xof(b"ro"))
    buf = wrap(encode_public_key(pk))
    key = decode_public_key(buf)
    buf[6:] = bytes(len(buf) - 6)
    assert key == pk
    assert verify(key, b"m", sig)


def test_signature_roundtrip_many(a3_key):
    sk, pk = a3_key
    prm = sk.params
    for i in range(20):
        sig = sign(sk, b"m%d" % i, rng=Xof(bytes([i, 1])))
        blob = encode_signature(sig, prm)
        assert len(blob) == 6 + signature_bytes(prm)
        back, back_prm = decode_signature(blob)
        assert back == sig and back_prm == prm


def test_signature_truncation_rejected(a3_key):
    sk, _ = a3_key
    sig = sign(sk, b"m", rng=Xof(b"t"))
    blob = encode_signature(sig, sk.params)
    with pytest.raises(FormatError):
        decode_signature(blob[:-1])


def test_stray_bits_rejected(a3_key):
    sk, _ = a3_key
    prm = sk.params
    sig = sign(sk, b"m", rng=Xof(b"u"))
    blob = bytearray(encode_signature(sig, prm))
    # top byte of the first block: bits above p - 1 must stay clear
    blob[6 + prm.block_bytes - 1] |= 0x80
    with pytest.raises(FormatError):
        decode_signature(bytes(blob))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_padding_bit_rejected_in_any_block(a3_key, where):
    sk, _ = a3_key
    prm = sk.params
    block = {"first": 0, "middle": prm.n0 // 2, "last": prm.n0 - 1}[where]
    blob = bytearray(encode_signature(sign(sk, b"m", rng=Xof(b"u")), prm))
    for bit in range(prm.p, 64 * (prm.block_bytes // 8)):
        bad = bytearray(blob)
        bad[6 + block * prm.block_bytes + bit // 8] |= 1 << (bit % 8)
        with pytest.raises(FormatError):
            decode_signature(bytes(bad))


def _wire_blocks(support, n0, p):
    """Reference payload: each block as one little-endian integer."""
    blocks = [0] * n0
    for pos in support:
        blocks[pos // p] |= 1 << (pos % p)
    nb = (p + 63) // 64 * 8
    return b"".join(b.to_bytes(nb, "little") for b in blocks)


@pytest.mark.parametrize("p", [5, 13, 63, 64, 65, 127, 128])
def test_packed_vector_roundtrip(p):
    rng = np.random.default_rng(p)
    for n0 in (1, 2, 5):
        for density in (0.0, 0.2, 0.5, 1.0):
            n = n0 * p
            sup = np.flatnonzero(rng.random(n) < density)
            v = PackedVector.from_support(n0, p, rng.permutation(sup))
            assert v.words == _wire_blocks(sup.tolist(), n0, p)
            assert v.support == tuple(sup.tolist())
            assert np.array_equal(v.positions(), sup)
            assert v.weight == len(v.support)
            assert v.length == n
            assert PackedVector(n0, p, v.words) == v
        if p % 64:
            # the lowest padding bit of every block is refused
            for b in range(n0):
                bad = bytearray(v.words)
                bad[b * len(v.words) // n0 + p // 8] |= 1 << (p % 8)
                with pytest.raises(DimensionError):
                    PackedVector(n0, p, bytes(bad))


@pytest.mark.parametrize("name", ["a3", "b6"])
def test_signature_blob_roundtrip(name):
    prm = get_instance(name)
    sk = private_key_from_seed(bytes(prm.seed_bytes), prm)
    for i in range(3):
        blob = encode_signature(sign(sk, b"m%d" % i, rng=Xof(bytes([i]))), prm)
        sig, back_prm = decode_signature(blob)
        assert back_prm == prm
        assert sig.sigma.weight == len(sig.sigma.support)
        assert encode_signature(sig, prm) == blob


@pytest.mark.parametrize("name", list(INSTANCES))
def test_every_kind_round_trips_at_its_size(name):
    prm = get_instance(name)
    sk, pk = keypair_from_seed(bytes(range(prm.seed_bytes)), prm)
    sig = sign(sk, b"shape", rng=Xof(b"shape"))
    kinds = [
        (encode_public_key(pk), public_key_bytes, decode_public_key, pk),
        (encode_signature(sig, prm), signature_bytes, decode_signature,
         (sig, prm)),
        (encode_private_key_at_rest(sk), private_key_at_rest_bytes,
         expand_private_key, (sk, pk)),
        (encode_private_key_expanded(sk), private_key_expanded_bytes,
         decode_private_key_expanded, sk),
    ]
    for blob, size, decode, obj in kinds:
        assert len(blob) == 6 + size(prm)
        assert decode(blob) == obj


def test_at_rest_roundtrip(a3_key):
    sk, pk = a3_key
    blob = encode_private_key_at_rest(sk)
    assert len(blob) == 6 + 56
    sk2, pk2 = expand_private_key(blob)
    assert sk2 == sk
    assert pk2 == pk


def test_at_rest_corruption_detected(a3_key):
    sk, _ = a3_key
    blob = bytearray(encode_private_key_at_rest(sk))
    blob[-1] ^= 0x01
    with pytest.raises(IntegrityError):
        expand_private_key(bytes(blob))


def test_write_file_fsyncs_temp_file_before_rename(tmp_path, monkeypatch):
    # a crash after the rename must not leave an empty or partial key file
    target = tmp_path / "key.sk"
    target.write_bytes(b"old")
    data = b"new key bytes"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", st.st_ino, st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write_file(str(target), data)
    ino = target.stat().st_ino
    assert events == [("fsync", ino, len(data)),
                      ("replace", ino, str(target))]
    assert target.read_bytes() == data
    assert os.listdir(tmp_path) == ["key.sk"]


def test_expanded_roundtrip(a3_key):
    sk, _ = a3_key
    blob = encode_private_key_expanded(sk)
    back = decode_private_key_expanded(blob)
    assert back == sk


def test_expanded_truncation(a3_key):
    sk, _ = a3_key
    blob = encode_private_key_expanded(sk)
    with pytest.raises(FormatError):
        decode_private_key_expanded(blob[:-4])
    with pytest.raises(FormatError):
        decode_private_key_expanded(blob + b"\x00")


def test_expanded_singular_d_rejected(a3_key):
    # A and B with B^T Pi^T A = I_z make D = I_z + B^T Pi^T A zero
    sk, _ = a3_key
    prm = sk.params
    inv_perm = invert_perm(sk.q.perm)
    a = np.zeros((prm.r0, prm.z), dtype=np.uint8)
    b = np.zeros((prm.r0, prm.z), dtype=np.uint8)
    for k in range(prm.z):
        b[k, k] = 1
        a[inv_perm[k], k] = 1
    q = dataclasses.replace(sk.q, a=a, b=b)
    blob = encode_private_key_expanded(dataclasses.replace(sk, q=q))
    with pytest.raises(FormatError):
        decode_private_key_expanded(blob)


# one entry of V on the wire: block column, then rotation exponent
V_ENTRY = np.dtype([("col", "<u2"), ("rot", "<u4")])


def _with_v_entries(sk, edit):
    """Expanded blob of sk after edit() changed its (k0, w_g - 1) V records."""
    prm = sk.params
    blob = bytearray(encode_private_key_expanded(sk))
    start = 6 + prm.seed_bytes
    end = start + V_ENTRY.itemsize * prm.k0 * (prm.w_g - 1)
    entries = np.frombuffer(bytes(blob[start:end]), dtype=V_ENTRY)
    entries = entries.reshape(prm.k0, prm.w_g - 1).copy()
    edit(entries)
    blob[start:end] = entries.tobytes()
    return bytes(blob)


@pytest.mark.parametrize("bad", ["column_r0", "rotation_p",
                                 "repeated_column"])
def test_expanded_invalid_v_entry_rejected(a3_key, bad):
    sk, _ = a3_key
    prm = sk.params

    def edit(entries):
        if bad == "column_r0":
            entries["col"][3, 1] = prm.r0
        elif bad == "rotation_p":
            entries["rot"][3, 1] = prm.p
        else:
            entries["col"][3, 2] = entries["col"][3, 0]

    with pytest.raises(FormatError):
        decode_private_key_expanded(_with_v_entries(sk, edit))


def test_expanded_v_rows_in_any_order(a3_key):
    sk, _ = a3_key
    rng = np.random.default_rng(11)

    def shuffle(entries):
        for row in entries:
            row[:] = row[rng.permutation(len(row))]

    blob = _with_v_entries(sk, shuffle)
    assert blob != encode_private_key_expanded(sk)
    assert decode_private_key_expanded(blob) == sk


def _with_e_bits(sk, edit):
    """Expanded blob of sk after edit() changed the bits of E's field."""
    prm = sk.params
    n0, nbytes = prm.n0, (prm.n0 + 7) // 8
    blob = bytearray(encode_private_key_expanded(sk))
    # seed, V entries, lam and phi (u32), perm1 and perm2 (u16), then E
    start = (6 + prm.seed_bytes + V_ENTRY.itemsize * prm.k0 * (prm.w_g - 1)
             + 12 * n0)
    bits = np.unpackbits(np.frombuffer(bytes(blob[start:start + nbytes]),
                                       np.uint8), bitorder="little")
    edit(bits)
    blob[start:start + nbytes] = np.packbits(bits, bitorder="little").tobytes()
    return bytes(blob)


@pytest.mark.parametrize("bad", ["bit_at_n0", "weight_minus_1",
                                 "weight_plus_2"])
def test_expanded_invalid_scrambler_polynomial_rejected(a3_key, bad):
    sk, _ = a3_key
    n0 = sk.params.n0

    def edit(bits):
        assert bits[:n0].sum() == sk.params.m_S and not bits[n0:].any()
        ones, zeros = np.flatnonzero(bits[:n0]), np.flatnonzero(bits[:n0] == 0)
        if bad == "bit_at_n0":
            # weight m_S kept: one coefficient moves to x^n0
            bits[ones[0]], bits[n0] = 0, 1
        elif bad == "weight_minus_1":
            bits[ones[-1]] = 0
        else:
            bits[zeros[:2]] = 1

    with pytest.raises(FormatError, match="invalid scrambler polynomial"):
        decode_private_key_expanded(_with_e_bits(sk, edit))


# ---------------------------------------------------------------------------
# decoders are total: a valid header followed by any bytes gives an object
# or FormatError (IntegrityError is one), and nothing else


ENCODERS = {
    decode_public_key: lambda sk, pk: encode_public_key(pk),
    decode_signature: lambda sk, pk: encode_signature(
        sign(sk, b"fuzz", rng=Xof(b"fuzz")), sk.params),
    decode_private_key_expanded: lambda sk, pk: encode_private_key_expanded(sk),
    expand_private_key_only: lambda sk, pk: encode_private_key_at_rest(sk),
}


@st.composite
def _headed_bytes(draw, valid):
    """A valid blob with a few bytes changed, or a header and random bytes."""
    if draw(st.booleans()):
        instance = draw(st.sampled_from(sorted(INSTANCE_IDS.values())))
        return valid[:5] + bytes([instance]) + draw(st.binary(max_size=512))
    blob = bytearray(valid)
    # the short trailing fields (A and B columns, salt) get half the edits
    where = st.one_of(st.integers(6, len(blob) - 1),
                      st.integers(max(6, len(blob) - 64), len(blob) - 1))
    edits = st.tuples(where, st.integers(0, 255))
    for pos, value in draw(st.lists(edits, min_size=1, max_size=4)):
        blob[pos] = value
    if draw(st.booleans()):
        del blob[draw(st.integers(6, len(blob))):]
    return bytes(blob)


@pytest.mark.parametrize("decode", list(ENCODERS), ids=lambda f: f.__name__)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_decoders_are_total(a3_key, decode, data):
    blob = data.draw(_headed_bytes(ENCODERS[decode](*a3_key)))
    try:
        decode(blob)
    except FormatError:
        pass
