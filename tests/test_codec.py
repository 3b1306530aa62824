import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledasig import (decode_private_key_expanded, decode_public_key,
                     decode_signature, encode_private_key_at_rest,
                     encode_private_key_expanded, encode_public_key,
                     encode_signature, expand_private_key,
                     private_key_at_rest_bytes, public_key_bytes,
                     signature_bytes)
from ledasig.codec import expand_private_key_only
from ledasig.drbg import Xof
from ledasig.errors import FormatError, IntegrityError
from ledasig.params import INSTANCE_IDS, INSTANCES, get_instance
from ledasig.qc import DenseBitMatrix, invert_perm
from ledasig.signer import sign

# published payload sizes in kiB (public key, signature)
REFERENCE_KIB = {
    "a3": (315.67, 3.55), "a6": (540.80, 6.52), "alpha3": (828.81, 9.32),
    "b3": (1364.28, 9.16), "b6": (3160.47, 27.98), "beta3": (3619.48, 35.15),
    "c3": (2818.20, 18.92), "c6": (11661.05, 89.02),
    "gamma3": (15590.80, 112.17),
}


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
    a_rows = [0] * prm.r0
    b_rows = [0] * prm.r0
    for k in range(prm.z):
        b_rows[k] = 1 << k
        a_rows[inv_perm[k]] = 1 << k
    q = dataclasses.replace(sk.q, a=DenseBitMatrix.from_rows(a_rows, prm.z),
                            b=DenseBitMatrix.from_rows(b_rows, prm.z))
    blob = encode_private_key_expanded(dataclasses.replace(sk, q=q))
    with pytest.raises(FormatError):
        decode_private_key_expanded(blob)


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
