"""Known-answer tests: SHA-256 digests of keys and signatures.

The digests pin the output bytes of key generation, the wire encoders
and signing for fixed seeds and a fixed signing Xof, so that a change to
how keys are built or signatures are scrambled must keep every byte.
"""

import hashlib

import pytest

from helpers import words_to_qc
from ledasig import (encode_private_key_at_rest, encode_private_key_expanded,
                     encode_public_key, encode_signature, get_instance,
                     keypair_from_seed, sign, toy_params)
from ledasig.drbg import Xof

KAT = {
    "a3": {
        "public": "9adb46c2233f5b7c8f2f894a1a7173e7ff6e1378f2330ebe121f23a4cd804537",
        "at_rest": "e58d585cb49af6c8da5b7d8186bde1801d9a1a152b91c426c7e9e8b07a9056a4",
        "expanded": "9b3b221296a35df1fb8738e2d6d4b336e8a319c9788ef1b13995e75830f145f8",
        "signatures": (
            "5bcbfc38fcf00a2b67c81c59d003e746f814b5b7490e7e07e2f1d524a63184d7",
            "35281d25a57fbf377cf32af3d6e73720e6ba8e3770687af227fcddf78bf70669",
            "031c5236d7ce022d68c6ec095b98e7e73ede2943a3cff4d822a8f356e91903b9",
        ),
    },
    "b6": {
        "public": "7218ff9f87ad1fdee018be8ca2cf1924072a5138709e8bb15e51ef86c607a17e",
        "at_rest": "a41045f50e7c2eda9af132b3ef91eb46191739fd7da05207e715b17408f41573",
        "expanded": "10fb9e9d3469679889aafc908f277785f3b324e11085bb12bef3a3feec76e53b",
        "signatures": (
            "4fefd2c983b3208049d17c9b11dcf7a1e41e70b94f50450ad5a12297b5296057",
            "b5f74ca19cb7033518a240db3bdb146e7c7c9bffc5472b1a50634a6607d6a6c1",
            "84229b0d5c6b1ff9b4e969137da2835b2d460ff4324ba709bf291a4868c7aa56",
        ),
    },
}

# toy29 has no wire id: pin repr() of the public blocks and of sigma
TOY29_HP = "c17e9e2a555dde219c7f571860114fb1f64d1497eed93f563bc214f80ab088b2"
TOY29_SIGMA = "d1e3698d09d0ff3670e0fb6417b662d54d339a0a4e8bbf9cae23b8a5b88ad561"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module", params=sorted(KAT))
def instance_key(request):
    prm = get_instance(request.param)
    sk, pk = keypair_from_seed(bytes(range(prm.seed_bytes)), prm)
    return request.param, sk, pk


def test_kat_public_key(instance_key):
    name, _, pk = instance_key
    assert _sha256(encode_public_key(pk)) == KAT[name]["public"]


def test_kat_private_keys(instance_key):
    name, sk, _ = instance_key
    assert _sha256(encode_private_key_at_rest(sk)) == KAT[name]["at_rest"]
    assert _sha256(encode_private_key_expanded(sk)) == KAT[name]["expanded"]


def test_kat_signatures(instance_key):
    name, sk, _ = instance_key
    for i, want in enumerate(KAT[name]["signatures"]):
        sig = sign(sk, b"known answer %d" % i, rng=Xof(b"kat-sign-%d" % i))
        assert _sha256(encode_signature(sig, sk.params)) == want


def test_kat_toy29():
    sk, pk = keypair_from_seed(b"\x2a" * 32, toy_params("toy29"))
    hp = words_to_qc(pk.words, pk.params.p)
    assert _sha256(repr(hp.blocks).encode()) == TOY29_HP
    sig = sign(sk, b"known answer", rng=Xof(b"kat-sign-toy29"))
    assert _sha256(repr(sig.sigma.support).encode()) == TOY29_SIGMA
