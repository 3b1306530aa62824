import numpy as np
import pytest

from ledasig import verify
from ledasig.drbg import Xof
from ledasig.errors import FormatError
from ledasig.packed import COUNTERS
from ledasig.qc import PackedVector
from ledasig.signer import Signature, sign


def test_honest_signatures_accept(toy29_key):
    sk, pk = toy29_key
    for i in range(20):
        msg = b"message-%d" % i
        assert verify(pk, msg, sign(sk, msg, rng=Xof(bytes([i]))))


def test_single_bit_flips_reject(toy29_key):
    sk, pk = toy29_key
    prm = sk.params
    msg = b"flip me"
    sig = sign(sk, msg, rng=Xof(b"f"))
    rng = np.random.default_rng(0)
    support = set(sig.sigma.support)
    for pos in rng.choice(prm.n, size=50, replace=False):
        flipped = support ^ {int(pos)}
        bad = Signature(
            PackedVector.from_support(prm.n0, prm.p, sorted(flipped)),
            sig.theta_star)
        assert not verify(pk, msg, bad)


def test_message_corruption_rejects(toy29_key):
    sk, pk = toy29_key
    sig = sign(sk, b"original", rng=Xof(b"m"))
    assert not verify(pk, b"0riginal", sig)
    assert not verify(pk, b"original ", sig)


def test_weight_gate_short_circuits(toy29_key):
    _, pk = toy29_key
    prm = pk.params
    all_ones = Signature(
        PackedVector.from_support(prm.n0, prm.p, range(prm.n)), 7)
    before = COUNTERS["syndrome_products"]
    assert not verify(pk, b"m", all_ones)
    assert COUNTERS["syndrome_products"] == before


def test_bad_lengths_raise_format_error(toy29_key):
    _, pk = toy29_key
    with pytest.raises(FormatError):
        verify(pk, b"m", Signature(PackedVector.from_support(1, 5, (1,)), 0))


def test_salt_tamper_rejects(toy29_key):
    sk, pk = toy29_key
    sig = sign(sk, b"m", rng=Xof(b"s"))
    assert not verify(pk, b"m", Signature(sig.sigma, sig.theta_star ^ 1))
