import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (cw_encode_scalar, dense_vec_mul, gen_error_rehashing,
                     h_dense, kron_all_ones, sparse_from_int, support_to_int,
                     toy_private_key)
from ledasig import toy_params
from ledasig.drbg import Xof
from ledasig.keygen import private_key_from_seed
from ledasig.params import get_instance
from ledasig.qc import PackedVector, SparseVector
from ledasig.signer import (Signature, codeword_weight_floor,
                            cw_encode, gen_codeword, gen_error, hash_digest,
                            kernel_check, sign)

A3 = get_instance("a3")


# ---------------------------------------------------------------------------
# hashing


def test_hash_digest_deterministic():
    assert hash_digest(b"m", 5, A3) == hash_digest(b"m", 5, A3)


def test_hash_digest_golden_vectors():
    assert hash_digest(b"", 0, A3).hex() == (
        "48dda5bbe9171a6656206ec56c595c5834b6cf38c5fe71bcb44fe43833aee9df")
    # independent recomputation: empty message, 8-byte little-endian salt
    assert hash_digest(b"", 0, A3) == hashlib.sha3_256(bytes(8)).digest()
    assert (hash_digest(b"", 0, get_instance("b3"))
            == hashlib.sha3_384(bytes(8)).digest())
    assert (hash_digest(b"", 0, get_instance("c3"))
            == hashlib.sha3_512(bytes(8)).digest())


def test_hash_digest_theta_sensitivity():
    seen = {hash_digest(b"m", t, A3) for t in range(10_000)}
    assert len(seen) == 10_000


# ---------------------------------------------------------------------------
# constant-weight encoding


GAMMA3 = get_instance("gamma3")


@st.composite
def _cw_args(draw):
    """A digest, a length up to gamma3's r, and a weight of 0, the whole
    length (for short lengths) or anything up to 128."""
    length = draw(st.one_of(st.integers(0, 300), st.integers(0, GAMMA3.r)))
    cap = min(length, 128)
    weight = draw(st.one_of(st.just(0), st.just(length if length <= 300
                                                 else cap),
                            st.integers(0, cap)))
    return draw(st.binary(max_size=64)), length, weight


@settings(max_examples=300, deadline=None)
@given(_cw_args())
@example((b"", 0, 0))
@example((b"d", 7, 7))
@example((b"\x01" * 32, A3.r, A3.w))
@example((b"\x05" * 64, GAMMA3.r, GAMMA3.w))
@example((b"\x07" * 64, GAMMA3.r, GAMMA3.r // 1000))
def test_cw_encode_matches_scalar_oracle(args):
    assert cw_encode(*args) == cw_encode_scalar(*args)


def test_cw_encode_extremes():
    assert cw_encode(b"d", 7, 7).support == tuple(range(7))
    assert cw_encode(b"d", 7, 0).support == ()


def test_cw_encode_exact_weight_and_determinism():
    for i in range(50):
        d = hashlib.sha3_256(bytes([i])).digest()
        v = cw_encode(d, A3.r, A3.w)
        assert v.weight == A3.w
        assert v == cw_encode(d, A3.r, A3.w)


def test_cw_encode_weight_exceeds_length():
    with pytest.raises(ValueError):
        cw_encode(b"d", 3, 4)


def test_cw_encode_uniformity_a3():
    # fixed stream makes this statistical check deterministic
    rng = np.random.default_rng(0)
    n_trials = 10_000
    freq = np.zeros(A3.r, dtype=np.int64)
    for _ in range(n_trials):
        for pos in cw_encode(rng.bytes(32), A3.r, A3.w).support:
            freq[pos] += 1
    p0 = A3.w / A3.r
    sigma = math.sqrt(n_trials * p0 * (1 - p0))
    assert np.abs(freq - n_trials * p0).max() <= 4 * sigma


# ---------------------------------------------------------------------------
# kernel condition


def test_kernel_check_zero_vector():
    b = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    assert kernel_check(b, SparseVector(15, ()), 5)


def test_kernel_check_zero_matrix():
    b = np.zeros((3, 2), dtype=np.uint8)
    rng = np.random.default_rng(1)
    for _ in range(20):
        sup = tuple(sorted(rng.choice(15, size=6, replace=False)))
        assert kernel_check(b, SparseVector(15, tuple(int(x) for x in sup)), 5)


def test_kernel_fraction_exhaustive_toy():
    # fraction of fixed-weight vectors in the kernel is close to 2^-z
    r0, p = 3, 5
    b = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    import itertools
    total = passed = 0
    for sup in itertools.combinations(range(r0 * p), 3):
        total += 1
        if kernel_check(b, SparseVector(r0 * p, sup), p):
            passed += 1
    assert abs(passed / total - 0.25) < 0.08


def test_kernel_check_exhaustive_against_dense():
    r0, p, z = 3, 5, 2
    b = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    bt_rows = [sum(int(b[j, i]) << j for j in range(r0)) for i in range(z)]
    dense = kron_all_ones(bt_rows, r0, p)  # (B^T x 1_{1xp}) as z*p rows
    # keep only one row per z (the kron helper replicates rows p times)
    dense = [dense[i * p] for i in range(z)]
    for v in range(1 << (r0 * p)):
        s = sparse_from_int(v, r0 * p)
        expected = all((row & v).bit_count() % 2 == 0 for row in dense)
        assert kernel_check(b, s, p) == expected


# ---------------------------------------------------------------------------
# codeword generation


def test_gen_codeword_weight_window(toy29_key):
    sk, _ = toy29_key
    prm = sk.params
    xof = Xof(b"cw")
    floor = codeword_weight_floor(prm)
    for _ in range(50):
        c = gen_codeword(sk, xof)
        assert floor <= len(c) <= prm.m_g * prm.w_g


def test_gen_codeword_single_row_weight():
    prm = toy_params("m1", n0=13, r0=5, p=7, z=2, m_S=3, w=2, w_g=5, m_g=1)
    sk = toy_private_key(prm, b"k")
    xof = Xof(b"k")
    for _ in range(20):
        c = gen_codeword(sk, xof)
        assert len(c) == prm.w_g


def test_gen_codeword_is_codeword(toy29_key):
    sk, _ = toy29_key
    h_rows = h_dense(sk)
    xof = Xof(b"cw2")
    for _ in range(20):
        c = gen_codeword(sk, xof)
        assert dense_vec_mul(h_rows, support_to_int(c)) == 0


def test_gen_codeword_weight_floor_a3():
    # expected pairwise overlaps far exceed m_g for the densest grids
    assert codeword_weight_floor(A3) < A3.w_c - 2 * A3.m_g
    assert codeword_weight_floor(toy_params("toy29")) >= 1


# ---------------------------------------------------------------------------
# salt search and signing


def test_gen_error_weight_and_permutation(a3_key):
    sk, _ = a3_key
    theta, e_sup, s = gen_error(sk, b"msg", Xof(b"t"))
    assert len(e_sup) == A3.w
    assert s.weight == A3.w
    assert all(pos >= A3.k for pos in e_sup)


_SALT_MESSAGES = {"empty": b"", "one byte": b"m",
                  "64 KiB": bytes(range(256)) * 256,
                  "1 MiB": hashlib.shake_256(b"1 MiB").digest(1 << 20)}


@pytest.mark.parametrize("name", ["a3", "b6", "gamma3"])   # SHA3-256/384/512
def test_gen_error_matches_rehashing_oracle(name):
    prm = get_instance(name)
    sk = private_key_from_seed(bytes(prm.seed_bytes), prm)
    for label, msg in _SALT_MESSAGES.items():
        xof, twin = Xof(label.encode()), Xof(label.encode())
        theta, e_sup, s = gen_error(sk, msg, xof)
        want_theta, want_e, want_s = gen_error_rehashing(sk, msg, twin)
        assert (theta, s) == (want_theta, want_s), label
        assert np.sort(e_sup).tolist() == want_e.tolist(), label
        assert xof._pos == twin._pos


def test_gen_error_expected_salt_trials(a3_key):
    # success probability 2^-z = 1/4, so the mean trial count is near 4
    sk, _ = a3_key
    xof = Xof(b"trials")
    total = 0
    n_msgs = 1000
    for i in range(n_msgs):
        before = xof._pos
        gen_error(sk, i.to_bytes(4, "little"), xof)
        total += (xof._pos - before) // 8
    mean = total / n_msgs
    assert 3.2 <= mean <= 4.8


def test_sign_weight_bound_and_fresh_salt(toy29_key):
    sk, _ = toy29_key
    prm = sk.params
    sig1 = sign(sk, b"m")
    sig2 = sign(sk, b"m")
    assert sig1.sigma.weight <= prm.max_sig_weight
    assert sig1.theta_star != sig2.theta_star


def test_sign_rejects_bad_theta():
    with pytest.raises(ValueError):
        Signature(PackedVector.from_support(2, 5, ()), 1 << 64)
