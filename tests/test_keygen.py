import numpy as np
import pytest

from helpers import (dense_eye, dense_mul, dense_transpose, dense_vec_mul,
                     g_dense, genperm_dense, genperm_transpose, h_dense,
                     invert_q, invert_s, kron_blockmix_apply, q_dense,
                     q_inv_dense, s_dense, s_inv_dense, support_to_int,
                     toy_private_key)
from ledasig import keypair_from_seed, toy_params
from ledasig.drbg import Xof
from ledasig.keygen import (PrivateKey, apply_s, build_public_key, compute_d,
                            gen_v)
from ledasig.params import get_instance
from ledasig.qc import DenseBitMatrix, QcMatrix, transpose_int


def test_gen_v_block_row_structure():
    prm = toy_params("genv", n0=7, r0=3, p=5, z=1, m_S=1, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"v")
    for row in sk.v.blocks:
        nonzero = [b for b in row if b]
        assert len(nonzero) == prm.w_g - 1
        assert all(b.bit_count() == 1 for b in nonzero)
    # expanded generator [I | V] has row weight w_g
    for grow in g_dense(sk):
        assert grow.bit_count() == prm.w_g


def test_gen_v_degenerate_wg1():
    prm = toy_params("genv1", n0=7, r0=3, p=5, z=1, m_S=1, w=0, w_g=1, m_g=1)
    v = gen_v(prm, Xof(b"v"))
    assert all(b == 0 for row in v.blocks for b in row)


def test_gen_v_full_scale_row_count(a3_key):
    sk, _ = a3_key
    for row in sk.v.blocks:
        assert sum(1 for b in row if b) == sk.params.w_g - 1


def test_s_has_constant_row_and_column_weight(toy13_key):
    sk, _ = toy13_key
    rows = s_dense(sk)
    n = sk.params.n
    assert all(r.bit_count() == sk.params.m_S for r in rows)
    cols = dense_transpose(rows, n)
    assert all(c.bit_count() == sk.params.m_S for c in cols)


def test_s_column_weight_full_scale(a3_key):
    sk, _ = a3_key
    for j in (0, 1, 17526, 28828):
        col = apply_s(sk, np.array([j], dtype=np.int64))
        assert len(col) == sk.params.m_S


def test_s_row_weight_full_scale(a3_key):
    # row i of S = S^T e_i = PiPhi^T (E^T x I_p) PiLambda^T e_i
    sk, _ = a3_key
    prm = sk.params
    et = transpose_int(sk.s.e_poly, prm.n0)
    lam_t = genperm_transpose(sk.pi_lambda)
    phi_t = genperm_transpose(sk.pi_phi)
    for i in (0, 127, prm.n - 1):
        pos = lam_t.apply(np.array([i], dtype=np.int64))
        pos = kron_blockmix_apply(et, prm.n0, prm.p, pos)
        pos = phi_t.apply(pos)
        assert len(pos) == prm.m_S


def test_s_trivial_permutation_case():
    # m_S = 1 with trivial factors: S is a permutation matrix
    prm = toy_params("s1", n0=5, r0=2, p=3, z=1, m_S=1, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"s1")
    rows = s_dense(sk)
    assert all(r.bit_count() == 1 for r in rows)
    assert all(c.bit_count() == 1 for c in dense_transpose(rows, prm.n))


def test_s_inverse_roundtrip_dense():
    prm = toy_params("sinv", n0=5, r0=2, p=3, z=1, m_S=3, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"abc")
    prod = dense_mul(s_dense(sk), s_inv_dense(sk), prm.n)
    assert prod == dense_eye(prm.n)


def test_s_inverse_roundtrip_apply(toy29_key):
    sk, _ = toy29_key
    rng = np.random.default_rng(3)
    apply_s_inv = invert_s(sk)
    for _ in range(10):
        sup = np.sort(rng.choice(sk.params.n, size=9, replace=False))
        back = apply_s_inv(apply_s(sk, sup))
        assert np.array_equal(back, sup)


def test_compute_d_zero_a_is_identity():
    prm = toy_params("qd", n0=13, r0=5, p=7, z=2, m_S=3, w=2, w_g=5, m_g=2)
    a = DenseBitMatrix.from_rows([0] * 5, 2)
    b = DenseBitMatrix.from_rows([3, 1, 2, 0, 1], 2)
    assert compute_d(prm, (0, 1, 2, 3, 4), a, b) == DenseBitMatrix.identity(2)


def test_q_inverse_dense_toy():
    prm = toy_params("qinv", n0=13, r0=5, p=3, z=2, m_S=3, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"q")
    prod = dense_mul(q_dense(sk), q_inv_dense(sk), prm.r)
    assert prod == dense_eye(prm.r)


def test_q_inverse_even_p():
    prm = toy_params("qeven", n0=13, r0=5, p=4, z=2, m_S=3, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"qe")
    assert sk.q.d_inv == DenseBitMatrix.identity(2)
    prod = dense_mul(q_dense(sk), q_inv_dense(sk), prm.r)
    assert prod == dense_eye(prm.r)


def test_q_rank_correction_bounded(toy13_key):
    sk, _ = toy13_key
    prm = sk.params
    # R = Q - M must have rank at most z over GF(2)
    m_rows = genperm_dense(sk.m_perm)
    r_rows = [q ^ m for q, m in zip(q_dense(sk), m_rows)]
    assert _gf2_rank(r_rows) <= prm.z


def _gf2_rank(rows):
    basis = {}
    rank = 0
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead in basis:
                r ^= basis[lead]
            else:
                basis[lead] = r
                rank += 1
                break
    return rank


def test_invert_q_matches_dense_inverse():
    prm = toy_params("qapp", n0=13, r0=5, p=3, z=2, m_S=3, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"qq")
    apply_q_inv = invert_q(sk)
    qinv_rows = q_inv_dense(sk)
    rng = np.random.default_rng(5)
    for _ in range(10):
        sup = np.sort(rng.choice(prm.r, size=4, replace=False))
        expected = dense_vec_mul(qinv_rows, support_to_int(sup))
        got = support_to_int(apply_q_inv(sup))
        assert got == expected


def test_public_key_trivial_factors():
    # V = 0 and S = Q = I gives H' = [0 | I]
    prm = toy_params("pk0", n0=5, r0=2, p=3, z=1, m_S=1, w=0, w_g=1, m_g=1)
    from ledasig.keygen import QFactors, SFactors
    n0, r0, p = prm.n0, prm.r0, prm.p
    sk = PrivateKey(
        params=prm, seed=b"",
        v=QcMatrix.zero(prm.k0, r0, p),
        s=SFactors((0,) * n0, (0,) * n0, tuple(range(n0)), tuple(range(n0)),
                   1, 1),
        q=QFactors(tuple(range(r0)), (0,) * r0,
                   DenseBitMatrix.from_rows([0] * r0, 1),
                   DenseBitMatrix.from_rows([0] * r0, 1),
                   DenseBitMatrix.identity(1)))
    pk = build_public_key(sk)
    for i in range(r0):
        for j in range(n0):
            expected = 1 if j == prm.k0 + i else 0
            assert pk.hp.blocks[i][j] == expected


def test_public_key_matches_dense_chain():
    prm = toy_params("pkd", n0=13, r0=5, p=3, z=2, m_S=3, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"pk")
    pk = build_public_key(sk)
    ht = h_dense(sk)
    expected = dense_mul(dense_mul(q_inv_dense(sk), ht, prm.n),
                         s_inv_dense(sk), prm.n)
    assert pk.hp.to_dense_rows() == expected


def test_public_key_annihilates_scrambled_codewords_exhaustive():
    # tiny code: k = 3, run all 8 information words
    prm = toy_params("ann", n0=3, r0=2, p=3, z=1, m_S=1, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"an")
    pk = build_public_key(sk)
    g = g_dense(sk)
    s_rows_t = dense_transpose(s_dense(sk), prm.n)
    hp_rows = pk.hp.to_dense_rows()
    for u in range(1 << prm.k):
        c = 0
        uu = u
        while uu:
            low = uu & -uu
            c ^= g[low.bit_length() - 1]
            uu ^= low
        sigma = dense_vec_mul(dense_transpose(s_rows_t, prm.n), c)  # c . S^T
        assert dense_vec_mul(hp_rows, sigma) == 0


def test_public_key_annihilates_rows_full_scale(a3_key):
    sk, pk = a3_key
    prm = sk.params
    cols, rots = sk.v_row_structure
    for i in (0, 1, prm.k0 - 1):
        row_sup = [i * prm.p] + [int(c) * prm.p + int(t) + prm.k
                                 for c, t in zip(cols[i], rots[i])]
        sigma = apply_s(sk, np.array(sorted(row_sup), dtype=np.int64))
        assert pk.packed.mul_support(sigma) == 0


def test_keypair_determinism():
    prm = toy_params("toy13")
    pk1 = keypair_from_seed(b"\x07" * 32, prm)[1]
    pk2 = keypair_from_seed(b"\x07" * 32, prm)[1]
    assert pk1.hp == pk2.hp


def test_distinct_seeds_give_distinct_keys():
    prm = toy_params("toy13")
    seen = set()
    for i in range(100):
        sk, pk = keypair_from_seed(i.to_bytes(1, "little") * 32, prm)
        seen.add(pk.hp.blocks)
    assert len(seen) == 100


def test_seed_length_enforced():
    with pytest.raises(ValueError):
        keypair_from_seed(b"\x00" * 16, get_instance("a3"))
