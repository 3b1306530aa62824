import numpy as np
import pytest

from helpers import (dense_eye, dense_mul, dense_transpose, dense_vec_mul,
                     g_dense, genperm_dense, genperm_transpose, h_dense,
                     invert_perm, invert_q, invert_s, kron_blockmix_apply,
                     m_perm, mul_int, pi_lambda, pi_phi, q_dense, q_inv_dense,
                     s_dense, s_inv_dense, support_to_int, table_dense,
                     toy_private_key, transpose_int, v_qc, words_to_qc)
from ledasig import keypair_from_seed, toy_params
from ledasig.drbg import Xof
from ledasig.keygen import (PrivateKey, apply_s, build_public_key,
                            compute_d, gen_v, private_key_from_seed,
                            q_correction_mask, scrambler_map)
from ledasig.params import INSTANCES, get_instance


def _assert_v_rows(v, prm):
    cols, rots = v
    assert cols.shape == rots.shape == (prm.k0, prm.w_g - 1)
    assert (np.diff(cols, axis=1) > 0).all()     # distinct, ascending
    assert ((cols >= 0) & (cols < prm.r0)).all()
    assert ((rots >= 0) & (rots < prm.p)).all()


def test_gen_v_block_row_structure():
    prm = toy_params("genv", n0=7, r0=3, p=5, z=1, m_S=1, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"v")
    _assert_v_rows(sk.v, prm)
    for row in v_qc(sk).blocks:
        nonzero = [b for b in row if b]
        assert len(nonzero) == prm.w_g - 1
        assert all(b.bit_count() == 1 for b in nonzero)
    # expanded generator [I | V] has row weight w_g
    for grow in g_dense(sk):
        assert grow.bit_count() == prm.w_g


def test_gen_v_degenerate_wg1():
    prm = toy_params("genv1", n0=7, r0=3, p=5, z=1, m_S=1, w=1, w_g=1, m_g=1)
    cols, rots = gen_v(prm, Xof(b"v"))
    assert cols.shape == rots.shape == (prm.k0, 0)


def test_gen_v_full_scale_row_count(a3_key):
    sk, _ = a3_key
    _assert_v_rows(sk.v, sk.params)


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
        col = apply_s(sk, np.array([j], dtype=np.int64)).positions()
        assert len(col) == sk.params.m_S


def test_s_row_weight_full_scale(a3_key):
    # row i of S = S^T e_i = PiPhi^T (E^T x I_p) PiLambda^T e_i
    sk, _ = a3_key
    prm = sk.params
    et = transpose_int(support_to_int(sk.s.e), prm.n0)
    lam_t = genperm_transpose(pi_lambda(sk))
    phi_t = genperm_transpose(pi_phi(sk))
    for i in (0, 127, prm.n - 1):
        pos = lam_t.apply(np.array([i], dtype=np.int64))
        pos = kron_blockmix_apply(et, prm.n0, prm.p, pos)
        pos = phi_t.apply(pos)
        assert len(pos) == prm.m_S


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_scrambler_circulant_held_as_shift_arrays(name):
    # E and E^-1 are ascending int64 block shifts, and every factor of the
    # private key is an array
    prm = INSTANCES[name]
    sk = private_key_from_seed(bytes(prm.seed_bytes), prm)
    e, e_inv = sk.s.e, sk.s.e_inv
    assert e.dtype == e_inv.dtype == np.int64 and e.shape == (prm.m_S,)
    for shifts in (e, e_inv):
        assert (np.diff(shifts) > 0).all()
        assert 0 <= shifts[0] and shifts[-1] < prm.n0
    assert mul_int(support_to_int(e), support_to_int(e_inv), prm.n0) == 1
    assert all(isinstance(a, np.ndarray) for a in sk._arrays())


TABLE_SHAPES = [
    dict(n0=5, r0=2, p=3, z=1, m_S=3, w=1, w_g=3, m_g=1),
    dict(n0=13, r0=5, p=4, z=2, m_S=5, w=1, w_g=3, m_g=1),
    dict(n0=11, r0=3, p=5, z=1, m_S=1, w=1, w_g=3, m_g=1),
]


@pytest.mark.parametrize("shape", range(len(TABLE_SHAPES)))
def test_key_tables_match_dense_factors(shape):
    # S's composed table against PiLambda . (E x I_p) . PiPhi and M's
    # against the generalized permutation, both built from the raw factors
    prm = toy_params("tab", **TABLE_SHAPES[shape])
    sk = toy_private_key(prm, b"tab%d" % shape)
    blocks, rots = sk.s_map
    assert blocks.shape == rots.shape == (prm.n0, prm.m_S)
    assert table_dense(sk.s_map, prm.p) == s_dense(sk)
    assert sk.m_map[0].shape == (prm.r0, 1)
    assert table_dense(sk.m_map, prm.p) == genperm_dense(m_perm(sk))


@pytest.mark.parametrize("shape", range(len(TABLE_SHAPES)))
def test_s_inverse_transpose_table(shape):
    # the table build_public_key composes from -e_inv is S^-T
    prm = toy_params("tab", **TABLE_SHAPES[shape])
    sk = toy_private_key(prm, b"tab%d" % shape)
    shifts = -sk.s.e_inv % prm.n0
    s_t = table_dense(scrambler_map(sk, shifts), prm.p)
    assert s_t == dense_transpose(s_inv_dense(sk), prm.n)


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
        back = apply_s_inv(apply_s(sk, sup).positions())
        assert np.array_equal(back, sup)


def test_apply_s_matches_dense_at_every_support_size():
    # few positions are sorted, many counted: cover both and the crossover
    prm = toy_params("sapp", n0=13, r0=5, p=3, z=2, m_S=5, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"sa")
    rows = s_dense(sk)
    rng = np.random.default_rng(5)
    for size in range(prm.n + 1):
        sup = np.sort(rng.choice(prm.n, size=size, replace=False))
        got = support_to_int(apply_s(sk, sup).positions())
        assert got == dense_vec_mul(rows, support_to_int(sup)), size


def test_compute_d_zero_a_is_identity():
    prm = toy_params("qd", n0=13, r0=5, p=7, z=2, m_S=3, w=2, w_g=5, m_g=2)
    a = np.zeros((5, 2), dtype=np.uint8)
    b = np.array([[1, 1], [1, 0], [0, 1], [0, 0], [1, 0]], dtype=np.uint8)
    assert np.array_equal(compute_d(prm, (0, 1, 2, 3, 4), a, b), np.eye(2))


def test_compute_d_and_k_match_scalar_sums():
    prm = toy_params("qsum", n0=13, r0=5, p=3, z=3, m_S=3, w=1, w_g=3, m_g=1)
    q = toy_private_key(prm, b"qs").q
    inv = invert_perm(q.perm)
    r0, z = prm.r0, prm.z
    d = [[int(i == j) ^ (sum(int(q.b[k, i] & q.a[inv[k], j])
                             for k in range(r0)) & 1)
          for j in range(z)] for i in range(z)]
    assert compute_d(prm, q.perm, q.a, q.b).tolist() == d
    k = [[sum(int(q.a[inv[x], i] & q.d_inv[i, j] & q.b[q.perm[y], j])
              for i in range(z) for j in range(z)) & 1
          for y in range(r0)] for x in range(r0)]
    assert q_correction_mask(q).tolist() == k
    # 301 rows of ones: the uint8 sums wrap to 45, and keep their parity
    ones = np.ones((301, z), dtype=np.uint8)
    assert np.array_equal(compute_d(prm, range(301), ones, ones),
                          1 - np.eye(z))


def test_q_inverse_dense_toy():
    prm = toy_params("qinv", n0=13, r0=5, p=3, z=2, m_S=3, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"q")
    prod = dense_mul(q_dense(sk), q_inv_dense(sk), prm.r)
    assert prod == dense_eye(prm.r)


def test_q_inverse_even_p():
    prm = toy_params("qeven", n0=13, r0=5, p=4, z=2, m_S=3, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"qe")
    assert np.array_equal(sk.q.d_inv, np.eye(2))
    prod = dense_mul(q_dense(sk), q_inv_dense(sk), prm.r)
    assert prod == dense_eye(prm.r)


def test_q_rank_correction_bounded(toy13_key):
    sk, _ = toy13_key
    prm = sk.params
    # R = Q - M must have rank at most z over GF(2)
    m_rows = genperm_dense(m_perm(sk))
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
    prm = toy_params("pk0", n0=5, r0=2, p=3, z=1, m_S=1, w=1, w_g=1, m_g=1)
    from ledasig.keygen import QFactors, SFactors
    n0, r0, p = prm.n0, prm.r0, prm.p
    no_v = np.zeros((prm.k0, 0), dtype=np.int64)
    sk = PrivateKey(
        params=prm, seed=b"",
        v=(no_v, no_v),
        s=SFactors(np.zeros(n0, np.int64), np.zeros(n0, np.int64),
                   np.arange(n0), np.arange(n0), np.zeros(1, np.int64),
                   np.zeros(1, np.int64)),
        q=QFactors(np.arange(r0), np.zeros(r0, np.int64),
                   np.zeros((r0, 1), dtype=np.uint8),
                   np.zeros((r0, 1), dtype=np.uint8),
                   np.eye(1, dtype=np.uint8)))
    hp = words_to_qc(build_public_key(sk).words, p)
    for i in range(r0):
        for j in range(n0):
            expected = 1 if j == prm.k0 + i else 0
            assert hp.blocks[i][j] == expected


def test_public_key_matches_dense_chain():
    prm = toy_params("pkd", n0=13, r0=5, p=3, z=2, m_S=3, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"pk")
    pk = build_public_key(sk)
    ht = h_dense(sk)
    expected = dense_mul(dense_mul(q_inv_dense(sk), ht, prm.n),
                         s_inv_dense(sk), prm.n)
    assert words_to_qc(pk.words, prm.p).to_dense_rows() == expected


def test_public_key_annihilates_scrambled_codewords_exhaustive():
    # tiny code: k = 3, run all 8 information words
    prm = toy_params("ann", n0=3, r0=2, p=3, z=1, m_S=1, w=1, w_g=3, m_g=1)
    sk = toy_private_key(prm, b"an")
    pk = build_public_key(sk)
    g = g_dense(sk)
    s_rows_t = dense_transpose(s_dense(sk), prm.n)
    hp_rows = words_to_qc(pk.words, prm.p).to_dense_rows()
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
    cols, rots = sk.v
    for i in (0, 1, prm.k0 - 1):
        row_sup = [i * prm.p] + [int(c) * prm.p + int(t) + prm.k
                                 for c, t in zip(cols[i], rots[i])]
        sigma = apply_s(
            sk, np.array(sorted(row_sup), dtype=np.int64)).positions()
        assert pk.packed.mul_support(sigma) == 0


def test_keypair_determinism():
    prm = toy_params("toy13")
    pk1 = keypair_from_seed(b"\x07" * 32, prm)[1]
    pk2 = keypair_from_seed(b"\x07" * 32, prm)[1]
    assert pk1 == pk2


def test_distinct_seeds_give_distinct_keys():
    prm = toy_params("toy13")
    seen = set()
    for i in range(100):
        sk, pk = keypair_from_seed(i.to_bytes(1, "little") * 32, prm)
        seen.add(pk.words.tobytes())
    assert len(seen) == 100


def test_seed_length_enforced():
    with pytest.raises(ValueError):
        keypair_from_seed(b"\x00" * 16, get_instance("a3"))
