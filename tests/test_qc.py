import random

import numpy as np
import pytest

from helpers import (BitPoly, QcMatrix, dense_eye, dense_mul,
                     dense_transpose, dense_vec_mul, genperm_dense,
                     genperm_transpose, mul_int, poly_inverse, poly_mul,
                     qc_mul, qc_vec_mul, support_to_int)
from ledasig.errors import DimensionError, NotInvertible, Singular
from ledasig.qc import (GenPermutation, SparseVector, dense_invert,
                        genperm_from_left, genperm_from_right, inverse_int,
                        odd_bits, transpose_int)


def rnd_poly(rng, p):
    return rng.getrandbits(p) & ((1 << p) - 1)


def _bit_array(rows, ncols):
    """0/1 array of row ints: bit j of rows[i] at [i, j]."""
    return np.array([[(r >> j) & 1 for j in range(ncols)] for r in rows],
                    dtype=np.uint8)


# ---------------------------------------------------------------------------
# polynomial ring


def test_poly_mul_unit_identity():
    rng = random.Random(1)
    for p in (3, 7, 31):
        one = BitPoly.unit(p)
        b = BitPoly(rnd_poly(rng, p), p)
        assert poly_mul(one, b) == b
        assert poly_mul(b, one) == b


def test_poly_mul_hand_expansion():
    # (1 + x)(1 + x + x^3) = 1 + x^2 + x^3 + x^4 over p = 7
    a = BitPoly(0b11, 7)
    b = BitPoly(0b1011, 7)
    assert poly_mul(a, b).coeffs == 0b11101


def test_poly_mul_reduction():
    # x^2 * x^2 = x^4 = x mod x^3 + 1
    a = BitPoly(0b100, 3)
    assert poly_mul(a, a).coeffs == 0b010


def test_poly_mul_modulus_mismatch():
    with pytest.raises(DimensionError):
        poly_mul(BitPoly(1, 3), BitPoly(1, 5))


@pytest.mark.parametrize("p", [3, 5, 7, 127])
def test_poly_ring_laws(p):
    rng = random.Random(p)
    for _ in range(40):
        a, b, c = (rnd_poly(rng, p) for _ in range(3))
        assert mul_int(a, b, p) == mul_int(b, a, p)
        assert mul_int(mul_int(a, b, p), c, p) == mul_int(a, mul_int(b, c, p), p)
        assert mul_int(a, b ^ c, p) == mul_int(a, b, p) ^ mul_int(a, c, p)


@pytest.mark.parametrize("p", [3, 5, 11, 13])
def test_circulant_isomorphism(p):
    rng = random.Random(p + 100)
    for _ in range(10):
        a, b = rnd_poly(rng, p), rnd_poly(rng, p)
        dense = dense_mul(BitPoly(a, p).to_dense(), BitPoly(b, p).to_dense(), p)
        assert dense == BitPoly(mul_int(a, b, p), p).to_dense()


def test_poly_inverse_monomial():
    # x * x^4 = x^5 = 1 mod x^5 + 1
    assert poly_inverse(BitPoly(0b10, 5)).coeffs == 1 << 4
    assert poly_inverse(BitPoly.unit(9)) == BitPoly.unit(9)


def test_poly_inverse_even_weight():
    with pytest.raises(NotInvertible):
        poly_inverse(BitPoly(0b11, 5))
    with pytest.raises(NotInvertible):
        poly_inverse(BitPoly(0b1111, 7))


@pytest.mark.parametrize("p", [3, 5, 7, 9])
def test_poly_inverse_matches_dense_singularity(p):
    for a in range(1, 1 << p):
        try:
            inv = inverse_int(a, p)
            invertible = True
            assert mul_int(a, inv, p) == 1
        except NotInvertible:
            invertible = False
        try:
            dense_invert(_bit_array(BitPoly(a, p).to_dense(), p))
            dense_ok = True
        except Singular:
            dense_ok = False
        assert invertible == dense_ok


def test_transpose_is_dense_transpose():
    rng = random.Random(5)
    for p in (3, 7, 13):
        a = rnd_poly(rng, p)
        dense_t = dense_transpose(BitPoly(a, p).to_dense(), p)
        assert dense_t == BitPoly(transpose_int(a, p), p).to_dense()


# ---------------------------------------------------------------------------
# QC matrices


def rnd_qc(rng, rb, cb, p):
    return QcMatrix.from_blocks(
        [[rnd_poly(rng, p) for _ in range(cb)] for _ in range(rb)], p)


def test_qc_mul_identity():
    rng = random.Random(2)
    a = rnd_qc(rng, 2, 3, 7)
    eye = QcMatrix.identity(3, 7)
    assert qc_mul(a, eye) == a


def test_qc_mul_1x1_is_poly_mul():
    rng = random.Random(3)
    a, b = rnd_poly(rng, 7), rnd_poly(rng, 7)
    prod = qc_mul(QcMatrix.from_blocks([[a]], 7), QcMatrix.from_blocks([[b]], 7))
    assert prod.blocks[0][0] == mul_int(a, b, 7)


@pytest.mark.parametrize("shape,p", [((2, 2, 2), 7), ((2, 3, 2), 5),
                                     ((3, 4, 2), 13), ((4, 2, 3), 11)])
def test_qc_mul_matches_dense(shape, p):
    rng = random.Random(p * 31)
    rb, ib, cb = shape
    a = rnd_qc(rng, rb, ib, p)
    b = rnd_qc(rng, ib, cb, p)
    dense = dense_mul(a.to_dense_rows(), b.to_dense_rows(), cb * p)
    assert dense == qc_mul(a, b).to_dense_rows()


def test_qc_mul_dimension_mismatch():
    a = QcMatrix.zero(2, 3, 5)
    with pytest.raises(DimensionError):
        qc_mul(a, QcMatrix.zero(2, 2, 5))
    with pytest.raises(DimensionError):
        qc_mul(a, QcMatrix.zero(3, 3, 7))


def test_qc_vec_mul_zero_and_identity():
    rng = random.Random(4)
    a = rnd_qc(rng, 2, 3, 5)
    zero = SparseVector(15, ())
    assert qc_vec_mul(a, zero).weight == 0
    eye = QcMatrix.identity(3, 5)
    v = SparseVector(15, (0, 4, 7, 14))
    assert qc_vec_mul(eye, v) == v


@pytest.mark.parametrize("seed", range(5))
def test_qc_vec_mul_matches_dense(seed):
    rng = random.Random(seed)
    a = rnd_qc(rng, 2, 3, 5)
    sup = tuple(sorted(rng.sample(range(15), rng.randint(0, 15))))
    v = SparseVector(15, sup)
    dense = dense_vec_mul(a.to_dense_rows(), v.to_int())
    assert qc_vec_mul(a, v).to_int() == dense


def test_qc_vec_mul_length_mismatch():
    with pytest.raises(DimensionError):
        qc_vec_mul(QcMatrix.zero(2, 3, 5), SparseVector(10, ()))


# ---------------------------------------------------------------------------
# dense matrices


def test_dense_invert_identity_and_involution():
    eye = np.eye(4, dtype=np.uint8)
    assert np.array_equal(dense_invert(eye), eye)
    m = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert np.array_equal(dense_invert(m), m)


def test_dense_invert_multiply_back():
    rng = np.random.default_rng(7)
    for _ in range(5):
        while True:
            m = rng.integers(0, 2, size=(8, 8), dtype=np.uint8)
            try:
                inv = dense_invert(m)
                break
            except Singular:
                continue
        # against the row-int product oracle: row i packs [i, j] at bit j
        m_rows = [support_to_int(np.flatnonzero(row)) for row in m]
        inv_rows = [support_to_int(np.flatnonzero(row)) for row in inv]
        assert dense_mul(m_rows, inv_rows, 8) == dense_eye(8)
        assert dense_mul(inv_rows, m_rows, 8) == dense_eye(8)


def test_dense_invert_singular():
    with pytest.raises(Singular):
        dense_invert(np.array([[1, 0], [1, 0]], dtype=np.uint8))


def test_dense_invert_not_square():
    with pytest.raises(DimensionError):
        dense_invert(np.zeros((2, 3), dtype=np.uint8))


# ---------------------------------------------------------------------------
# generalized permutations


def test_genperm_identity():
    gp = GenPermutation((0, 1, 2), (0, 0, 0), 4)
    sup = np.array([0, 5, 11], dtype=np.int64)
    assert np.array_equal(gp.apply(sup), sup)


def test_genperm_spec_index_example():
    gp = GenPermutation((1, 0), (1, 2), 3)
    assert gp.apply(np.array([0], dtype=np.int64)).tolist() == [4]


@pytest.mark.parametrize("seed", range(6))
def test_genperm_transpose_roundtrip(seed):
    rng = random.Random(seed)
    b, p = 4, 5
    perm = list(range(b))
    rng.shuffle(perm)
    gp = GenPermutation(tuple(perm), tuple(rng.randrange(p) for _ in range(b)), p)
    gt = genperm_transpose(gp)
    sup = np.array(sorted(rng.sample(range(b * p), 7)), dtype=np.int64)
    assert np.array_equal(gt.apply(gp.apply(sup)), sup)
    assert np.array_equal(gp.apply(gt.apply(sup)), sup)


def test_genperm_transpose_is_dense_transpose():
    gp = GenPermutation((2, 0, 1), (1, 4, 2), 5)
    n = 15
    t_rows = dense_transpose(genperm_dense(gp), n)
    gt = genperm_transpose(gp)
    for idx in range(n):
        out = gt.apply(np.array([idx], dtype=np.int64))
        assert dense_vec_mul(t_rows, 1 << idx) == 1 << int(out[0])


def _diag_rot_dense(rots, p):
    out = []
    for i, t in enumerate(rots):
        blk = BitPoly.monomial(t, p).to_dense()
        for r in range(p):
            out.append(blk[r] << (i * p))
    return out


def _perm_kron_dense(perm_rows, p):
    b = len(perm_rows)
    out = []
    for i in range(b):
        for o in range(p):
            out.append(1 << (perm_rows[i] * p + o))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_genperm_factor_constructors_match_dense(seed):
    rng = random.Random(seed + 50)
    b, p = 3, 5
    perm = list(range(b))
    rng.shuffle(perm)
    rots = [rng.randrange(p) for _ in range(b)]
    n = b * p
    diag = _diag_rot_dense(rots, p)
    pk = _perm_kron_dense(perm, p)
    left = genperm_from_left(perm, rots, p)
    assert genperm_dense(left) == dense_mul(diag, pk, n)
    right = genperm_from_right(perm, rots, p)
    assert genperm_dense(right) == dense_mul(pk, diag, n)


# ---------------------------------------------------------------------------
# GF(2) sums of unit vectors


# m positions drawn from the first 1 + m // 4 of n, so most repeat; the
# first four sort (m log2 m < n), the last two count
@pytest.mark.parametrize("m, n", [(0, 50), (1, 50), (12, 1000),
                                  (200, 10**5), (40, 50), (3000, 50)])
def test_odd_bits_is_count_parity(m, n):
    rng = np.random.default_rng(m)
    pos = rng.integers(0, min(n, 1 + m // 4), size=m)
    before = pos.copy()
    bits = odd_bits(pos, n)
    assert bits.dtype == bool and bits.shape == (n,)
    assert np.array_equal(bits, np.bincount(pos, minlength=n) % 2 == 1)
    assert np.array_equal(pos, before)
