import random

import pytest

from helpers import dense_vec_mul, qc_vec_mul
from ledasig.packed import _HAVE_NUMBA, PackedQc
from ledasig.qc import QcMatrix, SparseVector


def rnd_qc(rng, rb, cb, p):
    return QcMatrix.from_blocks(
        [[rng.getrandbits(p) for _ in range(cb)] for _ in range(rb)], p)


@pytest.mark.parametrize("p", [5, 13, 64, 65, 127, 130])
def test_packed_matches_dense_and_qc(p):
    rng = random.Random(p)
    mat = rnd_qc(rng, 3, 4, p)
    dense = mat.to_dense_rows()
    packed_np = PackedQc(mat, use_numba=False)
    for trial in range(8):
        sup = tuple(sorted(rng.sample(range(4 * p), rng.randint(0, 4 * p))))
        v = SparseVector(4 * p, sup)
        expected = dense_vec_mul(dense, v.to_int())
        assert packed_np.mul_support(sup) == expected
        assert qc_vec_mul(mat, v).to_int() == expected


@pytest.mark.skipif(not _HAVE_NUMBA, reason="numba unavailable")
@pytest.mark.parametrize("p", [5, 127, 263])
def test_numba_and_numpy_paths_agree(p):
    rng = random.Random(p + 7)
    mat = rnd_qc(rng, 4, 5, p)
    fast = PackedQc(mat, use_numba=True)
    slow = PackedQc(mat, use_numba=False)
    for _ in range(6):
        sup = tuple(sorted(rng.sample(range(5 * p), rng.randint(1, 5 * p))))
        assert fast.mul_support(sup) == slow.mul_support(sup)


def test_empty_support_gives_zero():
    rng = random.Random(0)
    mat = rnd_qc(rng, 2, 2, 11)
    assert PackedQc(mat).mul_support(()) == 0
