import random

import numpy as np
import pytest

from helpers import dense_vec_mul, qc_vec_mul
from ledasig import packed
from ledasig.packed import _HAVE_NUMBA, PackedQc
from ledasig.qc import QcMatrix, SparseVector, transpose_int


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


def _only_regime(monkeypatch, regime):
    """Force one numpy regime; the other one fails if it is reached."""
    def unreachable(*args):
        raise AssertionError("wrong numpy regime")

    if regime == "tiled":
        monkeypatch.setattr(packed, "_WIDE_GROUP_BYTES", 0)
        monkeypatch.setattr(packed, "_accumulate_grouped", unreachable)
    else:
        monkeypatch.setattr(packed, "_WIDE_GROUP_BYTES", float("inf"))
        monkeypatch.setattr(packed, "_accumulate_tiled", unreachable)


# tiled budgets: below one key row (one offset per tile), three rows (a
# partial last tile) and more rows than the support has offsets
@pytest.mark.parametrize("regime, tile_rows", [
    ("grouped", None), ("tiled", 0), ("tiled", 3), ("tiled", 10**6)])
@pytest.mark.parametrize("p", [5, 13, 63, 64, 65, 127, 128, 130])
def test_numpy_regimes_match_dense(monkeypatch, p, regime, tile_rows):
    rng = random.Random(1000 + p)
    mat = rnd_qc(rng, 3, 4, p)
    dense = mat.to_dense_rows()
    pq = PackedQc(mat, use_numba=False)
    _only_regime(monkeypatch, regime)
    if tile_rows is not None:
        monkeypatch.setattr(packed, "_TILE_BYTES",
                            tile_rows * pq.by_col[0].nbytes)
    for _ in range(6):
        sup = tuple(sorted(rng.sample(range(4 * p), rng.randint(1, 4 * p))))
        assert pq.mul_support(sup) == dense_vec_mul(
            dense, SparseVector(4 * p, sup).to_int())


def test_numpy_regimes_agree_full_shape(monkeypatch):
    # gamma3's shape (r0 = 139, n0 = 293, p = 3121) at sigma's density
    rng = random.Random(3121)
    mat = rnd_qc(rng, 139, 293, 3121)
    pq = PackedQc(mat, use_numba=False)
    n = 293 * 3121
    sup = np.flatnonzero(
        np.random.default_rng(3121).random(n) < 0.24).tolist()
    with monkeypatch.context() as m:
        _only_regime(m, "grouped")
        grouped = pq.mul_support(sup)
    _only_regime(monkeypatch, "tiled")
    assert pq.mul_support(sup) == grouped


@pytest.mark.parametrize("p", [63, 64, 65, 127, 128, 192])
def test_by_row_holds_transposed_blocks(p):
    rng = random.Random(p)
    mat = rnd_qc(rng, 2, 3, p)
    pq = PackedQc(mat, use_numba=False)
    nw = (p + 63) // 64
    for i in range(2):
        for j in range(3):
            want = transpose_int(mat.blocks[i][j], p).to_bytes(nw * 8, "little")
            assert pq.by_row[i, j].tobytes() == want
            assert pq.by_col[j, i * nw:(i + 1) * nw].tobytes() == want


@pytest.mark.skipif(_HAVE_NUMBA, reason="numba installed")
def test_numba_backend_without_numba_fails_fast():
    mat = rnd_qc(random.Random(0), 2, 2, 11)
    with pytest.raises(ValueError, match="numba"):
        PackedQc(mat, use_numba=True)
