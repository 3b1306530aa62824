import random

import numpy as np
import pytest

from helpers import QcMatrix, dense_vec_mul, qc_to_words, qc_vec_mul
from ledasig import packed
from ledasig.packed import _HAVE_NUMBA, PackedQc
from ledasig.qc import SparseVector


def rnd_qc(rng, rb, cb, p):
    return QcMatrix.from_blocks(
        [[rng.getrandbits(p) for _ in range(cb)] for _ in range(rb)], p)


def packed_qc(mat, use_numba=None):
    return PackedQc(qc_to_words(mat), mat.p, use_numba)


@pytest.mark.parametrize("p", [5, 13, 64, 65, 127, 130])
def test_packed_matches_dense_and_qc(p):
    rng = random.Random(p)
    mat = rnd_qc(rng, 3, 4, p)
    dense = mat.to_dense_rows()
    packed_np = packed_qc(mat, use_numba=False)
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
    fast = packed_qc(mat, use_numba=True)
    slow = packed_qc(mat, use_numba=False)
    for _ in range(6):
        sup = tuple(sorted(rng.sample(range(5 * p), rng.randint(1, 5 * p))))
        assert fast.mul_support(sup) == slow.mul_support(sup)


def test_empty_support_gives_zero():
    rng = random.Random(0)
    mat = rnd_qc(rng, 2, 2, 11)
    assert packed_qc(mat).mul_support(()) == 0


def _only_regime(monkeypatch, regime):
    """Force one numpy regime; the other one fails if it is reached."""
    def unreachable(*args):
        raise AssertionError("wrong numpy regime")

    if regime == "in_place":
        monkeypatch.setattr(packed, "_WIDE_ROW_BYTES", -1)
        monkeypatch.setattr(packed, "_accumulate_gathered", unreachable)
    else:
        monkeypatch.setattr(packed, "_WIDE_ROW_BYTES", float("inf"))
        monkeypatch.setattr(packed, "_accumulate_in_place", unreachable)


def _comb_edges(p):
    """In-block offsets whose negated offset t = (-o) mod p is residue 0,
    residue 63 (when p > 63) and in the top word window q = nw - 1."""
    nw = (p + 63) // 64
    ts = {0, p - 1, 64 * (nw - 1)} | ({63} if p > 63 else set())
    return [(-t) % p for t in sorted(ts)]


# The ids keep the names of the kernels these paths replaced: the grouped
# gather-reduce goes on as the gathered comb, and the in-place comb took
# the tiled kernel's place for wide rows.  The number caps the weight of
# the random supports: 0 leaves the edge offsets alone, 3 a sparse support
# that leaves most residues empty, 10**6 any weight up to every bit.
@pytest.mark.parametrize("regime, cap", [
    pytest.param("gathered", None, id="grouped-None"),
    pytest.param("in_place", 0, id="tiled-0"),
    pytest.param("in_place", 3, id="tiled-3"),
    pytest.param("in_place", 10**6, id="tiled-1000000")])
@pytest.mark.parametrize(
    "p", [5, 13, 63, 64, 65, 127, 128, 130, 191, 192, 193])
def test_numpy_regimes_match_dense(monkeypatch, p, regime, cap):
    rng = random.Random(1000 + p)
    mat = rnd_qc(rng, 3, 4, p)
    dense = mat.to_dense_rows()
    pq = packed_qc(mat, use_numba=False)
    _only_regime(monkeypatch, regime)
    edges = _comb_edges(p)
    top = 4 * p if cap is None else min(cap, 4 * p)
    # random supports, every other one (and any left empty) with all edge
    # offsets added, then each edge offset alone, where a wrong shift or
    # window cannot cancel, and the full support
    sups = []
    for trial in range(6):
        sup = set(rng.sample(range(4 * p), rng.randint(0, top)))
        if trial % 2 == 0 or not sup:
            sup |= {rng.randrange(4) * p + o for o in edges}
        sups.append(tuple(sorted(sup)))
    sups += [(rng.randrange(4) * p + o,) for o in edges]
    sups.append(tuple(range(4 * p)))
    for sup in sups:
        assert pq.mul_support(sup) == dense_vec_mul(
            dense, SparseVector(4 * p, sup).to_int())


def test_numpy_regimes_agree_full_shape(monkeypatch):
    # gamma3's shape (r0 = 139, n0 = 293, p = 3121) at sigma's density
    rng = random.Random(3121)
    mat = rnd_qc(rng, 139, 293, 3121)
    pq = packed_qc(mat, use_numba=False)
    n = 293 * 3121
    sup = np.flatnonzero(
        np.random.default_rng(3121).random(n) < 0.24).tolist()
    with monkeypatch.context() as m:
        _only_regime(m, "gathered")
        gathered = pq.mul_support(sup)
    _only_regime(monkeypatch, "in_place")
    assert pq.mul_support(sup) == gathered


@pytest.mark.parametrize("p", [63, 64, 65, 127, 128, 192])
def test_by_row_holds_transposed_blocks(p):
    # by_row is the wire array itself; by_col[j] is block column j word-major
    rng = random.Random(p)
    words = qc_to_words(rnd_qc(rng, 2, 3, p))
    pq = PackedQc(words, p, use_numba=False)
    assert np.shares_memory(pq.by_row, words)
    nw = (p + 63) // 64
    assert pq.by_col.shape == (3, nw, 2) and pq.by_col.flags.c_contiguous
    for i in range(2):
        for j in range(3):
            assert np.array_equal(pq.by_col[j][:, i], words[i, j])


@pytest.mark.skipif(_HAVE_NUMBA, reason="numba installed")
def test_numba_backend_without_numba_fails_fast():
    mat = rnd_qc(random.Random(0), 2, 2, 11)
    with pytest.raises(ValueError, match="numba"):
        packed_qc(mat, use_numba=True)
