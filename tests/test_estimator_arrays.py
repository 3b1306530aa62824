"""The estimator's array forms against its scalar oracles: the same floats,
bit for bit, on random small shapes and on the nine instances and the toy
shapes."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (REPORT_PARAMS, and_step_loop, lca_wf_scalar,
                     p_i_ge_j_scalar, sia_wf_scalar, xor_step_loop)
from ledasig import estimator
from ledasig.estimator import (NEG_INF, _overlap_fold, _p_i_ge_j, lca_wf,
                               log2_sum, sia_wf, xor_weight_dist)


def _log2_dist(draw, size: int) -> np.ndarray:
    """A log2 weight distribution with -inf holes, at least one live."""
    live = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    vals = draw(st.lists(st.floats(-80.0, 0.0), min_size=size,
                         max_size=size))
    dist = np.where(live, vals, NEG_INF)
    dist[draw(st.integers(0, size - 1))] = draw(st.floats(-80.0, 0.0))
    return dist


# ---------------------------------------------------------------------------
# random small shapes


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_xor_fold_equals_per_x_loop(data):
    n = data.draw(st.integers(1, 300))
    w = data.draw(st.integers(0, n))
    dist = _log2_dist(data.draw, n + 1)
    assert np.array_equal(_overlap_fold(n, dist, w, n + 1, xor=True),
                          xor_step_loop(n, dist, w))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_and_fold_equals_per_x_loop(data):
    n = data.draw(st.integers(1, 300))
    w = data.draw(st.integers(0, n))
    size = data.draw(st.integers(1, n + 1))
    keep = data.draw(st.integers(1, size + 3))
    dist = _log2_dist(data.draw, size)
    assert np.array_equal(_overlap_fold(n, dist, w, min(size, keep)),
                          and_step_loop(n, dist, w, keep))


# bit probabilities with their degenerate ends, where a log2 is -inf
PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_p_i_ge_j_equals_scalar_oracle(data):
    n = data.draw(st.integers(2, 300))
    ell = data.draw(st.integers(1, 16))
    size = data.draw(st.integers(1, 12))
    wlw = np.array(data.draw(st.lists(st.integers(1, n - 1), min_size=size,
                                      max_size=size)))
    p_i = np.array(data.draw(st.lists(PROBS, min_size=size, max_size=size)))
    p_j = np.array(data.draw(st.lists(PROBS, min_size=size, max_size=size)))
    want = [p_i_ge_j_scalar(n, ell, *point)
            for point in zip(wlw.tolist(), p_i.tolist(), p_j.tolist())]
    assert np.array_equal(_p_i_ge_j(n, ell, wlw, p_i, p_j), want,
                          equal_nan=True)


def test_p_i_ge_j_grid_of_impossible_points():
    # an I-bit that is never set: every term of every w_L is -inf
    got = _p_i_ge_j(100, 5, np.arange(1, 8), 0.0, 0.3)
    assert np.array_equal(got, np.full(7, NEG_INF))
    assert all(p_i_ge_j_scalar(100, 5, wlw, 0.0, 0.3) == NEG_INF
               for wlw in range(1, 8))


# ---------------------------------------------------------------------------
# the instances and the toy shapes


@pytest.mark.parametrize("prm", REPORT_PARAMS, ids=lambda prm: prm.name)
def test_sia_wf_equals_scalar_oracle(prm):
    assert sia_wf(prm) == sia_wf_scalar(prm)


@pytest.mark.parametrize("prm", REPORT_PARAMS, ids=lambda prm: prm.name)
def test_lca_steps_equal_per_x_loop(prm):
    for n, w in ((prm.r, prm.w), (prm.k, prm.m_g)):
        fold = loop = xor_weight_dist(n, [w])
        for ell in range(2, 9):
            fold = _overlap_fold(n, fold, w, n + 1, xor=True)
            loop = xor_step_loop(n, loop, w)
            assert np.array_equal(fold, loop), (n, w, ell)
    assert lca_wf(prm) == lca_wf_scalar(prm)


# ---------------------------------------------------------------------------
# summation order and caches


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_log2_sum_is_a_left_fold(data):
    # log2_sum folds np.logaddexp2 left to right, as its reduce does along
    # an array axis; the -inf holes add nothing, bit for bit
    row = _log2_dist(data.draw, data.draw(st.integers(1, 12)))
    expected = functools.reduce(np.logaddexp2, row.tolist(), NEG_INF)
    assert np.logaddexp2.reduce(row) == expected
    assert log2_sum(row) == expected
    assert log2_sum(v for v in row.tolist() if v != NEG_INF) == expected
    assert type(log2_sum(row)) is float
    # 1 + 2^-53 + 2^-53: no term is absorbed by a larger one's rounding
    assert log2_sum([0.0, -53.0, -53.0]) > 0.0


def test_no_cache_but_iterated_and_dist():
    cached = [name for name, obj in vars(estimator).items()
              if hasattr(obj, "cache_info")]
    assert cached == ["_iterated_and_dist"]
