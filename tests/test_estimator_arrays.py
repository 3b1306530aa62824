"""The estimator's array forms against its scalar oracles: the same floats,
bit for bit, on random small shapes and on the nine instances and the toy
shapes."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (REPORT_PARAMS, and_step_loop, lca_wf_scalar,
                     overlap_fold, p_i_ge_j_scalar, sia_bound_scalar,
                     sia_wf_scalar, xor_step_loop, xor_weight_dist)
from ledasig import estimator
from ledasig.estimator import (NEG_INF, _SIA_MAX_COLLECTED, _bit_probabilities,
                               _codeword_row_parities, _fold_plan, _lb,
                               _lb_array, _p_i_ge_j, _sia_wf_at, full_report,
                               lca_wf, log2_sum, p_and_intersection, sia_wf,
                               stat_lifetime)
from ledasig.params import INSTANCES


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
    assert np.array_equal(overlap_fold(n, dist, w, n + 1, xor=True),
                          xor_step_loop(n, dist, w))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_xor_fold_equals_per_x_loop(data):
    # lca_wf keeps only the weights a later step reads: each kept weight
    # is folded from the same terms as over 0..n
    n = data.draw(st.integers(1, 300))
    w = data.draw(st.integers(0, n))
    size = data.draw(st.integers(1, n + 1))
    dist = _log2_dist(data.draw, n + 1)
    assert np.array_equal(overlap_fold(n, dist, w, size, xor=True),
                          xor_step_loop(n, dist, w)[:size])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_and_fold_equals_per_x_loop(data):
    n = data.draw(st.integers(1, 300))
    w = data.draw(st.integers(0, n))
    size = data.draw(st.integers(1, n + 1))
    keep = data.draw(st.integers(1, size + 3))
    dist = _log2_dist(data.draw, size)
    assert np.array_equal(overlap_fold(n, dist, w, min(size, keep)),
                          and_step_loop(n, dist, w, keep))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fold_plan_over_a_chain_equals_fold_and_loop(data):
    # one plan, built once for input weights up to x_max, serves every step
    # of a chain whose distributions are shorter than x_max + 1 or have -inf
    # holes anywhere, as in lca_wf and _iterated_and_dist
    n = data.draw(st.integers(1, 120))
    w = data.draw(st.integers(0, n))
    xor = data.draw(st.booleans())
    x_max = data.draw(st.integers(0, n))
    plan = _fold_plan(n, w, x_max, xor)
    dist = _log2_dist(data.draw, data.draw(st.integers(1, x_max + 1)))
    for step in range(data.draw(st.integers(1, 4))):
        size = data.draw(st.integers(1, x_max + 1 if xor else len(dist)))
        got = plan.fold(dist, size)
        assert np.array_equal(got, overlap_fold(n, dist, w, size, xor)), step
        want = (xor_step_loop(n, dist, w)[:size] if xor
                else and_step_loop(n, dist, w, size))
        assert np.array_equal(got, want), step
        dead = data.draw(st.lists(st.booleans(), min_size=size,
                                  max_size=size))
        dist = np.where(dead, NEG_INF, got)


def test_lb_array_on_half_integers_matches_scalar():
    # _stern_wf's C(k/2, j): n a whole number plus one half
    rng = np.random.default_rng(11)
    j = np.arange(-2, 45)
    for k in (1, 2, 17, 480634, 914453, *rng.integers(0, 10**6, 20).tolist()):
        assert np.array_equal(_lb_array(k / 2.0, j),
                              [_lb(k / 2.0, int(i)) for i in j]), k
    grid = _lb_array(np.arange(1, 40, 2)[:, None] / 2.0, j)
    assert np.array_equal(grid, [[_lb(a / 2.0, int(i)) for i in j]
                                 for a in range(1, 40, 2)])


def test_lb_array_refuses_arguments_off_one_grid():
    # the lgamma of a row is read at whole-number offsets from its least
    # entry; a row mixing whole and half numbers would be misread
    with pytest.raises(ValueError, match="whole numbers apart"):
        _lb_array(np.array([3.0, 3.5]), 1)


def test_estimate_round_makes_few_lb_array_calls(monkeypatch):
    # one fold plan per (n, w): the nine reports make 443 _lb_array calls
    # from a cold cache, 911 when every fold step rebuilt its pair terms;
    # this fails if the plans are lost
    calls = []
    inner = estimator._lb_array

    def counting(n, k):
        calls.append(None)
        return inner(n, k)

    monkeypatch.setattr(estimator, "_lb_array", counting)
    estimator._iterated_and_dist.cache_clear()
    for prm in INSTANCES.values():
        full_report(prm)
    assert len(calls) <= 500


def test_lifetime_round_keeps_its_pmf_windows_small(monkeypatch):
    # the nine instances' lifetime scans make 328 separation calls whose
    # pmf windows hold 501,088 entries in all at the e^-100 cut, and
    # 1,451,074 at e^-1000; this fails if the window grows back
    windows = []
    inner = estimator._binom_logpmfs

    def counting(count, probs):
        lo, hi, pmfs = inner(count, probs)
        windows.append(hi - lo + 1)
        return lo, hi, pmfs

    monkeypatch.setattr(estimator, "_binom_logpmfs", counting)
    for prm in INSTANCES.values():
        stat_lifetime(prm, prm.security_level)
    assert len(windows) <= 328
    assert sum(windows) <= 550_000


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


def test_p_i_ge_j_with_every_i_bit_always_set():
    # p_i = 1: every I-bit is set all ell times, so the event is that no
    # J-bit is, (n - wlw) * log2(1 - p_j^ell); 0 * log2(0) counts as 0
    wlw = np.arange(1, 8)
    want = (100 - wlw) * math.log2(1 - 0.3 ** 5)
    assert want[2] == pytest.approx(-0.34047, abs=1e-5)
    assert np.allclose(_p_i_ge_j(100, 5, wlw, 1.0, 0.3), want,
                       rtol=1e-12, atol=0)
    assert np.allclose([p_i_ge_j_scalar(100, 5, int(w), 1.0, 0.3)
                        for w in wlw], want, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the instances and the toy shapes


@pytest.mark.parametrize("prm", REPORT_PARAMS, ids=lambda prm: prm.name)
def test_sia_wf_equals_scalar_oracle(prm):
    assert sia_wf(prm) == sia_wf_scalar(prm)


@pytest.mark.parametrize("prm", REPORT_PARAMS, ids=lambda prm: prm.name)
def test_sia_bound_is_below_every_cell(prm):
    # B <= B - p_igej <= _sia_wf_at on every (L, w_L), so a cell whose
    # bound is not below the best so far cannot replace it
    rows = _codeword_row_parities(prm)
    for w_l in range(prm.z, prm.w + 1):
        _, p_i, _, p_j = _bit_probabilities(prm, w_l, rows)
        for ell in range(2, _SIA_MAX_COLLECTED + 1):
            p_and = p_and_intersection(prm, ell, w_l)
            p_igej = p_i_ge_j_scalar(prm.n, ell, prm.m_S * w_l, p_i, p_j)
            bound = sia_bound_scalar(prm, ell, w_l, p_and)
            wf = _sia_wf_at(prm, ell, w_l, p_and, p_igej)
            assert bound <= bound - p_igej <= wf, (ell, w_l)


def test_sia_wf_evaluates_few_cells(monkeypatch):
    # the bound leaves 58 of the 6765 cells of the nine instances open;
    # this fails if the pruning is lost
    evaluated = []
    inner = estimator._sia_wf_at

    def recording(*args):
        evaluated.append(args[1:3])
        return inner(*args)

    monkeypatch.setattr(estimator, "_sia_wf_at", recording)
    cells = 0
    for prm in INSTANCES.values():
        sia_wf(prm)
        cells += (_SIA_MAX_COLLECTED - 1) * (prm.w - prm.z + 1)
    assert cells == 6765
    assert 0 < len(evaluated) < cells / 20


@pytest.mark.parametrize("prm", REPORT_PARAMS, ids=lambda prm: prm.name)
def test_lca_steps_equal_per_x_loop(prm):
    for n, w in ((prm.r, prm.w), (prm.k, prm.m_g)):
        fold = loop = xor_weight_dist(n, [w])
        for ell in range(2, 9):
            fold = overlap_fold(n, fold, w, n + 1, xor=True)
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
