import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (REPORT_PARAMS, SIATOY, and_weight_dist_loop,
                     binom_logpmfs_full, coincidence_separation_full,
                     count_tails, p_i_ge_j_scalar,
                     pair_coincidence_probs_loops, quantum_stern_wf_climb,
                     sia_bound_scalar, signature_bit_probability_loop,
                     stern_wf_scalar, xor_weight_dist_loop)
from ledasig import estimator, toy_params
from ledasig.estimator import (IsdTarget, and_weight_dist, bjmm_approx_wf,
                               decoding_attack_target, full_report,
                               key_recovery_target,
                               lca_wf, log2_sum, p_and_intersection,
                               quantum_stern_wf,
                               sia_wf, signature_bit_probability,
                               signature_space,
                               stat_lifetime,
                               unique_decoding_radius, xor_weight_dist,
                               _bit_probabilities, _codeword_row_parities,
                               _iterated_and_dist, _lb, _lb_array,
                               _p_i_ge_j, _sia_wf_at,
                               _stern_wf, _GROVER_PREFACTOR_LOG2,
                               _P_INV_LOG2,
                               _LOG_PMF_CUT, _binom_logpmfs,
                               _coincidence_separation,
                               _pair_coincidence_probs,
                               _scan_max_count)
from ledasig.params import INSTANCES, get_instance

A3 = get_instance("a3")


# ---------------------------------------------------------------------------
# binomials


def test_log2_binom_large_vs_integer():
    exact = math.log2(math.comb(28829, 42))
    assert abs(_lb(28829, 42) - exact) < 1e-9 * exact


# ---------------------------------------------------------------------------
# AND / XOR distributions against exhaustive enumeration


def _exhaustive_dist(n, weights, op):
    """Exact weight distribution of op over all support placements."""
    counts = {}
    total = 0
    supports = [list(itertools.combinations(range(n), w)) for w in weights]
    for combo in itertools.product(*supports):
        acc = None
        for sup in combo:
            v = 0
            for i in sup:
                v |= 1 << i
            acc = v if acc is None else op(acc, v)
        w_out = acc.bit_count()
        counts[w_out] = counts.get(w_out, 0) + 1
        total += 1
    return {w: Fraction(c, total) for w, c in counts.items()}


@pytest.mark.parametrize("n,weights", [(6, (2, 2)), (8, (3, 2)),
                                       (8, (3, 3, 3)), (10, (4, 2, 3)),
                                       (12, (5, 4))])
def test_p_xor_matches_enumeration(n, weights):
    exact = _exhaustive_dist(n, weights, lambda a, b: a ^ b)
    dist = xor_weight_dist(n, list(weights))
    for y in range(n + 1):
        got = 2.0 ** dist[y] if dist[y] != -math.inf else 0.0
        assert abs(got - float(exact.get(y, 0))) < 1e-12


@pytest.mark.parametrize("n,weights", [(6, (2, 2)), (8, (3, 3)),
                                       (8, (3, 3, 3)), (10, (4, 2, 3)),
                                       (12, (6, 5))])
def test_p_and_matches_enumeration(n, weights):
    exact = _exhaustive_dist(n, weights, lambda a, b: a & b)
    dist = and_weight_dist(n, list(weights))
    for y in range(len(dist)):
        got = 2.0 ** dist[y] if dist[y] != -math.inf else 0.0
        assert abs(got - float(exact.get(y, 0))) < 1e-12


def test_p_and_full_weight_certainty():
    assert and_weight_dist(8, (8, 8))[8] == 0.0   # log2(1)


def test_p_xor_hand_example():
    # two weight-2 vectors in n=6, XOR weight 4: 6/15
    assert abs(2.0 ** xor_weight_dist(6, (2, 2))[4] - 0.4) < 1e-12


def test_distributions_normalize():
    for n, weights in ((10, (3, 3, 3)), (12, (5, 2))):
        for dist in (xor_weight_dist(n, list(weights)),
                     and_weight_dist(n, list(weights))):
            assert abs(2.0 ** log2_sum(dist) - 1.0) < 1e-9


def test_p_xor_parity_infeasible():
    assert xor_weight_dist(10, (2, 2))[3] == -math.inf


# ---------------------------------------------------------------------------
# array steps against the scalar loops: the same floats, not just close


def test_lb_array_matches_scalar():
    # small grid with every infeasible corner: k < 0, k > n, n < 0
    n, k = np.meshgrid(np.arange(-2, 40), np.arange(-3, 45), indexing="ij")
    # and instance-sized arguments up to gamma3's n = 914453
    rng = np.random.default_rng(7)
    big_n = rng.integers(0, 914454, 600)
    big_k = np.concatenate((rng.integers(-3, big_n[:200] + 4),
                            rng.integers(-3, 4, 200),
                            big_n[400:] + rng.integers(-3, 4, 200)))
    for n, k in ((n.ravel(), k.ravel()), (big_n, big_k)):
        want = [_lb(int(a), int(b)) for a, b in zip(n, k)]
        got = _lb_array(n, k)
        assert np.array_equal(got, want)
    assert (_lb_array(5, np.array([-1, 6])) == -math.inf).all()
    assert (_lb_array(-1, np.array([0])) == -math.inf).all()


MIXED = [(6, (2, 2)), (8, (3, 2)), (8, (3, 3, 3)), (10, (4, 2, 3)),
         (12, (5, 4)), (12, (6, 5)), (9, (7, 6, 8)), (40, (7, 3, 11, 2)),
         (31, (30, 29, 1, 16)), (64, (0, 5, 5))]


@pytest.mark.parametrize("n,weights", MIXED)
def test_xor_dist_equals_scalar_loop(n, weights):
    assert np.array_equal(xor_weight_dist(n, weights),
                          xor_weight_dist_loop(n, weights))


@pytest.mark.parametrize("n,weights", MIXED)
def test_and_dist_equals_scalar_loop(n, weights):
    assert np.array_equal(and_weight_dist(n, weights),
                          and_weight_dist_loop(n, weights))


def test_xor_dist_a3_syndromes_equal_scalar_loop():
    for ell in range(2, 9):
        weights = [A3.w] * ell
        assert np.array_equal(xor_weight_dist(A3.r, weights),
                              xor_weight_dist_loop(A3.r, weights)), ell


def test_iterated_and_dist_equals_scalar_fold():
    chain = _iterated_and_dist(A3.r, A3.w)
    assert len(chain) == 16
    for count in range(1, 17):
        assert np.array_equal(
            chain[count - 1],
            and_weight_dist_loop(A3.r, [A3.w] * count)), count


PARITY_PARAMS = [*INSTANCES.values(), toy_params("toy29"),
                 toy_params("toy29w"), SIATOY]


@pytest.mark.parametrize("prm", PARITY_PARAMS, ids=lambda prm: prm.name)
def test_parity_sums_equal_written_out_loops(prm):
    assert signature_bit_probability(prm) == signature_bit_probability_loop(prm)
    assert _pair_coincidence_probs(prm) == pair_coincidence_probs_loops(prm)


@pytest.mark.parametrize("prm", REPORT_PARAMS, ids=lambda prm: prm.name)
def test_p_i_ge_j_equals_count_tails_where_sia_wf_looks(monkeypatch, prm):
    calls, evaluated = [], []
    inner, inner_at = estimator._p_i_ge_j, estimator._sia_wf_at

    def recording(*args):
        calls.append((args, inner(*args)))
        return calls[-1][1]

    def recording_at(params, ell, w_l, *rest):
        evaluated.append((ell, inner_at(params, ell, w_l, *rest)))
        return evaluated[-1][1]

    monkeypatch.setattr(estimator, "_p_i_ge_j", recording)
    monkeypatch.setattr(estimator, "_sia_wf_at", recording_at)
    sia_wf(prm)
    monkeypatch.undo()
    # at most one call per L, on exactly the w_L whose bound lies below
    # the best work factor of the L before it
    asked = {args[1]: (args[2] // prm.m_S).tolist() for args, _ in calls}
    assert len(asked) == len(calls)
    for ell in range(2, estimator._SIA_MAX_COLLECTED + 1):
        best = min((wf for l, wf in evaluated if l < ell), default=math.inf)
        open_cells = [w_l for w_l in range(prm.z, prm.w + 1)
                      if sia_bound_scalar(prm, ell, w_l, p_and_intersection(
                          prm, ell, w_l)) < best]
        assert asked.get(ell, []) == open_cells, ell
    for (n, ell, wlw, p_i, p_j), got in calls:
        for point in zip(wlw.tolist(), p_i.tolist(), p_j.tolist(),
                         got.tolist()):
            args = (n, ell, *point[:3])
            assert point[3] == count_tails(*args)[-1], args
            assert point[3] == p_i_ge_j_scalar(*args), args


# ---------------------------------------------------------------------------
# Stern


def _stern_success_log2(n, k, w, l, j, cost):
    """log2 p_e, read back from _stern_wf at one (l, j) given the
    iteration cost c_it + c_inv written out as `cost`."""
    wf = float(_stern_wf(n, k, w, l, j))
    return -_P_INV_LOG2 - 2.0 * (wf - _GROVER_PREFACTOR_LOG2 - math.log2(cost))


def _c_inv(n, k):
    return 0.5 * (n - k) ** 3 + k * (n - k) ** 2


def test_stern_prange_reduction():
    # j = 0, l = 0 collapses to the plain information-set split
    n, k, w = 30, 14, 5
    expected = _lb(n - w, k) - _lb(n, k)
    got = _stern_success_log2(n, k, w, 0, 0, _c_inv(n, k))
    assert abs(got - expected) < 1e-12


def test_stern_success_vs_exhaustive_sets():
    # count k-subsets holding exactly 2j error bits over all C(20,10) sets
    n, k, w, j, l = 20, 10, 4, 1, 2
    err = set(range(w))
    hits = sum(1 for s in itertools.combinations(range(n), k)
               if len(err.intersection(s)) == 2 * j)
    frac = Fraction(hits, math.comb(n, k))
    split = Fraction(math.comb(2 * j, j), 4 ** j)
    redundancy = Fraction(math.comb(n - k - w + 2 * j, l),
                          math.comb(n - k, l))
    expected = float(frac * split * redundancy)
    # c_it: 2lj C(k/2, j) list bits and 2j(n - k) C(k/2, j)^2 / 2^l checks
    lists = math.comb(k // 2, j)
    cost = (_c_inv(n, k) + 2 * l * j * lists
            + Fraction(2 * j * (n - k) * lists ** 2, 2 ** l))
    got = 2.0 ** _stern_success_log2(n, k, w, l, j, cost)
    assert abs(got - expected) < 1e-12


def test_stern_wf_monotone_in_weight():
    prev = -math.inf
    for w in (10, 20, 40, 80):
        wf, _ = quantum_stern_wf(IsdTarget(1000, 500, w))
        assert wf >= prev
        prev = wf


def test_stern_certain_success_closed_form():
    # with w = 0 the split always succeeds: cost is the Grover prefactor
    # times sqrt(1/p_inv) times one matrix inversion c_inv
    n, k = 200, 100
    expected = (_GROVER_PREFACTOR_LOG2 + 0.5 * (-_P_INV_LOG2)
                + math.log2(_c_inv(n, k)))
    assert abs(float(_stern_wf(n, k, 0, 0, 0)) - expected) < 1e-12


# DA and KRA of every instance and toy, a weight sweep, certain success,
# and two targets whose optimum lies beyond the first box: l grows past
# 120 for the first, j past 40 for the second
STERN_TARGETS = [
    *(target(prm) for prm in (*REPORT_PARAMS, toy_params("toy13"))
      for target in (decoding_attack_target, key_recovery_target)),
    *(IsdTarget(1000, 500, w) for w in (10, 20, 40, 80)),
    IsdTarget(200, 100, 0),
    IsdTarget(687695510, 52063151, 25606579),
    IsdTarget(80174, 11427, 68711)]


@pytest.mark.parametrize("target", STERN_TARGETS,
                         ids=lambda t: f"{t.n}-{t.w_target}")
def test_stern_scan_matches_grid_and_climb(target):
    assert quantum_stern_wf(target) == quantum_stern_wf_climb(target)


@pytest.mark.parametrize("target", STERN_TARGETS,
                         ids=lambda t: f"{t.n}-{t.w_target}")
def test_stern_box_strips_equal_the_whole_box(monkeypatch, target):
    boxes = []
    inner = estimator._stern_box

    def recording(*args):
        boxes.append(inner(*args))
        return boxes[-1]

    monkeypatch.setattr(estimator, "_stern_box", recording)
    quantum_stern_wf(target)
    monkeypatch.undo()
    n, k, w = target.n, target.k, target.w_target
    for box in boxes:
        rows, cols = box.shape
        assert np.array_equal(box, _stern_wf(n, k, w, np.arange(cols),
                                             np.arange(rows)[:, None]))


@pytest.mark.parametrize("target", [
    decoding_attack_target(A3), key_recovery_target(get_instance("gamma3")),
    decoding_attack_target(toy_params("toy29")), IsdTarget(1000, 500, 20),
    IsdTarget(80174, 11427, 68711)], ids=lambda t: f"{t.n}-{t.w_target}")
def test_stern_wf_box_matches_scalar(target):
    # every point of the first box, where the c_it terms come near c_inv
    n, k, w = target.n, target.k, target.w_target
    l, j = np.arange(121), np.arange(min(w // 2, 40) + 1)[:, None]
    got = _stern_wf(n, k, w, l, j)
    for (jj, ll), wf in np.ndenumerate(got):
        assert wf == stern_wf_scalar(n, k, w, ll, jj), (ll, jj)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 1), st.integers(0, n),
    st.integers(0, 130), st.integers(0, 60))))
def test_stern_wf_matches_scalar(point):
    n, k, w, l, j = point
    got = float(_stern_wf(n, k, w, l, j))
    assert got == stern_wf_scalar(n, k, w, l, j), point


def test_bjmm_half_rate_is_weight():
    assert abs(bjmm_approx_wf(IsdTarget(100, 50, 30)) - 30.0) < 1e-12


def test_bjmm_a6_example():
    prm = get_instance("a6")
    raw = bjmm_approx_wf(IsdTarget(prm.n, prm.k, prm.m_S * prm.w))
    assert abs(raw - 254.4) < 1.0
    # with the quasi-cyclic discount this lands on the published 250.12
    wf = bjmm_approx_wf(decoding_attack_target(prm, quantum=False))
    assert abs(wf - 250.12) < 0.05


def test_unique_decoding_radius_covers_targets():
    for prm in INSTANCES.values():
        assert prm.m_S * prm.w <= unique_decoding_radius(prm)
        # w_g = 2w + 1 on every instance, so floor((w_g*m_S - 1)/2) is
        # m_S*w + (m_S - 1)/2
        assert (unique_decoding_radius(prm)
                == prm.m_S * prm.w + (prm.m_S - 1) // 2)
    # a light generator row lowers the radius below the target
    prm = toy_params("toy29w", w_g=3)
    assert unique_decoding_radius(prm) == 4 < prm.m_S * prm.w


def test_sia_needs_z_at_most_w():
    with pytest.raises(ValueError, match="z=5, w=2"):
        sia_wf(toy_params("toy29w", z=5))


# ---------------------------------------------------------------------------
# signature space


def test_signature_space_reference_values():
    sp = signature_space(A3)
    assert abs(sp.n_s_log2 - 393.49) < 0.02
    assert abs(sp.a_wc_log2 - 129.81) < 0.02
    g3 = signature_space(get_instance("gamma3"))
    assert abs(g3.n_s_log2 - 925.90) < 0.02


def test_signature_space_degenerate():
    # the smallest syndrome weight and rank: log2 C(r, 1) - 1
    prm = toy_params("deg", n0=13, r0=5, p=7, z=1, m_S=3, w=1, w_g=5, m_g=2)
    assert abs(signature_space(prm).n_s_log2 - (math.log2(35) - 1)) < 1e-12


def test_collision_bounds_ratio():
    sp = signature_space(A3)
    assert abs(sp.collision_quantum_log2
               - sp.collision_classical_log2 * 2 / 3) < 1e-9


# ---------------------------------------------------------------------------
# LCA / SIA


def test_lca_reference_values():
    assert abs(lca_wf(A3).wf_log2 - 209.87) < 1.0
    assert abs(lca_wf(get_instance("beta3")).wf_log2 - 386.01) < 1.0


def test_lca_two_signatures_optimal_everywhere():
    for prm in INSTANCES.values():
        assert lca_wf(prm).combinations == 2


def test_sia_reference_values():
    assert abs(sia_wf(A3).wf_log2 - 152.43) < 1.0
    assert abs(sia_wf(get_instance("c6")).wf_log2 - 266.47) < 1.0


def test_sia_single_step_collapse():
    # w_L = w: one intersection step only
    est = sia_wf(A3)
    _, p_i, _, p_j = _bit_probabilities(A3, A3.w, _codeword_row_parities(A3))
    single = _sia_wf_at(A3, 2, A3.w, p_and_intersection(A3, 2, A3.w),
                        _p_i_ge_j(A3.n, 2, A3.m_S * A3.w, p_i, p_j))
    assert single >= est.wf_log2


def test_sia_telescoping_identity():
    ell, w_l = 4, 2
    wlw = A3.m_S * w_l
    _, p_i, _, p_j = _bit_probabilities(A3, w_l, _codeword_row_parities(A3))
    pi_counts, _, pi_ge, _, _ = count_tails(A3.n, ell, wlw, p_i, p_j)
    tail = [log2_sum(pi_counts[x:]) for x in range(ell + 2)]
    for x in range(ell + 1):
        lhs = log2_sum(pi_ge[x:ell + 1])
        rhs = wlw * tail[x]
        if rhs == -math.inf:
            assert lhs == -math.inf
        else:
            assert abs(2.0 ** lhs - 2.0 ** rhs) < 1e-12


def test_sia_probabilities_in_unit_range():
    ell, w_l = 3, 2
    rows = _codeword_row_parities(A3)
    p_i1, p_i, p_j1, p_j = _bit_probabilities(A3, w_l, rows)
    for val in (*rows, p_i1, p_i, p_j1, p_j):
        assert 0.0 <= val <= 1.0
    assert _p_i_ge_j(A3.n, ell, A3.m_S * w_l, p_i, p_j) <= 0.0
    assert p_and_intersection(A3, ell, w_l) <= 0.0


# ---------------------------------------------------------------------------
# statistical lifetime


def test_stat_lifetime_a3_reference():
    plain, qc = stat_lifetime(A3, 128)
    assert abs(qc - 2655) <= 0.05 * 2655
    assert qc <= plain


def test_stat_lifetime_monotone_threshold():
    _, qc_128 = stat_lifetime(A3, 128)
    _, qc_80 = stat_lifetime(A3, 80)
    assert qc_80 >= qc_128


def _lifetime_probes(monkeypatch, prm) -> list[int]:
    """Every N at which stat_lifetime evaluates the coincidence separation."""
    seen = set()
    inner = estimator._coincidence_separation

    def recording(params, collected, rhos):
        seen.add(collected)
        return inner(params, collected, rhos)

    monkeypatch.setattr(estimator, "_coincidence_separation", recording)
    stat_lifetime(prm, prm.security_level)
    monkeypatch.undo()
    return sorted(seen)


def _assert_window_tight(collected, rhos):
    """Both pmfs are below the cut just outside [lo, hi], and one of them
    reaches it at each edge."""
    lo, hi, _ = _binom_logpmfs(collected, rhos)
    pmfs = binom_logpmfs_full(collected, rhos)
    if lo > 0:
        assert all(pmf[lo - 1] < _LOG_PMF_CUT for pmf in pmfs)
    if hi < collected:
        assert all(pmf[hi + 1] < _LOG_PMF_CUT for pmf in pmfs)
    assert max(pmf[lo] for pmf in pmfs) >= _LOG_PMF_CUT
    assert max(pmf[hi] for pmf in pmfs) >= _LOG_PMF_CUT


@pytest.mark.parametrize("name", ["a3", "b6"])
def test_separation_window_matches_full_range_at_scan_probes(
        monkeypatch, name):
    prm = get_instance(name)
    rhos = _pair_coincidence_probs(prm)
    probes = _lifetime_probes(monkeypatch, prm)
    assert len(probes) > 20
    for collected in probes:
        _assert_window_tight(collected, rhos)
        window = _coincidence_separation(prm, collected, rhos)
        full = coincidence_separation_full(prm, collected, rhos)
        assert np.allclose(window, full, rtol=1e-14, atol=0), collected


@pytest.mark.parametrize("collected", [1024, 1 << 19, 762387, 1 << 20])
def test_separation_window_matches_full_range_gamma3(collected):
    prm = get_instance("gamma3")
    rhos = _pair_coincidence_probs(prm)
    _assert_window_tight(collected, rhos)
    window = _coincidence_separation(prm, collected, rhos)
    full = coincidence_separation_full(prm, collected, rhos)
    assert np.allclose(window, full, rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["a3", "b6", "gamma3"])
def test_separation_window_covering_everything_is_bit_equal(name):
    prm = get_instance(name)
    rhos = _pair_coincidence_probs(prm)
    for collected in range(1, 65):
        assert _binom_logpmfs(collected, rhos)[:2] == (0, collected)
        assert (_coincidence_separation(prm, collected, rhos)
                == coincidence_separation_full(prm, collected, rhos))


def test_scan_max_count_rejects_a_falling_probe():
    with pytest.raises(RuntimeError, match="fell"):
        _scan_max_count(lambda n: -100.0 - n, 50.0)


def test_scan_max_count_bracket_and_bisection():
    assert _scan_max_count(lambda n: n - 5000.5, 0.0) == 5000
    assert _scan_max_count(lambda n: 1.0, 0.0) == 0


# ---------------------------------------------------------------------------
# report


def test_full_report_pass_flags():
    rep = full_report(A3)
    assert rep.passes
    assert abs(rep.min_wf_log2 - 152.43) < 1.0
    a6 = full_report(get_instance("a6"))
    assert a6.passes
    assert abs(a6.min_wf_log2 - 128.65) < 1.0


@pytest.mark.parametrize("prm", REPORT_PARAMS, ids=lambda prm: prm.name)
def test_full_report_raises_no_floating_point_warning(prm):
    # -inf terms meet in every log2-domain fold and in the tail arithmetic
    # of _p_i_ge_j; none may leak a numpy RuntimeWarning out of its
    # errstate scope, cached AND distributions included
    estimator._iterated_and_dist.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full_report(prm)


def test_full_report_weak_toy_fails():
    prm = toy_params("toy29")
    rep = full_report(prm, security_exponent=128)
    assert not rep.passes


def test_report_serialization_fields():
    rep = full_report(A3)
    d = rep.to_dict()
    assert d["instance"] == "a3"
    assert d["classical_is_approximate"] is True
    assert d["pass"] is True
    assert all(v >= 0 for k, v in d.items()
               if isinstance(v, float) and k.startswith(("wf", "log2")))


@pytest.mark.parametrize("name", ["toy29w", "a3"])
def test_report_dict_holds_plain_python_types(name):
    # json.dumps takes no numpy scalar; toy29w's weakest attack is LCA
    prm = A3 if name == "a3" else toy_params(name)
    d = full_report(prm).to_dict()
    assert {type(v) for v in d.values()} <= {str, int, float, bool}
    assert type(d["pass"]) is bool
    assert type(lca_wf(prm).wf_log2) is float
