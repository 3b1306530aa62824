"""Attack work factors and key-lifetime bounds, all in the log2 domain.

Covers: information-set decoding costs (quantum Stern with Grover
iteration counts, and the 2^(c*w) classical approximation), signature
space and collision bounds, forgery attacks built from linear
combinations of signatures (LCA) and from support intersections (SIA),
and the statistical key-recovery lifetime bound based on bit-pair
coincidence counting.

Binomials of size C(~30000, ~900) appear throughout, so probabilities
are carried as log2 values, and every log2-domain sum is a left fold of
np.logaddexp2, np.logaddexp2.reduce: over a sequence in log2_sum, or
along an array axis. Each quantity has one form: every hypergeometric
parity probability is _parity_sum (one marked set) or _pair_parity_sum
(two disjoint marked sets), every AND / XOR step is _overlap_fold,
sia_wf is the one SIA evaluation, _stern_wf is the one quantum Stern
cost, an array over (l, j) that quantum_stern_wf scans whole, and
_binom_logpmfs is the one form of the lifetime scan's pair-count pmfs,
from which their live window is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .params import SysParams

LN2 = math.log(2.0)
NEG_INF = float("-inf")
_cache = lru_cache(maxsize=None)


# ---------------------------------------------------------------------------
# log-domain basics


def _lb(n: float, k: float) -> float:
    """log2 C(n, k) with -inf for infeasible arguments."""
    if k < 0 or n < 0 or k > n:
        return NEG_INF
    return (math.lgamma(n + 1) - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)) / LN2


def _lb_array(n, k) -> np.ndarray:
    """_lb over broadcast integer arrays, bit for bit.

    math.lgamma is mapped over the distinct arguments: scipy's gammaln
    rounds differently on about half the integers in range, which would
    move the reported work factors in their last bits.
    """
    n, k = np.broadcast_arrays(np.asarray(n), np.asarray(k))
    out = np.full(n.shape, NEG_INF)
    ok = (k >= 0) & (n >= 0) & (k <= n)
    n, k = n[ok], k[ok]
    args, inverse = np.unique(np.stack((n + 1, k + 1, n - k + 1)),
                              return_inverse=True)
    lg = _map(math.lgamma, args)[inverse].reshape(3, -1)
    out[ok] = (lg[0] - lg[1] - lg[2]) / LN2
    return out


def _map(f, a) -> np.ndarray:
    """The scalar f over an array's entries. numpy's SIMD log2 and expm1
    round differently from libm on some inputs."""
    return np.fromiter(map(f, a.ravel().tolist()), np.float64,
                       a.size).reshape(a.shape)


def log2_sum(values) -> float:
    """log2 of a sum of 2^v terms: np.logaddexp2.reduce, the left fold
    that the array sums take along an axis. logaddexp2(-inf, t) is t, so
    -inf terms add nothing, bit for bit."""
    return float(np.logaddexp2.reduce(np.fromiter(values, np.float64)))


# ---------------------------------------------------------------------------
# AND / XOR weight distributions of independent fixed-weight vectors


def _overlap_fold(n: int, dist: np.ndarray, w: int, size: int,
                  xor: bool = False) -> np.ndarray:
    """Combine one more independent weight-w vector with a weight
    distribution, into weights 0..size-1. A weight-x vector overlapping the
    new one in i positions gives y = x + w - 2i under XOR and i under AND;
    the live (x, i) terms are sorted by (y, x), and one reduceat folds each
    y's terms in increasing x, as a per-x loop does."""
    x, i = np.broadcast_arrays(np.flatnonzero(dist != NEG_INF)[:, None],
                               np.arange(w + 1))
    live = (i >= x + w - n) & (i <= x) & (xor | (i < size))
    x, i = x[live], i[live]
    y = x + w - 2 * i if xor else i
    pair = _lb_array(x, i) + _lb_array(n - x, w - i) - _lb(n, w)
    order = np.lexsort((x, y))
    terms, y = (dist[x] + pair)[order], y[order]
    starts = np.flatnonzero(np.diff(y, prepend=-1))
    new = np.full(size, NEG_INF)
    new[y[starts]] = np.logaddexp2.reduceat(terms, starts)
    return new


def and_weight_dist(n: int, weights) -> np.ndarray:
    """log2 distribution of wt(v1 & ... & vm) for independent vectors."""
    weights = list(weights)
    dist = np.full(weights[0] + 1, NEG_INF)
    dist[weights[0]] = 0.0
    for w in weights[1:]:
        dist = _overlap_fold(n, dist, w, min(weights) + 1)
    return dist


@_cache
def _iterated_and_dist(n: int, w: int, count: int) -> np.ndarray:
    """and_weight_dist(n, [w] * count), one step on from count - 1."""
    if count == 1:
        return and_weight_dist(n, [w])
    return _overlap_fold(n, _iterated_and_dist(n, w, count - 1), w, w + 1)


def xor_weight_dist(n: int, weights) -> np.ndarray:
    """log2 distribution of wt(v1 ^ ... ^ vm) over 0..n."""
    weights = list(weights)
    dist = np.full(n + 1, NEG_INF)
    dist[weights[0]] = 0.0
    for w in weights[1:]:
        dist = _overlap_fold(n, dist, w, n + 1, xor=True)
    return dist


# ---------------------------------------------------------------------------
# information-set decoding


@dataclass(frozen=True)
class SternParams:
    l: int
    j: int


@dataclass(frozen=True)
class IsdTarget:
    """One decoding / codeword-finding problem instance."""

    n: int
    k: int
    w_target: int
    multiplicity: int = 1          # equivalent solutions (speedup divisor)
    qc_order: int | None = None    # circulant size, for the sqrt(p) speedup


_P_INV_LOG2 = math.log2(0.29)
_GROVER_PREFACTOR_LOG2 = math.log2(math.pi / 4.0)


@np.errstate(invalid="ignore")
def _stern_wf(n: int, k: int, w: int, l, j) -> np.ndarray:
    """log2 Grover-Stern cost over the broadcast integer arrays l and j:
    pi/4 * sqrt(1 / (p_inv * p_e)) iterations of cost c_it + c_inv, and
    inf where the per-iteration success probability p_e is 0."""
    l, j = np.asarray(l), np.asarray(j)
    # p_e: 2j error bits in the information set, split j / j, none in
    # the l-bit window
    num = (_lb_array(w, 2 * j) + _lb_array(n - w, k - 2 * j)
           + _lb_array(2 * j, j) + _lb_array(n - k - w + 2 * j, l))
    den = 2 * j + _lb(n, k) + _lb_array(n - k, l)
    pe = np.where((num == NEG_INF) | (den == NEG_INF), NEG_INF,
                  np.minimum(num - den, 0.0))
    # c_inv, then the list build and the collision checks of c_it
    c_inv = math.log2(0.5 * (n - k) ** 3 + k * (n - k) ** 2)
    lbkj = _lb_array(k / 2.0, j)
    build = _map(_safe_log2, 2 * l * j) + lbkj
    check = _map(_safe_log2, 2 * j * (n - k)) + 2 * lbkj - l
    cost = np.logaddexp2.reduce(np.broadcast_arrays(c_inv, build, check))
    iters = _GROVER_PREFACTOR_LOG2 + 0.5 * (-_P_INV_LOG2 - pe)
    return np.where(pe == NEG_INF, math.inf, iters + cost)


def quantum_stern_wf(target: IsdTarget) -> tuple[float, SternParams]:
    """Grover-accelerated Stern cost, minimized over (l, j).

    _stern_wf is evaluated on the whole box j <= min(w/2, 40),
    l <= min(120, n - k), and argmin takes its first minimum in (j, l)
    order. While that minimum lies on a bound that can still grow
    (j up to w/2, l up to n - k), the bound doubles and the box is
    evaluated again, so a minimum pressed against the first box's edge
    is followed past it. A separate, lower basin beyond the box is not
    searched for.
    """
    n, k, w = target.n, target.k, target.w_target
    j_max, l_max = min(w // 2, 40), min(120, n - k)
    while True:
        wf = _stern_wf(n, k, w, np.arange(l_max + 1),
                       np.arange(j_max + 1)[:, None])
        j, l = np.unravel_index(np.argmin(wf), wf.shape)
        grow_j, grow_l = j == j_max < w // 2, l == l_max < n - k
        if not (grow_j or grow_l):
            break
        j_max = min(2 * j_max, w // 2) if grow_j else j_max
        l_max = min(2 * l_max, n - k) if grow_l else l_max
    return (float(wf[j, l]) - _speedup_log2(target),
            SternParams(int(l), int(j)))


def _speedup_log2(target: IsdTarget) -> float:
    out = math.log2(target.multiplicity)
    if target.qc_order:
        out += 0.5 * math.log2(target.qc_order)
    return out


def bjmm_approx_wf(target: IsdTarget) -> float:
    """Classical ISD cost approximation 2^(c*w), c = log2(1/(1 - k/n)).

    This is a rate-only shortcut, not the finite-length estimate; report
    consumers flag it as approximate.
    """
    if target.k >= target.n:
        raise ValueError("code rate must be below 1")
    c = math.log2(target.n / (target.n - target.k))
    return c * target.w_target - _speedup_log2(target)


def decoding_attack_target(params: SysParams, quantum: bool = True) -> IsdTarget:
    """Syndrome decoding of the public code at weight m_S * w.

    The reference work-factor table applies the sqrt(p) quasi-cyclic
    speedup to the classical decoding cost only; its quantum Stern
    entries carry no extra discount.
    """
    return IsdTarget(params.n, params.k, params.m_S * params.w,
                     multiplicity=1,
                     qc_order=None if quantum else params.p)


def key_recovery_target(params: SysParams, quantum: bool = True) -> IsdTarget:
    """Low-weight codeword search for rows of the scrambled generator.

    The k sparse rows of the public generator split into k0 distinct
    cyclic orbits of p shifts each; the quantum entries of the reference
    table discount by k0 * sqrt(p) (orbit count times the quasi-cyclic
    factor), the classical ones by the plain row multiplicity k.
    """
    w_target = params.w_g * params.m_S
    if quantum:
        return IsdTarget(params.n, params.k, w_target,
                         multiplicity=params.k0, qc_order=params.p)
    return IsdTarget(params.n, params.k, w_target,
                     multiplicity=params.k, qc_order=None)


def unique_decoding_radius(params: SysParams) -> int:
    """Half the public-code minimum-distance estimate w_g*m_S, rounded down."""
    return (params.w_g * params.m_S - 1) // 2


# ---------------------------------------------------------------------------
# signature space and collision bounds


@dataclass(frozen=True)
class SignatureSpace:
    n_s_log2: float           # distinct admissible syndromes
    a_wc_log2: float          # easily reachable sparse codewords
    collision_classical_log2: float
    collision_quantum_log2: float


def signature_space(params: SysParams) -> SignatureSpace:
    ns = _lb(params.r, params.w) - params.z
    awc = _lb(params.k, params.m_g)
    return SignatureSpace(ns, awc, ns / 2.0, ns / 3.0)


# ---------------------------------------------------------------------------
# forgery by linear combinations of signatures


@dataclass(frozen=True)
class LcaEstimate:
    wf_log2: float
    combinations: int        # minimizing L


# largest number L of signatures an LCA forgery combines
_LCA_MAX_COMBINATIONS = 8


def lca_wf(params: SysParams) -> LcaEstimate:
    w, r, k, m_g = params.w, params.r, params.k, params.m_g
    w_sigma = (params.w + params.w_c) * params.m_S
    best, best_l = math.inf, 2
    # XOR distributions of ell syndromes and of ell information words,
    # extended by one vector per ell
    syndrome, info = xor_weight_dist(r, [w]), xor_weight_dist(k, [m_g])
    for ell in range(2, _LCA_MAX_COMBINATIONS + 1):
        syndrome = _overlap_fold(r, syndrome, w, r + 1, xor=True)
        info = _overlap_fold(k, info, m_g, k + 1, xor=True)
        p_syndrome = float(syndrome[w])
        p_info = log2_sum(info[:m_g + 1])
        if p_syndrome == NEG_INF or p_info == NEG_INF:
            continue
        cost = math.log2((ell - 1) * w + (ell - 1) * w_sigma)
        wf = cost - p_syndrome - p_info
        if wf < best:
            best, best_l = wf, ell
    return LcaEstimate(best, best_l)


# ---------------------------------------------------------------------------
# forgery by support intersection


def _l_col(params: SysParams) -> int:
    return int(math.floor(params.m_S * params.r / params.n + 0.5))


def _parity_sum(n_pool: int, ones: int, draws: int, parity: int) -> float:
    """P[# drawn marked elements has given parity], hypergeometric."""
    if draws < 0:
        return 0.0 if parity else 1.0
    denom = _lb(n_pool, draws)
    terms = (_lb(ones, i) + _lb(n_pool - ones, draws - i) - denom
             for i in range(parity, min(ones, draws) + 1, 2))
    return 2.0 ** log2_sum(terms)


def _codeword_row_parities(params: SysParams) -> tuple[float, float, float]:
    """P[even overlap with the codeword rows] for a kept I-bit, a flipped
    I-bit and a J-bit; these depend on the parameters only."""
    n, m_s, w_c = params.n, params.m_S, params.w_c
    return (_parity_sum(n - 1, m_s - 1, w_c, 0),
            _parity_sum(n - 1, m_s - 1, w_c - 1, 0),
            _parity_sum(n - 1, m_s, w_c, 0))


def _bit_probabilities(params: SysParams, w_l: int,
                       rows: tuple[float, float, float]
                       ) -> tuple[float, float, float, float]:
    """(p_i1, p_i, p_j1, p_j) for intersected weight w_l, given the
    codeword-row parities `rows`."""
    n, r, w, w_c = params.n, params.r, params.w, params.w_c
    lcol = _l_col(params)
    p_i2_keep, p_i2_flip, p_i2_j = rows
    # survival of a tracked set bit through the sum of w syndrome-selected
    # rows (even overlaps keep it) with column weight lcol in the last r
    # rows; the codeword rows keep it on an even selection
    p_i1 = _parity_sum(r - w_l, lcol - 1, w - w_l, 0)
    frac = w_c / n
    p_i = ((p_i1 * p_i2_keep + (1 - p_i1) * (1 - p_i2_keep)) * (1 - frac)
           + (p_i1 * (1 - p_i2_flip) + (1 - p_i1) * p_i2_flip) * frac)
    p_j1 = _parity_sum(r - w_l, lcol, w - w_l, 1)
    p_j = p_j1 * p_i2_j + (1 - p_j1) * (1 - p_i2_j)
    return p_i1, p_i, p_j1, p_j


@np.errstate(invalid="ignore")
def _p_i_ge_j(n: int, ell: int, wlw, p_i, p_j):
    """log2 P[every one of wlw tracked I-bits is set more often over ell
    pairs than every one of the n - wlw J-bits], each bit set
    Binomial(ell, p_i) or Binomial(ell, p_j) times; entrywise over the
    broadcast wlw >= 1, p_i and p_j."""
    wlw, p_i, p_j = (a[..., None] for a in np.broadcast_arrays(wlw, p_i, p_j))
    x = np.arange(ell + 1)
    # P[an I-bit / a J-bit is set exactly x times], x = 0..ell, with
    # 0 * log2(0) taken as 0 where p is 0 or 1
    pi_counts, pj_counts = (
        _lb_array(ell, x) + np.where(x == 0, 0.0, x * _map(_safe_log2, p))
        + np.where(x == ell, 0.0, (ell - x) * _map(_safe_log2, 1 - p))
        for p in (p_i, p_j))
    # P[an I-bit is set >= x + 1 times], x = 0..ell
    tail = np.logaddexp2.reduce(
        np.where(x[:, None] < x[1:], pi_counts[..., None, 1:], NEG_INF),
        axis=-1)
    # all I-bits set >= x + 1 times, one exactly x + 1: the log2 of
    # 2^(wlw*hi) - 2^(wlw*lo), with -inf where it rounds to <= 0 ...
    hi, lo = tail[..., :-1], tail[..., 1:]
    pi_ge, gap = wlw * hi, wlw * lo - wlw * hi
    near = ~((lo == NEG_INF) | (gap < -60))
    pi_ge[near] += _map(_safe_log2, -_map(math.expm1, gap[near] * LN2))
    # ... and all J-bits set <= x times, x = 0..ell - 1
    cdf = np.logaddexp2.reduce(
        np.where(x[:-1, None] >= x[:-1], pj_counts[..., None, :-1], NEG_INF),
        axis=-1)
    scaled = (n - wlw) * cdf
    pj_le = np.where(cdf == NEG_INF, NEG_INF,
                     np.where(scaled < 0.0, scaled, 0.0))
    return np.logaddexp2.reduce(pj_le + pi_ge, axis=-1)[()]


def p_and_intersection(params: SysParams, ell: int, w_l: int) -> float:
    """log2 P[wt(AND of ell weight-w syndromes) = w_l]."""
    dist = _iterated_and_dist(params.r, params.w, ell)
    return float(dist[w_l]) if w_l < len(dist) else NEG_INF


def _safe_log2(x: float) -> float:
    return math.log2(x) if x > 0 else NEG_INF


@dataclass(frozen=True)
class SiaEstimate:
    wf_log2: float
    collected: int
    w_l: int


# largest number L of signatures an SIA forgery intersects
_SIA_MAX_COLLECTED = 16


def sia_wf(params: SysParams) -> SiaEstimate:
    """Total support-intersection work factor, minimized over (L, w_L),
    with z <= w_L <= w.

    For w_L not dividing w, the cheaper of the two last-step strategies
    is taken: an unconstrained-position final step, or a final step that
    re-finds previously located positions.
    """
    if params.z > params.w:
        raise ValueError(f"SIA needs z <= w, got z={params.z}, w={params.w}")
    rows = _codeword_row_parities(params)
    w_ls = np.arange(params.z, params.w + 1)
    _, p_i, _, p_j = np.array([_bit_probabilities(params, w_l, rows)
                               for w_l in w_ls.tolist()]).T
    best = (math.inf, 2, params.z)
    for ell in range(2, _SIA_MAX_COLLECTED + 1):
        p_igej = _p_i_ge_j(params.n, ell, params.m_S * w_ls, p_i, p_j)
        for w_l, p in zip(w_ls.tolist(), p_igej.tolist()):
            wf = _sia_wf_at(params, ell, w_l,
                            p_and_intersection(params, ell, w_l), p)
            if wf < best[0]:
                best = (wf, ell, w_l)
    return SiaEstimate(best[0], best[1], best[2])


def _sia_wf_at(params: SysParams, ell: int, w_l: int, p_and_log2: float,
               p_igej: float) -> float:
    """Work factor at one (L, w_L) from p_and_intersection and _p_i_ge_j."""
    w, r, n = params.w, params.r, params.n
    if p_and_log2 == NEG_INF or p_igej == NEG_INF:
        return math.inf
    wlw = params.m_S * w_l
    c_s1 = math.log2((ell - 1) * w)
    c_s2 = math.log2(w_l)
    c_ij = math.log2((ell - 1) * n * math.ceil(math.log2(ell)) + wlw * r)
    inner = log2_sum([c_s1 - p_and_log2, c_s2])
    lb_r_wl = _lb(r, w_l)

    steps = w // w_l
    rem = w - steps * w_l
    full_steps = [inner + lb_r_wl - _lb(w - (i - 1) * w_l, w_l)
                  for i in range(1, steps + 1)]
    per_step = [log2_sum([s, c_ij]) - p_igej for s in full_steps]
    if rem == 0:
        return log2_sum(per_step)
    # strategy 1: floor(w/w_l) steps, last one with free positions
    alt_last = log2_sum([inner + lb_r_wl, c_ij]) - p_igej
    total1 = log2_sum(per_step[:-1] + [alt_last])
    # strategy 2: an extra step hitting rem new and w_l - rem known positions
    extra = (log2_sum([inner + lb_r_wl - _lb(steps * w_l, w_l - rem), c_ij])
             - p_igej)
    total2 = log2_sum(per_step + [extra])
    return min(total1, total2)


# ---------------------------------------------------------------------------
# statistical attack: signature bit model and key lifetime


def signature_bit_probability(params: SysParams) -> float:
    """Expected value of a single signature bit under the sparse-sum model."""
    return _parity_sum(params.n, params.m_S,
                       params.w + params.m_g * params.w_g, 1)


def _pair_parity_sum(pool: int, ones: int, draws: int, parity: int) -> float:
    """P[two disjoint marked sets of `ones` elements each both hold a count
    of the given parity among `draws` drawn from `pool`], hypergeometric."""
    rest = pool - 2 * ones
    # the (l, u) terms in l-major order, as a double loop takes them
    u = np.arange(parity, ones + 1, 2)
    l = u[:, None]
    terms = (_lb_array(ones, l) + _lb_array(ones, u)
             + _lb_array(rest, draws - l - u) - _lb(pool, draws))
    return 2.0 ** log2_sum(terms.ravel())


def _pair_coincidence_probs(params: SysParams) -> tuple[float, float]:
    """(same-column pair probability, disjoint pair probability)."""
    n, m_s = params.n, params.m_S
    wp = params.w + params.m_g * params.w_g
    # a pair in one scrambler column shares one of its m_S positions;
    # the shared position is drawn (even counts elsewhere) or not (odd)
    rho1 = ((wp / n) * _pair_parity_sum(n - 1, m_s - 1, wp - 1, 0)
            + ((n - wp) / n) * _pair_parity_sum(n - 1, m_s - 1, wp, 1))
    rho0 = _pair_parity_sum(n, m_s, wp, 1)
    return rho1, rho0


# Natural-log pmf values below this cut lie outside the live window: float64
# exp underflows to 0 below about -745, so their terms are exact zeros in
# every sum _coincidence_separation takes.
_LOG_PMF_CUT = -1000.0


def _binom_logpmfs(count: int, probs) -> tuple[int, int, list[np.ndarray]]:
    """(lo, hi, pmfs): natural-log Binomial(count, prob) pmfs, one per
    prob, over the live window x = lo..hi, the hull of the x at which some
    pmf is at least _LOG_PMF_CUT.

    They are computed from one pair of log-factorial arrays over the union
    of Bernstein brackets mean +- (c/3 + sqrt(c^2/9 + 2 c var)), c =
    -_LOG_PMF_CUT, which hold every live x (docs/decisions.md), and then
    trimmed to the window.  Each entry equals, bit for bit, the one a full
    0..count array would hold; the arrays follow the window, not count.
    """
    cut = -_LOG_PMF_CUT
    lo, hi = count, 0
    for prob in probs:
        mean, var = count * prob, count * prob * (1.0 - prob)
        reach = cut / 3 + math.sqrt(cut * cut / 9 + 2 * cut * var)
        lo = min(lo, max(0, math.floor(mean - reach)))
        hi = max(hi, min(count, math.ceil(mean + reach)))
    x = np.arange(lo, hi + 1, dtype=np.float64)
    log_x_fact = gammaln(x + 1)
    log_rest_fact = gammaln(count - x + 1)
    log_count_fact = gammaln(count + 1.0)
    pmfs = [log_count_fact - log_x_fact - log_rest_fact
            + x * math.log(prob) + (count - x) * math.log1p(-prob)
            for prob in probs]
    live = np.flatnonzero(np.maximum.reduce(pmfs) >= _LOG_PMF_CUT)
    first, last = int(live[0]), int(live[-1])
    return lo + first, lo + last, [pmf[first:last + 1] for pmf in pmfs]


def _coincidence_separation(params: SysParams, collected: int,
                            rhos: tuple[float, float]) -> tuple[float, float]:
    """(1 - rho_v, rho_v): probability that no/some pair from one column
    of the scrambler beats every background pair count, given the pair
    probabilities `rhos` of _pair_coincidence_probs.

    Both sums run over the live window of the two pair-count pmfs only:
    every term outside it is an exact 0.0 in float64, so the results
    differ from full-range sums by the pairwise grouping of np.sum alone.
    """
    n = params.n
    m2 = params.m_S * (params.m_S - 1) // 2
    n_bg = n * (n - 1) // 2 - n * m2
    _, _, (logpmf1, logpmf0) = _binom_logpmfs(collected, rhos)

    # natural-log CDFs, inclusive and exclusive, from the window's lo
    cdf1_incl = np.logaddexp.accumulate(logpmf1)
    cdf1_incl = np.minimum(cdf1_incl, 0.0)
    cdf1_excl = np.concatenate(([-np.inf], cdf1_incl[:-1]))
    # row maximum over m2 pair counts: pmf via stable power difference
    with np.errstate(invalid="ignore"):
        delta = np.where(cdf1_excl == -np.inf, -np.inf, cdf1_excl - cdf1_incl)
    pmf_max = np.exp(m2 * cdf1_incl) * (-np.expm1(
        np.where(delta == -np.inf, -np.inf, m2 * delta)))

    # log P[X0 >= x], from the window's hi down
    tail0 = np.logaddexp.accumulate(logpmf0[::-1])[::-1]
    tail0 = np.minimum(tail0, 0.0)
    with np.errstate(divide="ignore"):
        log_rho_prime = np.log1p(-np.exp(tail0))     # log P[X0 < x]
    exponent = n_bg * log_rho_prime
    below_all = np.exp(exponent)                  # rho** per threshold
    above_some = -np.expm1(exponent)

    q_v = float(np.sum(pmf_max * above_some))
    rho_v = float(np.sum(pmf_max * below_all))
    return q_v, rho_v


def _log2_graph_cover_prob(params: SysParams, separation: tuple[float, float],
                           quasi_cyclic: bool) -> float:
    """log2 P[the coincidence graph keeps an edge for every column], from
    the (q_v, rho_v) of _coincidence_separation."""
    q_v, rho_v = separation
    if quasi_cyclic:
        if rho_v <= 0.0:
            return NEG_INF
        log_q = math.log1p(-rho_v) if rho_v < 0.5 else _safe_ln(q_v)
        if log_q == NEG_INF:
            return 0.0    # q_v = 0: cover certain
        qvp = params.p * log_q
        if qvp < -1e-8:
            log_ptilde = math.log(-math.expm1(qvp))
        else:
            log_ptilde = math.log(params.p) + math.log(-log_q)
        return params.n0 * log_ptilde / LN2
    if rho_v <= 0.0:
        return NEG_INF
    log_rho = math.log1p(-q_v) if q_v < 0.5 else _safe_ln(rho_v)
    return params.n * log_rho / LN2


def _safe_ln(x: float) -> float:
    return math.log(x) if x > 0 else NEG_INF


def stat_lifetime(params: SysParams, security_exponent: float
                  ) -> tuple[int, int]:
    """(N_lambda, N_lambda_qc): largest signature counts keeping the
    statistical attack success probability below 2^-lambda.

    The scan brackets only for a positive finite lambda and for m_S >= 2:
    with m_S = 1 no scrambler column holds a pair, so the cover
    probability is 0 at every N.
    """
    if not 0.0 < security_exponent < math.inf:
        raise ValueError("lambda must be positive and finite, got "
                         f"{security_exponent}")
    if params.m_S < 2:
        raise ValueError(f"the lifetime needs m_S >= 2, got m_S={params.m_S}")
    rhos = _pair_coincidence_probs(params)
    # both scans probe N = 1, 1024, 2048, ... before they part
    separation = lru_cache(maxsize=None)(
        lambda n: _coincidence_separation(params, n, rhos))
    plain = _scan_max_count(
        lambda n: _log2_graph_cover_prob(params, separation(n), False),
        security_exponent)
    qc = _scan_max_count(
        lambda n: _log2_graph_cover_prob(params, separation(n), True),
        security_exponent)
    return plain, qc


# first upper probe of the lifetime scan's doubling bracket
_SCAN_START = 1024


def _scan_max_count(f_log2, lam: float) -> int:
    """Largest N with f(N) < -lam, by doubling bracket then bisection.

    The bisection needs f to grow with N, so a doubling probe that falls
    more than 1e-6 below the one before it raises.
    """
    threshold = -lam
    lo, hi = 1, _SCAN_START
    prev = f_log2(lo)
    if prev >= threshold:
        return 0
    while True:
        val = f_log2(hi)
        if val < prev - 1e-6:
            raise RuntimeError("lifetime scan: cover probability fell from "
                               f"2^{prev:.6g} at N={lo} to 2^{val:.6g} at "
                               f"N={hi}")
        if val >= threshold:
            break
        lo, prev = hi, val
        hi *= 2
        if hi > 1 << 40:
            raise RuntimeError("lifetime scan failed to bracket")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f_log2(mid) < threshold:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# full report


@dataclass(frozen=True)
class AttackReport:
    instance: str
    security_exponent: float
    n_s_log2: float
    a_wc_log2: float
    wf_sia_log2: float
    wf_lca_log2: float
    wf_da_quantum_log2: float
    wf_kra_quantum_log2: float
    wf_da_classical_approx_log2: float
    wf_kra_classical_approx_log2: float
    collision_classical_log2: float
    collision_quantum_log2: float
    lifetime_qc: int
    lifetime: int
    sia_detail: SiaEstimate
    lca_detail: LcaEstimate
    da_stern: SternParams
    kra_stern: SternParams
    # the classical columns are bjmm_approx_wf's rate-only shortcut
    classical_is_approximate = True

    @property
    def min_wf_log2(self) -> float:
        return min(self.wf_sia_log2, self.wf_lca_log2,
                   self.wf_da_quantum_log2, self.wf_kra_quantum_log2)

    @property
    def passes(self) -> bool:
        return self.min_wf_log2 >= self.security_exponent

    @property
    def passes_grover_forgery(self) -> bool:
        """Pass even granting full Grover speedup to SIA and LCA."""
        return min(self.wf_sia_log2 / 2.0, self.wf_lca_log2 / 2.0,
                   self.wf_da_quantum_log2,
                   self.wf_kra_quantum_log2) >= self.security_exponent

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "lambda": self.security_exponent,
            "log2_n_s": round(self.n_s_log2, 2),
            "log2_a_wc": round(self.a_wc_log2, 2),
            "wf_sia": round(self.wf_sia_log2, 2),
            "wf_lca": round(self.wf_lca_log2, 2),
            "wf_da_pq": round(self.wf_da_quantum_log2, 2),
            "wf_kra_pq": round(self.wf_kra_quantum_log2, 2),
            "wf_da_cl_approx": round(self.wf_da_classical_approx_log2, 2),
            "wf_kra_cl_approx": round(self.wf_kra_classical_approx_log2, 2),
            "collision_cl": round(self.collision_classical_log2, 2),
            "collision_pq": round(self.collision_quantum_log2, 2),
            "lifetime_qc": self.lifetime_qc,
            "lifetime": self.lifetime,
            "classical_is_approximate": self.classical_is_approximate,
            "pass": self.passes,
        }


def full_report(params: SysParams, security_exponent: float | None = None
                ) -> AttackReport:
    lam = (params.security_level if security_exponent is None
           else security_exponent)
    if params.m_S * params.w > unique_decoding_radius(params):
        raise ValueError("decoding target outside the unique-decoding radius")
    space = signature_space(params)
    sia = sia_wf(params)
    lca = lca_wf(params)
    wf_da, sp_da = quantum_stern_wf(decoding_attack_target(params))
    wf_kra, sp_kra = quantum_stern_wf(key_recovery_target(params))
    lifetime, lifetime_qc = stat_lifetime(params, lam)
    return AttackReport(
        instance=params.name,
        security_exponent=lam,
        n_s_log2=space.n_s_log2,
        a_wc_log2=space.a_wc_log2,
        wf_sia_log2=sia.wf_log2,
        wf_lca_log2=lca.wf_log2,
        wf_da_quantum_log2=wf_da,
        wf_kra_quantum_log2=wf_kra,
        wf_da_classical_approx_log2=bjmm_approx_wf(
            decoding_attack_target(params, quantum=False)),
        wf_kra_classical_approx_log2=bjmm_approx_wf(
            key_recovery_target(params, quantum=False)),
        collision_classical_log2=space.collision_classical_log2,
        collision_quantum_log2=space.collision_quantum_log2,
        lifetime_qc=lifetime_qc,
        lifetime=lifetime,
        sia_detail=sia,
        lca_detail=lca,
        da_stern=sp_da,
        kra_stern=sp_kra)


def render_table(reports) -> str:
    header = (f"{'inst':8s} {'N_s':>8s} {'A_wc':>8s} {'SIA':>8s} {'LCA':>8s} "
              f"{'DA_pq':>8s} {'KRA_pq':>8s} {'DA_cl~':>8s} {'KRA_cl~':>8s} "
              f"{'life_qc':>8s} {'pass':>5s}")
    lines = [header]
    for rep in reports:
        lines.append(
            f"{rep.instance:8s} {rep.n_s_log2:8.2f} {rep.a_wc_log2:8.2f} "
            f"{rep.wf_sia_log2:8.2f} {rep.wf_lca_log2:8.2f} "
            f"{rep.wf_da_quantum_log2:8.2f} {rep.wf_kra_quantum_log2:8.2f} "
            f"{rep.wf_da_classical_approx_log2:8.2f} "
            f"{rep.wf_kra_classical_approx_log2:8.2f} "
            f"{rep.lifetime_qc:8d} {'PASS' if rep.passes else 'FAIL':>5s}")
    return "\n".join(lines)
