"""Attack work factors and key-lifetime bounds, all in the log2 domain.

Covers: information-set decoding costs (quantum Stern with Grover
iteration counts, and the 2^(c*w) classical approximation), signature
space and collision bounds, forgery attacks built from linear
combinations of signatures (LCA) and from support intersections (SIA),
and the statistical key-recovery lifetime bound based on bit-pair
coincidence counting.

Binomials of size C(~30000, ~900) appear throughout, so probabilities
are carried as log2 values and sums use max-shifted exponential sums.
Each quantity has one form: every hypergeometric parity probability is
_parity_sum (one marked set) or _pair_parity_sum (two disjoint marked
sets), every pair-overlap pmf is _pair_and_dist, and sia_wf is the one
SIA evaluation.
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


def log2_binom(n: float, k: float) -> float:
    """log2 C(n, k); exact integer arithmetic for n <= 64."""
    if k < 0 or k > n:
        raise ValueError(f"binomial C({n}, {k}) undefined")
    if float(n).is_integer() and n <= 64:
        return math.log2(math.comb(int(n), int(round(k))))
    return (math.lgamma(n + 1) - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)) / LN2


def _lb(n: float, k: float) -> float:
    """log2 C(n, k) with -inf for infeasible arguments."""
    if k < 0 or n < 0 or k > n:
        return NEG_INF
    return (math.lgamma(n + 1) - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)) / LN2


def _lb_array(n, k) -> np.ndarray:
    """_lb over broadcast integer arrays, bit for bit.

    math.lgamma is mapped over the arguments: scipy's gammaln rounds
    differently on about half the integers in range, which would move
    the reported work factors in their last bits.
    """
    n, k = np.broadcast_arrays(np.asarray(n), np.asarray(k))
    out = np.full(n.shape, NEG_INF)
    ok = (k >= 0) & (n >= 0) & (k <= n)
    n, k = n[ok], k[ok]
    out[ok] = (_lgamma(n + 1) - _lgamma(k + 1) - _lgamma(n - k + 1)) / LN2
    return out


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.tolist()), np.float64, x.size)


def log2_sum(values) -> float:
    """log2 of a sum of 2^v terms, max-shifted for stability."""
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    m = max(vals)
    return m + math.log2(sum(2.0 ** (v - m) for v in vals))


# ---------------------------------------------------------------------------
# AND / XOR weight distributions of independent fixed-weight vectors


def _pair_and_dist(n: int, w1: int, w2: int) -> np.ndarray:
    """log2 P[wt(v1 & v2) = x] over x = 0..min(w1, w2)."""
    out = np.full(min(w1, w2) + 1, NEG_INF)
    x = np.arange(max(0, w1 + w2 - n), min(w1, w2) + 1)
    out[x] = _lb_array(w1, x) + _lb_array(n - w1, w2 - x) - _lb(n, w2)
    return out


def _and_step(n: int, dist: np.ndarray, w: int, keep: int) -> np.ndarray:
    """AND one more independent weight-w vector into a weight
    distribution; the result keeps weights 0..keep-1."""
    new = np.full(len(dist), NEG_INF)
    for x in np.flatnonzero(dist != NEG_INF).tolist():
        pair = _pair_and_dist(n, x, w)
        stop = min(len(pair), len(new))
        new[:stop] = np.logaddexp2(new[:stop], dist[x] + pair[:stop])
    return new[:keep]


def and_weight_dist(n: int, weights) -> np.ndarray:
    """log2 distribution of wt(v1 & ... & vm) for independent vectors."""
    weights = list(weights)
    dist = np.full(weights[0] + 1, NEG_INF)
    dist[weights[0]] = 0.0
    keep = max(1, min(weights) + 1)
    for w in weights[1:]:
        dist = _and_step(n, dist, w, keep)
    return dist


@_cache
def _iterated_and_dist(n: int, w: int, count: int) -> np.ndarray:
    """and_weight_dist(n, [w] * count), one step on from count - 1."""
    if count == 1:
        return and_weight_dist(n, [w])
    return _and_step(n, _iterated_and_dist(n, w, count - 1), w, w + 1)


def _xor_step(n: int, dist: np.ndarray, w: int) -> np.ndarray:
    """XOR one more independent weight-w vector into a weight
    distribution over 0..n.

    Only the live weights x are visited, in increasing order; a weight-x
    vector overlapping the new one in i positions gives weight
    x + w - 2i.
    """
    new = np.full(n + 1, NEG_INF)
    for x in np.flatnonzero(dist != NEG_INF).tolist():
        pair = _pair_and_dist(n, x, w)
        i = np.flatnonzero(pair != NEG_INF)
        y = x + w - 2 * i
        new[y] = np.logaddexp2(new[y], dist[x] + pair[i])
    return new


def xor_weight_dist(n: int, weights) -> np.ndarray:
    """log2 distribution of wt(v1 ^ ... ^ vm) over 0..n."""
    weights = list(weights)
    dist = np.full(n + 1, NEG_INF)
    dist[weights[0]] = 0.0
    for w in weights[1:]:
        dist = _xor_step(n, dist, w)
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


def stern_success_log2(n: int, k: int, w: int, sp: SternParams) -> float:
    """log2 of the per-iteration success probability of Stern's algorithm."""
    l, j = sp.l, sp.j
    num = (_lb(w, 2 * j) + _lb(n - w, k - 2 * j) + _lb(2 * j, j)
           + _lb(n - k - w + 2 * j, l))
    den = 2 * j + _lb(n, k) + _lb(n - k, l)
    if num == NEG_INF or den == NEG_INF:
        return NEG_INF
    return min(num - den, 0.0)


def _stern_iteration_cost_log2(n: int, k: int, sp: SternParams) -> float:
    """log2 of c_it + c_inv for one (reversible) Stern iteration."""
    l, j = sp.l, sp.j
    half_k = k / 2.0
    c_inv = math.log2(0.5 * (n - k) ** 3 + k * (n - k) ** 2)
    terms = [c_inv]
    if j > 0:
        lbkj = _lb(half_k, j)
        if l > 0:
            terms.append(math.log2(2 * l * j) + lbkj)
        terms.append(math.log2(2 * j * (n - k)) + 2 * lbkj - l)
    return log2_sum(terms)


_P_INV_LOG2 = math.log2(0.29)
_GROVER_PREFACTOR_LOG2 = math.log2(math.pi / 4.0)


def _stern_wf_at(n: int, k: int, w: int, sp: SternParams) -> float:
    pe = stern_success_log2(n, k, w, sp)
    if pe == NEG_INF:
        return math.inf
    iters = _GROVER_PREFACTOR_LOG2 + 0.5 * (-_P_INV_LOG2 - pe)
    return iters + _stern_iteration_cost_log2(n, k, sp)


def quantum_stern_wf(target: IsdTarget) -> tuple[float, SternParams]:
    """Grover-accelerated Stern cost, minimized over (l, j).

    A coarse grid (j <= min(w/2, 40), l <= 120) is refined by hill
    climbing with growing steps, so optima beyond the grid edge are
    still found.
    """
    n, k, w = target.n, target.k, target.w_target
    best = (math.inf, SternParams(0, 0))
    for j in range(0, min(w // 2, 40) + 1):
        for l in range(0, 121, 4):
            wf = _stern_wf_at(n, k, w, SternParams(l, j))
            if wf < best[0]:
                best = (wf, SternParams(l, j))
    improved = True
    while improved:
        improved = False
        l0, j0 = best[1].l, best[1].j
        for dl in (-64, -16, -4, -1, 1, 4, 16, 64):
            for dj in (-2, -1, 0, 1, 2):
                l, j = l0 + dl, j0 + dj
                if l < 0 or j < 0 or 2 * j > w or l > n - k:
                    continue
                wf = _stern_wf_at(n, k, w, SternParams(l, j))
                if wf < best[0] - 1e-12:
                    best = (wf, SternParams(l, j))
                    improved = True
    wf = best[0] - _speedup_log2(target)
    return wf, best[1]


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
    """Half the public-code minimum-distance estimate w_g * m_S."""
    return params.w * params.m_S + (params.m_S - 1) // 2


# ---------------------------------------------------------------------------
# signature space and collision bounds


@dataclass(frozen=True)
class SignatureSpace:
    n_s_log2: float           # distinct admissible syndromes
    a_wc_log2: float          # easily reachable sparse codewords
    collision_classical_log2: float
    collision_quantum_log2: float


def signature_space(params: SysParams) -> SignatureSpace:
    ns = log2_binom(params.r, params.w) - params.z
    awc = log2_binom(params.k, params.m_g)
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
        syndrome = _xor_step(r, syndrome, w)
        info = _xor_step(k, info, m_g)
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
    total = NEG_INF
    for i in range(parity, min(ones, draws) + 1, 2):
        total = np.logaddexp2(
            total, _lb(ones, i) + _lb(n_pool - ones, draws - i) - denom)
    return float(2.0 ** total) if total != NEG_INF else 0.0


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


def _p_i_ge_j(n: int, ell: int, wlw: int, p_i: float, p_j: float) -> float:
    """log2 P[every one of wlw tracked I-bits is set more often over ell
    pairs than every one of the n - wlw J-bits], each bit set
    Binomial(ell, p_i) or Binomial(ell, p_j) times."""
    log_pi, log_qi = _safe_log2(p_i), _safe_log2(1 - p_i)
    log_pj, log_qj = _safe_log2(p_j), _safe_log2(1 - p_j)
    # P[an I-bit is set exactly x times], x = 1..ell; a J-bit, x = 0..ell-1
    pi_counts = [_lb(ell, x) + x * log_pi + (ell - x) * log_qi
                 for x in range(1, ell + 1)]
    pj_counts = [_lb(ell, x) + x * log_pj + (ell - x) * log_qj
                 for x in range(ell)]
    # P[an I-bit is set >= x times], x = 1..ell + 1
    pi_tail = [log2_sum(pi_counts[x:]) for x in range(ell + 1)]
    total = []
    for x in range(ell):
        # all I-bits set >= x + 1 times, one exactly x + 1 ...
        pi_ge = _log2_pow_diff(pi_tail[x], pi_tail[x + 1], wlw)
        if pi_ge == NEG_INF:
            continue
        # ... and all J-bits set <= x times
        cdf = log2_sum(pj_counts[:x + 1])
        pj_le = min(0.0, (n - wlw) * cdf) if cdf != NEG_INF else NEG_INF
        total.append(pj_le + pi_ge)
    return log2_sum(total)


def p_and_intersection(params: SysParams, ell: int, w_l: int) -> float:
    """log2 P[wt(AND of ell weight-w syndromes) = w_l]."""
    dist = _iterated_and_dist(params.r, params.w, ell)
    return float(dist[w_l]) if w_l < len(dist) else NEG_INF


def _safe_log2(x: float) -> float:
    return math.log2(x) if x > 0 else NEG_INF


def _log2_pow_diff(hi: float, lo: float, power: float) -> float:
    """log2(2^(hi*power) - 2^(lo*power)) for hi >= lo, both <= 0."""
    if hi == NEG_INF:
        return NEG_INF
    if lo == NEG_INF:
        return power * hi
    a, b = power * hi, power * lo
    if b - a < -60:
        return a
    diff = -math.expm1((b - a) * LN2)
    if diff <= 0.0:
        return NEG_INF
    return a + math.log2(diff)


@dataclass(frozen=True)
class SiaEstimate:
    wf_log2: float
    collected: int
    w_l: int


def sia_wf(params: SysParams, max_collected: int = 16,
           max_w_l: int | None = None) -> SiaEstimate:
    """Total support-intersection work factor, minimized over (L, w_L).

    For w_L not dividing w, the cheaper of the two last-step strategies
    is taken: an unconstrained-position final step, or a final step that
    re-finds previously located positions.
    """
    d_b = params.z
    w = params.w
    if max_w_l is None:
        max_w_l = w
    rows = _codeword_row_parities(params)
    bits = {w_l: _bit_probabilities(params, w_l, rows)
            for w_l in range(d_b, max_w_l + 1)}
    best = (math.inf, 2, d_b)
    for ell in range(2, max_collected + 1):
        for w_l, (_, p_i, _, p_j) in bits.items():
            p_igej = _p_i_ge_j(params.n, ell, params.m_S * w_l, p_i, p_j)
            wf = _sia_wf_at(params, ell, w_l,
                            p_and_intersection(params, ell, w_l), p_igej)
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
    denom = _lb(pool, draws)
    total = NEG_INF
    for l in range(parity, ones + 1, 2):
        for u in range(parity, ones + 1, 2):
            total = np.logaddexp2(total, _lb(ones, l) + _lb(ones, u)
                                  + _lb(rest, draws - l - u) - denom)
    return float(2.0 ** total)


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


def _live_window(count: int, probs) -> tuple[int, int]:
    """(lo, hi): the x-range over which some Binomial(count, prob) pmf of
    `probs` has a natural log of at least _LOG_PMF_CUT."""
    lo, hi = count, 0
    for prob in probs:
        mode = min(int((count + 1) * prob), count)
        lo = min(lo, _last_alive(count, prob, mode, 0))
        hi = max(hi, _last_alive(count, prob, mode, count))
    return lo, hi


def _last_alive(count: int, prob: float, inside: int, end: int) -> int:
    """Farthest x from the mode `inside` toward `end` whose log pmf is at
    least _LOG_PMF_CUT. The pmf is log-concave, so those x form one
    interval around the mode, and its edge is bisected."""
    def alive(x: int) -> bool:
        logpmf = (math.lgamma(count + 1) - math.lgamma(x + 1)
                  - math.lgamma(count - x + 1)
                  + x * math.log(prob) + (count - x) * math.log1p(-prob))
        return logpmf >= _LOG_PMF_CUT

    if alive(end):
        return end
    outside = end
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        if alive(mid):
            inside = mid
        else:
            outside = mid
    return inside


def _binom_logpmfs(count: int, probs, lo: int, hi: int) -> list[np.ndarray]:
    """Natural-log Binomial(count, prob) pmfs over x = lo..hi, one per
    prob, from one pair of log-factorial arrays.

    Each entry equals, bit for bit, the one a full 0..count array would
    hold; the arrays are hi - lo + 1 long, so the scan's peak memory
    follows the live window of _live_window, not count.
    """
    x = np.arange(lo, hi + 1, dtype=np.float64)
    log_x_fact = gammaln(x + 1)
    log_rest_fact = gammaln(count - x + 1)
    log_count_fact = gammaln(count + 1.0)
    return [log_count_fact - log_x_fact - log_rest_fact
            + x * math.log(prob) + (count - x) * math.log1p(-prob)
            for prob in probs]


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
    lo, hi = _live_window(collected, rhos)
    logpmf1, logpmf0 = _binom_logpmfs(collected, rhos, lo, hi)

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
    statistical attack success probability below 2^-lambda."""
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


def _scan_max_count(f_log2, lam: float, start: int = 1024) -> int:
    """Largest N with f(N) < -lam, by doubling bracket then bisection.

    The bisection needs f to grow with N, so a doubling probe that falls
    more than 1e-6 below the one before it raises.
    """
    threshold = -lam
    lo, hi = 1, start
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
    classical_is_approximate: bool = True

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
    space = signature_space(params)
    sia = sia_wf(params)
    lca = lca_wf(params)
    if params.m_S * params.w > unique_decoding_radius(params):
        raise ValueError("decoding target outside the unique-decoding radius")
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
