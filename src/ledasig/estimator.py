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
along an array axis. Each quantity has one form: every binomial over an
array is _lb_array, which maps math.lgamma once over each argument row's
range; every hypergeometric parity probability is _parity_sum (one
marked set) or _pair_parity_sum (two disjoint marked sets); every AND /
XOR step applies a _fold_plan, whose pair terms and (y, x) order are
built once per (n, w) and serve a whole chain of steps; sia_wf is the
one SIA evaluation; _stern_wf is the one quantum Stern cost, an array
over (l, j) that quantum_stern_wf scans whole; and _binom_logpmfs is the
one form of the lifetime scan's pair-count pmfs, from which their live
window is read.

Work that cannot change a reported float is skipped: sia_wf evaluates
only the (L, w_L) cells whose float-safe lower bound lies below the best
work factor so far, lca_wf folds only the weights that a later XOR step
reads, quantum_stern_wf evaluates only the rows and columns its grown
box gained, and _coincidence_separation takes its background tail only
where the row maximum's pmf is nonzero. One quantity the report never
shows is approximated within a stated budget: the lifetime scan's
(q_v, rho_v) are summed only where a pair-count pmf is at least e^-100.
They move by at most 4.3e-16 relative, and no lifetime moves
(_LOG_PMF_CUT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    """_lb over broadcast integer arrays, bit for bit; n may also be a
    whole number plus one half, as in _stern_wf.

    math.lgamma is mapped over each argument row's range (_lgamma_range):
    scipy's gammaln rounds differently on about half the integers in
    range, which would move the reported work factors in their last bits.
    """
    n, k = np.broadcast_arrays(np.asarray(n), np.asarray(k))
    out = np.full(n.shape, NEG_INF)
    ok = (k >= 0) & (n >= 0) & (k <= n)
    if ok.any():
        n, k = n[ok], k[ok]
        lg_n, lg_k, lg_rest = map(_lgamma_range, (n + 1, k + 1, n - k + 1))
        out[ok] = (lg_n - lg_k - lg_rest) / LN2
    return out


def _lgamma_range(a: np.ndarray) -> np.ndarray:
    """math.lgamma at each entry of a, whose entries lie whole numbers
    apart: mapped once over a.min()..a.max(), then read back by offset.
    The same values reach math.lgamma as entry by entry, so the same bits
    come out, and no sort is needed.

    The cost follows the range, not the size: a.max() - a.min() + 1 calls
    of math.lgamma, about 0.13 us each, and a list that long. A row of
    scattered large arguments pays for every value between them (600
    random ones up to 914,453 take about 0.5 s). The nine reports' 1,329
    rows span at most 505 values, 54,459 in all for 1,516,644 entries."""
    lo = a.min()
    offsets = (a - lo).astype(np.intp)
    if a.dtype.kind == "f" and not np.array_equal(offsets, a - lo):
        raise ValueError("lgamma arguments must lie whole numbers apart")
    return _map(math.lgamma, np.arange(lo, a.max() + 1))[offsets]


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


class _FoldPlan(NamedTuple):
    """The terms of combining one more independent weight-w vector with any
    weight distribution over 0..x_max (_fold_plan), in (y, x) order."""

    x_max: int
    x: np.ndarray        # each term's input weight
    pair: np.ndarray     # its pair term lb(x, i) + lb(n - x, w - i) - lb(n, w)
    y: np.ndarray        # each y group's output weight ...
    starts: np.ndarray   # ... and the index of its first term

    def fold(self, dist: np.ndarray, size: int) -> np.ndarray:
        """The distribution after the step, over weights 0..size-1, from
        dist, whose weights above x_max must be -inf: one gather, one add
        and one reduceat, which folds each y's terms in increasing x.

        Terms at a dead x are -inf, and logaddexp2(a, -inf) is a and
        logaddexp2(-inf, t) is t exactly, so each y sums its live terms
        bit for bit as a per-x loop does. The groups with y < size are a
        prefix of the (y, x) order."""
        if len(dist) <= self.x_max:
            dist = np.concatenate(
                (dist, np.full(self.x_max + 1 - len(dist), NEG_INF)))
        groups = int(np.searchsorted(self.y, size))
        end = self.starts[groups] if groups < len(self.y) else len(self.x)
        terms = dist[self.x[:end]] + self.pair[:end]
        new = np.full(size, NEG_INF)
        new[self.y[:groups]] = np.logaddexp2.reduceat(
            terms, self.starts[:groups])
        return new


def _fold_plan(n: int, w: int, x_max: int, xor: bool = False) -> _FoldPlan:
    """The _FoldPlan of one AND (xor=False) or XOR step with a weight-w
    vector of length n. A weight-x vector overlapping the new one in i
    positions gives y = x + w - 2i under XOR and i under AND; the feasible
    (x, i), x <= x_max, are sorted by (y, x) once, and the pair terms
    depend on (n, w, x, i) only."""
    x, i = np.broadcast_arrays(np.arange(x_max + 1)[:, None], np.arange(w + 1))
    y = x + w - 2 * i if xor else i
    live = (i >= x + w - n) & (i <= x)
    x, i, y = x[live], i[live], y[live]
    order = np.lexsort((x, y))
    x, i, y = x[order], i[order], y[order]
    pair = _lb_array(x, i) + _lb_array(n - x, w - i) - _lb(n, w)
    starts = np.flatnonzero(np.diff(y, prepend=-1))
    return _FoldPlan(x_max, x, pair, y[starts], starts)


@_cache
def _iterated_and_dist(n: int, w: int) -> np.ndarray:
    """Row count - 1 is the log2 distribution of wt(v1 & ... & v_count)
    for count independent weight-w vectors of length n, count = 1 ..
    _SIA_MAX_COLLECTED: every step applies one _fold_plan."""
    plan = _fold_plan(n, w, w)
    chain = np.full((_SIA_MAX_COLLECTED, w + 1), NEG_INF)
    chain[0, w] = 0.0
    for count in range(1, _SIA_MAX_COLLECTED):
        chain[count] = plan.fold(chain[count - 1], w + 1)
    return chain


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
    extended by the rows and columns it gained, so a minimum pressed
    against the first box's edge is followed past it. A separate, lower
    basin beyond the box is not searched for.
    """
    n, k, w = target.n, target.k, target.w_target
    j_max, l_max = min(w // 2, 40), min(120, n - k)
    wf = np.empty((0, 0))
    while True:
        wf = _stern_box(n, k, w, wf, j_max, l_max)
        j, l = np.unravel_index(np.argmin(wf), wf.shape)
        grow_j, grow_l = j == j_max < w // 2, l == l_max < n - k
        if not (grow_j or grow_l):
            break
        j_max = min(2 * j_max, w // 2) if grow_j else j_max
        l_max = min(2 * l_max, n - k) if grow_l else l_max
    return (float(wf[j, l]) - _speedup_log2(target),
            SternParams(int(l), int(j)))


def _stern_box(n: int, k: int, w: int, box: np.ndarray, j_max: int,
               l_max: int) -> np.ndarray:
    """_stern_wf over j <= j_max, l <= l_max, given `box`, its values over
    a smaller box from the origin: only the gained columns and rows are
    evaluated. _stern_wf is entrywise, so this equals the whole box."""
    rows, cols = box.shape
    out = np.empty((j_max + 1, l_max + 1))
    out[:rows, :cols] = box
    if rows and cols <= l_max:
        out[:rows, cols:] = _stern_wf(n, k, w, np.arange(cols, l_max + 1),
                                      np.arange(rows)[:, None])
    if rows <= j_max:
        out[rows:] = _stern_wf(n, k, w, np.arange(l_max + 1),
                               np.arange(rows, j_max + 1)[:, None])
    return out


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
    """Linear-combination work factor, minimized over the number L of
    combined signatures, 2 <= L <= _LCA_MAX_COMBINATIONS.

    Step L reads the syndrome XOR distribution at weight w and the
    information-word one up to m_g. One more XOR moves a weight by at most
    w (m_g), so step ell keeps syndrome weights up to
    (_LCA_MAX_COMBINATIONS - ell + 1) * w and information weights up to
    (_LCA_MAX_COMBINATIONS - ell + 1) * m_g: every weight a later step reads
    is folded from the same terms, in the same order, as over 0..r (0..k).
    No step reads a syndrome weight above min(r, 7w) or an information
    weight above min(k, 7 m_g) (for 8 combinations), so each side builds
    one _fold_plan up to there and applies it at every step, starting
    from the one-hot distribution of a single vector over 0..w (0..m_g).
    """
    w, r, k, m_g = params.w, params.r, params.k, params.m_g
    w_sigma = (params.w + params.w_c) * params.m_S
    best, best_l = math.inf, 2
    reach = _LCA_MAX_COMBINATIONS - 1
    syndrome_plan = _fold_plan(r, w, min(r, reach * w), xor=True)
    info_plan = _fold_plan(k, m_g, min(k, reach * m_g), xor=True)
    # XOR distributions of ell syndromes and of ell information words,
    # extended by one vector per ell
    syndrome, info = np.full(w + 1, NEG_INF), np.full(m_g + 1, NEG_INF)
    syndrome[w], info[m_g] = 0.0, 0.0
    for ell in range(2, _LCA_MAX_COMBINATIONS + 1):
        steps_left = _LCA_MAX_COMBINATIONS - ell + 1
        syndrome = syndrome_plan.fold(syndrome, min(r, steps_left * w) + 1)
        info = info_plan.fold(info, min(k, steps_left * m_g) + 1)
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
    dist = _iterated_and_dist(params.r, params.w)[ell - 1]
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

    Only the cells that a lower bound leaves open are evaluated. With
    c_ij, c_s1 and the lb terms computed as _sia_wf_at computes them,
    B = max(c_ij, ((c_s1 - p_and) + lb(r, w_L)) - lb(w, w_L)) satisfies
    _sia_wf_at >= B - p_igej >= B in float64: log2_sum never returns less
    than its largest term, B follows _sia_wf_at's own order of additions
    (and rounded + and - are monotone in each argument), lb(w, w_L) >= 0
    and p_igej <= 0. So a cell with B >= best, or B - p_igej >= best, can
    not replace best, which is replaced only on a strict <: the same
    (wf, L, w_L) comes out as from every cell, ties included.
    """
    if params.z > params.w:
        raise ValueError(f"SIA needs z <= w, got z={params.z}, w={params.w}")
    n, r, w = params.n, params.r, params.w
    rows = _codeword_row_parities(params)
    w_ls = np.arange(params.z, w + 1)
    wlw = params.m_S * w_ls
    _, p_i, _, p_j = np.array([_bit_probabilities(params, w_l, rows)
                               for w_l in w_ls.tolist()]).T
    lb_r, lb_w = _lb_array(r, w_ls), _lb_array(w, w_ls)
    and_chain = _iterated_and_dist(r, w)
    best = (math.inf, 2, params.z)
    for ell in range(2, _SIA_MAX_COLLECTED + 1):
        p_and = and_chain[ell - 1][w_ls]
        c_ij = _map(math.log2, (ell - 1) * n * math.ceil(math.log2(ell))
                    + wlw * r)
        c_s1 = math.log2((ell - 1) * w)
        # _sia_wf_at >= bound - p_igej >= bound (docstring); inf where
        # p_and is -inf
        bound = np.maximum(c_ij, ((c_s1 - p_and) + lb_r) - lb_w)
        cells = np.flatnonzero(bound < best[0])
        if not cells.size:
            continue
        p_igej = _p_i_ge_j(n, ell, wlw[cells], p_i[cells], p_j[cells])
        for cell, p in zip(cells.tolist(), p_igej.tolist()):
            if bound[cell] - p < best[0]:
                w_l = int(w_ls[cell])
                wf = _sia_wf_at(params, ell, w_l, float(p_and[cell]), p)
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


# Natural-log pmf values below this cut lie outside the live window. This
# is an error budget, not an underflow bound: the mass left out of every
# sum _coincidence_separation takes is at most (N + 1) e^-100 per pmf, so
# (q_v, rho_v) move by at most about (2 m2 + n_bg)(N + 1) e^-100 < 2e-26,
# while within 20 bits of -lambda the one the cover formula reads is
# 1.5e-4 or more. Measured against a cut of -1000, below which every term
# is an exact float64 zero, at the 328 probes of the nine instances'
# scans: (q_v, rho_v) moved by at most 4.3e-16 relative (np.sum's
# grouping), the cover exponents by at most 3.7e-9 bits, the probe
# nearest -lambda lies 2.6e-5 bits from it, and no decision moved.
# A cut of -40 moved an exponent by 0.58 bits (docs/decisions.md).
_LOG_PMF_CUT = -100.0


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

    Both sums run over the live window of the two pair-count pmfs only.
    The terms outside it are not exact zeros but the pmfs' mass below
    e^-100, under 2e-26 in absolute terms on the nine instances
    (_LOG_PMF_CUT); the results differ from full-range sums mostly by the
    pairwise grouping of np.sum, at most 4.3e-16 relative at the scans'
    probes.
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

    # log P[X0 >= x], from the window's hi down to the first x at which
    # pmf_max is nonzero: below it, a factor of 0.0 keeps each product the
    # zero of pmf_max's sign, as the factors in [0, 1] there would, and
    # both sums keep the window's length and grouping
    first = int(np.argmax(pmf_max != 0.0))
    tail0 = np.logaddexp.accumulate(logpmf0[first:][::-1])[::-1]
    tail0 = np.minimum(tail0, 0.0)
    with np.errstate(divide="ignore"):
        log_rho_prime = np.log1p(-np.exp(tail0))     # log P[X0 < x]
    exponent = n_bg * log_rho_prime
    below_all = np.zeros_like(pmf_max)            # rho** per threshold
    above_some = np.zeros_like(pmf_max)
    below_all[first:] = np.exp(exponent)
    above_some[first:] = -np.expm1(exponent)

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
