"""Monte-Carlo checks of the attack-probability building blocks."""

import math

import numpy as np

from helpers import SIATOY as TOY
from ledasig.estimator import (_bit_probabilities, _codeword_row_parities,
                               _l_col, _p_i_ge_j)

ELL, W_L = 2, 2     # collected signature pairs, intersected weight


def test_sia_counting_attack_monte_carlo():
    """Frequency of min(I-counts) > max(J-counts) vs the closed form."""
    _, p_i, _, p_j = _bit_probabilities(TOY, W_L, _codeword_row_parities(TOY))
    wlw = TOY.m_S * W_L
    n_j = TOY.n - wlw
    p_ref = 2.0 ** _p_i_ge_j(TOY.n, ELL, wlw, p_i, p_j)

    rng = np.random.default_rng(7)
    trials = 100_000
    i_counts = rng.binomial(ELL, p_i, size=(trials, wlw))
    j_counts = rng.binomial(ELL, p_j, size=(trials, n_j))
    wins = (i_counts.min(axis=1) > j_counts.max(axis=1)).mean()
    sigma = math.sqrt(p_ref * (1 - p_ref) / trials)
    assert abs(wins - p_ref) <= 3 * sigma


def test_sia_survival_probability_monte_carlo():
    """Hypergeometric even-overlap survival vs its Monte-Carlo estimate."""
    p_i1 = _bit_probabilities(TOY, W_L, _codeword_row_parities(TOY))[0]
    r, w, w_l = TOY.r, TOY.w, W_L
    lcol = _l_col(TOY)

    rng = np.random.default_rng(11)
    trials = 100_000
    pool = r - w_l
    marked = lcol - 1
    hits = np.array([
        (rng.choice(pool, size=w - w_l, replace=False) < marked).sum()
        for _ in range(trials)])
    freq = (hits % 2 == 0).mean()
    sigma = math.sqrt(p_i1 * (1 - p_i1) / trials)
    assert abs(freq - p_i1) <= 3 * sigma


def test_sia_codeword_interplay_monte_carlo():
    """Even selections among the codeword rows vs the closed form."""
    p_i2_keep = _codeword_row_parities(TOY)[0]
    n, m_s, w_c = TOY.n, TOY.m_S, TOY.w_c

    rng = np.random.default_rng(13)
    trials = 100_000
    hits = np.array([
        (rng.choice(n - 1, size=w_c, replace=False) < m_s - 1).sum()
        for _ in range(trials)])
    freq = (hits % 2 == 0).mean()
    sigma = math.sqrt(p_i2_keep * (1 - p_i2_keep) / trials)
    assert abs(freq - p_i2_keep) <= 3 * sigma
