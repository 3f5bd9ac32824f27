"""Regret of the multiplicative-weights and swap learners against an
adaptive adversary.

Each round the adversary sees the learner's play p and answers with the
column of a fixed payoff matrix M that is worst for it, argmin_b (p^T M)_b;
the learner then gains that column. The tests check the measured average
regret against the learners' worst-case bounds at T = 1k, 4k and 16k, so a
learner whose regret stops shrinking fails at the longer horizons.

Bounds, for gains in [-1, 1] and A arms (Hedge with exp(eta * gain), using
e^x <= 1 + x + x^2 for |x| <= 1):
- Mwu, known horizon, eta = sqrt(ln A / T): regret <= ln A / eta + eta T,
  i.e. average regret <= 2 sqrt(ln A / T).
- Mwu, doubling trick: epoch k of length 2^k adds at most
  2 sqrt(2^k ln A), and the epochs that start before T sum to at most
  2 sqrt(2) / (sqrt(2) - 1) sqrt(T ln A) < 7 sqrt(T ln A).
- SwapLearner (Blum-Mansour): row a gains pi[a] u, so the rows' regrets sum
  to at most A ln A / eta + eta T; the power-iterate average adds
  ||Q^T pi - pi||_1 <= 2/L per round. With L = ceil(sqrt(T / ln A)) the
  average swap regret is at most (A + 3) sqrt(ln A / T).
"""

import math

import numpy as np
import pytest

from phiregret import Mwu, SwapLearner, bm_next, bm_observe
from phiregret.nfg import swap_regret_from_moments

HORIZONS = (1000, 4000, 16000)
A = 4


def payoff_matrices(seed, stack=()):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=stack + (A, A))


def worst_column(M, p):
    """The column of M (per stacked matrix) the adversary answers p with."""
    values = (p[..., None, :] @ M)[..., 0, :]
    b = np.argmin(values, axis=-1)
    return np.take_along_axis(M, b[..., None, None], axis=-1)[..., 0]


@pytest.mark.parametrize("doubling, c", [(False, 2.0), (True, 7.0)])
def test_mwu_external_regret_against_an_adaptive_adversary(doubling, c):
    M = payoff_matrices(88)
    for T in HORIZONS:
        learner = Mwu(A, horizon=None if doubling else T)
        gains = np.zeros(A)
        realized = 0.0
        for _ in range(T):
            p = learner.next_distribution()
            u = worst_column(M, p)
            gains += u
            realized += float(p @ u)
            learner.observe(u)
        regret = (float(np.max(gains)) - realized) / T
        assert regret <= c * math.sqrt(math.log(A) / T), (T, regret)


def test_stacked_swap_learner_against_an_adaptive_adversary():
    G = 3
    c = A + 3
    M = payoff_matrices(89, stack=(G,))
    for T in HORIZONS:
        L = math.ceil(math.sqrt(T / math.log(A)))
        learner = SwapLearner(A, horizon=T, stack=G)
        moments = np.zeros((G, A, A))
        for _ in range(T):
            pi = bm_next(learner, L)
            u = worst_column(M, pi)
            moments += pi[:, :, None] * u[:, None, :]
            bm_observe(learner, u, pi)
        regrets = [swap_regret_from_moments(m, T) for m in moments]
        assert max(regrets) <= c * math.sqrt(math.log(A) / T), (T, regrets)
