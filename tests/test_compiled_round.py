"""The normal-form round reuses what it can build once: each SwapLearner's
block template and start vector, each game's compiled contraction, and
run_ce's round buffers. These tests pin expectation_oracle bit for bit to
the per-call build it replaced, and check run_ce's L and c. bm_next is
pinned for L = 1..70 in test_round_buffers.py."""

import math

import numpy as np
import pytest

import oracles
from phiregret import (
    NormalFormGame,
    expectation_oracle,
    matching_pennies,
    run_ce,
)


def dense_game(counts, seed):
    rng = np.random.default_rng(seed)
    return NormalFormGame.dense([rng.uniform(-1, 1, size=tuple(counts)) for _ in counts])


def polymatrix_game(counts, pairs, seed):
    rng = np.random.default_rng(seed)
    scale = 1.0 / len(pairs)
    edges = {(i, j): (rng.uniform(-scale, scale, (counts[i], counts[j])),
                      rng.uniform(-scale, scale, (counts[j], counts[i])))
             for i, j in pairs}
    return NormalFormGame.polymatrix(counts, edges)


GAMES = {
    "dense 2p": lambda: dense_game([3, 5], 111),
    "dense 3p": lambda: dense_game([4, 2, 3], 112),
    "dense 4p": lambda: dense_game([2, 3, 2, 4], 113),
    "polymatrix 3p": lambda: polymatrix_game([3, 4, 2], [(0, 1), (1, 2), (0, 2)], 114),
    "polymatrix 4p": lambda: polymatrix_game([3, 2, 3, 4], [(1, 3), (0, 2), (0, 1), (2, 3)], 115),
}


@pytest.mark.parametrize("rounds", [None, 7])
@pytest.mark.parametrize("name", list(GAMES))
def test_expectation_oracle_matches_the_per_call_build(name, rounds):
    game = GAMES[name]()
    rng = np.random.default_rng(117)
    lead = () if rounds is None else (rounds,)
    dists = [rng.dirichlet(np.ones(a), lead) for a in game.action_counts]
    want = oracles.expectation_oracle_per_call(game, dists)
    got = expectation_oracle(game, dists)
    assert [u.shape for u in got] == [lead + (a,) for a in game.action_counts]
    assert all(np.array_equal(u, w) for u, w in zip(got, want))
    # the round's buffers are reused: whatever they held does not leak in
    out = [np.full(lead + (a,), np.nan) for a in game.action_counts]
    game._contract(dists, out)
    assert all(np.array_equal(u, w) for u, w in zip(out, want))


@pytest.mark.parametrize("L", [2.5, 0, -3, "8"])
def test_run_ce_rejects_an_L_that_is_not_a_positive_integer(L):
    with pytest.raises(ValueError, match="L must be a positive integer"):
        run_ce(matching_pennies(), 0.5, L=L)


@pytest.mark.parametrize("c", [-8.0, 0.0, math.nan, math.inf])
def test_run_ce_rejects_a_c_that_is_not_positive_and_finite(c):
    with pytest.raises(ValueError, match="c must be positive and finite"):
        run_ce(matching_pennies(), 0.5, c=c)
