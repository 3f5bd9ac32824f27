"""Stacked swap learners: run_ce plays every player with the same action
count as one learner, and must match the per-player loop bit for bit."""

import numpy as np
import pytest

import oracles
from phiregret import (
    NormalFormGame,
    SwapLearner,
    bm_next,
    bm_observe,
    matching_pennies,
    nfg,
    run_ce,
)


def dense_game(counts, seed):
    rng = np.random.default_rng(seed)
    return NormalFormGame.dense([rng.uniform(-1, 1, size=tuple(counts)) for _ in counts])


def polymatrix_game(seed):
    # players 0, 1 and 3 share an action count, so they form one stack
    rng = np.random.default_rng(seed)
    counts = [3, 3, 2, 3]
    edges = {}
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]:
        edges[(i, j)] = (rng.uniform(-0.3, 0.3, (counts[i], counts[j])),
                         rng.uniform(-0.3, 0.3, (counts[j], counts[i])))
    return NormalFormGame.polymatrix(counts, edges)


GAMES = {
    "3p5a": lambda: dense_game([5, 5, 5], 81),
    "mixed232": lambda: dense_game([2, 3, 2], 82),
    "2p9a": lambda: dense_game([9, 9], 83),
    "3p9a": lambda: dense_game([9, 9, 9], 84),
    "polymatrix": lambda: polymatrix_game(85),
    "pennies": matching_pennies,
}


@pytest.mark.parametrize("record_profile", [True, False])
@pytest.mark.parametrize("name", list(GAMES))
def test_batched_run_ce_matches_the_per_player_loop(name, record_profile):
    game = GAMES[name]()
    kwargs = dict(eps=0.1, horizon=300, checkpoints=(1, 2, 37, 150, 299),
                  record_profile=record_profile)
    got = run_ce(game, **kwargs)
    ref = oracles.run_ce_per_player(game, **kwargs)
    assert got.curve_rows == ref.curve_rows
    assert len(got.curve_rows) == 6
    assert np.array_equal(got.swap_regrets, ref.swap_regrets)
    if record_profile:
        assert got.profile.export_csv() == ref.profile.export_csv()
        assert np.array_equal(got.certified_gaps, ref.certified_gaps)
    else:
        assert got.profile is None and ref.profile is None
        assert got.certified_gaps is None and ref.certified_gaps is None


def test_batched_run_ce_matches_at_the_default_horizon():
    game = GAMES["3p5a"]()
    got = run_ce(game, eps=0.3, checkpoints=range(50, 800, 50))
    ref = oracles.run_ce_per_player(game, eps=0.3, checkpoints=range(50, 800, 50))
    assert got.rounds == ref.rounds == nfg.ce_horizon(game, 0.3)
    assert got.curve_rows == ref.curve_rows
    assert got.profile.export_csv() == ref.profile.export_csv()
    assert np.array_equal(got.certified_gaps, ref.certified_gaps)


@pytest.mark.parametrize("counts, stacks", [
    ([5, 5, 5], [(5, 3)]),
    ([2, 3, 2], [(2, 2), (3, 1)]),
    ([3, 2, 3, 3, 2], [(3, 3), (2, 2)]),
])
def test_run_ce_plays_one_stacked_learner_per_action_count(counts, stacks, monkeypatch):
    calls = []
    step = nfg.bm_next

    def counted(learner, L, q=None):
        calls.append((learner.n_actions, learner.stack))
        return step(learner, L, q=q)

    monkeypatch.setattr(nfg, "bm_next", counted)
    run_ce(dense_game(counts, 86), eps=0.5, horizon=7, record_profile=False)
    assert calls == stacks * 7


@pytest.mark.parametrize("horizon", [200, None])
@pytest.mark.parametrize("A", [3, 9])
def test_stacked_learner_matches_independent_learners(A, horizon):
    rng = np.random.default_rng(87 + A)
    G = 3
    stack = SwapLearner(A, horizon=horizon, stack=G)
    single = [SwapLearner(A, horizon=horizon) for _ in range(G)]
    assert stack.mwu.log_weights.shape == (G, A, A)
    # 200 rounds pass seven horizon-free restarts (epochs 1, 2, ..., 64)
    for _ in range(200):
        q = stack.q_matrix()
        assert q.shape == (G, A, A)
        assert np.array_equal(q, np.stack([s.q_matrix() for s in single]))
        for L in (1, 7, 40):
            pi = bm_next(stack, L, q=q)
            assert pi.shape == (G, A)
            assert np.array_equal(pi, np.stack([bm_next(s, L) for s in single]))
            assert np.array_equal(pi, np.stack([oracles.bm_next_single(s, L) for s in single]))
        assert np.array_equal(bm_next(stack, 40), pi)  # builds its own Q
        u = rng.uniform(-1, 1, size=(G, A))
        play = rng.dirichlet(np.ones(A), size=G)
        bm_observe(stack, u, play)
        for g, s in enumerate(single):
            oracles.bm_observe_single(s, u[g], play[g])
        assert np.array_equal(stack.mwu.log_weights,
                              np.stack([s.mwu.log_weights for s in single]))
