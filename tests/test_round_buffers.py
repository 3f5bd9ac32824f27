"""run_ce plays into ROUND_BLOCK-row buffers and accounts for a block at a
time; these tests pin it to the per-player loop at the block edges, check
its inputs, and check that play builds no profile objects, holds no
per-round memory without a profile and, with one, holds its columns and
no more."""

import tracemalloc

import numpy as np
import pytest

import oracles
from phiregret import (
    CorrelatedProfile,
    NormalFormGame,
    SupportMix,
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


def test_bm_next_matches_the_single_player_squaring_for_every_L():
    rng = np.random.default_rng(91)
    stack = SwapLearner(4, horizon=50, stack=3)
    single = [SwapLearner(4, horizon=50) for _ in range(3)]
    for _ in range(3):
        u = rng.uniform(-1, 1, size=(3, 4))
        play = rng.dirichlet(np.ones(4), size=3)
        bm_observe(stack, u, play)
        for g, s in enumerate(single):
            oracles.bm_observe_single(s, u[g], play[g])
        for L in range(1, 71):
            want = np.stack([oracles.bm_next_single(s, L) for s in single])
            assert np.array_equal(bm_next(stack, L), want), L
            assert np.array_equal(np.stack([bm_next(s, L) for s in single]), want), L


@pytest.mark.parametrize("horizon", [0, -3, 2.5])
def test_run_ce_rejects_a_horizon_that_is_not_a_positive_integer(horizon):
    with pytest.raises(ValueError, match="horizon"):
        run_ce(matching_pennies(), 0.3, horizon=horizon)


def test_run_ce_rejects_an_eps_whose_iterate_count_is_not_finite():
    with pytest.raises(ValueError, match="eps 5e-324 is too small"):
        run_ce(matching_pennies(), 5e-324, horizon=2)


@pytest.mark.parametrize("record_profile", [True, False])
@pytest.mark.parametrize("horizon, rows", [(14, [6, 7, 8, 14]), (20, [6, 7, 8, 14, 20])])
def test_block_edges_match_the_per_player_loop(horizon, rows, record_profile, monkeypatch):
    monkeypatch.setattr(nfg, "ROUND_BLOCK", 7)
    game = dense_game([3, 2, 3], 92)
    kwargs = dict(eps=0.2, horizon=horizon, record_profile=record_profile,
                  checkpoints=(0, -1, 6, 7, 7, 8, 14, horizon + 1))
    got = run_ce(game, **kwargs)
    ref = oracles.run_ce_per_player(game, **kwargs)
    assert [row[0] for row in got.curve_rows] == rows
    assert got.curve_rows == ref.curve_rows
    assert np.array_equal(got.swap_regrets, ref.swap_regrets)
    if record_profile:
        assert got.profile.export_csv() == ref.profile.export_csv()
        assert np.array_equal(got.certified_gaps, ref.certified_gaps)
    else:
        assert got.profile is None and got.certified_gaps is None


def test_run_ce_builds_no_profile_objects(monkeypatch):
    calls = {"add_round": 0, "from_arrays": 0}
    add_round = CorrelatedProfile.add_round
    from_arrays = SupportMix.from_arrays.__func__

    def counted_add_round(self, comps):
        calls["add_round"] += 1
        return add_round(self, comps)

    def counted_from_arrays(cls, weights, matrix):
        calls["from_arrays"] += 1
        return from_arrays(cls, weights, matrix)

    monkeypatch.setattr(CorrelatedProfile, "add_round", counted_add_round)
    monkeypatch.setattr(SupportMix, "from_arrays", classmethod(counted_from_arrays))
    res = run_ce(dense_game([2, 3, 2, 3], 93), eps=0.3, horizon=40)
    assert calls == {"add_round": 0, "from_arrays": 0}
    assert res.profile.rounds == 40
    assert all(len(res.profile.components(t, i)) == 1 for t in range(40) for i in range(4))
    assert calls["from_arrays"] == 4 * 40  # a view a component, cut on a player's first read


def test_play_without_a_profile_holds_one_block(monkeypatch):
    monkeypatch.setattr(nfg, "ROUND_BLOCK", 7)
    game = dense_game([3, 3, 2], 94)

    def peak(horizon):
        tracemalloc.start()
        try:
            run_ce(game, eps=0.3, horizon=horizon, record_profile=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(7)  # first-call allocations
    short, long = peak(70), peak(700)
    assert long <= 1.1 * short, (short, long)


def test_a_played_profile_holds_its_columns_and_no_means():
    game = dense_game([5, 5, 5], 95)
    run_ce(game, eps=0.5, audit=False)  # first-call allocations
    tracemalloc.start()
    try:
        res = run_ce(game, 0.1, audit=False)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    columns = sum(a.nbytes for cols in res.profile.columns for a in cols)
    # the margin covers the result's small objects; the T x P round means
    # alone would take 6438 * 3 * 5 * 8 bytes, about 0.77 MB
    assert held <= columns + 64 * 1024, (held, columns)
