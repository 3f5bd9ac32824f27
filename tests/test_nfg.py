import math

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
    dump_nfg,
    expectation_oracle,
    matching_pennies,
    parse_nfg,
    run_ce,
    swap_gap,
)
from phiregret.errors import ParseError
from phiregret.nfg import ce_horizon


def random_dense_game(rng, counts):
    shape = tuple(counts)
    tensors = [rng.uniform(-1, 1, size=shape) for _ in counts]
    return NormalFormGame.dense(tensors)


def test_game_validation():
    with pytest.raises(ValueError, match="exactly one"):
        NormalFormGame([2, 2])
    with pytest.raises(ValueError, match="outside"):
        NormalFormGame.dense([np.full((2, 2), 2.0), np.zeros((2, 2))])
    with pytest.raises(ValueError, match="shape"):
        NormalFormGame([2, 3], tensors=[np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(ValueError, match="i < j"):
        NormalFormGame.polymatrix([2, 2], {(1, 0): (np.zeros((2, 2)),) * 2})


def test_polymatrix_payoffs_sum_edges():
    rng = np.random.default_rng(27)
    counts = [2, 3, 2]
    edges = {}
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        m_i = rng.uniform(-0.3, 0.3, size=(counts[i], counts[j]))
        m_j = rng.uniform(-0.3, 0.3, size=(counts[j], counts[i]))
        edges[(i, j)] = (m_i, m_j)
    game = NormalFormGame.polymatrix(counts, edges)
    dense = oracles.to_dense(game)
    for joint in np.ndindex(*counts):
        for i in range(3):
            assert dense.tensors[i][joint] == pytest.approx(game.payoff(i, joint))


def test_polymatrix_range_bound_sums_over_edges():
    half = np.full((2, 2), 0.6)
    with pytest.raises(ValueError, match="outside"):
        NormalFormGame.polymatrix(
            [2, 2, 2],
            {(0, 1): (half, half), (0, 2): (half, half)},
        )


def test_expectation_oracle_matches_brute_force():
    rng = np.random.default_rng(28)
    game = random_dense_game(rng, [2, 3, 2])
    dists = [rng.dirichlet(np.ones(a)) for a in game.action_counts]
    utils = expectation_oracle(game, dists)
    for i in range(3):
        for a in range(game.action_counts[i]):
            total = 0.0
            for joint in np.ndindex(*game.action_counts):
                if joint[i] != a:
                    continue
                prob = np.prod([dists[j][joint[j]] for j in range(3) if j != i])
                total += prob * game.payoff(i, joint)
            assert utils[i][a] == pytest.approx(total, abs=1e-12)


def test_expectation_oracle_polymatrix_agrees_with_dense():
    rng = np.random.default_rng(29)
    counts = [2, 2, 3]
    edges = {
        (0, 1): (rng.uniform(-0.4, 0.4, (2, 2)), rng.uniform(-0.4, 0.4, (2, 2))),
        (1, 2): (rng.uniform(-0.4, 0.4, (2, 3)), rng.uniform(-0.4, 0.4, (3, 2))),
    }
    game = NormalFormGame.polymatrix(counts, edges)
    dists = [rng.dirichlet(np.ones(a)) for a in counts]
    a = expectation_oracle(game, dists)
    b = expectation_oracle(oracles.to_dense(game), dists)
    for u, v in zip(a, b):
        assert np.allclose(u, v, atol=1e-12)


def test_bm_next_uniform_learner_stalls_exactly():
    learner = SwapLearner(4, horizon=100)
    pi = bm_next(learner, L=7)
    assert np.allclose(pi, 0.25, atol=1e-15)
    q = learner.q_matrix()
    assert np.allclose(q.T @ pi - pi, 0.0, atol=1e-15)


def test_bm_next_l1_bound():
    rng = np.random.default_rng(30)
    for _ in range(50):
        A = int(rng.integers(2, 8))
        learner = SwapLearner(A, horizon=50)
        for _ in range(int(rng.integers(1, 6))):
            bm_observe(learner, rng.uniform(-1, 1, size=A), rng.dirichlet(np.ones(A)))
        # the squaring walks the bits of L: check one bit, all ones, a lone
        # high bit, and a random L
        for L in (1, 2, 7, 8, 31, 32, 63, 64, int(rng.integers(1, 40))):
            pi = bm_next(learner, L)
            assert pi.min() >= -1e-15
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            ref = oracles.power_iterate_average(learner.q_matrix(), np.full(A, 1.0 / A), L)
            assert np.allclose(pi, ref, rtol=0.0, atol=1e-12)
            q = learner.q_matrix()
            err = float(np.sum(np.abs(q.T @ pi - pi)))
            assert err <= 2.0 / L + 1e-12


def test_bm_observe_scales_by_recommendation_mass():
    learner = SwapLearner(2, horizon=100)
    eta = learner.mwu.eta
    pi = np.array([0.8, 0.2])
    u = np.array([1.0, 0.0])
    bm_observe(learner, u, pi)
    for a in (0, 1):
        expect = eta * pi[a] * u
        assert np.allclose(learner.mwu.log_weights[a], expect, atol=1e-15)


def test_run_ce_on_matching_pennies():
    res = run_ce(matching_pennies(), eps=0.3)
    A = 2
    assert res.rounds == int(np.ceil(8 * A * np.log(2) / 0.3**2))
    assert res.L == int(np.ceil(4 / 0.3))
    assert np.max(res.certified_gaps) <= 0.3
    # re-auditing the stored profile reproduces the certified gaps
    again = swap_gap(res.profile, matching_pennies())
    assert np.allclose(again, res.certified_gaps, atol=1e-12)
    assert res.curve_rows[-1][0] == res.rounds
    assert res.curves_csv().splitlines()[0] == (
        "round,phi_regret,external_regret,fp_error_bound"
    )


def test_run_ce_swap_regret_tracks_audit():
    rng = np.random.default_rng(31)
    game = random_dense_game(rng, [3, 3])
    res = run_ce(game, eps=0.2)
    assert np.max(res.swap_regrets) <= 0.2
    assert np.max(res.certified_gaps) <= np.max(res.swap_regrets) + 1e-9


def test_swap_gap_matches_oracle():
    rng = np.random.default_rng(32)
    game = random_dense_game(rng, [3, 2])
    profile = CorrelatedProfile(2, dims=[3, 2])
    eyes = [np.eye(3), np.eye(2)]
    dists = [[], []]
    for _ in range(12):
        round_dists = [rng.dirichlet(np.ones(a)) for a in game.action_counts]
        profile.add_round([
            SupportMix([(p, eyes[i][a]) for a, p in enumerate(round_dists[i])])
            for i in range(2)
        ])
        for i in range(2):
            dists[i].append(round_dists[i])
    gaps = swap_gap(profile, game)
    for i in range(2):
        utils = [
            expectation_oracle(game, [dists[0][t], dists[1][t]])[i]
            for t in range(12)
        ]
        ref = oracles.swap_regret(np.array(dists[i]), np.array(utils))
        assert gaps[i] == pytest.approx(ref, abs=1e-9)


def test_constant_game_has_zero_regret():
    game = NormalFormGame.dense([np.full((2, 2), 0.5), np.full((2, 2), -0.25)])
    res = run_ce(game, eps=0.2)
    assert np.max(res.swap_regrets) <= 1e-12
    assert np.max(res.certified_gaps) <= 1e-12


def test_nfg_round_trip_dense():
    text = dump_nfg(matching_pennies())
    game = parse_nfg(text)
    assert game.action_counts == [2, 2]
    assert dump_nfg(game) == text


def test_nfg_round_trip_polymatrix():
    rng = np.random.default_rng(33)
    edges = {
        (0, 1): (rng.uniform(-0.4, 0.4, (2, 3)), rng.uniform(-0.4, 0.4, (3, 2))),
        (1, 2): (rng.uniform(-0.4, 0.4, (3, 2)), rng.uniform(-0.4, 0.4, (2, 3))),
    }
    game = NormalFormGame.polymatrix([2, 3, 2], edges)
    text = dump_nfg(game)
    again = parse_nfg(text)
    assert again.is_polymatrix
    assert dump_nfg(again) == text
    for joint in np.ndindex(2, 3, 2):
        for i in range(3):
            assert again.payoff(i, joint) == pytest.approx(game.payoff(i, joint))


def test_nfg_missing_entries_default_to_zero():
    game = parse_nfg("nfg 2 2 2\n0 0 1 -1\n")
    assert game.payoff(0, (1, 1)) == 0.0
    assert game.payoff(1, (0, 0)) == -1.0


def test_nfg_parse_errors():
    with pytest.raises(ParseError, match="header"):
        parse_nfg("game 2 2 2\n")
    with pytest.raises(ParseError, match="duplicate joint"):
        parse_nfg("nfg 2 2 2\n0 0 1 1\n0 0 1 1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_nfg("nfg 2 2 2\n0 5 1 1\n")
    with pytest.raises(ParseError, match="outside"):
        parse_nfg("nfg 2 2 2\n0 0 7 0\n")
    with pytest.raises(ParseError, match="i < j"):
        parse_nfg("nfg 2 2 2\nedge 1 0\n0 0\n0 0\n0 0\n0 0\n")
    with pytest.raises(ParseError, match="matrix rows"):
        parse_nfg("nfg 2 2 2\nedge 0 1\n0 0\n")


def test_nfg_action_counts_below_one_are_rejected():
    with pytest.raises(ParseError, match=r"^line 2: every player needs at least 1 action, got -2$"):
        parse_nfg("# one player\nnfg 1 -2\n")


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_horizon_needs_positive_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        ce_horizon(matching_pennies(), eps)


@pytest.mark.parametrize("eps", [1e-300, 1e-160])
def test_horizon_rejects_an_eps_whose_round_count_is_not_finite(eps):
    # eps**2 underflows to 0 at 1e-300; at 1e-160 it is subnormal and the
    # quotient overflows to inf
    with pytest.raises(ValueError, match=f"eps {eps} is too small"):
        ce_horizon(matching_pennies(), eps)


def test_horizon_keeps_its_formula_for_a_small_finite_eps():
    eps = 1e-150
    assert ce_horizon(matching_pennies(), eps) == math.ceil(8.0 * 2 * math.log(2) / eps**2)


def test_swap_gap_checks_the_profile_against_the_game():
    game = random_dense_game(np.random.default_rng(3), [2, 3])
    profile = run_ce(game, 0.5, audit=False).profile
    with pytest.raises(ValueError, match="players"):
        swap_gap(profile, random_dense_game(np.random.default_rng(4), [2, 3, 2]))
    with pytest.raises(ValueError, match="strategy lengths"):
        swap_gap(profile, random_dense_game(np.random.default_rng(4), [3, 2]))
