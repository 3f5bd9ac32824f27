"""Parity profile vs decision-tree depth: the gap jumps at depth k."""

import numpy as np
import pytest

import oracles
from phiregret import separation_game, separation_table
from phiregret.separation import sign_payoff_matrix


def test_sign_payoff_matrix_small():
    u = sign_payoff_matrix(2)
    assert u.shape == (4, 2)
    # only the first decision's terminals pay
    np.testing.assert_array_equal(u[:2], [[1, -1], [-1, 1]])
    np.testing.assert_array_equal(u[2:], 0.0)


def test_profile_enumerates_sign_assignments():
    game, profile = separation_game(3)
    assert profile.rounds == 8
    seen = set()
    for t in range(profile.rounds):
        comps1 = profile.components(t, 0)
        comps2 = profile.components(t, 1)
        assert len(comps1) == len(comps2) == 1
        (w1, x), = comps1[0].atoms
        (w2, y), = comps2[0].atoms
        assert w1 == w2 == 1.0
        bits = tuple(int(x[2 * j + 1]) for j in range(3))
        seen.add(bits)
        # player 2 holds the parity of the sign product
        parity = 1 if (3 - sum(bits)) % 2 == 0 else 0
        assert y[parity] == 1.0
        # the pure strategies are members
        assert game.problems[0].membership_violation(x) is None
    assert len(seen) == 8


def test_player_one_gains_nothing_in_the_raw_profile():
    # the profile's realized payoff is zero: signs are fair and independent
    game, profile = separation_game(2)
    total = 0.0
    for t in range(profile.rounds):
        x = profile.round_mean(t, 0)
        y = profile.round_mean(t, 1)
        total += oracles.game_value(game, x, y, 0)
    assert total == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_gap_jumps_exactly_at_depth_k(k):
    table = separation_table(k)
    assert [d for d, _ in table] == list(range(k + 1))
    for depth, gap in table[:-1]:
        assert abs(gap) <= 1e-9, f"depth {depth} should see nothing"
    assert table[-1][1] == pytest.approx(1.0, abs=1e-9)


def test_depth_subset():
    table = separation_table(3, depths=(2, 3))
    assert table[0] == (2, pytest.approx(0.0, abs=1e-9))
    assert table[1] == (3, pytest.approx(1.0, abs=1e-9))


def test_distinct_queries_never_profit():
    # parity needs the bit being decided; distinct queries exclude it, and
    # a sign you never read stays independent of everything you output
    for depth, gap in separation_table(3, distinct=True):
        assert abs(gap) <= 1e-9, f"depth {depth}"


def test_one_bit_case_is_degenerate():
    # with a single sign the "parity" is the sign itself, so even the
    # depth-0 (constant) deviation is already scored against a correlated
    # opponent: playing the matching constant earns the full unit, and the
    # baseline loses it, so the jump shows up as 1 - 0 between depths
    table = separation_table(1)
    gaps = dict(table)
    assert gaps[1] - gaps[0] == pytest.approx(1.0, abs=1e-9)


def test_k_out_of_range():
    with pytest.raises(ValueError, match="between 1 and"):
        separation_game(0)
    with pytest.raises(ValueError, match="between 1 and"):
        separation_game(11)
