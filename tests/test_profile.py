"""Correlated profile storage and its bit-exact CSV round trip."""

import numpy as np
import pytest

from phiregret import (
    BehavioralDescriptor,
    CorrelatedProfile,
    MonomialTable,
    ParseError,
    SupportMix,
    hypercube_problem,
    parse_problem,
)

from conftest import TWO_STAGE_TEXT


def one_hot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_add_round_and_means():
    profile = CorrelatedProfile(2, dims=[3, 2])
    a = SupportMix([(0.5, one_hot(3, 0)), (0.5, one_hot(3, 2))])
    b = SupportMix([(1.0, one_hot(2, 1))])
    profile.add_round([[a], b])  # bare component == one-component mixture
    assert profile.rounds == 1
    assert profile.components(0, 1) == [b]
    np.testing.assert_allclose(profile.round_mean(0, 0), [0.5, 0.0, 0.5])
    np.testing.assert_allclose(profile.round_mean(0, 1), [0.0, 1.0])

    profile.add_round([[a, SupportMix([(1.0, one_hot(3, 1))])], [b]])
    # two components average with equal weight
    np.testing.assert_allclose(profile.round_mean(1, 0), [0.25, 0.5, 0.25])
    stacked = profile.stacked_means(0)
    assert stacked.shape == (2, 3)
    np.testing.assert_allclose(stacked[0], [0.5, 0.0, 0.5])


def test_add_round_shape_errors():
    profile = CorrelatedProfile(2)
    with pytest.raises(ValueError, match="2 players"):
        profile.add_round([SupportMix([(1.0, one_hot(2, 0))])])
    with pytest.raises(ValueError, match="at least one component"):
        profile.add_round([[], [SupportMix([(1.0, one_hot(2, 0))])]])


def test_csv_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    profile = CorrelatedProfile(2, dims=[4, 4])
    for _ in range(6):
        row = []
        for _p in range(2):
            w = rng.dirichlet(np.ones(3))
            atoms = [(float(w[i]), (rng.random(4) < 0.5).astype(float)) for i in range(3)]
            row.append([SupportMix(atoms), SupportMix([(1.0, one_hot(4, 1))])])
        profile.add_round(row)
    text = profile.export_csv()
    again = CorrelatedProfile.from_csv(text)
    assert again.rounds == profile.rounds
    assert again.n_players == profile.n_players
    assert again.export_csv() == text  # bitwise stable
    for t in range(profile.rounds):
        for i in range(2):
            np.testing.assert_array_equal(
                again.round_mean(t, i), profile.round_mean(t, i)
            )


def test_export_expands_behavioral_components():
    problem = parse_problem(TWO_STAGE_TEXT)
    x = np.array([0.5, 0.5, 0.0, 0.25, 0.25])
    desc = BehavioralDescriptor(problem, x)
    profile = CorrelatedProfile(1)
    profile.add_round([[desc]])
    again = CorrelatedProfile.from_csv(profile.export_csv())
    # descriptors are rewritten as explicit atoms without moving the mean
    np.testing.assert_allclose(again.round_mean(0, 0), x, atol=1e-12)
    comp = again.components(0, 0)[0]
    assert isinstance(comp, SupportMix)
    for _w, y in comp.atoms:
        assert problem.membership_violation(y) is None


def test_header_is_required():
    with pytest.raises(ParseError, match="header"):
        CorrelatedProfile.from_csv("t,player,alpha\n1,1,1.0\n")


HEADER = "t,player,ell,j,alpha,pure-strategy-bits"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,1,1,1,1.0", "expected 6 fields"),
        ("0,1,1,1,1.0,10", "1-based"),
        ("1,0,1,1,1.0,10", "1-based"),
        ("1,1,0,1,1.0,10", "1-based"),
        ("1,1,1,1,-0.5,10", "negative atom weight"),
        ("1,1,1,1,0.5,10\n1,1,1,2,0.5,100", "inconsistent strategy length"),
        ("x,1,1,1,1.0,10", "line 2"),
    ],
)
def test_bad_rows_are_rejected(row, message):
    with pytest.raises(ParseError, match=message):
        CorrelatedProfile.from_csv(HEADER + "\n" + row + "\n")


def test_round_with_a_silent_player_is_rejected():
    text = HEADER + "\n1,1,1,1,1.0,10\n2,1,1,1,1.0,01\n2,2,1,1,1.0,10\n"
    with pytest.raises(ParseError, match="no atoms for player 2"):
        CorrelatedProfile.from_csv(text)


def test_hypercube_round_trip_preserves_monomials():
    problem = hypercube_problem(2, "bits")
    rng = np.random.default_rng(5)
    profile = CorrelatedProfile(1, dims=[problem.n_terminals])
    for _ in range(4):
        profile.add_round([[BehavioralDescriptor(problem, problem.random_point(rng))]])
    again = CorrelatedProfile.from_csv(profile.export_csv())
    for t in range(4):
        orig = profile.components(t, 0)[0]
        back = again.components(t, 0)[0]
        table = MonomialTable([(0,), (1, 2), (0, 3), (0, 1, 2, 3)])
        for got, want in zip(
            back.monomial_expectation(table), orig.monomial_expectation(table), strict=True
        ):
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1,1,1,1,1.0,12", "line 2: pure-strategy bits '12'"),
        ("1,1,1,1,1.0,1x", "line 2: pure-strategy bits"),
        ("1,1,1,1,1.0,", "line 2: pure-strategy bits ''"),
        ("1,1,1,0,1.0,10", "line 2: indices are 1-based"),
        ("1,1,1,x,1.0,10", "line 2: invalid literal"),
        ("1,1,1,1.0,1.0,10", "line 2: invalid literal"),
        ("1,1,1,1,nan,10", "line 2: atom weight nan is not finite"),
        ("1,1,1,1,inf,10", "line 2: atom weight inf is not finite"),
        ("1,1,1,1,0.25,10\n1,1,1,2,0.25,01", "line 2: component weights sum to 0.5"),
        ("1,1,1,1,1.0,10\n1,1,2,1,0.5,01\n1,1,2,2,0.5000001,10",
         r"line 3: component weights sum to 1\.00000"),
    ],
)
def test_rows_export_never_writes_are_rejected(rows, message):
    with pytest.raises(ParseError, match=message):
        CorrelatedProfile.from_csv(HEADER + "\n" + rows + "\n")


def test_weights_within_tolerance_of_one_are_accepted():
    text = HEADER + "\n1,1,1,1,0.3,10\n1,1,1,2,0.7000000001,01\n"
    profile = CorrelatedProfile.from_csv(text)
    assert profile.components(0, 0)[0].weights.tolist() == [0.3, 0.7000000001]
