"""Two-player games: payoff plumbing, self-play, and profile audits."""

import gc
import itertools
import weakref

import numpy as np
import pytest

import oracles
from phiregret import (
    CapacityError,
    EFGame,
    FixedPointConfig,
    MembershipError,
    ParseError,
    PhiRegretMinimizer,
    deviation_dag,
    dump_efg,
    efg_self_play,
    hypercube_problem,
    interleave,
    parse_efg,
    parse_problem,
    phi_equilibrium_gap,
)

from conftest import TWO_STAGE_TEXT, random_problem
from oracles import enumerate_pure
from phiregret import efg
from phiregret.profile import uniform_mean


def small_game(rng=None, normalize=True):
    """two_stage vs a 2-bit hypercube with random payoffs."""
    p1 = parse_problem(TWO_STAGE_TEXT)
    p2 = hypercube_problem(2, "bits")
    rng = rng or np.random.default_rng(7)
    u1 = rng.uniform(-1, 1, size=(p1.n_terminals, p2.n_terminals))
    u2 = rng.uniform(-1, 1, size=(p1.n_terminals, p2.n_terminals))
    return EFGame([p1, p2], [u1, u2], name="small", normalize=normalize)


def skew_game():
    p1 = hypercube_problem(1, "bit-a")
    p2 = hypercube_problem(1, "bit-b")
    u = np.array([[0.5, -0.25], [-0.5, 0.5]])
    return EFGame.zero_sum(p1, p2, u, name="skew")


# -- construction --------------------------------------------------------


def test_payoff_shape_is_checked():
    p1 = hypercube_problem(1, "a")
    p2 = hypercube_problem(2, "b")
    with pytest.raises(ValueError, match="shape"):
        EFGame([p1, p2], [np.zeros((2, 2)), np.zeros((2, 2))])


def test_pure_profile_payoffs_must_be_bounded():
    # two_stage pure strategies put mass on two terminals at once, so
    # entrywise-bounded matrices can still break the pure-profile bound.
    p1 = parse_problem(TWO_STAGE_TEXT)
    p2 = hypercube_problem(1, "b")
    u = np.ones((p1.n_terminals, p2.n_terminals))
    with pytest.raises(ValueError, match="normalize"):
        EFGame([p1, p2], [u, -u])
    game = EFGame([p1, p2], [u, -u], normalize=True)
    assert game.scale == pytest.approx(1.0)
    xs = np.array(enumerate_pure(p1), dtype=float)
    ys = np.array(enumerate_pure(p2), dtype=float)
    worst = np.abs(xs @ game.payoffs[0] @ ys.T).max()
    assert worst == pytest.approx(1.0)


def _bound_problems():
    """Cubes of 1-4 bits, two_stage, the lone terminal and random trees,
    each with its name."""
    rng = np.random.default_rng(23)
    named = [(f"cube{n}", hypercube_problem(n)) for n in range(1, 5)]
    named.append(("two_stage", parse_problem(TWO_STAGE_TEXT)))
    named.append(("lone_terminal", parse_problem("tfsdp one\nr T - -")))
    named += [(f"random{i}", random_problem(rng)) for i in range(5)]
    return named


def _bound_pairs():
    """Problem pairs with player 1 smaller, player 2 smaller and tied."""
    named = _bound_problems()
    pairs = {"p1": [], "p2": [], "tie": []}
    for (a, p), (b, q) in itertools.product(named, named):
        c, d = p.count_pure_strategies(), q.count_pure_strategies()
        pairs["p1" if c < d else "p2" if c > d else "tie"].append((f"{a}-{b}", [p, q]))
    return pairs


BOUND_PAIRS = _bound_pairs()


@pytest.mark.parametrize("side", ["p1", "p2", "tie"])
def test_pure_bound_matches_enumeration(side):
    assert len(BOUND_PAIRS[side]) >= 5
    rng = np.random.default_rng(29)
    for label, problems in BOUND_PAIRS[side]:
        shape = (problems[0].n_terminals, problems[1].n_terminals)
        for scale in (1.0, 1e-3, 40.0):
            mats = [scale * rng.uniform(-1, 1, size=shape) for _ in range(2)]
            game = EFGame(problems, mats, normalize=True)
            got = game._pure_bound(mats)
            want = oracles.pure_bound_enumerated(problems, mats)
            assert abs(got - want) <= 4 * np.spacing(max(1.0, want)), (label, got, want)


@pytest.mark.parametrize("cells", [1, 12, 40])
def test_pure_bound_is_the_same_in_passes_of_any_size(cells, monkeypatch):
    rng = np.random.default_rng(43)
    for side in ("p1", "p2", "tie"):
        for label, problems in BOUND_PAIRS[side]:
            shape = (problems[0].n_terminals, problems[1].n_terminals)
            mats = [rng.uniform(-1, 1, size=shape) for _ in range(2)]
            game = EFGame(problems, mats, normalize=True)
            whole = game._pure_bound(mats)
            monkeypatch.setattr(efg, "PASS_CELLS", cells)
            assert game._pure_bound(mats) == whole, label
            monkeypatch.undo()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a_bound_that_overflows_to_nan_is_rejected():
    # two_stage (5 pure strategies) is enumerated against cube3 (8). Each of
    # its strategies through "go" sums two huge payoffs, so bit 0 of the
    # cube reads +inf and bit 1 -inf, and the cube's root inf - inf
    p1, p2 = hypercube_problem(3), parse_problem(TWO_STAGE_TEXT)
    u = np.zeros((p1.n_terminals, p2.n_terminals))
    u[:2, 1:], u[2:4, 1:] = 1.7e308, -1.7e308
    with pytest.raises(ValueError, match="magnitude nan"):
        EFGame([p1, p2], [u, u])
    with pytest.raises(ValueError, match="magnitude nan"):
        EFGame([p1, p2], [u, u], normalize=True)


@pytest.mark.parametrize("offset", [-1e-8, -1e-10, 1e-10, 1e-8])
def test_payoff_range_check_accepts_and_rejects_as_enumeration(offset):
    rng = np.random.default_rng(31)
    for side in ("p1", "p2", "tie"):
        for label, problems in BOUND_PAIRS[side]:
            shape = (problems[0].n_terminals, problems[1].n_terminals)
            mats = [rng.uniform(-1, 1, size=shape) for _ in range(2)]
            ratio = (1.0 + offset) / oracles.pure_bound_enumerated(problems, mats)
            mats = [u * ratio for u in mats]
            accept = oracles.pure_bound_enumerated(problems, mats) <= 1.0 + efg.PAYOFF_TOL
            if accept:
                EFGame(problems, mats)
            else:
                with pytest.raises(ValueError, match="normalize"):
                    EFGame(problems, mats)
            assert accept == (offset < 1e-9), label


def test_a_game_too_wide_to_enumerate_builds_when_the_other_side_is_small():
    # cube20 has 2**20 pure strategies, past the enumeration cap; only
    # cube2's four are enumerated
    big, small = hypercube_problem(20), hypercube_problem(2)
    rng = np.random.default_rng(37)
    u = rng.uniform(-1, 1, size=(big.n_terminals, small.n_terminals))
    with pytest.raises(CapacityError, match="1048576 pure strategies"):
        big.enumerate_pure_strategies()
    game = EFGame.zero_sum(big, small, u, normalize=True)
    want = max(
        max(oracles.pure_response(big, m @ y)[0], -oracles.pure_response(big, m @ y, False)[0])
        for m in (u, -u) for y in np.array(enumerate_pure(small), dtype=float)
    )
    assert abs(game.payoffs[0] * want - u).max() <= 1e-12
    res = efg_self_play(game, ["med:1", "med:1"], rounds=3, L=5)
    assert res.profile.rounds == 3 and res.run_for(0).rounds == 3


def test_a_game_too_wide_on_both_sides_raises_capacity_error():
    cube = hypercube_problem(21)
    u = np.zeros((cube.n_terminals, cube.n_terminals))
    with pytest.raises(CapacityError, match="2097152 pure strategies exceeds the cap"):
        EFGame.zero_sum(cube, cube, u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("player", [0, 1])
def test_payoffs_that_are_not_finite_are_rejected(bad, player):
    p1, p2 = hypercube_problem(1, "a"), hypercube_problem(2, "b")
    mats = [np.zeros((2, 4)), np.zeros((2, 4))]
    mats[player][1, 2] = bad
    with pytest.raises(ValueError, match=f"player {player} payoffs are not all finite"):
        EFGame([p1, p2], mats, normalize=True)


def test_zero_sum_builds_opposite_payoffs():
    game = skew_game()
    np.testing.assert_array_equal(game.payoffs[1], -game.payoffs[0])


def test_value_matches_utility_vector():
    game = small_game()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = game.problems[0].random_point(rng)
        y = game.problems[1].random_point(rng)
        assert oracles.game_value(game, x, y, 0) == pytest.approx(
            float(x @ game.utility_vector(0, y)), abs=1e-12
        )
        assert oracles.game_value(game, x, y, 1) == pytest.approx(
            float(y @ game.utility_vector(1, x)), abs=1e-12
        )


# -- deviation specs ------------------------------------------------------


def test_deviation_spec_dispatch(two_stage):
    ext = deviation_dag(two_stage, "external")
    med = deviation_dag(two_stage, "med:1")
    assert ext.n_states < med.n_states
    direct = interleave(two_stage, 1)
    assert med.n_states == direct.n_states
    assert np.array_equal(med.nodes, direct.nodes)

    cube = hypercube_problem(2, "bits")
    dt = deviation_dag(cube, "dt:1")
    assert dt.base.n_terminals == cube.n_terminals


def test_dt_spec_needs_a_hypercube(two_stage):
    with pytest.raises(ValueError, match="hypercube"):
        deviation_dag(two_stage, "dt:1")


def test_unknown_spec_rejected(two_stage):
    with pytest.raises(ValueError, match="unknown deviation spec"):
        deviation_dag(two_stage, "swap")


# -- self-play ------------------------------------------------------------


def test_fixed_agent_requires_a_member():
    game = small_game()
    bad = np.ones(game.problems[1].n_terminals)
    with pytest.raises(MembershipError, match="fixed agent"):
        efg_self_play(game, ["med:1", bad], rounds=2, L=5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_fixed_agent_that_is_not_finite_is_rejected(bad):
    game = skew_game()
    with pytest.raises(MembershipError, match="fixed agent strategy: .* is not a finite number"):
        efg_self_play(game, ["med:1", np.full(2, bad)], rounds=2, L=5)


def test_self_play_records_profile_and_checkpoints():
    game = small_game()
    res = efg_self_play(
        game, ["med:1", "med:1"], rounds=40, L=25, checkpoints=(10, 20)
    )
    assert res.profile.rounds == 40
    assert sorted(res.checkpoints) == [10, 20, 40]
    for t, marks in res.checkpoints.items():
        for rec in marks:
            assert rec.round == t
            # regret against the richer set never beats external plus the
            # fixed-point slack actually charged
            assert rec.phi_regret <= rec.external_regret + rec.fp_error_bound + 1e-9
            assert rec.fp_error_bound <= 2.0 / 25 + 1e-12
    # the recorded rounds average the played mixtures
    mean0 = res.profile.stacked_means(0).mean(axis=0)
    game.problems[0].require_membership(mean0)


@pytest.mark.parametrize("rounds", [2.5, "3"])
def test_self_play_needs_an_integer_round_count(rounds):
    with pytest.raises(ValueError, match=f"rounds must be an integer, got {rounds!r}"):
        efg_self_play(skew_game(), ["med:1", "med:1"], rounds=rounds, L=5)


def test_fixed_opponent_does_not_learn():
    game = small_game()
    pinned = game.problems[1].uniform_point()
    res = efg_self_play(game, ["med:1", pinned], rounds=15, L=10)
    assert res.run_for(0).rounds == 15
    with pytest.raises(ValueError, match="did not learn"):
        res.run_for(1)
    # every round of the profile replays the pinned strategy
    for t in range(res.profile.rounds):
        np.testing.assert_allclose(res.profile.round_mean(t, 1), pinned)


def test_audit_reproduces_measured_regret():
    """The profile's exact equilibrium gap is the regret the run tracked."""
    game = small_game()
    res = efg_self_play(game, ["med:1", "external"], rounds=60, L=20)
    specs = ["med:1", "external"]
    for player, spec in enumerate(specs):
        dag = deviation_dag(game.problems[player], spec)
        gap = phi_equilibrium_gap(res.profile, game, player, dag)
        assert gap == pytest.approx(res.run_for(player).phi_regret(), abs=1e-12)


def test_audit_with_a_richer_set_can_only_grow():
    game = small_game()
    res = efg_self_play(game, ["external", "external"], rounds=50, L=20)
    p1 = game.problems[0]
    ext = phi_equilibrium_gap(res.profile, game, 0, deviation_dag(p1, "external"))
    med = phi_equilibrium_gap(res.profile, game, 0, deviation_dag(p1, "med:1"))
    assert med >= ext - 1e-12


def test_self_play_regret_decays():
    # individual regrets wobble at short horizons, but the worst seat at
    # the table keeps improving
    game = skew_game()
    res = efg_self_play(
        game, ["med:1", "med:1"], rounds=800, L=40, checkpoints=(200,),
        record_profile=False,
    )
    assert res.profile is None
    early = max(res.checkpoints[200][p].phi_regret for p in range(2))
    late = max(res.checkpoints[800][p].phi_regret for p in range(2))
    assert late <= 0.75 * early


def test_prebuilt_dag_and_config_override():
    game = skew_game()
    dag = interleave(game.problems[0], 1)
    res = efg_self_play(game, [dag, "external"], rounds=10, L=8)
    run = res.run_for(0)
    assert run.dag is dag
    assert run.fp_error_bound() <= 2.0 / 8 + 1e-12


def test_dag_problem_mismatch_is_rejected():
    game = small_game()
    wrong = interleave(game.problems[0], 0)
    with pytest.raises(ValueError, match="does not match"):
        efg_self_play(game, ["external", wrong], rounds=2, L=5)


# -- files ----------------------------------------------------------------


GAME_TEXT = """\
efg tiny
player 1
0 O - -
1 D 0 bit
2 T 1 zero
3 T 1 one
player 2
0 O - -
1 D 0 bit
2 T 1 zero
3 T 1 one
payoffs
2 2 0.5
2 3 -0.25
3 2 -0.5 0.5
3 3 0.5 -0.5
"""


def test_parse_game_fills_defaults():
    game = parse_efg(GAME_TEXT)
    assert game.name == "tiny"
    u1, u2 = game.payoffs
    assert u1[0, 0] == 0.5 and u2[0, 0] == -0.5  # u2 defaults to -u1
    assert u1[0, 1] == -0.25 and u2[0, 1] == 0.25
    assert u2[1, 0] == 0.5  # explicit u2 wins


def test_game_round_trip():
    game = parse_efg(GAME_TEXT)
    text = dump_efg(game)
    again = parse_efg(text)
    assert dump_efg(again) == text
    for i in range(2):
        np.testing.assert_array_equal(again.payoffs[i], game.payoffs[i])


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda s: s.replace("efg tiny", "nfg tiny"), "expected header"),
        # dropping the 'player 2' header bleeds its tree into player 1's
        (lambda s: s.replace("player 2\n", ""), "duplicate node id"),
        (lambda s: s.replace("2 3 -0.25", "2 9 -0.25"), "not a terminal"),
        (lambda s: s + "2 2 0.1\n", "duplicate payoff"),
        (lambda s: s.split("payoffs")[0], "missing section 'payoffs'"),
        (lambda s: s.replace("2 2 0.5", "2 2 0.5 0.1 0.2"), "expected 'z1 z2"),
        (lambda s: s.replace("2 2 0.5", "2 2 half"), "could not convert"),
        ("efg tiny\n0 D - -\n", "content before any section"),
        ("efg tiny\n", "missing section 'player 1'"),
        (lambda s: s.replace("efg tiny", "efgfoo tiny"), r"^line 1: expected header 'efg <name>'$"),
        # read as one section, the second block would give player 1 three terminals
        (lambda s: s + "player 1\n4 T 1 two\n", r"^line 17: repeated section 'player 1'$"),
        # a node line is named by its line in the game file
        (lambda s: s.replace("zero\n3 T 1 one\npayoffs", "\n3 T 1 one\npayoffs"),
         r"^line 10: expected '<id> <kind> <parent\|-> <label\|->', got 3 tokens$"),
    ],
)
def test_parse_game_errors(mangle, message):
    text = mangle if isinstance(mangle, str) else mangle(GAME_TEXT)
    with pytest.raises(ParseError, match=message):
        parse_efg(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("column", [2, 3])
def test_a_payoff_file_that_is_not_finite_is_a_parse_error(value, column):
    fields = ["3", "3", "0.5", "-0.5"]
    fields[column] = value
    text = GAME_TEXT.replace("3 3 0.5 -0.5", " ".join(fields))
    with pytest.raises(ParseError, match=r"^line 16: payoffs must be finite numbers$"):
        parse_efg(text)


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_a_three_field_payoff_line_that_is_not_finite_is_a_parse_error(value):
    with pytest.raises(ParseError, match=r"^line 13: payoffs must be finite numbers$"):
        parse_efg(GAME_TEXT.replace("2 2 0.5", f"2 2 {value}"))


def test_unbounded_payoff_file_is_a_parse_error():
    text = GAME_TEXT.replace("2 2 0.5\n", "2 2 1.5\n")
    with pytest.raises(ParseError, match="normalize"):
        parse_efg(text)


def test_self_play_shares_one_learner_and_plays_as_separate_learners():
    game = small_game()
    dags = [deviation_dag(game.problems[0], "med:1"), deviation_dag(game.problems[1], "dt:2")]
    res = efg_self_play(game, dags, rounds=40, L=20, checkpoints=(10, 25))
    seats = [agent.minimizer.learner for agent in res.agents]
    assert seats[0].learner is seats[1].learner
    alone = [PhiRegretMinimizer(dag, FixedPointConfig(L=20)) for dag in dags]
    for t in range(1, 41):
        comps = [[c for _, c in m.next_mixture()[1].pi.components] for m in alone]
        means = [uniform_mean(c) for c in comps]
        for i, m in enumerate(alone):
            m.observe_utility(game.utility_vector(i, means[1 - i]))
        if t in (10, 25, 40):
            for m in alone:
                m.run.checkpoint()
    for agent, m in zip(res.agents, alone):
        got, want = agent.run, m.run
        assert got.weight_sum.tobytes() == want.weight_sum.tobytes()
        assert got.records == want.records
        assert (got.realized, got.baseline) == (want.realized, want.baseline)


def test_a_shared_learner_is_freed_with_its_run():
    # a reference cycle would keep the joined DAG's learner, and the DAGs
    # its seats hold, alive until the cycle collector runs
    gc.disable()
    try:
        res = efg_self_play(small_game(), ["med:1", "dt:1"], rounds=3, L=5)
        learner = weakref.ref(res.agents[0].minimizer.learner.learner)
        del res
        assert learner() is None
    finally:
        gc.enable()
