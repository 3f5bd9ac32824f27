import re

import numpy as np
import pytest

import oracles
from phiregret import CfrLearner, Mwu, SwapLearner, build_dt_problem, hypercube_problem, interleave
from phiregret.dags import best_reduced_strategy
from phiregret.fixedpoint import SharedCfr
from phiregret.learners import RegretMeter


def test_mwu_starts_uniform_and_stays_uniform_on_ties():
    m = Mwu(4, horizon=100)
    assert np.allclose(m.next_distribution(), 0.25)
    for _ in range(10):
        m.observe(np.ones(4))
    assert np.allclose(m.next_distribution(), 0.25)


def test_mwu_concentrates_on_the_best_arm():
    m = Mwu(3, horizon=400)
    u = np.array([0.0, 1.0, 0.2])
    for _ in range(400):
        m.observe(u)
    d = m.next_distribution()
    assert np.argmax(d) == 1
    assert d[1] > 0.95


def test_mwu_external_regret_decays():
    rng = np.random.default_rng(20)
    for horizon in (None, 2000):
        m = Mwu(5, horizon=2000 if horizon else None)
        utils = rng.uniform(-1, 1, size=(2000, 5))
        realized = 0.0
        for u in utils:
            realized += float(m.next_distribution() @ u)
            m.observe(u)
        best = float(np.max(utils.sum(axis=0)))
        assert (best - realized) / 2000 < 0.12


def test_mwu_rejects_bad_input():
    with pytest.raises(ValueError):
        Mwu(0)
    m = Mwu(2, horizon=10)
    with pytest.raises(ValueError):
        m.observe(np.array([np.inf, 0.0]))


@pytest.mark.parametrize("rows,bad", [(None, np.ones(1)), (None, np.ones(4)),
                                      (None, np.ones((1, 3))), (2, np.ones(3)),
                                      (2, np.ones((1, 3))), (2, np.ones((3, 2)))])
def test_mwu_rejects_utilities_of_another_shape(rows, bad):
    m = Mwu(3, horizon=10, rows=rows)
    before = m.log_weights.copy()
    message = f"utilities of shape {bad.shape}; expected {m.log_weights.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        m.observe(bad)
    assert m.log_weights.tobytes() == before.tobytes()


@pytest.mark.parametrize("horizon", [0, -5, 2.5])
def test_mwu_and_swap_learner_need_a_positive_integer_horizon(horizon):
    message = f"horizon must be a positive integer, got {horizon!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Mwu(3, horizon=horizon)
    with pytest.raises(ValueError, match=re.escape(message)):
        SwapLearner(3, horizon=horizon)
    with pytest.raises(ValueError, match=re.escape(message)):
        SwapLearner(3, horizon=horizon, stack=2)


def test_row_batched_mwu_matches_independent_rows():
    rng = np.random.default_rng(24)
    for horizon in (None, 300):
        batched = Mwu(4, horizon=horizon, rows=3)
        rows = [Mwu(4, horizon=horizon) for _ in range(3)]
        # 300 rounds pass eight horizon-free restarts (epochs 1, 2, ..., 128)
        for _ in range(300):
            d = batched.next_distribution()
            assert d.shape == (3, 4)
            for r, m in enumerate(rows):
                assert np.allclose(d[r], m.next_distribution(), rtol=0.0, atol=1e-15)
            u = rng.uniform(-1, 1, size=(3, 4))
            batched.observe(u)
            for r, m in enumerate(rows):
                m.observe(u[r])
            assert batched.eta == rows[0].eta
        for r, m in enumerate(rows):
            assert np.array_equal(batched.log_weights[r], m.log_weights)


def test_cfr_strategies_are_flows(two_stage):
    dag = interleave(two_stage, 1)
    learner = CfrLearner(dag)
    rng = np.random.default_rng(21)
    for _ in range(20):
        strategy = learner.next_strategy()
        oracles.validate_flow(strategy)
        learner.observe(rng.normal(size=dag.n_terminal_states))


def test_cfr_regret_decays(two_stage):
    dag = interleave(two_stage, 1)
    rng = np.random.default_rng(22)
    weights = rng.uniform(-1, 1, size=(1500, dag.n_terminal_states))

    def run(rounds):
        learner = CfrLearner(dag)
        meter = RegretMeter(dag)
        for w in weights[:rounds]:
            q = learner.next_strategy().terminal_vector()
            meter.record(w, q)
            learner.observe(w)
        return meter.average_regret()

    early, late = run(150), run(1500)
    assert late < 0.5 * early


def test_cfr_exploits_a_constant_signal(two_stage):
    dag = interleave(two_stage, 0)
    learner = CfrLearner(dag)
    w = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    for _ in range(200):
        learner.next_strategy()
        learner.observe(w)
    q = learner.next_strategy().terminal_vector()
    assert q[0] > 0.99


def test_regret_meter_matches_direct_formula(two_stage):
    dag = interleave(two_stage, 0)
    rng = np.random.default_rng(23)
    weights, plays = [], []
    meter = RegretMeter(dag)
    for _ in range(30):
        w = rng.normal(size=dag.n_terminal_states)
        q = rng.dirichlet(np.ones(dag.n_terminal_states))
        meter.record(w, q)
        weights.append(w)
        plays.append(q)
    total = np.sum(weights, axis=0)
    best = oracles.best_pure_reduced_value(dag, total)
    realized = sum(float(w @ q) for w, q in zip(weights, plays))
    assert meter.average_regret() == pytest.approx((best - realized) / 30, abs=1e-9)


def test_cfr_matches_naive_rm_plus(two_stage):
    rng = np.random.default_rng(25)
    for dag in (interleave(two_stage, 1), interleave(two_stage, 2), build_dt_problem(2, 2)):
        learner = CfrLearner(dag)
        lists = oracles.dag_lists(dag)
        regrets = {
            s: np.zeros(len(lists.edges[s])) for s in range(len(lists.kind)) if lists.kind[s] == "D"
        }
        for _ in range(5):
            w = rng.uniform(-1, 1, size=dag.n_terminal_states)
            played, regrets = oracles.rm_plus_step(dag, regrets, w)
            q = learner.next_strategy().terminal_vector()
            assert np.allclose(q, played, rtol=0.0, atol=1e-12)
            learner.observe(w)
        played, _ = oracles.rm_plus_step(dag, regrets, np.zeros(dag.n_terminal_states))
        q = learner.next_strategy().terminal_vector()
        assert np.allclose(q, played, rtol=0.0, atol=1e-12)


def test_cfr_holds_one_strategy_per_round(two_stage):
    """The strategy built at the end of each observe is the next round's
    regret-matching+ play, and a caller cannot write into it."""
    rng = np.random.default_rng(26)
    for dag in (interleave(two_stage, 2), build_dt_problem(2, 2)):
        learner = CfrLearner(dag)
        lists = oracles.dag_lists(dag)
        regrets = {
            s: np.zeros(len(lists.edges[s])) for s in range(len(lists.kind)) if lists.kind[s] == "D"
        }
        for _ in range(50):
            w = rng.uniform(-1, 1, size=dag.n_terminal_states)
            played, regrets = oracles.rm_plus_step(dag, regrets, w)
            strategy = learner.next_strategy()
            assert learner.next_strategy() is strategy
            assert np.allclose(strategy.terminal_vector(), played, rtol=0.0, atol=1e-12)
            learner.observe(w)
        strategy = learner.next_strategy()
        for held in (strategy.state_mass, strategy.edge_mass, learner.share):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.5


def test_a_learner_over_joined_dags_is_one_learner_per_dag():
    dags = [interleave(hypercube_problem(2), 2), build_dt_problem(3, 2)]
    assert dags[0].n_states != dags[1].n_states
    shared = SharedCfr(dags)
    alone = [CfrLearner(dag) for dag in dags]
    rng = np.random.default_rng(29)
    for _ in range(50):
        for seat, learner, dag in zip(shared.seats, alone, dags):
            got, want = seat.next_strategy(), learner.next_strategy()
            assert got.dag is dag
            assert got.state_mass.tobytes() == want.state_mass.tobytes()
            assert got.edge_mass.tobytes() == want.edge_mass.tobytes()
            assert shared.learner.share[seat.edges].tobytes() == learner.share.tobytes()
            assert shared.learner.regrets[seat.edges].tobytes() == learner.regrets.tobytes()
        for seat, learner, dag in zip(shared.seats, alone, dags):
            weights = rng.uniform(-1.0, 1.0, dag.n_terminal_states)
            seat.observe(weights)
            learner.observe(weights)
    assert shared.waiting == [None, None]


@pytest.mark.parametrize("bad", [np.zeros(1), np.zeros(4), np.zeros(6), np.zeros((1, 5)),
                                 np.zeros((5, 1)), np.float64(0.0)],
                         ids=["one", "short", "long", "row", "column", "scalar"])
def test_weights_of_another_length_are_rejected(two_stage, bad):
    dag = interleave(two_stage, 0)
    assert dag.n_terminal_states == 5
    message = f"weights of shape {np.shape(bad)}; expected length 5"
    learner, meter = CfrLearner(dag), RegretMeter(dag)
    with pytest.raises(ValueError, match=re.escape(message)):
        learner.observe(bad)
    with pytest.raises(ValueError, match=re.escape(message)):
        meter.record(bad, np.full(5, 0.2))
    with pytest.raises(ValueError, match=re.escape(message)):
        best_reduced_strategy(dag, bad)
    assert not learner.regrets.any() and meter.rounds == 0 and not meter.weight_sum.any()
