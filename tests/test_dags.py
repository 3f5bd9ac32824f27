import numpy as np
import pytest

import oracles
from conftest import (
    TWO_MEDIATOR_POLICY,
    counterexample_deviation,
    random_problem,
    realize_state_policy,
)
from phiregret import (
    DecisionDAG,
    best_reduced_strategy,
    build_dt_problem,
    forward_flow,
    hypercube_problem,
    interleave,
    terminal_weights,
)
from phiregret.dags import (
    ReducedStrategy,
    deviation_image,
    deviation_polynomial,
    eval_dt_deviation,
    evaluate_deviation,
    follow_identity_policy,
)
from phiregret.errors import CapacityError, StructureError
from phiregret.maps import BehavioralDescriptor, RoundMixtures, SupportMix
from phiregret.tfsdp import Graph, count_pure, graph_arrays, hypercube_structure

def test_dual_swaps_kinds(two_stage):
    dual = oracles.dual_problem(two_stage)
    assert dual.kind[0] == "O"
    assert dual.kind[2] == "D"
    assert dual.n_terminals == two_stage.n_terminals
    back = oracles.dual_problem(dual)
    assert back.dump().splitlines()[1:] == two_stage.dump().splitlines()[1:]


def test_duality_pairing(two_stage):
    xs = two_stage.enumerate_pure_strategies()
    ys = oracles.dual_problem(two_stage).enumerate_pure_strategies()
    pairings = xs @ ys.T
    assert np.array_equal(pairings, np.ones_like(pairings))


def test_interleave_zero_mediators_is_the_base_tree(two_stage):
    dag = interleave(two_stage, 0)
    lists = oracles.dag_lists(dag)
    assert count_pure(dag.graph) == 5
    assert all(len(m) == 0 for m in lists.terminal_mono)
    # reduced strategies are exactly the constant deviations = pure strategies
    vecs = oracles.pure_reduced_vectors(dag)
    outs = set()
    for q in vecs:
        img = evaluate_deviation(dag, q, np.zeros(5))
        outs.add(tuple(map(int, img)))
    pure = {tuple(map(int, y)) for y in two_stage.enumerate_pure_strategies()}
    assert outs == pure


def test_interleave_states_are_topological(two_stage):
    dag = interleave(two_stage, 2)
    lists = oracles.dag_lists(dag)
    for s in range(dag.n_states):
        for c in lists.edges[s]:
            assert c > s


def test_follow_the_mediator_is_identity(two_stage, hypercube2):
    rng = np.random.default_rng(12)
    for p in (two_stage, hypercube2, random_problem(rng)):
        dag = interleave(p, 1)
        flow = forward_flow(dag, follow_identity_policy(dag))
        oracles.validate_flow(flow)
        q = flow.terminal_vector()
        for y in p.enumerate_pure_strategies():
            assert np.allclose(evaluate_deviation(dag, q, y), y, atol=1e-12)


def test_two_mediator_policy_realizes_counterexample(two_stage):
    dag = interleave(two_stage, 2)
    phi = counterexample_deviation()
    q = realize_state_policy(dag, TWO_MEDIATOR_POLICY)
    for y in two_stage.enumerate_pure_strategies():
        assert np.allclose(evaluate_deviation(dag, q, y), oracles.eval_point(phi, y), atol=1e-12)


def test_best_reduced_strategy_matches_enumeration():
    rng = np.random.default_rng(13)
    dags = [
        interleave(hypercube_problem(1), 1),
        interleave(hypercube_problem(2), 1),
        build_dt_problem(2, 1),
    ]
    for dag in dags:
        for _ in range(3):
            w = rng.normal(size=dag.n_terminal_states)
            val, strategy = best_reduced_strategy(dag, w)
            oracles.validate_flow(strategy)
            assert val == pytest.approx(strategy.terminal_vector() @ w, abs=1e-9)
            assert val == pytest.approx(
                oracles.best_pure_reduced_value(dag, w), abs=1e-9
            )


def test_best_reduced_strategy_dominates_random_policies(two_stage):
    rng = np.random.default_rng(19)
    for dag in (interleave(two_stage, 1), build_dt_problem(2, 2)):
        lists = oracles.dag_lists(dag)
        for _ in range(5):
            w = rng.normal(size=dag.n_terminal_states)
            val, strategy = best_reduced_strategy(dag, w)
            assert val == pytest.approx(strategy.terminal_vector() @ w, abs=1e-9)
            for _ in range(100):
                choices = {
                    s: int(rng.integers(len(lists.edges[s]))) for s in lists.decision_states
                }
                q = forward_flow(dag, oracles.policy_from_choices(dag, choices)).terminal_vector()
                assert float(q @ w) <= val + 1e-9


def test_forward_flow_validates(two_stage):
    dag = interleave(two_stage, 1)
    lists = oracles.dag_lists(dag)
    oracles.validate_flow(forward_flow(dag, dag.graph.uniform_share))
    rng = np.random.default_rng(14)
    for _ in range(5):
        choices = {s: int(rng.integers(len(lists.edges[s]))) for s in lists.decision_states}
        oracles.validate_flow(forward_flow(dag, oracles.policy_from_choices(dag, choices)))


def test_mediator_deviations_have_bounded_degree(two_stage):
    rng = np.random.default_rng(15)
    for k in (1, 2):
        dag = interleave(two_stage, k)
        lists = oracles.dag_lists(dag)
        choices = {s: int(rng.integers(len(lists.edges[s]))) for s in lists.decision_states}
        q = forward_flow(dag, oracles.policy_from_choices(dag, choices)).terminal_vector()
        poly = deviation_polynomial(dag, q)
        assert poly.degree <= k
        x = two_stage.random_point(rng)
        assert np.allclose(oracles.eval_point(poly, x), evaluate_deviation(dag, q, x), atol=1e-12)


def test_mediator_deviations_map_pure_into_polytope(two_stage):
    """Any reduced strategy of the interleaving gives a valid deviation."""
    rng = np.random.default_rng(16)
    dag = interleave(two_stage, 2)
    lists = oracles.dag_lists(dag)
    for _ in range(10):
        choices = {s: int(rng.integers(len(lists.edges[s]))) for s in lists.decision_states}
        q = forward_flow(dag, oracles.policy_from_choices(dag, choices)).terminal_vector()
        for y in two_stage.enumerate_pure_strategies():
            two_stage.require_membership(evaluate_deviation(dag, q, y))


def test_query_tree_swaps_bits():
    dag = build_dt_problem(2, 1)
    lists = oracles.dag_lists(dag)
    pairs = hypercube_structure(dag.base)
    # depth-1 trees include every coordinate swap: find the strategy mapping
    # output bit j to input bit 1-j by scoring the matching terminal states
    w = np.zeros(dag.n_terminal_states)
    for slot in range(dag.n_terminal_states):
        out_coord = int(dag.terminal_out[slot])
        mono = lists.terminal_mono[slot]
        j = 0 if out_coord in (pairs[0][0], pairs[0][1]) else 1
        want_set = pairs[1 - j][1] if out_coord in (pairs[j][1],) else None
        if want_set is not None and mono == frozenset([want_set]):
            w[slot] = 1.0
    _, strategy = best_reduced_strategy(dag, w)
    q = strategy.terminal_vector()
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
        out = eval_dt_deviation(dag, q, bits)
        assert np.allclose(out, bits[::-1], atol=1e-12)


def test_query_tree_matches_point_evaluation():
    rng = np.random.default_rng(17)
    dag = build_dt_problem(3, 2)
    lists = oracles.dag_lists(dag)
    pairs = hypercube_structure(dag.base)
    for _ in range(5):
        choices = {s: int(rng.integers(len(lists.edges[s]))) for s in lists.decision_states}
        q = forward_flow(dag, oracles.policy_from_choices(dag, choices)).terminal_vector()
        bits = rng.integers(0, 2, size=3)
        via_bits = eval_dt_deviation(dag, q, bits)
        via_point = evaluate_deviation(dag, q, oracles.bits_to_point(pairs, bits))
        assert np.allclose(via_bits, via_point[1::2], atol=1e-12)


def test_terminal_weights_charging_identity(two_stage):
    """<w, q> must equal <u, E_pi[phi_q(x)]>: the linear utility handed to
    the inner learner scores deviations exactly."""
    rng = np.random.default_rng(18)
    dag = interleave(two_stage, 2)
    lists = oracles.dag_lists(dag)
    pure = two_stage.enumerate_pure_strategies()
    for _ in range(8):
        choices = {s: int(rng.integers(len(lists.edges[s]))) for s in lists.decision_states}
        q = forward_flow(dag, oracles.policy_from_choices(dag, choices)).terminal_vector()
        picks = rng.integers(0, len(pure), size=3)
        alphas = rng.dirichlet(np.ones(3))
        pi = SupportMix([(a, pure[i]) for a, i in zip(alphas, picks)])
        u = rng.normal(size=5)
        w = terminal_weights(dag, u, pi)
        expected_image = sum(
            a * evaluate_deviation(dag, q, pure[i]) for a, i in zip(alphas, picks)
        )
        assert float(w @ q) == pytest.approx(float(u @ expected_image), abs=1e-9)


def test_terminal_weights_need_a_utility_per_base_terminal(hypercube2):
    dag = interleave(hypercube2, 1)
    pi = BehavioralDescriptor(hypercube2, hypercube2.uniform_point())
    with pytest.raises(ValueError, match=r"utility of shape \(7,\); expected \(4,\)"):
        terminal_weights(dag, np.zeros(7), pi)


def test_terminal_weights_need_a_utility_row_per_round(hypercube2):
    dag = interleave(hypercube2, 1)
    pi = RoundMixtures([[BehavioralDescriptor(hypercube2, hypercube2.uniform_point())]])
    for u in (np.zeros((3, 4)), np.zeros(4)):
        with pytest.raises(ValueError, match=r"; expected \(1, 4\)"):
            terminal_weights(dag, u, pi)
    assert terminal_weights(dag, np.zeros((1, 4)), pi).shape == (1, dag.n_terminal_states)


@pytest.mark.parametrize("length", [1, 3, 17])
@pytest.mark.parametrize("entry", [
    lambda dag, q, x: deviation_polynomial(dag, q),
    lambda dag, q, x: evaluate_deviation(dag, q, x),
    lambda dag, q, x: deviation_image(dag, q, BehavioralDescriptor(dag.base, x)),
], ids=["deviation_polynomial", "evaluate_deviation", "deviation_image"])
def test_a_deviation_needs_a_mass_per_terminal_state(hypercube2, entry, length):
    dag = interleave(hypercube2, 1)
    assert dag.n_terminal_states == 16
    x = hypercube2.uniform_point()
    with pytest.raises(ValueError, match=rf"^weights of shape \({length},\); expected length 16$"):
        entry(dag, np.full(length, 0.25), x)
    entry(dag, np.full(16, 0.25), x)


def test_state_caps_raise():
    with pytest.raises(CapacityError):
        interleave(hypercube_problem(4), 2, cap=50)
    with pytest.raises(CapacityError):
        build_dt_problem(4, 3, cap=50)


def test_non_topological_order_rejected(two_stage):
    with pytest.raises(StructureError, match="topological"):
        DecisionDAG(
            "broken", two_stage,
            Graph(*graph_arrays(["D", "T"], [(1,), (0,)]), level=[0, 1]),
            terminal_out=[0], terms=[[]],
        )


def test_tree_and_interleave_zero_compile_alike(two_stage):
    rng = np.random.default_rng(27)
    for p in (two_stage, hypercube_problem(3), *(random_problem(rng) for _ in range(5))):
        tree, dag = p.graph, interleave(p, 0).graph
        for name in ("code", "level", "ptr", "src", "dst", "decision_edge", "uniform_share"):
            assert np.array_equal(getattr(tree, name), getattr(dag, name)), name
        for name in ("levels", "blocks"):
            assert len(getattr(tree, name)) == len(getattr(dag, name))
            for a, b in zip(getattr(tree, name), getattr(dag, name)):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_validate_rejects_broken_flows(two_stage):
    dag = interleave(two_stage, 1)
    lists = oracles.dag_lists(dag)
    good = oracles.validate_flow(forward_flow(dag, dag.graph.uniform_share))
    g = dag.graph
    into_terminal = np.isin(g.dst, dag.terminal_states) & (good.edge_mass > 0)

    def broken(shifts):
        # each shifted edge feeds a terminal state whose mass moves with it,
        # so incoming mass stays consistent and only the per-state rules break
        state_mass, edge_mass = good.state_mass.copy(), good.edge_mass.copy()
        for e, delta in shifts:
            edge_mass[e] += delta
            state_mass[g.dst[e]] += delta
        return ReducedStrategy(dag, state_mass, edge_mass)

    obs = np.flatnonzero(into_terminal & ~g.decision_edge)[0]
    s = next(s for s in lists.decision_states
             if into_terminal[g.ptr[s]:g.ptr[s + 1]].all())
    e1, e2 = g.ptr[s], g.ptr[s] + 1
    move = good.edge_mass[e1] + 0.1
    cases = [
        ([(obs, 0.1)], "observation edge"),
        ([(e1, 0.1)], "decision edges"),
        ([(e1, -move), (e2, move)], "negative edge mass"),
    ]
    for shifts, fault in cases:
        with pytest.raises(StructureError, match=fault):
            oracles.validate_flow(broken(shifts))
    bad = ReducedStrategy(dag, good.state_mass.copy(), good.edge_mass)
    bad.state_mass[dag.terminal_states[0]] += 0.1
    with pytest.raises(StructureError, match="incoming"):
        oracles.validate_flow(bad)
