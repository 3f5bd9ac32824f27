"""The compiled monomial table and the batched evaluators built on it, pinned
slot by slot to loops over the enumeration oracles."""

import numpy as np
import pytest

import oracles
from conftest import TWO_STAGE_TEXT
from oracles import MixtureStrategy
from phiregret import (
    BehavioralDescriptor,
    FixedPointConfig,
    MonomialTable,
    PhiRegretMinimizer,
    build_dt_problem,
    expected_fixed_point,
    hypercube_problem,
    interleave,
    parse_problem,
    terminal_weights,
)
from phiregret.dags import deviation_image, deviation_polynomial, evaluate_deviation, forward_flow
from phiregret.maps import RoundMixtures, beta_support, caratheodory

TOL = 1e-12

DAGS = {
    "two_stage-k0": lambda: interleave(parse_problem(TWO_STAGE_TEXT), 0),
    "two_stage-k1": lambda: interleave(parse_problem(TWO_STAGE_TEXT), 1),
    "two_stage-k2": lambda: interleave(parse_problem(TWO_STAGE_TEXT), 2),
    "cube2-k1": lambda: interleave(hypercube_problem(2), 1),
    "dt-2-2": lambda: build_dt_problem(2, 2),
}


def random_q(dag, rng):
    """Terminal masses of a random interior reduced strategy."""
    g = dag.graph
    raw = rng.random(g.n_edges) + 0.1
    total = np.bincount(g.src, raw, minlength=g.n)
    share = np.where(g.decision_edge, raw / total[g.src], 1.0)
    return forward_flow(dag, share).terminal_vector()


def mixtures(problem, rng):
    """Behavioral descriptors (interior, and at a vertex, where some decision
    points are unreached), explicit mixtures, and a mixture of both kinds."""
    x = problem.random_point(rng)
    vertex = caratheodory(problem, problem.random_point(rng)).matrix[0]
    behavioral = BehavioralDescriptor(problem, x)
    peeled = caratheodory(problem, problem.random_point(rng))
    return [
        behavioral,
        BehavioralDescriptor(problem, vertex),
        peeled,
        beta_support(problem, x),
        MixtureStrategy([(0.25, behavioral), (0.35, peeled), (0.4, beta_support(problem, x))]),
    ]


def oracle_expectation(pi, mono):
    if isinstance(pi, RoundMixtures):  # the fixed point's one round
        pi = MixtureStrategy([(1.0 / pi.counts[0], c) for c in pi.components])
    if isinstance(pi, MixtureStrategy):
        return sum(w * oracle_expectation(c, mono) for w, c in pi.components)
    if isinstance(pi, BehavioralDescriptor):
        return oracles.monomial_expectation(pi.problem, pi.base, mono)
    return oracles.support_monomial(pi.atoms, mono)


@pytest.mark.parametrize("name", DAGS)
def test_table_holds_each_distinct_monomial_once(name):
    dag = DAGS[name]()
    lists = oracles.dag_lists(dag)
    table = dag.monomials
    assert table.n == len(set(lists.terminal_mono))
    rows = [tuple(int(z) for z in row if z >= 0) for row in table.terms]
    assert len(set(rows)) == table.n
    for slot, mono in enumerate(lists.terminal_mono):
        assert rows[dag.mono_row[slot]] == tuple(sorted(mono))


@pytest.mark.parametrize("name", DAGS)
def test_conflicts_are_the_monomials_no_pure_strategy_covers(name):
    dag = DAGS[name]()
    pure = oracles.enumerate_pure(dag.base)
    _, conflict = dag.monomials.decision_paths(dag.base)
    for row, mono in zip(dag.monomials.terms, conflict):
        terms = row[row >= 0]
        covered = any(np.all(y[terms] == 1.0) for y in pure)
        assert bool(mono) == (not covered)


def test_dt_with_repeated_queries_has_conflicting_monomials():
    for distinct in (False, True):
        dag = build_dt_problem(2, 2, distinct=distinct)
        _, conflict = dag.monomials.decision_paths(dag.base)
        assert conflict.any() != distinct


@pytest.mark.parametrize("name", DAGS)
def test_batched_weights_and_image_match_slot_loops(name):
    dag = DAGS[name]()
    lists = oracles.dag_lists(dag)
    problem = dag.base
    rng = np.random.default_rng(sorted(DAGS).index(name))
    q = random_q(dag, rng)
    u = rng.uniform(-1.0, 1.0, problem.n_terminals)
    for pi in mixtures(problem, rng):
        expect = [oracle_expectation(pi, mono) for mono in lists.terminal_mono]
        weights = terminal_weights(dag, u, pi)
        image = deviation_image(dag, q, pi)
        want_image = np.zeros(problem.n_terminals)
        for slot, e in enumerate(expect):
            out = dag.terminal_out[slot]
            assert weights[slot] == pytest.approx(u[out] * e, abs=TOL)
            want_image[out] += q[slot] * e
        assert np.max(np.abs(image - want_image)) <= TOL


@pytest.mark.parametrize("name", DAGS)
def test_evaluate_deviation_matches_slot_loop(name):
    dag = DAGS[name]()
    lists = oracles.dag_lists(dag)
    rng = np.random.default_rng(50 + sorted(DAGS).index(name))
    q = random_q(dag, rng)
    for x in (dag.base.random_point(rng), rng.random(dag.base.n_terminals)):
        want = np.zeros(dag.base.n_terminals)
        for slot, mono in enumerate(lists.terminal_mono):
            want[dag.terminal_out[slot]] += q[slot] * np.prod([x[i] for i in mono])
        assert np.max(np.abs(evaluate_deviation(dag, q, x) - want)) <= TOL


@pytest.mark.parametrize("name", DAGS)
def test_fixed_point_displacement_is_the_oracle_image(name):
    """The fixed point's displacement is E_pi[phi_q(x) - x] for its mixture."""
    dag = DAGS[name]()
    lists = oracles.dag_lists(dag)
    problem = dag.base
    rng = np.random.default_rng(70 + sorted(DAGS).index(name))
    q = random_q(dag, rng)
    fp = expected_fixed_point(
        problem, lambda pi: deviation_image(dag, q, pi), FixedPointConfig(L=12)
    )
    want = np.zeros(problem.n_terminals)
    for slot, mono in enumerate(lists.terminal_mono):
        want[dag.terminal_out[slot]] += q[slot] * oracle_expectation(fp.pi, mono)
    assert np.max(np.abs(fp.error_vector - (want - fp.pi.mean()))) <= TOL


def assert_one_round_is_the_mixture_strategy(comps, table, phi):
    """A one-round RoundMixtures of ``comps`` gives the bits of the
    MixtureStrategy that weights each by 1 / len(comps)."""
    got = RoundMixtures([comps])
    want = MixtureStrategy([(1.0 / len(comps), c) for c in comps])
    image = phi(got)
    assert image.shape == (1, phi.n_outputs)
    assert image.tobytes() == phi(want).tobytes()
    assert got.mean().tobytes() == want.mean().tobytes()
    values = got.monomial_expectation(table)
    assert values.shape == (1, table.n)
    assert values.tobytes() == want.monomial_expectation(table).tobytes()


@pytest.mark.parametrize("delta", ["beta", "cara"])
def test_one_round_equals_the_mixture_strategy_bit_for_bit(delta):
    """Rounds of 1, 2 and L components of mixed kinds, and the fixed points
    of a learning run that run all L iterates."""
    problem = parse_problem(TWO_STAGE_TEXT)
    dag = interleave(problem, 1)
    rng = np.random.default_rng(80 + (delta == "cara"))
    L = 12
    kinds = [
        lambda x: BehavioralDescriptor(problem, x),
        lambda x: beta_support(problem, x),
        lambda x: caratheodory(problem, x),
    ]
    comps = [kinds[i % 3](problem.random_point(rng)) for i in range(L)]
    phi = deviation_polynomial(dag, random_q(dag, rng))
    for round_ in (comps[:1], comps[1:3], comps):
        assert_one_round_is_the_mixture_strategy(round_, dag.monomials, phi)
    minimizer = PhiRegretMinimizer(dag, FixedPointConfig(L=L, delta=delta))
    full = 0
    for _ in range(40):
        q, fp = minimizer.next_mixture()
        if not fp.stalled:
            full += 1
            assert len(fp.pi.components) == L
            phi = deviation_polynomial(dag, q.terminal_vector())
            assert_one_round_is_the_mixture_strategy(fp.pi.components, dag.monomials, phi)
        minimizer.observe_utility(rng.uniform(-1.0, 1.0, problem.n_terminals))
    assert full > 0


def test_tables_without_monomials_or_without_terms():
    problem = parse_problem(TWO_STAGE_TEXT)
    desc = BehavioralDescriptor(problem, problem.uniform_point())
    assert desc.monomial_expectation(MonomialTable([])).shape == (0,)
    constant = MonomialTable([()])
    assert constant.terms.shape == (1, 0)
    assert desc.monomial_expectation(constant).tolist() == [1.0]
    assert desc.support().monomial_expectation(constant).tolist() == [1.0]


def test_one_table_serves_two_problems():
    """A table's decision paths follow the problem it is evaluated against."""
    table = MonomialTable([(0,), (0, 1), (1, 3)])
    rng = np.random.default_rng(90)
    for problem in (parse_problem(TWO_STAGE_TEXT), hypercube_problem(2), parse_problem(TWO_STAGE_TEXT)):
        x = problem.random_point(rng)
        got = BehavioralDescriptor(problem, x).monomial_expectation(table)
        for value, mono in zip(got, [(0,), (0, 1), (1, 3)], strict=True):
            assert value == pytest.approx(oracles.monomial_expectation(problem, x, mono), abs=TOL)
