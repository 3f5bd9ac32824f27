"""The array form of ``PolynomialDeviation`` against the term-list form it
replaced (``oracles.PolynomialDeviation``): the same terms bit for bit and
in order, the same expectations over every kind of mixture, the DAG form's
images against the former ``dags.deviation_image``, and the malformed input
the constructor and ``convex_combination`` reject."""

import numpy as np
import pytest

import oracles
from phiregret import (
    PolynomialDeviation,
    extend_identity,
    extend_polynomial,
    hypercube_problem,
    parse_problem,
    random_low_degree_deviation,
)
from phiregret.dags import best_reduced_strategy, deviation_polynomial, forward_flow
from phiregret.efg import deviation_dag
from phiregret.maps import BehavioralDescriptor, RoundMixtures, caratheodory
from phiregret.polynomials import convex_combination

TWO_STAGE_TEXT = (
    "tfsdp two_stage\n0 D - -\n1 T 0 x1\n2 O 0 go\n3 D 2 left\n"
    "4 D 2 right\n5 T 3 x2\n6 T 3 x3\n7 T 4 x4\n8 T 4 x5"
)
PROBLEMS = {
    "two_stage": lambda: parse_problem(TWO_STAGE_TEXT),
    "cube1": lambda: hypercube_problem(1),
    "cube2": lambda: hypercube_problem(2),
    "cube3": lambda: hypercube_problem(3),
}


def flat_terms(dev):
    """(coefficient hex, sorted monomial, output) of every term, in order."""
    if isinstance(dev, oracles.PolynomialDeviation):
        return [(c.hex(), tuple(sorted(m)), z)
                for z, out in enumerate(dev.terms) for c, m in out]
    monos = [tuple(t[t >= 0].tolist()) for t in dev.table.terms] + [()]
    return [(c.hex(), monos[r], z)
            for c, r, z in zip(dev.coef.tolist(), dev.row.tolist(), dev.out.tolist())]


def assert_same_deviation(dev, ref, pure):
    assert (dev.n_inputs, dev.n_outputs) == (ref.n_inputs, ref.n_outputs)
    assert flat_terms(dev) == flat_terms(ref)
    assert dev.degree == ref.degree
    assert dev.monomials() == ref.monomials()
    assert dev.eval_batch(pure).tobytes() == ref.eval_batch(pure).tobytes()


def deviation_pair(problem, seed, pure):
    """A random deviation (it has constant terms) of the library and of the
    reference, drawn from one seed."""
    dev = random_low_degree_deviation(problem, np.random.default_rng(seed), pure=pure)
    ref = oracles.random_low_degree_deviation(problem, np.random.default_rng(seed), pure=pure)
    return dev, ref


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_terms_equal_the_term_lists(name):
    problem = PROBLEMS[name]()
    pure = problem.enumerate_pure_strategies()
    n = problem.n_terminals
    assert_same_deviation(PolynomialDeviation.identity(n),
                          oracles.PolynomialDeviation.identity(n), pure)
    assert_same_deviation(extend_identity(problem), oracles.extend_identity(problem), pure)
    for seed in range(20):
        f, ref_f = deviation_pair(problem, seed, pure)
        g, ref_g = deviation_pair(problem, 100 + seed, pure)
        assert_same_deviation(f, ref_f, pure)
        point = problem.random_point(np.random.default_rng(seed))
        assert_same_deviation(PolynomialDeviation.constant(n, point),
                              oracles.PolynomialDeviation.constant(n, point), pure)
        assert_same_deviation(f.compose(g), ref_f.compose(ref_g), pure)
        weights = np.random.default_rng(seed).dirichlet(np.ones(2))
        assert_same_deviation(convex_combination([f, g], weights),
                              oracles.convex_combination([ref_f, ref_g], weights), pure)
        assert_same_deviation(extend_polynomial(f, problem),
                              oracles.extend_polynomial(ref_f, problem), pure)


@pytest.mark.parametrize("name", ["two_stage", "cube3"])
def test_images_equal_the_term_list_expectations(name):
    """phi(mixture) against the former per-term ``expected_value`` over one
    table of phi's monomials, on behavioral descriptors, peeled supports and
    rounds of 1, 10, 49 and 50 components."""
    problem = PROBLEMS[name]()
    pure = problem.enumerate_pure_strategies()
    rng = np.random.default_rng(7)
    points = [problem.random_point(rng) for _ in range(50)]
    comps = [BehavioralDescriptor(problem, x) if i % 3 else caratheodory(problem, x)
             for i, x in enumerate(points)]
    sizes = (1, 10, 49, 50)
    mixtures = comps[:4] + [RoundMixtures([comps[:c]]) for c in sizes]
    mixtures.append(RoundMixtures([comps[:c] for c in sizes]))
    for seed in range(5):
        phi, ref = deviation_pair(problem, seed, pure)
        assert ref.terms[0][0][1] == frozenset()  # a constant term leads
        for mixture in mixtures:
            want = oracles.expected_image(mixture, ref)
            assert phi(mixture).tobytes() == want.tobytes()


def dag_qs(dag, rng):
    """An interior reduced strategy and a pure one (zero on most states)."""
    g = dag.graph
    raw = rng.random(g.n_edges) + 0.1
    total = np.bincount(g.src, raw, minlength=g.n)
    interior = forward_flow(dag, np.where(g.decision_edge, raw / total[g.src], 1.0))
    _, pure = best_reduced_strategy(dag, rng.uniform(-1.0, 1.0, dag.n_terminal_states))
    return interior.terminal_vector(), pure.terminal_vector()


@pytest.mark.parametrize("spec", ["med:0", "med:1", "med:2", "dt:0", "dt:1"])
def test_dag_deviations_equal_the_dag_images(spec):
    """The DAG form, a mask on q != 0 over the DAG's own table, against the
    former ``dags.deviation_image``; a DAG's empty monomial is read through
    the mixture, so a round's constant keeps the bits of its summed weights."""
    dag = deviation_dag(hypercube_problem(3), spec)
    problem = dag.base
    rng = np.random.default_rng(11)
    comps = [BehavioralDescriptor(problem, problem.random_point(rng)) for _ in range(50)]
    comps[1::2] = [caratheodory(problem, c.base) for c in comps[1::2]]
    rounds = RoundMixtures([comps[:1], comps[:10], comps[:50]])
    for q in dag_qs(dag, rng):
        phi = deviation_polynomial(dag, q)
        assert len(phi.coef) == np.count_nonzero(q)
        for comp in comps[:6]:
            assert phi(comp).tobytes() == oracles.deviation_image(dag, q, comp).tobytes()
        want = [oracles._collect(dag, q, row)
                for row in rounds.monomial_expectation(dag.monomials)]
        assert phi(rounds).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("coef", [np.nan, np.inf, -np.inf])
def test_a_coefficient_that_is_not_finite_is_rejected(coef):
    with pytest.raises(ValueError, match="not finite"):
        PolynomialDeviation(3, [[(coef, (0,))]])


@pytest.mark.parametrize("mono", [(3,), (0, 5), (-1,), (1, -2)])
def test_a_monomial_outside_the_inputs_is_rejected(mono):
    with pytest.raises(ValueError, match="leaves the inputs"):
        PolynomialDeviation(3, [[(1.0, mono)]])


def test_a_weight_count_unlike_the_deviation_count_is_rejected():
    f, g = PolynomialDeviation.identity(3), PolynomialDeviation.constant(3, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="1 weights for 2 deviations"):
        convex_combination([f, g], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_weight_that_is_not_finite_is_rejected(bad):
    f, g = PolynomialDeviation.identity(3), PolynomialDeviation.constant(3, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        convex_combination([f, g], [bad, 0.5])
