import hashlib
import itertools

import numpy as np
import pytest

import oracles
from conftest import counterexample_deviation, random_problem
from phiregret import (
    PolynomialDeviation,
    extend_identity,
    extend_polynomial,
    random_low_degree_deviation,
)
from phiregret.errors import InvalidDeviationError, StructureError
from phiregret.polynomials import (
    all_low_degree_boolean_functions,
    canonical_cut,
    convex_combination,
)


def test_identity_map():
    f = PolynomialDeviation.identity(4)
    x = np.array([0.2, 0.0, 1.0, 0.5])
    assert np.array_equal(oracles.eval_point(f, x), x)
    assert f.degree == 1


def test_constant_map(two_stage):
    point = two_stage.uniform_point()
    f = PolynomialDeviation.constant(5, point)
    assert f.degree == 0
    assert np.array_equal(oracles.eval_point(f, np.zeros(5)), point)


def test_degree_and_monomials():
    f = counterexample_deviation()
    assert f.degree == 2
    assert frozenset((1, 3)) in f.monomials()


def test_eval_batch_matches_pointwise(two_stage):
    f = counterexample_deviation()
    pure = two_stage.enumerate_pure_strategies()
    batch = f.eval_batch(pure)
    for row, y in zip(batch, pure):
        assert np.allclose(row, oracles.eval_point(f, y), atol=1e-14)


def test_counterexample_valid_on_two_stage(two_stage):
    f = counterexample_deviation()
    f.validate_on_polytope(two_stage)


def test_validate_rejects_leaving_map(two_stage):
    doubled = PolynomialDeviation(5, [[(2.0, (z,))] for z in range(5)])
    with pytest.raises(InvalidDeviationError):
        doubled.validate_on_polytope(two_stage)
    assert not oracles.is_valid_on(doubled, two_stage)


def test_compose_agrees_on_binary_points():
    rng = np.random.default_rng(4)
    f = counterexample_deviation()
    g = PolynomialDeviation(5, [
        [(1.0, (4,))],
        [(1.0, (3,))],
        [(1.0, (2,))],
        [(1.0, (1,))],
        [(1.0, (0,))],
    ])
    h = f.compose(g)
    for _ in range(20):
        y = rng.integers(0, 2, size=5).astype(float)
        assert np.allclose(oracles.eval_point(h, y),
                           oracles.eval_point(f, oracles.eval_point(g, y)), atol=1e-12)


def test_expected_value_is_linear_in_monomials():
    f = counterexample_deviation()
    table = {frozenset(): 1.0, frozenset([0]): 0.3, frozenset([1]): 0.5,
             frozenset([2]): 0.2, frozenset([1, 3]): 0.15, frozenset([1, 4]): 0.05}
    out = f.expected_value(lambda mono: table.get(frozenset(mono), 0.0))
    assert out == pytest.approx([0.5, 0.15, 0.05, 0.5, 0.0])


def test_convex_combination_weight_validation():
    f = PolynomialDeviation.identity(3)
    with pytest.raises(ValueError):
        convex_combination([f, f], [0.7, 0.7])
    with pytest.raises(ValueError):
        convex_combination([f, f], [1.5, -0.5])


def test_convex_combination_evaluates_to_mixture():
    f = PolynomialDeviation.identity(3)
    g = PolynomialDeviation.constant(3, np.array([1.0, 0.0, 0.0]))
    h = convex_combination([f, g], [0.25, 0.75])
    y = np.array([0.0, 1.0, 0.0])
    assert np.allclose(oracles.eval_point(h, y), 0.25 * y + 0.75 * np.array([1, 0, 0]))


def test_canonical_cut_sums_to_node_value(two_stage):
    rng = np.random.default_rng(5)
    x = two_stage.random_point(rng)
    for node in range(two_stage.n_nodes):
        cut = canonical_cut(two_stage, node)
        assert sum(x[z] for z in cut) == pytest.approx(
            oracles.node_value(two_stage, x, node), abs=1e-12
        )


def test_extend_identity_on_two_stage(two_stage):
    f = extend_identity(two_stage)
    assert f.degree <= two_stage.depth
    for y in two_stage.enumerate_pure_strategies():
        assert np.allclose(oracles.eval_point(f, y), y, atol=1e-12)


def test_extend_identity_needs_binary_decisions():
    from phiregret import parse_problem

    wide = parse_problem("tfsdp w\na D - -\nt1 T a x\nt2 T a y\nt3 T a z")
    with pytest.raises(StructureError, match="binar"):
        extend_identity(wide)


def test_extend_polynomial_agrees_on_pure(two_stage):
    f = counterexample_deviation()
    lifted = extend_polynomial(f, two_stage)
    for y in two_stage.enumerate_pure_strategies():
        assert np.allclose(oracles.eval_point(lifted, y), oracles.eval_point(f, y), atol=1e-12)


def test_random_deviation_is_validated():
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = random_problem(rng)
        dev = random_low_degree_deviation(p, rng, degree=2)
        assert dev.degree <= 2
        assert oracles.is_valid_on(dev, p)


def test_low_degree_boolean_function_counts():
    # one variable: 0, 1, x, 1-x
    assert len(all_low_degree_boolean_functions(1, 1)) == 4
    # two variables, degree <= 1: constants plus each literal and its negation
    assert len(all_low_degree_boolean_functions(2, 1)) == 6
    # every function of two variables is degree <= 2
    assert len(all_low_degree_boolean_functions(2, 2)) == 16


def test_low_degree_boolean_functions_are_boolean_and_low_degree():
    funcs = all_low_degree_boolean_functions(2, 1)
    points = list(itertools.product((0, 1), repeat=2))
    for terms in funcs:
        assert all(len(mono) <= 1 for _, mono in terms)
        for pt in points:
            val = sum(c * np.prod([pt[i] for i in mono]) for c, mono in terms)
            assert val in (0.0, 1.0)


@pytest.mark.parametrize("n_vars, max_degree", [(n, d) for n in range(4) for d in range(n + 1)])
def test_low_degree_boolean_functions_match_the_per_table_loop(n_vars, max_degree):
    funcs = all_low_degree_boolean_functions(n_vars, max_degree)
    assert funcs == oracles.all_low_degree_boolean_functions(n_vars, max_degree)
    assert all(type(c) is float for terms in funcs for c, _ in terms)


def test_quadratic_boolean_functions_of_four_variables_are_pinned():
    # 222 tables; the digest is that of the per-table loop's output, which
    # takes about 18 s to recompute
    funcs = all_low_degree_boolean_functions(4, 2)
    assert len(funcs) == 222
    canonical = repr([[(c, sorted(mono)) for c, mono in terms] for terms in funcs])
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "5bc70e1f4cc7e53d5895293dd9b40d58e9ad4b523326c64051640d2d63f42f85"
    )


def test_boolean_enumeration_is_capped_at_four_variables():
    with pytest.raises(ValueError, match="capped at 4 variables"):
        all_low_degree_boolean_functions(5, 2)
