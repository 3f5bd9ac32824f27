import numpy as np
import pytest

import oracles
from conftest import counterexample_deviation
from phiregret import (
    FixedPointConfig,
    MonomialTable,
    PhiRegretMinimizer,
    PolynomialDeviation,
    expected_fixed_point,
    extract_expected_fixed_point,
    interleave,
    parse_problem,
    random_low_degree_deviation,
)
from phiregret import fixedpoint
from phiregret.errors import InvalidDeviationError
from phiregret.learners import RegretMeter


def simplex3():
    return parse_problem("tfsdp simplex3\nr D - -\na T r x\nb T r y\nc T r z")


def test_from_eps_budget():
    assert FixedPointConfig.from_eps(0.1).L == 20
    assert FixedPointConfig.from_eps(2.0).L == 1


def test_identity_stalls_immediately(two_stage):
    fp = expected_fixed_point(
        two_stage, PolynomialDeviation.identity(5), FixedPointConfig(L=50)
    )
    assert fp.stalled
    assert len(fp.pi.components) == 1
    assert np.max(np.abs(fp.error_vector)) == 0.0


def test_counterexample_reaches_an_exact_fixed_point(two_stage):
    fp = expected_fixed_point(
        two_stage, counterexample_deviation(), FixedPointConfig(L=50)
    )
    assert fp.stalled
    assert len(fp.iterates) <= 4
    assert np.max(np.abs(fp.error_vector)) <= 1e-12
    x = fp.pi.mean()
    two_stage.require_membership(x)


def test_three_cycle_meets_the_bound_exactly():
    problem = simplex3()
    cycle = PolynomialDeviation(3, [[(1.0, (2,))], [(1.0, (0,))], [(1.0, (1,))]])
    for L in (10, 50, 200):
        init = np.array([1.0, 0.0, 0.0])
        fp = expected_fixed_point(
            problem, cycle, FixedPointConfig(L=L, init=init)
        )
        assert not fp.stalled
        measured = oracles.dual_norm(problem, fp.error_vector)
        if L % 3 == 0:
            assert measured <= 1e-12
        else:
            assert measured == pytest.approx(2.0 / L, abs=1e-12)


def test_telescoping_identity(two_stage, hypercube3):
    rng = np.random.default_rng(24)
    for problem in (two_stage, hypercube3):
        pure = problem.enumerate_pure_strategies()
        for delta in ("beta", "cara"):
            for _ in range(5):
                phi = random_low_degree_deviation(problem, rng, degree=2, pure=pure)
                fp = expected_fixed_point(
                    problem, phi, FixedPointConfig(L=25, delta=delta)
                )
                direct = fp.pi.expected_image(phi) - fp.pi.mean()
                assert np.max(np.abs(direct - fp.error_vector)) <= 1e-12


def test_invalid_deviation_is_caught(two_stage):
    shifted = PolynomialDeviation(5, [
        [(1.0, (0,)), (0.5, ())], [(1.0, (1,))], [(1.0, (2,))],
        [(1.0, (3,))], [(1.0, (4,))],
    ])
    with pytest.raises(InvalidDeviationError, match="polytope"):
        expected_fixed_point(two_stage, shifted, FixedPointConfig(L=10))


def test_minimizer_composite_bound_and_decay(two_stage):
    rng = np.random.default_rng(25)
    for delta in ("beta", "cara"):
        minimizer = PhiRegretMinimizer(
            interleave(two_stage, 1), FixedPointConfig(L=25, delta=delta)
        )
        run = minimizer.run
        for t in range(1, 301):
            minimizer.next_mixture()
            minimizer.observe_utility(rng.uniform(-0.3, 0.3, size=5))
            if t % 50 == 0:
                rec = run.checkpoint()
                assert rec.phi_regret <= rec.external_regret + rec.fp_error_bound + 1e-6
                assert rec.fp_error_bound == pytest.approx(2.0 / 25)
        assert run.records[-1].phi_regret < run.records[0].phi_regret


def test_constant_family_reduces_to_external_regret(two_stage):
    """With zero mediators every deviation is a constant map: its extension
    stalls after one application and deviation regret IS external regret."""
    rng = np.random.default_rng(26)
    minimizer = PhiRegretMinimizer(interleave(two_stage, 0), FixedPointConfig(L=40))
    for _ in range(60):
        _, fp = minimizer.next_mixture()
        assert fp.stalled
        minimizer.observe_utility(rng.uniform(-0.3, 0.3, size=5))
    run = minimizer.run
    assert run.phi_regret() == pytest.approx(run.external_regret(), abs=1e-9)


def test_extractor_reaches_an_expected_fixed_point(two_stage):
    minimizer = PhiRegretMinimizer(interleave(two_stage, 2), FixedPointConfig(L=25))
    phi = counterexample_deviation()
    pi, rounds, err = extract_expected_fixed_point(minimizer, phi, eps=0.05)
    assert rounds >= 1
    monos = list(phi.monomials())
    values = pi.monomial_expectation(MonomialTable(monos))
    direct = phi.expected_value(dict(zip(monos, values)).__getitem__) - pi.mean()
    assert np.linalg.norm(direct) == pytest.approx(err, abs=1e-12)
    diameter = oracles.enumerate_pure(two_stage)
    dmax = max(
        np.linalg.norm(a - b) for a in diameter for b in diameter
    )
    assert err <= 0.05 * dmax


def test_extractor_budget_exhaustion(two_stage):
    from phiregret import SupportMix

    class Stubborn:
        """Duck-typed minimizer pinned to one vertex, ignoring feedback."""

        problem = two_stage

        def next_mixture(self):
            return SupportMix([(1.0, np.array([0.0, 1.0, 0.0, 1.0, 0.0]))])

        def observe_utility(self, u):
            pass

    away = PolynomialDeviation.constant(5, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(RuntimeError, match="fixed point"):
        extract_expected_fixed_point(Stubborn(), away, eps=0.01, budget=5)


@pytest.mark.parametrize("L", [0, -3])
def test_config_needs_at_least_one_iterate(L):
    with pytest.raises(ValueError, match="L >= 1"):
        FixedPointConfig(L=L)


def test_checkpoint_solves_the_hindsight_problem_once(hypercube2, monkeypatch):
    dag = interleave(hypercube2, 1)
    minimizer = PhiRegretMinimizer(dag, FixedPointConfig(L=10))
    run = minimizer.run
    meter = RegretMeter(dag)
    solves = []
    solve = fixedpoint.best_reduced_strategy

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(fixedpoint, "best_reduced_strategy", counted)
    rng = np.random.default_rng(27)
    total_w, baseline = np.zeros(dag.n_terminal_states), 0.0
    for t in range(1, 31):
        q, fp = minimizer.next_mixture()
        u = rng.uniform(-1, 1, size=hypercube2.n_terminals)
        w = minimizer.observe_utility(u)
        meter.record(w, q.terminal_vector())
        total_w += w
        baseline += float(u @ fp.pi.mean())
        if t % 10:
            continue
        before = len(solves)
        rec = run.checkpoint()
        assert len(solves) == before + 1
        assert rec.round == t
        assert rec.phi_regret == run.phi_regret()
        assert rec.external_regret == run.external_regret()
        assert rec.fp_error_bound == run.fp_error_bound()
        assert rec.external_regret == meter.average_regret()
        best = oracles.best_pure_reduced_value(dag, total_w)
        assert rec.phi_regret == pytest.approx((best - baseline) / t, abs=1e-9)
    assert [r.round for r in run.records] == [10, 20, 30]
