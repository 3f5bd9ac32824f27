import re

import numpy as np
import pytest

import oracles
from conftest import TWO_STAGE_TEXT, counterexample_deviation
from phiregret import (
    EFGame,
    FixedPointConfig,
    MembershipError,
    MonomialTable,
    PhiRegretMinimizer,
    PolynomialDeviation,
    SupportMix,
    build_dt_problem,
    deviation_dag,
    efg_self_play,
    expected_fixed_point,
    extract_expected_fixed_point,
    forward_flow,
    hypercube_problem,
    interleave,
    parse_problem,
    random_low_degree_deviation,
)
from phiregret import fixedpoint
from phiregret.dags import deviation_image
from phiregret.errors import InvalidDeviationError
from phiregret.learners import RegretMeter
from phiregret.maps import caratheodory
from phiregret.tfsdp import CODE, DECISION


def simplex3():
    return parse_problem("tfsdp simplex3\nr D - -\na T r x\nb T r y\nc T r z")


def test_from_eps_budget():
    assert oracles.fixed_point_config_from_eps(0.1).L == 20
    assert oracles.fixed_point_config_from_eps(2.0).L == 1


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
    x = fp.pi.mean()[0]
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
                direct = phi(fp.pi) - fp.pi.mean()
                assert np.max(np.abs(direct - fp.error_vector)) <= 1e-12


def test_invalid_deviation_is_caught(two_stage):
    shifted = PolynomialDeviation(5, [
        [(1.0, (0,)), (0.5, ())], [(1.0, (1,))], [(1.0, (2,))],
        [(1.0, (3,))], [(1.0, (4,))],
    ])
    with pytest.raises(InvalidDeviationError, match="polytope"):
        expected_fixed_point(two_stage, shifted, FixedPointConfig(L=10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_an_image_that_is_not_finite_leaves_the_polytope(bad):
    cube = hypercube_problem(1)
    with pytest.raises(InvalidDeviationError, match="is not a finite number"):
        expected_fixed_point(cube, lambda pi: np.full(2, bad), FixedPointConfig(L=5))


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
    values = pi.monomial_expectation(MonomialTable(monos))[0]
    direct = phi.expected_value(dict(zip(monos, values)).__getitem__) - pi.mean()[0]
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


@pytest.mark.parametrize("budget", [0, -1, 2.5, None])
def test_extractor_needs_a_positive_integer_budget(budget):
    cube = hypercube_problem(1)
    minimizer = PhiRegretMinimizer(interleave(cube, 1))
    with pytest.raises(ValueError, match=re.escape(f"integer >= 1, got {budget!r}")):
        extract_expected_fixed_point(minimizer, PolynomialDeviation.identity(2), eps=0.1,
                                     budget=budget)


@pytest.mark.parametrize("eps", [0, -0.1, np.nan, np.inf])
def test_extractor_needs_a_positive_finite_eps(eps):
    cube = hypercube_problem(2)
    minimizer = PhiRegretMinimizer(interleave(cube, 1))
    with pytest.raises(ValueError, match=re.escape(f"eps must be positive and finite, got {eps}")):
        extract_expected_fixed_point(minimizer, PolynomialDeviation.identity(4), eps=eps)
    assert minimizer.run.rounds == 0 and minimizer._pending is None


@pytest.mark.parametrize("diameter", [-0.1, np.nan, np.inf])
def test_extractor_needs_a_nonnegative_finite_diameter(diameter):
    cube = hypercube_problem(2)
    minimizer = PhiRegretMinimizer(interleave(cube, 1))
    with pytest.raises(ValueError,
                       match=re.escape(f"diameter must be nonnegative and finite, got {diameter}")):
        extract_expected_fixed_point(minimizer, PolynomialDeviation.identity(4), eps=0.1,
                                     diameter=diameter)
    assert minimizer.run.rounds == 0 and minimizer._pending is None


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
        baseline += float(u @ fp.pi.mean()[0])
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


@pytest.mark.parametrize("L", [2.5, "3", None, 0.0])
def test_config_needs_an_integer_iterate_count(L):
    with pytest.raises(ValueError, match=re.escape(f"integer L >= 1, got {L!r}")):
        FixedPointConfig(L=L)


def test_config_rejects_an_unknown_consistent_map():
    with pytest.raises(ValueError, match="unknown consistent map 'nope'"):
        FixedPointConfig(delta="nope")


def _kernel_dags():
    two_stage = parse_problem(TWO_STAGE_TEXT)
    cube2, cube3 = hypercube_problem(2), hypercube_problem(3)
    return {
        "two_stage med:1": interleave(two_stage, 1),
        "two_stage med:2": interleave(two_stage, 2),
        "cube2 med:1": interleave(cube2, 1),
        "cube2 med:2": interleave(cube2, 2),
        "cube3 med:1": interleave(cube3, 1),
        "cube3 med:2": interleave(cube3, 2),
        "cube3 dt:2": build_dt_problem(3, 2),
    }


def _random_reduced_strategies(dag, rng):
    """Terminal masses of two interior reduced strategies and one pure one."""
    g = dag.graph
    out = []
    for _ in range(2):
        raw = rng.random(g.n_edges) + 0.1
        total = np.bincount(g.src, raw, minlength=g.n)
        out.append(np.where(g.decision_edge, raw / total[g.src], 1.0))
    pick = np.zeros(g.n_edges)
    for s in np.flatnonzero(g.code == CODE[DECISION]):
        pick[g.ptr[s] + rng.integers(g.ptr[s + 1] - g.ptr[s])] = 1.0
    out.append(np.where(g.decision_edge, pick, 1.0))
    return [forward_flow(dag, share).terminal_vector() for share in out]


def _same_fixed_point(got, want):
    assert got.stalled == want.stalled and got.L == want.L
    assert len(got.iterates) == len(want.iterates)
    for a, b in zip(got.iterates, want.iterates):
        assert a.tobytes() == b.tobytes()
    assert got.error_vector.tobytes() == want.error_vector.tobytes()
    wa = 1.0 / got.pi.counts[0]
    pairs = zip(got.pi.components, want.pi.components, strict=True)
    for a, (wb, b) in pairs:
        assert wa == wb and type(a) is type(b)
        if isinstance(a, SupportMix):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.matrix.tobytes() == b.matrix.tobytes()
        else:
            assert a.base.tobytes() == b.base.tobytes()
            assert a.vals.tobytes() == b.vals.tobytes()


@pytest.mark.parametrize("delta", ["beta", "cara"])
@pytest.mark.parametrize("name", list(_kernel_dags()))
def test_compiled_fixed_point_matches_the_former_loop_bit_for_bit(name, delta):
    dag = _kernel_dags()[name]
    problem = dag.base
    rng = np.random.default_rng([sorted(_kernel_dags()).index(name), delta == "cara"])
    vertex = caratheodory(problem, problem.random_point(rng)).matrix[0]
    stalled = set()
    for qv in _random_reduced_strategies(dag, rng):
        image = lambda pi, qv=qv: deviation_image(dag, qv, pi)  # noqa: E731
        for L in (5, 50):
            for init in (None, vertex):
                cfg = FixedPointConfig(L=L, delta=delta, init=init)
                got = expected_fixed_point(problem, image, cfg)
                _same_fixed_point(got, oracles.expected_fixed_point_loop(problem, image, cfg))
                stalled.add(got.stalled)
    if delta == "beta":
        assert stalled == {True, False}


def test_compiled_fixed_point_fails_as_the_former_loop(two_stage):
    shifted = PolynomialDeviation(5, [
        [(1.0, (0,)), (0.5, ())], [(1.0, (1,))], [(1.0, (2,))],
        [(1.0, (3,))], [(1.0, (4,))],
    ])
    short = lambda pi: pi.mean()[:4]  # noqa: E731
    # each point breaks one flow rule only: an observation point's children
    # disagree, or a terminal is negative
    unequal = PolynomialDeviation.constant(5, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    negative = PolynomialDeviation.constant(5, np.array([-0.5, 0.75, 0.75, 0.75, 0.75]))
    cases = [
        (shifted, FixedPointConfig(L=10), InvalidDeviationError),
        (unequal, FixedPointConfig(L=10), InvalidDeviationError),
        (negative, FixedPointConfig(L=10), InvalidDeviationError),
        (short, FixedPointConfig(L=10), InvalidDeviationError),
        (PolynomialDeviation.identity(5), FixedPointConfig(L=10, init=np.ones(4)), MembershipError),
    ]
    for phi, cfg, error in cases:
        with pytest.raises(error) as want:
            oracles.expected_fixed_point_loop(two_stage, phi, cfg)
        with pytest.raises(error) as got:
            expected_fixed_point(two_stage, phi, cfg)
        assert str(got.value) == str(want.value)
    assert "wrong length" in str(got.value)


def _learner_state(minimizer):
    learner = minimizer.learner  # a CfrLearner, or a seat of a SharedCfr
    regrets = getattr(learner, "learner", learner).regrets.tobytes()
    waiting = [w is None for w in getattr(learner, "waiting", [])]
    run = minimizer.run
    return regrets, waiting, run.rounds, run.weight_sum.tobytes(), run.realized, run.baseline


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros(5), [0.0, np.nan, 0.0, 0.0],
                                 [0.0, 0.0, np.inf, 0.0]], ids=["short", "long", "nan", "inf"])
def test_a_bad_utility_is_rejected_before_anything_changes(bad):
    minimizer = PhiRegretMinimizer(interleave(hypercube_problem(2), 1), FixedPointConfig(L=10))
    minimizer.next_mixture()
    minimizer.observe_utility(np.full(4, 0.25))
    minimizer.next_mixture()
    before, pending = _learner_state(minimizer), minimizer._pending
    message = "expected length 4" if len(bad) != 4 else "finite"
    with pytest.raises(ValueError, match=message):
        minimizer.observe_utility(bad)
    assert _learner_state(minimizer) == before and minimizer._pending is pending
    minimizer.observe_utility(np.full(4, -0.5))
    assert minimizer.run.rounds == 2


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros(5), [0.0, np.nan, 0.0, 0.0]],
                         ids=["short", "long", "nan"])
@pytest.mark.parametrize("seat", [0, 1])
def test_a_bad_utility_leaves_no_weights_for_the_joint_update(seat, bad):
    cube = hypercube_problem(2)
    game = EFGame.zero_sum(cube, cube, np.eye(4) * 0.5)
    minimizers = efg_self_play(game, ["med:1", "dt:1"], rounds=3, L=10).minimizers
    seats = [m.learner for m in minimizers]
    assert seats[0].learner is seats[1].learner and seats[0].waiting is seats[1].waiting
    for m in minimizers:
        m.next_mixture()
    if seat == 1:
        minimizers[0].observe_utility(np.full(4, 0.25))
    before = [_learner_state(m) for m in minimizers]
    pending = [m._pending for m in minimizers]
    with pytest.raises(ValueError):
        minimizers[seat].observe_utility(bad)
    assert [_learner_state(m) for m in minimizers] == before
    assert [m._pending for m in minimizers] == pending
    assert seats[0].waiting[seat] is None
    for m in minimizers[seat:]:
        m.observe_utility(np.full(4, -0.5))
    assert seats[0].waiting == [None, None]
    assert [m.run.rounds for m in minimizers] == [4, 4]


def test_the_start_is_built_with_the_problem():
    problem = hypercube_problem(2)
    x, vals = problem.start, problem.start_values
    assert not x.flags.writeable and not vals.flags.writeable
    assert x.tobytes() == problem.uniform_point().tobytes()
    assert vals.tobytes() == problem.node_values(problem.uniform_point()).tobytes()
    fp = expected_fixed_point(problem, lambda pi: pi.mean(), FixedPointConfig(L=3))
    assert fp.stalled and fp.iterates[0] is x


@pytest.mark.parametrize("L", [3, 25])
@pytest.mark.parametrize("delta", ["beta", "cara"])
@pytest.mark.parametrize("spec", ["two_stage med:1", "two_stage med:2", "cube3 dt:2",
                                  "cube3 med:1"])
def test_phi_minus_external_regret_is_the_measured_displacement(spec, delta, L):
    """At every checkpoint, Phi-regret minus external regret equals the mean
    <u, error_vector> the run recorded, within 1e-12, and the 2/L bound holds
    beside it; most of these fixed points do not stall."""
    name, dev = spec.split()
    problem = parse_problem(TWO_STAGE_TEXT) if name == "two_stage" else hypercube_problem(3)
    minimizer = PhiRegretMinimizer(deviation_dag(problem, dev), FixedPointConfig(L=L, delta=delta))
    run = minimizer.run
    rng = np.random.default_rng([len(spec), L])
    full = 0
    for t in range(1, 41):
        _, fp = minimizer.next_mixture()
        full += not fp.stalled
        minimizer.observe_utility(rng.uniform(-1, 1, problem.n_terminals))
        if t % 10 == 0:
            rec = run.checkpoint()
            assert abs(rec.phi_regret - rec.external_regret - run.fp_displacement()) <= 1e-12
            assert rec.phi_regret <= rec.external_regret + rec.fp_error_bound + 1e-6
    assert full > 0 or (spec, L) == ("cube3 med:1", 25)  # that run stalls at every fixed point
