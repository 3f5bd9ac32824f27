"""End-to-end checks of the package's headline guarantees.

One test per guarantee; each prints a single [PASS]/[FAIL] line with the
measured numbers (run pytest with -s to see the lines as they happen).
Stated runtime budgets are asserted.
"""

import itertools
import time

import numpy as np
import scipy.optimize

import oracles
from conftest import (
    TWO_MEDIATOR_POLICY,
    TWO_STAGE_TEXT,
    counterexample_deviation,
    random_problem,
    realize_state_policy,
)
from phiregret import (
    BehavioralDescriptor,
    EFGame,
    FixedPointConfig,
    MonomialTable,
    NormalFormGame,
    PhiRegretMinimizer,
    efg_self_play,
    expected_fixed_point,
    extend_identity,
    gadget_min_sum,
    hypercube_problem,
    interleave,
    matching_pennies,
    parse_problem,
    random_low_degree_deviation,
    run_ce,
    separation_table,
    swap_gap,
)
from phiregret.dags import evaluate_deviation, follow_identity_policy, forward_flow
from phiregret.efg import deviation_dag
from phiregret.maps import extended_map_eval
from phiregret.polynomials import all_low_degree_boolean_functions


def report(n, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def two_stage_problem():
    return parse_problem(TWO_STAGE_TEXT)


def skew_game():
    u = np.array([[0.5, -0.25], [-0.5, 0.5]])
    return EFGame.zero_sum(
        hypercube_problem(1, "bit-a"), hypercube_problem(1, "bit-b"), u, name="skew"
    )


def test_criterion_01_fixed_point_error_bound():
    """Random low-degree deviations: LP-measured displacement <= 2/L."""
    t0 = time.monotonic()
    problems = [two_stage_problem()] + [hypercube_problem(n) for n in (1, 2, 3)]
    rng = np.random.default_rng(2024)
    worst_ratio = 0.0
    worst_telescope = 0.0
    checks = 0
    for i in range(50):
        problem = problems[i % len(problems)]
        phi = random_low_degree_deviation(problem, rng, degree=2)
        phi.validate_on_polytope(problem)
        delta = "beta" if i % 2 == 0 else "cara"
        for L in (10, 50, 200):
            fp = expected_fixed_point(problem, phi, FixedPointConfig(L=L, delta=delta))
            measured = oracles.dual_norm(problem, fp.error_vector)
            assert measured <= 2.0 / L + 1e-9, (problem.name, i, L, measured)
            worst_ratio = max(worst_ratio, measured / (2.0 / L))
            direct = phi(fp.pi) - fp.pi.mean()
            worst_telescope = max(
                worst_telescope, float(np.max(np.abs(direct - fp.error_vector)))
            )
            checks += 1
    elapsed = time.monotonic() - t0
    ok = worst_telescope <= 1e-9 and elapsed < 30.0
    report(
        1,
        ok,
        f"{checks} fixed points, worst ||error||_X = {worst_ratio:.3f} x (2/L), "
        f"telescoping residual {worst_telescope:.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_composite_regret_bound():
    """phi-regret <= external regret + 2/L + 1e-6 at every checkpoint, and,
    beside that bound, phi-regret - external regret equals the run's measured
    displacement within 1e-12 wherever the run is at hand."""
    rng = np.random.default_rng(55)
    checkpoints_seen = 0
    worst_slack = -np.inf
    worst_identity = 0.0

    def check_identity(run):
        nonlocal worst_identity
        gap = abs(run.phi_regret() - run.external_regret() - run.fp_displacement())
        worst_identity = max(worst_identity, gap)
        assert gap <= 1e-12, (gap, run.rounds)

    def check(rec, L):
        nonlocal checkpoints_seen, worst_slack
        slack = rec.phi_regret - rec.external_regret - 2.0 / L
        worst_slack = max(worst_slack, slack)
        assert slack <= 1e-6, (rec, L)
        checkpoints_seen += 1

    # adversarial: random utilities against the minimizer, both maps
    two_stage = two_stage_problem()
    cube = hypercube_problem(2)
    setups = [
        (two_stage, "med:1", "beta"),
        (two_stage, "external", "cara"),
        (cube, "dt:1", "beta"),
        (cube, "med:1", "cara"),
    ]
    L = 25
    for problem, spec, delta in setups:
        dag = deviation_dag(problem, spec)
        minimizer = PhiRegretMinimizer(dag, FixedPointConfig(L=L, delta=delta))
        for t in range(1, 151):
            minimizer.next_mixture()
            minimizer.observe_utility(rng.uniform(-1, 1, problem.n_terminals))
            if t % 30 == 0:
                check(minimizer.run.checkpoint(), L)
                check_identity(minimizer.run)

    # self-play: zero-sum and general-sum, mixed deviation sets
    res = efg_self_play(
        skew_game(), ["med:1", "med:1"], rounds=300, L=25, checkpoints=(100, 200),
        record_profile=False,
    )
    for marks in res.checkpoints.values():
        for rec in marks:
            check(rec, 25)
    for i in (0, 1):
        check_identity(res.run_for(i))
    u1 = rng.uniform(-1, 1, (two_stage.n_terminals, cube.n_terminals))
    u2 = rng.uniform(-1, 1, (two_stage.n_terminals, cube.n_terminals))
    game = EFGame([two_stage, cube], [u1, u2], name="mixed", normalize=True)
    res = efg_self_play(
        game, ["med:1", "external"], rounds=120, L=20, checkpoints=(40, 80),
        record_profile=False,
    )
    for marks in res.checkpoints.values():
        for rec in marks:
            check(rec, 20)
    for i in (0, 1):
        check_identity(res.run_for(i))

    # normal form: swap gap vs external regret of the per-action learners
    tensors = [rng.uniform(-1, 1, (4, 4)) for _ in range(2)]
    for nfg in (matching_pennies(), NormalFormGame.dense(tensors, name="rand4")):
        res = run_ce(nfg, 0.1, checkpoints=range(200, 2000, 200), audit=False)
        for row in res.curve_rows:
            slack = row[1] - row[2] - 2.0 / res.L
            worst_slack = max(worst_slack, slack)
            assert slack <= 1e-6, row
            checkpoints_seen += 1

    report(
        2,
        True,
        f"{checkpoints_seen} checkpoints across 8 runs, "
        f"worst phi - (ext + 2/L) = {worst_slack:.2e}, "
        f"worst |phi - ext - displacement| = {worst_identity:.1e}",
    )


def test_criterion_03_fast_correlated_equilibrium():
    """Audited swap gaps at eps=0.05, and the regret curve keeps decaying."""
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    games = [
        matching_pennies(),
        NormalFormGame.dense([rng.uniform(-1, 1, (5, 5)) for _ in range(2)], name="2p5a"),
        NormalFormGame.dense([rng.uniform(-1, 1, (3, 3, 3)) for _ in range(3)], name="3p3a"),
    ]
    worst_gap = 0.0
    for game in games:
        res = run_ce(game, 0.05, audit=False)
        audited = swap_gap(res.profile, game)
        worst_gap = max(worst_gap, float(np.max(audited)))
        assert np.max(audited) <= 0.05, (game.name, audited)

    worst_ratio = 0.0
    for seed in range(10):
        g = np.random.default_rng(1000 + seed)
        game = NormalFormGame.dense(
            [g.uniform(-1, 1, (3, 3)) for _ in range(2)], name=f"seed{seed}"
        )
        res = run_ce(
            game, 0.05, horizon=8000, L=90, record_profile=False,
            checkpoints=(2000, 8000), audit=False,
        )
        reg = {row[0]: row[1] for row in res.curve_rows}
        ratio = reg[8000] / reg[2000]
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 0.55, (seed, reg)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    report(
        3,
        ok,
        f"worst audited swap gap {worst_gap:.4f} <= 0.05, "
        f"worst Reg(8000)/Reg(2000) = {worst_ratio:.3f} <= 0.55 over 10 seeds, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_depth_hierarchy_separation():
    """Depth-k query trees see the parity profile; depth-(k-1) trees don't."""
    t0 = time.monotonic()
    gaps = {}
    for k in (2, 3):
        table = dict(separation_table(k, depths=(k - 1, k)))
        gaps[k] = table
        assert abs(table[k - 1]) <= 1e-9, table
        assert abs(table[k] - 1.0) <= 1e-9, table
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    report(
        4,
        ok,
        f"k=2 gaps {gaps[2][1]:.1e}/{gaps[2][2]:.9f}, "
        f"k=3 gaps {gaps[3][2]:.1e}/{gaps[3][3]:.9f}, {elapsed:.1f}s",
    )


def test_criterion_05_naive_vs_consistent_extension():
    """The quadratic counterexample: valid on pure points, invalid naively."""
    problem = two_stage_problem()
    phi = counterexample_deviation()
    for y in oracles.enumerate_pure(problem):
        img = oracles.eval_point(phi, y)
        assert oracles.membership(problem, img), (y, img)
        assert problem.membership_violation(img) is None

    x0 = np.array([0.5, 0.5, 0.0, 0.5, 0.0])
    assert problem.membership_violation(x0) is None
    naive = oracles.eval_point(phi, x0)
    assert np.array_equal(naive, [0.5, 0.25, 0.0, 0.5, 0.0]), naive
    assert not oracles.membership(problem, naive)
    assert problem.membership_violation(naive) is not None

    rng = np.random.default_rng(5)
    for _ in range(1000):
        x = problem.random_point(rng)
        for delta in ("beta", "cara"):
            out = extended_map_eval(phi, problem, x, delta=delta)
            assert problem.membership_violation(out) is None, (x, delta, out)
    report(
        5,
        True,
        "5 pure images in X, naive eval at the mixed point leaves X, "
        "both consistent extensions stay in X at 1000 random points",
    )


def test_criterion_06_behavioral_monomial_formula():
    """Closed-form monomial expectations match support enumeration."""
    rng = np.random.default_rng(6)
    problems = [two_stage_problem()] + [random_problem(rng) for _ in range(20)]
    worst = 0.0
    monomials = 0
    for problem in problems:
        x = problem.random_point(rng)
        desc = BehavioralDescriptor(problem, x)
        atoms = oracles.behavioral_support(problem, x)
        weights = np.array([w for w, _ in atoms])
        ys = np.array([y for _, y in atoms])
        subsets = [
            subset
            for size in (1, 2, 3)
            for subset in itertools.combinations(range(problem.n_terminals), size)
        ]
        formulas = desc.monomial_expectation(MonomialTable(subsets))
        for formula, subset in zip(formulas, subsets, strict=True):
            brute = float(weights @ ys[:, subset].prod(axis=1))
            worst = max(worst, abs(formula - brute))
            monomials += 1
    ok = worst <= 1e-12
    report(
        6,
        ok,
        f"{monomials} monomials across {len(problems)} problems, "
        f"max |formula - enumeration| = {worst:.1e}",
    )


def test_criterion_07_mediator_machinery():
    """Dual pairing, follow-the-mediator, the two-mediator table, decay."""
    rng = np.random.default_rng(7)
    two_stage = two_stage_problem()
    problems = [two_stage] + [hypercube_problem(n) for n in (1, 2, 3)]
    while len(problems) < 7:
        p = random_problem(rng)
        if p.count_pure_strategies() <= 256 and oracles.dual_problem(p).count_pure_strategies() <= 256:
            problems.append(p)
    pairs = 0
    for p in problems:
        xs = p.enumerate_pure_strategies()
        ys = oracles.dual_problem(p).enumerate_pure_strategies()
        pairings = np.asarray(xs) @ np.asarray(ys).T
        assert np.array_equal(pairings, np.ones_like(pairings)), p.name
        pairs += pairings.size

    for p in (two_stage, hypercube_problem(2), random_problem(rng)):
        dag = interleave(p, 1)
        q = forward_flow(dag, follow_identity_policy(dag)).terminal_vector()
        for y in p.enumerate_pure_strategies():
            assert np.allclose(evaluate_deviation(dag, q, y), y, atol=1e-12)

    phi = counterexample_deviation()
    q2 = realize_state_policy(interleave(two_stage, 2), TWO_MEDIATOR_POLICY)
    dag2 = interleave(two_stage, 2)
    for y in two_stage.enumerate_pure_strategies():
        assert np.allclose(evaluate_deviation(dag2, q2, y), oracles.eval_point(phi, y), atol=1e-12)

    res = efg_self_play(
        skew_game(), ["med:1", "med:1"], rounds=4000, L=50, checkpoints=(1000,),
        record_profile=False,
    )
    ratios = []
    for player in range(2):
        early = res.checkpoints[1000][player].phi_regret
        late = res.checkpoints[4000][player].phi_regret
        ratios.append(late / early)
        assert late <= 0.6 * early, (player, early, late)
    report(
        7,
        True,
        f"{pairs} dual pairings == 1 on {len(problems)} problems, "
        "follow-the-mediator == identity, two-mediator table == quadratic map, "
        f"self-play regret ratios T=4000/T=1000: "
        f"{ratios[0]:.3f}/{ratios[1]:.3f} <= 0.6",
    )


def test_criterion_08_identity_extension_degree():
    """Extended identity on binarized problems: low degree, exact on pure."""
    rng = np.random.default_rng(8)
    cases = [two_stage_problem()]
    while len(cases) < 4:
        p = random_problem(rng)
        if any(len(p.children[j]) > 2 for j in range(p.n_nodes) if p.kind[j] == "D"):
            cases.append(p)
    degrees = []
    for problem in cases:
        binary, _term_map, _log = problem.binarize()
        f = extend_identity(binary)
        assert f.degree <= binary.depth, (problem.name, f.degree, binary.depth)
        degrees.append((f.degree, binary.depth))
        for y in binary.enumerate_pure_strategies():
            assert np.allclose(oracles.eval_point(f, y), y, atol=1e-12)
    report(
        8,
        True,
        "identity extension exact on all pure strategies, degree/depth: "
        + " ".join(f"{d}/{dep}" for d, dep in degrees),
    )


def test_criterion_09_min_gate_gadget():
    """|gadget - min(1, t1+t2)| <= eps on a 100x100 grid."""
    worsts = {}
    for eps in (0.1, 0.01):
        worst = 0.0
        for i in range(100):
            for j in range(100):
                t1, t2 = i / 99, j / 99
                got = gadget_min_sum(t1, t2, eps)
                worst = max(worst, abs(got - min(1.0, t1 + t2)))
        worsts[eps] = worst
        assert worst <= eps, (eps, worst)
    report(
        9,
        True,
        f"grid errors {worsts[0.1]:.6f} <= 0.1 and {worsts[0.01]:.6f} <= 0.01",
    )


def test_criterion_10_quadratic_is_not_a_low_degree_mixture():
    """No mixture of degree-<=2 Boolean functions matches the quadratic."""
    t0 = time.monotonic()
    funcs = all_low_degree_boolean_functions(4, 2)
    points = list(itertools.product((0, 1), repeat=4))
    G = np.array([
        [
            float(sum(c * np.prod([pt[i] for i in mono]) for c, mono in terms))
            for terms in funcs
        ]
        for pt in points
    ])
    target = np.array([
        pt[0] - pt[0] * pt[1] - 0.5 * pt[0] * pt[2]
        + 0.5 * pt[1] * pt[2] + 0.5 * pt[2] * pt[3]
        for pt in points
    ])
    assert np.all(target >= 0.0) and np.all(target <= 1.0)  # non-vacuous

    def solve(b):
        return scipy.optimize.linprog(
            c=np.zeros(G.shape[1]),
            A_eq=np.vstack([G, np.ones(G.shape[1])]),
            b_eq=np.append(b, 1.0),
            bounds=(0, None),
            method="highs",
        )

    res = solve(target)
    assert res.status == 2, res  # infeasible: no convex combination works

    # positive control: a mixture of two enumerated functions is found
    control = solve(0.25 * G[:, 3] + 0.75 * G[:, 100])
    assert control.status == 0 and control.success, control

    elapsed = time.monotonic() - t0
    ok = elapsed < 600.0
    report(
        10,
        ok,
        f"LP over {len(funcs)} degree-<=2 Boolean functions on 16 points: "
        f"target infeasible, control mixture feasible, {elapsed:.1f}s",
    )
