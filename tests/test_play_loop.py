"""The play loop's per-round kernels against the forms they replaced, kept
verbatim in ``tests/oracles.py``: ``CfrLearner.policy`` (``cfr_policy``),
``DecisionProblem.in_polytope``, ``tfsdp.tree_values`` and
``PolynomialDeviation._collect`` (``collect_padded``), each bit for bit; the
start point's monomial expectations, compiled once per table; and whole
fixed points against ``oracles.expected_fixed_point_loop``, on ``med:0-2``
DAGs of trees and ``dt:0-2`` DAGs of cubes, with the behavioral and the
peeling map, a given start, stalled and full runs and invalid deviations."""

import numpy as np
import pytest

import oracles
from conftest import TWO_STAGE_TEXT, random_problem
from phiregret import (
    CfrLearner,
    FixedPointConfig,
    PolynomialDeviation,
    SupportMix,
    build_dt_problem,
    expected_fixed_point,
    forward_flow,
    hypercube_problem,
    interleave,
    parse_problem,
    random_low_degree_deviation,
)
from phiregret.dags import deviation_polynomial, join
from phiregret.errors import InvalidDeviationError
from phiregret.maps import MonomialTable, caratheodory, monomial_expectation_beta
from phiregret.tfsdp import CODE, DECISION, tree_values


def wide_problem():
    """An observation root over decision points of 2 to 12 actions, one of
    which holds a further observation point: rows of fewer and of 8 or more
    children."""
    lines = ["tfsdp wide", "r O - -"]
    for j, width in enumerate((2, 3, 7, 8, 9)):
        lines.append(f"d{j} D r {j}")
        lines += [f"t{j}_{a} T d{j} {a}" for a in range(width)]
    lines += ["d5 D r 5", *[f"t5_{a} T d5 {a}" for a in range(11)], "o5 O d5 last",
              "e5 D o5 -", "e5a T e5 a", "e5b T e5 b"]
    return parse_problem("\n".join(lines))


def _problems():
    rng = np.random.default_rng(2828)
    problems = {"two_stage": parse_problem(TWO_STAGE_TEXT), "wide": wide_problem(),
                "simplex3": parse_problem("tfsdp simplex3\nr D - -\na T r x\nb T r y\nc T r z"),
                "no_decision": parse_problem("tfsdp no_decision\nr O - -\na T r x\nb T r y")}
    problems.update({f"cube{n}": hypercube_problem(n) for n in (1, 2, 3)})
    problems.update({f"random{i}": random_problem(rng, max_pure=16) for i in range(4)})
    return problems


PROBLEMS = _problems()


def _dags():
    dags = {}
    for name, problem in PROBLEMS.items():
        for k in range(2 if name == "wide" else 3):
            dags[f"{name} med:{k}"] = interleave(problem, k)
    for n in (1, 2, 3):
        for k in range(3):
            dags[f"cube{n} dt:{k}"] = build_dt_problem(n, k)
    return dags


DAGS = _dags()
FIXED_POINT_DAGS = [n for n in DAGS if not n.startswith(("wide", "simplex3", "no_decision"))]


def reduced_strategies(dag, rng):
    """Terminal masses of two interior reduced strategies and one pure one."""
    g = dag.graph
    shares = []
    for _ in range(2):
        raw = rng.random(g.n_edges) + 0.1
        total = np.bincount(g.src, raw, minlength=g.n)
        shares.append(np.where(g.decision_edge, raw / total[g.src], 1.0))
    pick = np.zeros(g.n_edges)
    for s in np.flatnonzero(g.code == CODE[DECISION]):
        pick[g.ptr[s] + rng.integers(g.ptr[s + 1] - g.ptr[s])] = 1.0
    shares.append(np.where(g.decision_edge, pick, 1.0))
    return [forward_flow(dag, share).terminal_vector() for share in shares]


@pytest.mark.parametrize("name", list(DAGS) + ["joined"])
def test_policy_matches_the_former_masks(name):
    dag = join([DAGS["cube3 med:2"], DAGS["wide med:1"]])[0] if name == "joined" else DAGS[name]
    learner = CfrLearner(dag)
    rng = np.random.default_rng(sorted(DAGS).index(name) if name in DAGS else 99)
    assert learner.policy().tobytes() == oracles.cfr_policy(learner).tobytes()
    for _ in range(3):
        # regrets over many scales, a third of them 0, so some states total 0
        raw = rng.random(dag.graph.n_edges) * 10.0 ** rng.integers(-12, 12, dag.graph.n_edges)
        learner.regrets = np.where(rng.random(dag.graph.n_edges) < 0.3, 0.0, raw)
        assert learner.policy().tobytes() == oracles.cfr_policy(learner).tobytes()
    learner.regrets = np.zeros(dag.graph.n_edges)
    for _ in range(5):
        learner.observe(rng.uniform(-1.0, 1.0, dag.n_terminal_states))
        assert learner.share.tobytes() == oracles.cfr_policy(learner).tobytes()


def _probe_points(problem, rng):
    """Points in the polytope, and points breaking each flow rule, each
    coordinate NaN or infinite in turn."""
    x = problem.random_point(rng)
    points = [problem.start, x, *problem.enumerate_pure_strategies()[:6]]
    points += [x * 1.5, x - 1e-8, x + 1e-10]
    for z in range(problem.n_terminals):
        for bad in (np.nan, np.inf, -np.inf, -1e-3, 1e-3):
            y = x.copy()
            y[z] = bad
            points.append(y)
    return points


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_in_polytope_matches_the_former_test(name):
    problem = PROBLEMS[name]
    rng = np.random.default_rng(len(name))
    outcomes = set()
    with np.errstate(invalid="ignore"):  # both forms subtract inf from inf
        for x in _probe_points(problem, rng):
            vals = problem.node_values(x)
            for tol in (0.0, 1e-9, 1e-2):
                got = problem.in_polytope(x, vals, tol)
                assert type(got) is bool
                assert got == oracles.in_polytope(problem, x, vals, tol)
                outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_tree_values_match_the_ones_dot(name):
    problem = PROBLEMS[name]
    rng = np.random.default_rng(len(name) + 1)
    for _ in range(20):
        n = problem.n_terminals
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 9, n)
        got, want = tree_values(problem.graph, x), oracles.tree_values(problem.graph, x)
        assert got.tobytes() == want.tobytes()
        assert problem.node_values(x).tobytes() == want.tobytes()


def test_the_wide_problem_sums_rows_both_ways():
    widths = {children.shape[1] for _, children, ones in PROBLEMS["wide"].graph.sum_pass
              if children.ndim > 1 and ones is None}
    dots = {ones.shape[1] for _, _, ones in PROBLEMS["wide"].graph.sum_pass if ones is not None}
    assert widths == {2, 3, 7} and dots == {8, 9, 12}


def _deviations(problem, rng):
    """Deviations with constant terms, without, and of constants alone."""
    n = problem.n_terminals
    devs = [random_low_degree_deviation(problem, rng), PolynomialDeviation.identity(n),
            PolynomialDeviation.constant(n, problem.random_point(rng)),
            PolynomialDeviation(n, [[] for _ in range(n)])]
    assert devs[0].row.max() == devs[0].table.n  # a constant term
    return devs


@pytest.mark.parametrize("name", [n for n in DAGS if "med:2" in n or "dt" in n])
def test_collect_matches_the_padded_copy(name):
    dag = DAGS[name]
    problem = dag.base
    rng = np.random.default_rng(sorted(DAGS).index(name))
    devs = [deviation_polynomial(dag, q) for q in reduced_strategies(dag, rng)]
    if name.endswith(("med:2", "dt:1")):
        devs += _deviations(problem, rng)
    for dev in devs:
        for lead in ((), (1,), (3,), (2, 2)):
            values = rng.random(lead + (dev.table.n,))
            assert dev._collect(values).tobytes() == oracles.collect_padded(dev, values).tobytes()


@pytest.mark.parametrize("name", [n for n in DAGS if n.endswith("med:1")])
def test_start_expectations_are_compiled_once_per_table(name):
    dag = DAGS[name]
    problem = dag.base
    table = dag.monomials
    got = monomial_expectation_beta(problem, problem.start_values, table)
    want = monomial_expectation_beta(problem, problem.start_values.copy(), table)
    assert got.tobytes() == want.tobytes() and not got.flags.writeable
    assert monomial_expectation_beta(problem, problem.start_values, table) is got
    # a table read against another problem compiles that problem's paths and start
    other = parse_problem(problem.dump())
    again = monomial_expectation_beta(other, other.start_values, table)
    assert again is not got and again.tobytes() == want.tobytes()
    pure = MonomialTable([[z] for z in range(problem.n_terminals)])
    vertex = problem.enumerate_pure_strategies()[0]
    assert (monomial_expectation_beta(problem, problem.node_values(vertex), pure) == vertex).all()


def same_fixed_point(got, want):
    assert got.stalled == want.stalled and got.L == want.L
    assert len(got.iterates) == len(want.iterates)
    for a, b in zip(got.iterates, want.iterates):
        assert a.tobytes() == b.tobytes()
    assert got.error_vector.tobytes() == want.error_vector.tobytes()
    assert got.pi.counts.tolist() == [len(want.pi.components)]
    for a, (wb, b) in zip(got.pi.components, want.pi.components, strict=True):
        assert 1.0 / got.pi.counts[0] == wb and type(a) is type(b)
        if isinstance(a, SupportMix):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.matrix.tobytes() == b.matrix.tobytes()
        else:
            assert a.base.tobytes() == b.base.tobytes()
            assert a.vals.tobytes() == b.vals.tobytes()
    assert got.pi.mean()[0].tobytes() == want.pi.mean().tobytes()


@pytest.mark.parametrize("delta", ["beta", "cara"])
@pytest.mark.parametrize("name", FIXED_POINT_DAGS)
def test_fixed_point_matches_the_former_loop(name, delta):
    dag = DAGS[name]
    problem = dag.base
    rng = np.random.default_rng([sorted(DAGS).index(name), delta == "cara"])
    vertex = caratheodory(problem, problem.random_point(rng)).matrix[0]
    phis = [deviation_polynomial(dag, q) for q in reduced_strategies(dag, rng)]
    if name.endswith("med:1"):
        phis += _deviations(problem, rng)[:3]
    stalled = set()
    for phi in phis:
        for L in (2, 50):
            for init in (None, vertex):
                cfg = FixedPointConfig(L=L, delta=delta, init=init)
                got = expected_fixed_point(problem, phi, cfg)
                same_fixed_point(got, oracles.expected_fixed_point_loop(problem, phi, cfg))
                stalled.add(got.stalled)
    # a degree-0 deviation is constant, so its iterates stop moving at once
    assert stalled == ({True} if name.endswith(":0") else {True, False})


@pytest.mark.parametrize("name", ["cube2 med:1", "cube3 dt:1", "two_stage med:2"])
def test_an_invalid_deviation_fails_as_the_former_loop(name):
    dag = DAGS[name]
    problem = dag.base
    n = problem.n_terminals
    q = reduced_strategies(dag, np.random.default_rng(7))[0]
    valid = deviation_polynomial(dag, q)
    scaled = PolynomialDeviation.from_arrays(n, n, valid.table, 1.5 * valid.coef, valid.row,
                                             valid.out)
    coef = valid.coef.copy()
    coef[0] = np.nan
    nan = PolynomialDeviation.from_arrays(n, n, valid.table, coef, valid.row, valid.out)
    negative = PolynomialDeviation.constant(n, -problem.start)
    for phi in (scaled, nan, negative):
        for delta in ("beta", "cara"):
            cfg = FixedPointConfig(L=10, delta=delta)
            with pytest.raises(InvalidDeviationError) as want:
                oracles.expected_fixed_point_loop(problem, phi, cfg)
            with pytest.raises(InvalidDeviationError) as got:
                expected_fixed_point(problem, phi, cfg)
            assert str(got.value) == str(want.value)
