import gc
import re
import weakref

import numpy as np
import pytest

import oracles
from conftest import random_problem
from phiregret import (
    BehavioralDescriptor,
    DecisionProblem,
    build_dt_problem,
    hypercube_problem,
    parse_efg,
    parse_problem,
    separation_game,
)
from phiregret.errors import CapacityError, MembershipError, ParseError, StructureError
from phiregret.tfsdp import hypercube_structure, l2_diameter


def test_parse_two_stage_shape(two_stage):
    assert two_stage.n_nodes == 9
    assert two_stage.n_terminals == 5
    assert two_stage.kind[two_stage.root] == "D"
    assert two_stage.count_pure_strategies() == 5
    assert two_stage.depth == 2


def test_terminal_ordering_is_bfs(two_stage):
    terminal_ids = [two_stage.node_ids[n] for n in two_stage.terminals]
    assert terminal_ids == ["1", "5", "6", "7", "8"]


def test_enumeration_matches_oracle(two_stage):
    ours = {tuple(map(int, y)) for y in two_stage.enumerate_pure_strategies()}
    ref = {tuple(map(int, y)) for y in oracles.enumerate_pure(two_stage)}
    assert ours == ref
    assert len(ours) == 5


def test_pure_strategies_are_members(two_stage):
    for y in two_stage.enumerate_pure_strategies():
        assert two_stage.membership(y)


def test_membership_rejects_bad_points(two_stage):
    assert not two_stage.membership(np.zeros(5))
    assert not two_stage.membership(np.array([0.5, 0.5, 0.0, 0.5, 0.5]))
    assert not two_stage.membership(np.array([1.5, -0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(MembershipError, match="root value"):
        two_stage.require_membership(np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_membership_rejects_values_that_are_not_finite(bad):
    cube = hypercube_problem(1)  # terminals b0:0 and b0:1
    for x, z in (([bad, bad], 0), ([1.0, bad], 1), ([bad, 0.0], 0)):
        x = np.array(x)
        assert not cube.in_polytope(x, cube.node_values(x))
        assert not cube.membership(x)
        message = f"terminal 'b0:{z}': {x[z]} is not a finite number"
        assert cube.membership_violation(x) == message
        with pytest.raises(MembershipError, match=f"^probe: {re.escape(message)}$"):
            cube.require_membership(x, context="probe")


def test_membership_agrees_with_oracle(two_stage):
    rng = np.random.default_rng(0)
    for _ in range(40):
        x = rng.uniform(-0.1, 1.0, size=5)
        assert two_stage.membership(x) == oracles.membership(two_stage, x)
    for _ in range(10):
        x = two_stage.random_point(rng)
        assert two_stage.membership(x)
        assert oracles.membership(two_stage, x)


def test_node_values_match_oracle(two_stage):
    rng = np.random.default_rng(1)
    x = two_stage.random_point(rng)
    vals = two_stage.node_values(x)
    for node in range(two_stage.n_nodes):
        assert vals[node] == pytest.approx(
            oracles.node_value(two_stage, x, node), abs=1e-12
        )


def test_uniform_point_membership(two_stage, hypercube3):
    for p in (two_stage, hypercube3):
        p.require_membership(p.uniform_point())


def test_dump_parse_round_trip(two_stage):
    again = parse_problem(two_stage.dump())
    assert again.dump() == two_stage.dump()
    assert again.n_terminals == two_stage.n_terminals


def test_best_pure_response_matches_oracle(two_stage):
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.normal(size=5)
        val, arg = oracles.graph_pure_response(two_stage, u)
        assert val == pytest.approx(oracles.best_response_value(two_stage, u))
        assert float(arg @ u) == pytest.approx(val)


def test_hypercube_problem_counts():
    for k in (1, 2, 3):
        p = hypercube_problem(k)
        assert p.n_terminals == 2 * k
        assert p.count_pure_strategies() == 2**k
        pairs = hypercube_structure(p)
        assert pairs is not None and len(pairs) == k


@pytest.mark.parametrize("build,n_bits,error,message", [
    (hypercube_problem, 2.5, ValueError, "n_bits must be an integer, got 2.5"),
    (hypercube_problem, "3", ValueError, "n_bits must be an integer, got '3'"),
    (lambda n: build_dt_problem(n, 1), 2.5, ValueError, "n_bits must be an integer, got 2.5"),
    (separation_game, 1.5, ValueError, "n_bits must be an integer, got 1.5"),
    (hypercube_problem, 0, StructureError, "need at least one bit"),
], ids=["float", "str", "query-tree", "separation", "zero"])
def test_hypercube_bits_must_be_a_positive_integer(build, n_bits, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(n_bits)


def test_two_stage_is_not_a_hypercube(two_stage):
    assert hypercube_structure(two_stage) is None


def test_bits_to_point_round_trip():
    p = hypercube_problem(3)
    pairs = hypercube_structure(p)
    for bits in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
        x = oracles.bits_to_point(pairs, bits)
        p.require_membership(x)
        assert [int(x[hi]) for _, hi in pairs] == bits


def test_consecutive_decisions_get_repaired():
    p = parse_problem(
        "tfsdp chained\n"
        "a D - -\n"
        "b D a top\n"
        "t1 T b l\n"
        "t2 T b r\n"
        "t3 T a bottom"
    )
    assert p.transform_log
    assert p.count_pure_strategies() == 3
    for y in p.enumerate_pure_strategies():
        assert p.membership(y)


def test_observation_under_observation_rejected():
    with pytest.raises(ParseError, match="alternate"):
        parse_problem(
            "tfsdp bad\n"
            "a O - -\n"
            "b O a x\n"
            "t T b y"
        )


def test_small_decision_rejected():
    with pytest.raises(ParseError, match="needs at least"):
        parse_problem("tfsdp bad\na D - -\nt T a only")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_problem("not-a-problem\na D - -")
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem("tfsdp bad\na D - -\nt T a x\nt T a y")
    with pytest.raises(ParseError, match="parent"):
        parse_problem("tfsdp bad\na D - -\nt T zzz x\nu T a y")
    with pytest.raises(StructureError, match="unknown kind"):
        DecisionProblem([("a", "Q", None, None)])


def test_binarize_preserves_strategy_set():
    p = parse_problem(
        "tfsdp wide\n"
        "a D - -\n"
        "t1 T a x\n"
        "t2 T a y\n"
        "t3 T a z"
    )
    b, term_map, log = p.binarize()
    assert log  # the 3-way split is recorded
    for node in range(b.n_nodes):
        if b.kind[node] == "D":
            assert len(b.children[node]) == 2
    remap = {tuple(int(y[term_map[z]]) for z in range(p.n_terminals))
             for y in b.enumerate_pure_strategies()}
    ref = {tuple(map(int, y)) for y in p.enumerate_pure_strategies()}
    assert remap == ref


def test_random_problems_are_coherent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_problem(rng)
        pure = p.enumerate_pure_strategies()
        assert len(pure) == p.count_pure_strategies() <= 64
        for y in pure:
            assert p.membership(y)
        x = p.random_point(rng)
        p.require_membership(x)


def test_l2_diameter_simplex():
    pts = np.eye(3)
    assert l2_diameter(pts) == pytest.approx(np.sqrt(2.0))


def test_tree_passes_match_oracles_on_random_trees():
    rng = np.random.default_rng(26)
    for _ in range(15):
        p = random_problem(rng)
        assert p.count_pure_strategies() == len(oracles.enumerate_pure(p))
        assert np.allclose(p.uniform_point(), oracles.uniform_point(p), rtol=0.0, atol=1e-15)
        x = p.random_point(rng)
        vals = p.node_values(x)
        for node in range(p.n_nodes):
            assert vals[node] == pytest.approx(oracles.node_value(p, x, node), abs=1e-12)
        for z in range(p.n_terminals):
            y = x.copy()
            y[z] += 0.05
            assert p.membership(y) == oracles.membership(p, y)
        for _ in range(4):
            # integer utilities make ties, which break to the first child
            for u in (rng.normal(size=p.n_terminals), rng.integers(-1, 2, p.n_terminals)):
                for maximize in (True, False):
                    val, arg = oracles.graph_pure_response(p, u, maximize)
                    ref_val, ref_arg = oracles.pure_response(p, u, maximize)
                    assert val == pytest.approx(ref_val, abs=1e-12)
                    assert np.array_equal(arg, ref_arg)
                assert oracles.graph_pure_response(p, u)[0] == pytest.approx(
                    oracles.best_response_value(p, u), abs=1e-12)
                assert oracles.graph_pure_response(p, u, False)[0] == pytest.approx(
                    oracles.worst_response_value(p, u), abs=1e-12)


def test_enumeration_rows_match_the_tuple_recursion(two_stage):
    """Row for row, the walk gives what the old tuple recursion gave."""
    rng = np.random.default_rng(71)
    problems = [hypercube_problem(n) for n in range(1, 12)] + [two_stage]
    problems += [random_problem(rng) for _ in range(40)]
    for p in problems:
        ours = p.enumerate_pure_strategies()
        ref = oracles.enumerate_pure_tuples(p)
        assert ours.dtype == ref.dtype
        assert np.array_equal(ours, ref), p


def test_enumeration_cap_is_checked_before_the_walk(two_stage):
    for p in (two_stage, hypercube_problem(6)):
        count = p.count_pure_strategies()
        assert len(p.enumerate_pure_strategies(cap=count)) == count
        message = (
            f"{count} pure strategies exceeds the cap of {count - 1}; "
            "raise the cap only for desk-scale work"
        )
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            p.enumerate_pure_strategies(cap=count - 1)


def test_a_problem_is_freed_without_the_cycle_collector_after_a_support():
    gc.disable()
    try:
        problem = hypercube_problem(3)
        assert BehavioralDescriptor(problem, problem.uniform_point()).support().n_atoms == 8
        ref = weakref.ref(problem)
        del problem
        assert ref() is None
    finally:
        gc.enable()


def test_a_trailing_comment_reads_in_both_file_formats():
    """Problem and game files share one comment rule, and an error still
    names the line's number in the file."""
    node_lines = ["r D - -  # root", "a T r x", "b T r y  # the second action"]
    problem = parse_problem("\n".join(["tfsdp p  # header", "# a full-line comment", ""]
                                      + node_lines))
    assert problem.node_ids == ["r", "a", "b"]
    game = parse_efg("\n".join(["efg g", "player 1"] + node_lines + ["player 2"]
                               + node_lines + ["payoffs", "a a 0.5  # u2 is -u1"]))
    assert [p.node_ids for p in game.problems] == [["r", "a", "b"]] * 2
    assert game.payoffs[0][0, 0] == 0.5
    with pytest.raises(ParseError, match="line 4: expected"):
        parse_problem("tfsdp p\n# note\nr D - -\na T r x extra  # comment\n")
