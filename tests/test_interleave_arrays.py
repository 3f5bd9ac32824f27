"""The layer-at-a-time interleaving builder against the per-state BFS it
replaced (``oracles.interleave_bfs``): same states in the same order, same
compiled graph, same terminal payloads and monomial table, exactly; and the
two invariants the builder rests on."""

import numpy as np
import pytest

import oracles
from conftest import TWO_STAGE_TEXT, random_problem
from phiregret import hypercube_problem, interleave, parse_problem
from phiregret.errors import CapacityError

CASES = (
    [(f"cube{n}", k) for n in range(1, 9) for k in (0, 1, 2)]
    + [(f"cube{n}", 3) for n in range(1, 5)]
    + [("two_stage", k) for k in (0, 1, 2, 3)]
    + [(f"random{i}", k) for i in range(15) for k in (0, 1, 2)]
)


def _problem(name):
    if name.startswith("cube"):
        return hypercube_problem(int(name[4:]))
    if name == "two_stage":
        return parse_problem(TWO_STAGE_TEXT)
    return random_problem(np.random.default_rng([31, int(name[6:])]))


@pytest.mark.parametrize("name,k", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_builder_matches_the_bfs_reference(name, k):
    problem = _problem(name)
    dag, ref = interleave(problem, k), oracles.interleave_bfs(problem, k)
    g = dag.graph
    lists = oracles.dag_lists(dag)
    assert lists.states == ref.states
    for field in ("code", "ptr", "src", "dst", "level"):
        assert np.array_equal(getattr(g, field), getattr(ref, field)), field
    assert np.array_equal(dag.terminal_out, ref.terminal_out)
    assert np.array_equal(dag.monomials.terms, ref.terms)
    assert dag.monomials.terms.shape == ref.terms.shape
    assert np.array_equal(dag.mono_row, ref.mono_row)
    assert lists.edge_moves == ref.edge_moves
    assert lists.terminal_mono == ref.terminal_mono
    assert lists.kind == ref.kind
    assert lists.edges == ref.edges


def _bfs_distances(g):
    dist = np.full(g.n, -1)
    frontier, d = np.array([0]), 0
    while frontier.size:
        dist[frontier] = d
        reached = np.unique(g.dst[np.isin(g.src, frontier)])
        frontier, d = reached[dist[reached] < 0], d + 1
    return dist


@pytest.mark.parametrize("name,k", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_only_the_root_observes_twice_and_edges_join_consecutive_layers(name, k):
    problem = _problem(name)
    dag = interleave(problem, k)
    dual = {"D": "O", "O": "D", "T": "T"}
    kinds = np.array([problem.kind, [dual[x] for x in problem.kind]])
    observing = kinds[np.minimum(np.arange(k + 1), 1), dag.nodes] == "O"
    assert (observing[1:].sum(axis=1) <= 1).all()
    g = dag.graph
    dist = _bfs_distances(g)
    assert (dist >= 0).all()
    assert np.array_equal(dist[g.dst], dist[g.src] + 1)


@pytest.mark.parametrize("k", [1.5, "1"])
def test_k_must_be_a_nonnegative_integer(k):
    with pytest.raises(ValueError, match=f"k must be a nonnegative integer, got {k!r}"):
        interleave(hypercube_problem(2), k)


@pytest.mark.parametrize("k", (2, 3))
def test_cap_allows_exactly_cap_states(k):
    problem = hypercube_problem(3)
    n_states = interleave(problem, k).n_states
    assert interleave(problem, k, cap=n_states).n_states == n_states
    with pytest.raises(CapacityError):
        interleave(problem, k, cap=n_states - 1)


def test_keys_that_overflow_int64_raise_before_building():
    # cube1 has 4 nodes, so 32 components need 4**32 = 2**64 keys
    with pytest.raises(CapacityError, match="overflow"):
        interleave(hypercube_problem(1), 31)


def test_a_numpy_integer_k_overflows_like_an_int():
    with pytest.raises(CapacityError, match="overflow"):
        interleave(hypercube_problem(1), np.int64(31))
