"""The level-at-a-time query-tree builder against the per-state recursion it
replaced (``oracles.dt_problem_recursive``): same compiled graph, terminal
outputs and monomial table, exactly, and bit-identical self-play on the
recursion's own preorder DAG."""

import tracemalloc

import numpy as np
import pytest

import oracles
from phiregret import DecisionDAG, EFGame, build_dt_problem, efg_self_play, hypercube_problem
from phiregret.efg import phi_equilibrium_gap
from phiregret.errors import CapacityError, StructureError
from phiregret.tfsdp import Graph

CASES = [(n, k, d) for n in range(1, 7) for k in range(4) for d in (False, True)]


@pytest.mark.parametrize(
    "n_bits,k,distinct", CASES, ids=[f"cube{n}-k{k}-{'d' if d else 'a'}" for n, k, d in CASES]
)
def test_builder_matches_the_recursion(n_bits, k, distinct):
    dag = build_dt_problem(n_bits, k, distinct=distinct)
    ref = oracles.dt_problem_recursive(n_bits, k, distinct=distinct)
    g = dag.graph
    for field in ("code", "ptr", "src", "dst", "level"):
        assert np.array_equal(getattr(g, field), getattr(ref, field)), field
    assert np.array_equal(dag.terminal_out, ref.terminal_out)
    assert np.array_equal(dag.monomials.terms, ref.terms)
    assert dag.monomials.terms.shape == ref.terms.shape
    assert np.array_equal(dag.mono_row, ref.mono_row)


@pytest.mark.parametrize("n_bits,k,distinct", [(2, 2, False), (3, 2, True), (4, 3, False)])
def test_cap_rejects_what_the_recursion_rejects(n_bits, k, distinct):
    n_states = build_dt_problem(n_bits, k, distinct=distinct).n_states
    assert build_dt_problem(n_bits, k, distinct=distinct, cap=n_states).n_states == n_states
    for build in (build_dt_problem, oracles.dt_problem_recursive):
        with pytest.raises(CapacityError, match=f"query tree exceeds {n_states - 1} states"):
            build(n_bits, k, distinct=distinct, cap=n_states - 1)


def test_bad_bits_raise_as_the_recursion_did():
    messages = []
    for build in (build_dt_problem, oracles.dt_problem_recursive):
        with pytest.raises(StructureError) as info:
            build(0, 1)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("k", [-1, 1.5, "1"])
def test_k_must_be_a_nonnegative_integer(k):
    # the message of ``interleave``; the recursion's for -1 named no value
    with pytest.raises(ValueError, match=f"^k must be a nonnegative integer, got {k!r}$"):
        build_dt_problem(3, k)


def test_an_integral_k_is_cast_to_int():
    assert type(build_dt_problem(2, np.int64(1)).k) is int


def test_over_cap_tree_raises_before_building():
    # the recursion built 200 000 states before raising
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build_dt_problem(20, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_huge_depth_raises_at_the_cap():
    # the recursion ran into Python's recursion limit first
    with pytest.raises(CapacityError, match="query tree exceeds 200000 states"):
        build_dt_problem(2, 10**9)


def preorder_dag(n_bits, k, distinct):
    """The DAG built from the recursion's own state order, unsorted."""
    ref = oracles.dt_problem_recursive(n_bits, k, distinct=distinct)
    raw = ref.preorder
    dag = DecisionDAG("query-tree", ref.base, Graph(*raw.graph), raw.terminal_out, raw.terms)
    dag.k, dag.n_bits, dag.distinct = k, n_bits, distinct
    return dag


@pytest.mark.parametrize("n_bits,k,distinct", [(3, 2, False), (3, 2, True), (2, 3, False)])
def test_self_play_is_bit_identical_on_the_preorder_dag(n_bits, k, distinct):
    rng = np.random.default_rng([83, n_bits, k, distinct])
    cube = hypercube_problem(n_bits)
    payoffs = rng.uniform(-1, 1, size=(2, cube.n_terminals, cube.n_terminals))
    game = EFGame([cube, hypercube_problem(n_bits)], payoffs, normalize=True)
    runs = []
    for build in (build_dt_problem, preorder_dag):
        dags = [build(n_bits, k, distinct) for _ in range(2)]
        res = efg_self_play(game, dags, rounds=24, L=10, checkpoints=(8, 16))
        runs.append((
            [res.run_for(i).records for i in range(2)],
            [phi_equilibrium_gap(res.profile, game, i, dags[i]) for i in range(2)],
            res.profile.export_csv(),
        ))
    (records, gaps, csv), (want_records, want_gaps, want_csv) = runs
    assert len(records[0]) == 3
    assert records == want_records
    assert gaps == want_gaps
    assert csv == want_csv
