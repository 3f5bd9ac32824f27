"""The support walk over a stack of share arrays and the round-batched EFG
audit, pinned bit for bit (float hex) to the recursive walk and the
per-round audit they replaced, both kept in ``oracles``."""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import TWO_STAGE_TEXT, random_problem
from phiregret import (
    CorrelatedProfile,
    EFGame,
    deviation_dag,
    efg_self_play,
    hypercube_problem,
    parse_problem,
    phi_equilibrium_gap,
)
from phiregret import maps
from phiregret.errors import CapacityError
from phiregret.maps import BehavioralDescriptor, beta_support, support_blocks
from phiregret.tfsdp import CODE, DECISION


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def same_rows(matrix, rows):
    """``matrix`` is uint8 and holds exactly the 0/1 entries of ``rows``."""
    return matrix.dtype == np.uint8 and matrix.shape == rows.shape and (matrix == rows).all()


def two_cubes(n_bits):
    """A first choice between two observation points, each opening an n-bit
    hypercube, so a pure first choice leaves a whole cube unreached."""
    lines = ["tfsdp two_cubes", "r D - -"]
    for side in "ab":
        lines.append(f"{side} O r {side}")
        for j in range(n_bits):
            lines += [f"{side}{j} D {side} {j}", f"{side}{j}:0 T {side}{j} 0",
                      f"{side}{j}:1 T {side}{j} 1"]
    return parse_problem("\n".join(lines))


def problems():
    rng = np.random.default_rng(5)
    wide = [random_problem(rng) for _ in range(3)]
    return {
        "cube4": hypercube_problem(4),
        "two_stage": parse_problem(TWO_STAGE_TEXT),
        "two_cubes": two_cubes(2),
        "lone_terminal": parse_problem("tfsdp one\nr T - -"),
        **{f"random{i}": p for i, p in enumerate(wide)},
        **{f"random{i}~bin": p.binarize()[0] for i, p in enumerate(wide)},
    }


def shares(problem, rng, kinds):
    """One per-edge share array per kind: "pure" (one edge per decision
    point), "interior" (Dirichlet splits) or "sparse" (some decision edges
    at share 0, which leaves the subtrees below them unreached)."""
    g = problem.graph
    out = np.ones((len(kinds), g.n_edges))
    for row, kind in zip(out, kinds):
        for node in np.flatnonzero(g.code == CODE[DECISION]):
            lo, hi = g.ptr[node], g.ptr[node + 1]
            split = rng.dirichlet(np.ones(hi - lo))
            if kind == "pure":
                split = (np.arange(hi - lo) == rng.integers(hi - lo)).astype(float)
            elif kind == "sparse" and rng.random() < 0.6:
                split[rng.integers(hi - lo)] = 0.0
                split /= split.sum()
            row[lo:hi] = split
    return out


@pytest.mark.parametrize("name", list(problems()))
def test_a_stack_walks_as_the_recursion_walks_each_point(name):
    problem = problems()[name]
    rng = np.random.default_rng(len(name))
    stack = shares(problem, rng, ["pure", "interior", "sparse", "sparse", "interior", "pure"])
    weights, matrix = problem.pure_support(stack, 10**6)
    parts = [oracles.pure_support_recursive(problem, share, 10**6) for share in stack]
    assert hexes(weights) == hexes(np.concatenate([w for w, _ in parts]))
    assert same_rows(matrix, np.concatenate([m for _, m in parts]))
    assert problem.support_counts(stack)[0].tolist() == [len(w) for w, _ in parts]
    for share, (w, m) in zip(stack, parts):
        one_w, one_m = problem.pure_support(share, 10**6)
        assert hexes(one_w) == hexes(w) and same_rows(one_m, m)
    enum = oracles.pure_support_recursive(problem, problem.graph.uniform_share, 10**6)[1]
    assert problem.enumerate_pure_strategies().tobytes() == enum.tobytes()


def test_atoms_of_more_than_64_terminals_take_several_words():
    cube = hypercube_problem(33)  # terminals 0..65; 2j + 1 sets bit j
    g = cube.graph
    rng = np.random.default_rng(4)
    stack = shares(cube, rng, ["pure", "pure", "pure"])
    stack[0, g.decision_edge] = np.tile([0.0, 1.0], 33)  # every bit set: terminals 63 and 65
    for node in rng.choice(np.flatnonzero(g.code == CODE[DECISION]), 5, replace=False):
        stack[2, g.ptr[node] : g.ptr[node] + 2] = rng.dirichlet([1.0, 1.0])
    weights, matrix = cube.pure_support(stack, 10**6)
    parts = [oracles.pure_support_recursive(cube, share, 10**6) for share in stack]
    assert hexes(weights) == hexes(np.concatenate([w for w, _ in parts]))
    assert same_rows(matrix, np.concatenate([m for _, m in parts]))
    assert matrix.shape == (1 + 1 + 32, 66) and matrix[0, 1::2].all()


def test_capacity_is_checked_per_point_before_anything_is_allocated():
    cube = hypercube_problem(6)
    pure, uniform = shares(cube, np.random.default_rng(1), ["pure"])[0], cube.graph.uniform_share
    assert cube.pure_support(np.array([uniform, uniform, pure]), 64)[1].shape == (129, 12)
    for stack in ([uniform], [pure, uniform]):
        with pytest.raises(CapacityError, match="32 atoms"):
            cube.pure_support(np.array(stack), 32)
        with pytest.raises(CapacityError, match="32 atoms"):
            oracles.pure_support_recursive(cube, stack[-1], 32)
    sides = two_cubes(3)
    uniform = sides.graph.uniform_share
    assert len(sides.pure_support(uniform, 16)[0]) == 16
    with pytest.raises(CapacityError, match="15 atoms"):
        sides.pure_support(uniform, 15)
    with pytest.raises(CapacityError, match="15 atoms"):
        oracles.pure_support_recursive(sides, uniform, 15)
    # 2^20 atoms against a cap of 2^16: the count pass refuses before any row
    big = hypercube_problem(20)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="65536 atoms"):
            big.pure_support(big.graph.uniform_share, 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_a_stack_of_descriptors_expands_in_one_call(monkeypatch):
    problem = two_cubes(2)
    rng = np.random.default_rng(8)
    points = [problem.uniform_point(), problem.random_point(rng)]
    for share in shares(problem, rng, ["pure", "sparse"]):
        points.append(oracles.flow_down(problem.graph, share)[0][problem.terminals])
    descriptors = [BehavioralDescriptor(problem, x) for x in points]
    stack = beta_support(problem, np.array(points), vals=np.array([d.vals for d in descriptors]))
    beta = [d.support() for d in descriptors]
    assert hexes(stack.weights) == hexes(np.concatenate([m.weights for m in beta]))
    assert stack.matrix.tobytes() == np.concatenate([m.matrix for m in beta]).tobytes()
    # an explicit mixture between descriptors splits them into two runs
    explicit = maps.SupportMix.from_arrays([0.5, 0.5], np.eye(2, problem.n_terminals))
    comps = descriptors[:2] + [explicit] + descriptors[2:]
    singles = [c.support() for c in comps]
    calls = []
    monkeypatch.setattr(maps, "beta_support", lambda *args: calls.append(args) or beta_support(*args))
    # one block a run, then one a descriptor when a block holds a single atom
    for stack_atoms, blocks in ((maps.STACK_ATOMS, [2, 1, 2]), (1, [1, 1, 1, 1, 1])):
        monkeypatch.setattr(maps, "STACK_ATOMS", stack_atoms)
        calls.clear()
        got = list(support_blocks(comps))
        assert [len(counts) for _, _, counts in got] == blocks
        assert len(calls) == len(blocks) - 1
        weights, matrix, sizes = map(np.concatenate, zip(*got))
        assert sizes.tolist() == [m.n_atoms for m in singles]
        assert hexes(weights) == hexes(np.concatenate([m.weights for m in singles]))
        assert matrix.tobytes() == np.concatenate([m.matrix for m in singles]).tobytes()
    for x, mix in zip(points, beta):
        ref = oracles.behavioral_support(problem, x)
        assert np.array_equal(mix.matrix, np.array([y for _, y in ref]))


def small_game(rng):
    """two_stage against a 2-bit hypercube with random payoffs."""
    p1, p2 = parse_problem(TWO_STAGE_TEXT), hypercube_problem(2, "bits")
    u = [rng.uniform(-1, 1, size=(p1.n_terminals, p2.n_terminals)) for _ in range(2)]
    return EFGame([p1, p2], u, name="small", normalize=True)


def assert_audits_match(profile, game, specs):
    """The batched audit equals the per-round loop, on the profile and on
    its CSV re-import, for every player and deviation spec."""
    again = CorrelatedProfile.from_csv(profile.export_csv())
    for player in range(2):
        for spec in specs:
            dag = deviation_dag(game.problems[player], spec)
            for prof in (profile, again):
                gap = phi_equilibrium_gap(prof, game, player, dag)
                loop = oracles.phi_equilibrium_gap_loop(prof, game, player, dag)
                assert hexes([gap]) == hexes([loop])


@pytest.mark.parametrize("stack_atoms", [1, 7, maps.STACK_ATOMS])
def test_rounds_of_many_components_audit_as_the_loop(stack_atoms, monkeypatch):
    monkeypatch.setattr(maps, "STACK_ATOMS", stack_atoms)
    game = small_game(np.random.default_rng(13))
    res = efg_self_play(game, ["med:1", "med:2"], rounds=12, L=3)
    for player in range(2):  # rounds whose fixed point stalled, and rounds of L components
        counts = {len(res.profile.components(t, player)) for t in range(res.profile.rounds)}
        assert counts == {1, 3}
    sizes = set(CorrelatedProfile.from_csv(res.profile.export_csv()).columns[0][2].tolist())
    assert len(sizes) > 1  # components of different atom counts
    assert_audits_match(res.profile, game, ["external", "med:1", "med:2"])


def test_peeled_components_and_a_pinned_seat_audit_as_the_loop():
    game = small_game(np.random.default_rng(12))
    res = efg_self_play(game, ["med:1", "med:1"], rounds=8, L=4, delta="cara")
    assert isinstance(res.profile.components(0, 0)[0], maps.SupportMix)
    assert_audits_match(res.profile, game, ["external", "med:1"])
    pinned = game.problems[1].random_point(np.random.default_rng(3))
    res = efg_self_play(game, ["med:1", pinned], rounds=8, L=4)
    assert_audits_match(res.profile, game, ["external", "med:1"])


def test_only_a_problem_graph_builds_the_node_value_pass(two_stage):
    """A deviation DAG's graph carries no node-value pass, and a problem's
    node values are the per-state dots of the pass it builds."""
    assert not hasattr(deviation_dag(two_stage, "med:1").graph, "sum_pass")
    rng = np.random.default_rng(9)
    for problem in (two_stage, hypercube_problem(3), random_problem(rng).binarize()[0]):
        x = problem.random_point(rng)
        want = np.zeros(problem.n_nodes)
        for node in reversed(range(problem.n_nodes)):
            kids = list(problem.children[node])
            if problem.kind[node] == "T":
                want[node] = x[problem.terminal_index[node]]
            elif problem.kind[node] == "D":
                want[node] = np.dot(np.ones(len(kids)), want[kids])
            else:
                want[node] = want[kids[0]]
        assert problem.node_values(x).tobytes() == want.tobytes()
