import numpy as np
import pytest

from phiregret import PolynomialDeviation, hypercube_problem, parse_problem

TWO_STAGE_TEXT = """tfsdp two_stage
0 D - -
1 T 0 x1
2 O 0 go
3 D 2 left
4 D 2 right
5 T 3 x2
6 T 3 x3
7 T 4 x4
8 T 4 x5"""


@pytest.fixture
def two_stage():
    return parse_problem(TWO_STAGE_TEXT)


@pytest.fixture
def two_stage_text():
    return TWO_STAGE_TEXT


@pytest.fixture
def hypercube2():
    return hypercube_problem(2)


@pytest.fixture
def hypercube3():
    return hypercube_problem(3)


def counterexample_deviation():
    """Quadratic map on the two-stage problem that sends every pure strategy
    into the polytope but leaves it when evaluated naively at mixed points:
    (x1 + x3, x2*x4, x2*x5, x2, 0) in terminal order."""
    return PolynomialDeviation(5, [
        [(1.0, (0,)), (1.0, (2,))],
        [(1.0, (1, 3))],
        [(1.0, (1, 4))],
        [(1.0, (1,))],
        [],
    ])


# Deterministic interleaving policy over base two-stage nodes (BFS indices)
# and two mediator copies. Keys are (base, mediator 1, mediator 2) states,
# values pick which component advances to which node; unlisted decision
# states take their first edge. Realizes the quadratic counterexample map.
TWO_MEDIATOR_POLICY = {
    (0, 2, 2): (1, 3),
    (0, 5, 2): (0, 2),
    (0, 6, 2): (0, 1),
    (3, 5, 2): (2, 4),
    (4, 5, 2): (0, 7),
    (3, 5, 7): (0, 5),
    (3, 5, 8): (0, 6),
    (7, 5, 2): (2, 3),
    (1, 6, 2): (2, 3),
    (0, 1, 1): (0, 1),
}


def realize_state_policy(dag, table):
    """Reduced strategy of a per-state move table (default: first edge)."""
    import oracles
    from phiregret.dags import forward_flow

    lists = oracles.dag_lists(dag)
    choices = {}
    for s in lists.decision_states:
        target = table.get(tuple(lists.states[s]))
        if target is None:
            continue
        (edge,) = [
            e for e, move in enumerate(lists.edge_moves[s]) if move == (target,)
        ]
        choices[s] = edge
    flow = forward_flow(dag, oracles.policy_from_choices(dag, choices, default=0))
    oracles.validate_flow(flow)
    return flow.terminal_vector()


def random_problem(rng, max_pure=64, max_depth=3):
    """Small random alternating tree, by recursive construction."""
    counter = [0]
    rows = []

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def grow(parent, label, kind, depth):
        node = fresh(kind.lower())
        rows.append((node, kind, parent, label))
        if kind == "T":
            return
        n_children = int(rng.integers(2, 4)) if kind == "D" else int(rng.integers(1, 3))
        for i in range(n_children):
            if depth >= max_depth or rng.random() < 0.45:
                child_kind = "T"
            else:
                child_kind = "O" if kind == "D" else "D"
            grow(node, f"e{i}", child_kind, depth + 1)

    root_kind = "D" if rng.random() < 0.7 else "O"
    grow(None, None, root_kind, 0)
    lines = ["tfsdp random"]
    for node, kind, parent, label in rows:
        lines.append(f"{node} {kind} {parent if parent else '-'} {label if label else '-'}")
    problem = parse_problem("\n".join(lines))
    if problem.count_pure_strategies() > max_pure:
        return random_problem(rng, max_pure, max_depth)
    return problem


def assert_same_columns(got, want):
    """Two ``(dims, columns, rounds)`` results of the profile CSV readers are
    equal, their arrays bit for bit."""
    assert got[0] == want[0] and got[2] == want[2]
    for got_col, want_col in zip(got[1], want[1], strict=True):
        for a, b in zip(got_col, want_col, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
