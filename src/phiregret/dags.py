"""Deviation families realized as decision DAGs.

Two constructions share one container. Interleaving runs the base problem
against k mediator copies of its dual, advancing one component per move; its
reduced strategies realize degree-k polynomial deviations. The query tree
observes an output coordinate, adaptively queries up to k input bits, and
picks a final bit; its reduced strategies are the depth-k decision-tree
deviations over a hypercube problem.

Every terminal state carries an output coordinate of the base problem plus a
monomial (a set of base terminal indices). A reduced strategy q then realizes
the deviation phi_q(x)[z] = sum over terminal states t with output z of
q[t] * prod_{i in mono(t)} x[i], so evaluation, polynomial export and
utility-weight computation are the same code for both families. The
distinct monomials are compiled once into a ``maps.MonomialTable``, so each
of these is one batched table evaluation and one gather.

Both builders hand the DAG the level each state sits at (summed component
depth, or history depth), and the DAG compiles to the same ``tfsdp.Graph`` a
tree does; ``interleave(problem, 0)`` compiles to the tree's own arrays. A
policy is a per-edge share array over that graph (1 on observation edges, a
distribution over each decision state's edges), and flows, best responses
and pure-strategy counts are the graph passes of ``tfsdp``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, StructureError
from .maps import MonomialTable
from .polynomials import PolynomialDeviation
from .tfsdp import (
    CODE,
    DECISION,
    OBSERVATION,
    TERMINAL,
    DecisionProblem,
    Graph,
    NodeRow,
    back_up,
    count_pure,
    flow_down,
    hypercube_problem,
)

STATE_CAP = 200_000


def dual_problem(problem):
    """The same tree with decision and observation points swapped.

    Node ids, order and terminals are preserved, so the dual's strategy
    vectors pair coordinate-for-coordinate with the original's and applying
    the construction twice restores the original node-for-node. Observation
    points with a single branch become single-action decision points, which
    the constructor allows here.
    """
    swap = {DECISION: OBSERVATION, OBSERVATION: DECISION, TERMINAL: TERMINAL}
    rows = [
        NodeRow(
            problem.node_ids[i],
            swap[problem.kind[i]],
            None if problem.parent[i] < 0 else problem.node_ids[problem.parent[i]],
            problem.edge_label[i],
        )
        for i in range(problem.n_nodes)
    ]
    name = (
        problem.name[:-5]
        if problem.name.endswith("~dual")
        else problem.name + "~dual"
    )
    return DecisionProblem(rows, name=name, min_decision_branching=1)


class DecisionDAG:
    """Acyclic decision/observation/terminal state graph with shared states.

    States are stored in topological order (root first). ``edges[s]`` lists
    child state indices and ``edge_moves[s]`` the per-edge advance labels.
    ``terminal_out``/``terminal_mono`` give each terminal state's output
    coordinate and monomial over the base problem's terminals, ``monomials``
    the table of distinct monomials and ``mono_row`` each one's row. ``level``
    gives each state's level for the compiled ``graph`` (by default its
    index).
    """

    def __init__(self, family, base, states, kind, edges, edge_moves, payload,
                 level=None):
        self.family = family
        self.base = base
        self.states = states
        self.kind = kind
        self.edges = edges
        self.edge_moves = edge_moves
        self.n_states = len(states)
        self.root = 0
        self.topo = list(range(self.n_states))
        self.graph = Graph(
            kind, edges, range(self.n_states) if level is None else level
        )
        self.terminal_states = self.graph.terminals
        self.n_terminal_states = len(self.terminal_states)
        self.terminal_slot = {int(s): i for i, s in enumerate(self.terminal_states)}
        self.terminal_out = np.array(
            [payload[int(s)][0] for s in self.terminal_states], dtype=int
        )
        self.terminal_mono = [payload[int(s)][1] for s in self.terminal_states]
        row = {m: i for i, m in enumerate(dict.fromkeys(self.terminal_mono))}
        self.monomials = MonomialTable(list(row))
        self.mono_row = np.array([row[m] for m in self.terminal_mono], dtype=np.intp)
        self.decision_states = np.flatnonzero(
            self.graph.code == CODE[DECISION]
        ).tolist()

    def count_pure_reduced(self):
        return count_pure(self.graph)

    def dump(self):
        lines = [f"dag {self.family} states={self.n_states}"]
        for s in range(self.n_states):
            edge_txt = " ".join(
                f"{c}:{move}" for c, move in zip(self.edges[s], self.edge_moves[s])
            )
            lines.append(f"{s} {self.kind[s]} {self.states[s]} {edge_txt}".rstrip())
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"DecisionDAG({self.family!r}, states={self.n_states}, "
            f"terminals={self.n_terminal_states})"
        )


def _sorted_dag(family, base, raw_states, raw_kind, raw_edges, raw_moves,
                payload_by_tmp, level):
    order = sorted(range(len(raw_states)), key=lambda i: (level[i], i))
    rank = {tmp: pos for pos, tmp in enumerate(order)}
    states = [raw_states[i] for i in order]
    kind = [raw_kind[i] for i in order]
    edges = [tuple(rank[c] for c in raw_edges[i]) for i in order]
    moves = [tuple(raw_moves[i]) for i in order]
    payload = {rank[tmp]: pl for tmp, pl in payload_by_tmp.items()}
    return DecisionDAG(family, base, states, kind, edges, moves, payload,
                       [level[i] for i in order])


def interleave(problem, k, cap=STATE_CAP):
    """Product DAG of the problem and k mediator copies of its dual.

    A state is one node per component. It is terminal when every component
    is; it is an observation state when any component sits at an observation
    point of its own tree, and then every such component advances at once,
    one child combination per edge (several can be at observation points only
    in the root state); otherwise the player picks a single component at a
    decision point and one of its children.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    dual = dual_problem(problem)
    components = [problem] + [dual] * k
    depth_in_tree = problem.graph.level.tolist()

    root = tuple([problem.root] * (k + 1))
    index = {root: 0}
    raw_states = [root]
    raw_kind = []
    raw_edges = []
    raw_moves = []
    payload = {}
    queue = collections.deque([0])
    while queue:
        idx = queue.popleft()
        state = raw_states[idx]
        kinds = [components[i].kind[state[i]] for i in range(k + 1)]
        while len(raw_kind) <= idx:
            raw_kind.append(None)
            raw_edges.append(())
            raw_moves.append(())
        if all(kd == TERMINAL for kd in kinds):
            raw_kind[idx] = TERMINAL
            out = int(problem.terminal_index[state[0]])
            mono = frozenset(
                int(problem.terminal_index[state[i]]) for i in range(1, k + 1)
            )
            payload[idx] = (out, mono)
            continue
        obs = [i for i, kd in enumerate(kinds) if kd == OBSERVATION]
        if obs:
            raw_kind[idx] = OBSERVATION
            moves = [()]
            for comp in obs:
                moves = [
                    move + ((comp, child),)
                    for move in moves
                    for child in components[comp].children[state[comp]]
                ]
        else:
            raw_kind[idx] = DECISION
            moves = [
                ((comp, child),)
                for comp, kd in enumerate(kinds)
                if kd == DECISION
                for child in components[comp].children[state[comp]]
            ]
        children = []
        for move in moves:
            nxt = list(state)
            for comp, child in move:
                nxt[comp] = child
            nxt = tuple(nxt)
            if nxt not in index:
                if len(raw_states) >= cap:
                    raise CapacityError(
                        f"interleaving exceeds {cap} states; reduce k or the problem"
                    )
                index[nxt] = len(raw_states)
                raw_states.append(nxt)
                queue.append(index[nxt])
            children.append(index[nxt])
        raw_edges[idx] = tuple(children)
        raw_moves[idx] = tuple(moves)

    level = [sum(depth_in_tree[n] for n in st) for st in raw_states]
    dag = _sorted_dag(
        "mediator", problem, raw_states, raw_kind, raw_edges, raw_moves, payload, level
    )
    dag.k = k
    dag.components = components
    return dag


def build_dt_problem(n_bits, k, distinct=False, cap=STATE_CAP):
    """Depth-k query-tree deviation problem over an n-bit hypercube.

    The deviator observes which output bit is being decided, adaptively
    queries up to k input bits (all of them when unconstrained; with
    ``distinct`` each query must differ from the observed index and earlier
    queries, stopping early when none remain), then commits the output bit.
    Terminal states record the full history, so without the distinctness
    constraint there are exactly n^(k+1) * 2^(k+1) of them.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    base = hypercube_problem(n_bits)
    raw_states = []
    raw_kind = []
    raw_edges = []
    raw_moves = []
    payload = {}
    level = []

    def add_state(state, kind, lvl):
        if len(raw_states) >= cap:
            raise CapacityError(f"query tree exceeds {cap} states")
        raw_states.append(state)
        raw_kind.append(kind)
        raw_edges.append(())
        raw_moves.append(())
        level.append(lvl)
        return len(raw_states) - 1

    def available_queries(j0, replies):
        if not distinct:
            return list(range(n_bits))
        used = {j0} | {j for j, _ in replies}
        return [j for j in range(n_bits) if j not in used]

    def build_branch(j0, replies, lvl):
        """Decision stage after the given replies; returns the state index."""
        queries = available_queries(j0, replies) if len(replies) < k else []
        if queries:
            idx = add_state((j0, replies, "query"), DECISION, lvl)
            children = []
            moves = []
            for j in queries:
                reply = add_state((j0, replies, ("asked", j)), OBSERVATION, lvl + 1)
                kids = []
                for a in (0, 1):
                    kids.append(build_branch(j0, replies + ((j, a),), lvl + 2))
                raw_edges[reply] = tuple(kids)
                raw_moves[reply] = (("reply", j, 0), ("reply", j, 1))
                children.append(reply)
                moves.append(("query", j))
            raw_edges[idx] = tuple(children)
            raw_moves[idx] = tuple(moves)
            return idx
        idx = add_state((j0, replies, "act"), DECISION, lvl)
        kids = []
        for a0 in (0, 1):
            t = add_state((j0, replies, ("end", a0)), TERMINAL, lvl + 1)
            payload[t] = (
                2 * j0 + a0,
                frozenset(2 * j + a for j, a in replies),
            )
            kids.append(t)
        raw_edges[idx] = tuple(kids)
        raw_moves[idx] = (("act", 0), ("act", 1))
        return idx

    root = add_state(("start",), OBSERVATION, 0)
    branches = []
    for j0 in range(n_bits):
        branches.append(build_branch(j0, (), 1))
    raw_edges[root] = tuple(branches)
    raw_moves[root] = tuple(("observe", j0) for j0 in range(n_bits))

    # The recursion appends parents before children, so the states keep their
    # creation order; the history depth is their level.
    dag = DecisionDAG(
        "query-tree", base, raw_states, raw_kind, raw_edges, raw_moves, payload,
        level,
    )
    dag.k = k
    dag.n_bits = n_bits
    dag.distinct = distinct
    return dag


@dataclass
class ReducedStrategy:
    """Flow over a decision DAG: per-state mass and per-edge mass."""

    dag: DecisionDAG
    state_mass: np.ndarray
    edge_mass: np.ndarray

    def terminal_vector(self):
        return self.state_mass[self.dag.terminal_states].copy()

    def validate(self, tol=1e-9):
        g = self.dag.graph
        mass, em = self.state_mass, self.edge_mass
        dec = g.decision_edge
        split = np.bincount(g.src[dec], em[dec], minlength=g.n)
        incoming = np.bincount(g.dst, em, minlength=g.n)
        incoming[0] = 1.0
        faults = {
            "negative edge mass": g.src[dec & (em < -tol)],
            "decision edges do not carry the state's mass": np.flatnonzero(
                (g.code == CODE[DECISION]) & (np.abs(split - mass) > tol)
            ),
            "an observation edge does not carry the state's mass":
                g.src[~dec & (np.abs(em - mass[g.src]) > tol)],
            "incoming mass differs from the stored mass (root: 1)":
                np.flatnonzero(np.abs(incoming - mass) > tol),
        }
        for fault, states in faults.items():
            if len(states):
                s = int(states[0])
                raise StructureError(f"state {s} holding {mass[s]:.12g}: {fault}")
        return self


def forward_flow(dag, policy):
    """Push unit mass from the root through the DAG.

    ``policy`` is a per-edge share array: 1 on observation edges, and a
    distribution over each decision state's edges.
    """
    return ReducedStrategy(dag, *flow_down(dag.graph, policy))


def policy_from_choices(dag, choices, default=0):
    """Pure policy from a {decision state: edge index} table."""
    g = dag.graph
    share = np.where(g.decision_edge, 0.0, 1.0)
    picks = [g.ptr[s] + choices.get(s, default) for s in dag.decision_states]
    share[np.array(picks, dtype=np.intp)] = 1.0
    return share


def uniform_policy(dag):
    return dag.graph.uniform_share


def best_reduced_strategy(dag, weights):
    """Max of <weights, q> over reduced strategies, with an argmax.

    Backward induction: terminal states score their weight, observation
    states add their children, decision states take the best child (ties to
    the lowest edge). Exact for any weights because the objective is linear
    over the flow polytope, whose vertices are the pure reduced strategies.
    """
    value, policy = back_up(dag.graph, np.asarray(weights, dtype=float), "max")
    return float(value[dag.root]), forward_flow(dag, policy)


def evaluate_deviation(dag, q, x):
    """Image of x under the deviation realized by terminal masses q.

    Output coordinate z collects q[t] * prod_{i in mono(t)} x[i] over the
    terminal states t writing to z.
    """
    return _collect(dag, q, dag.monomials.at(x))


def deviation_image(dag, q, pi):
    """E_pi[phi_q(x)] for the deviation realized by terminal masses q."""
    return _collect(dag, q, pi.monomial_expectation(dag.monomials))


def _collect(dag, q, mono_values):
    """Sum q[t] * mono_values[row(t)] into each terminal state t's output."""
    terms = np.asarray(q, dtype=float) * mono_values[dag.mono_row]
    return np.bincount(dag.terminal_out, terms, minlength=dag.base.n_terminals)


def eval_dt_deviation(dag, q, bits):
    """Query-tree deviation applied to a bit vector, returned as bits.

    Literal (j, a) reads x[j] when a = 1 and 1 - x[j] otherwise; the output
    bit for coordinate j is the mass the strategy puts on committing 1 there.
    """
    bits = np.asarray(bits, dtype=float)
    point = np.empty(2 * dag.n_bits)
    point[1::2] = bits
    point[0::2] = 1.0 - bits
    image = evaluate_deviation(dag, q, point)
    return image[1::2]


def deviation_polynomial(dag, q):
    """The deviation's exact multilinear form over base terminal coordinates."""
    q = np.asarray(q, dtype=float)
    outputs = [[] for _ in range(dag.base.n_terminals)]
    for slot in range(dag.n_terminal_states):
        if q[slot] != 0.0:
            outputs[dag.terminal_out[slot]].append((q[slot], dag.terminal_mono[slot]))
    return PolynomialDeviation(dag.base.n_terminals, outputs)


def terminal_weights(dag, u, pi):
    """Utility over reduced strategies induced by utility u and mixture pi.

    w[t] = u[out(t)] * E_pi[prod_{i in mono(t)} x[i]], so that <w, q> equals
    <u, E_pi[phi_q(x)]> for every reduced strategy q.
    """
    u = np.asarray(u, dtype=float)
    return u[dag.terminal_out] * pi.monomial_expectation(dag.monomials)[dag.mono_row]


def follow_identity_policy(dag):
    """Pure policy on a one-mediator DAG that replays the mediator's moves.

    Whenever the mediator is at one of its decision points (an observation
    point of the base tree) above the base component, it advances toward the
    base's branch; once the mediator steps past the base's current decision
    point, the base copies that step. The resulting reduced strategy puts
    unit mass on every diagonal terminal state, realizing the identity.
    """
    if dag.family != "mediator" or dag.k != 1:
        raise ValueError("the follow policy needs a one-mediator DAG")
    problem = dag.base

    def is_strictly_below(node, anc):
        cur = problem.parent[node]
        while cur >= 0:
            if cur == anc:
                return True
            cur = problem.parent[cur]
        return False

    choices = {}
    for s in dag.decision_states:
        base_node, med_node = dag.states[s]
        moves = dag.edge_moves[s]
        picked = None
        if problem.kind[med_node] == OBSERVATION and is_strictly_below(
            base_node, med_node
        ):
            for e, move in enumerate(moves):
                (comp, child), = move
                if comp == 1 and (
                    child == base_node or is_strictly_below(base_node, child)
                ):
                    picked = e
                    break
        elif problem.kind[base_node] == DECISION and med_node in problem.children[
            base_node
        ]:
            for e, move in enumerate(moves):
                (comp, child), = move
                if comp == 0 and child == med_node:
                    picked = e
                    break
        choices[s] = picked if picked is not None else 0
    return policy_from_choices(dag, choices)
