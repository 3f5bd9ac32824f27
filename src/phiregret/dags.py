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

Both builders work one level at a time on arrays and hand the DAG a
``tfsdp.Graph``, as a tree's is, leveled by summed component depth or
history depth; ``interleave(problem, 0)`` compiles to the tree's own arrays.
As points alternate on every tree path, only an interleaving's root state has
several components at an observation point, and every path to a state makes
the same number of moves, so each BFS layer holds new states only.
The DAG keeps only arrays: the graph, the terminal outputs and monomials,
and for an interleaving each state's node per component (``nodes``). A
policy is a per-edge share array over that graph (1 on observation edges, a
distribution over each decision state's edges), and flows, best responses
and pure-strategy counts are the graph passes of ``tfsdp``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .maps import MonomialTable
from .polynomials import PolynomialDeviation
from .tfsdp import (
    CODE,
    DECISION,
    OBSERVATION,
    TERMINAL,
    Graph,
    back_up,
    flow_down,
    hypercube_problem,
)

STATE_CAP = 200_000

# The dual tree's kind code of each tree kind code: decision and observation swap.
DUAL_CODE = np.arange(len(CODE), dtype=np.int8)
DUAL_CODE[[CODE[DECISION], CODE[OBSERVATION]]] = CODE[OBSERVATION], CODE[DECISION]


class DecisionDAG:
    """Acyclic decision/observation/terminal state graph with shared states.

    Play reads the compiled ``graph`` (states in topological order, root 0),
    each terminal state's output coordinate ``terminal_out``, the table of
    distinct terminal monomials ``monomials`` and each terminal state's row
    ``mono_row``. The builder passes the monomials as rows padded with -1
    (see ``MonomialTable.distinct``).
    """

    def __init__(self, family, base, graph, terminal_out, terms):
        self.family = family
        self.base = base
        self.graph = graph
        self.n_states = graph.n
        self.root = 0
        self.terminal_states = graph.terminals
        self.n_terminal_states = len(graph.terminals)
        self.terminal_out = np.asarray(terminal_out, dtype=int)
        self.monomials, self.mono_row = MonomialTable.distinct(terms)

    def __repr__(self):
        return (
            f"DecisionDAG({self.family!r}, states={self.n_states}, "
            f"terminals={self.n_terminal_states})"
        )


def join(dags):
    """The DAGs under one observation root, their states after it in turn,
    one level deeper: the product of their strategy sets (the Cartesian
    product regret circuit of Farina, Kroer and Sandholm 2019). Returns the
    joined DAG, which realizes no deviation, and each DAG's slices of its
    states and edges."""
    graphs = [dag.graph for dag in dags]
    state = np.cumsum([1] + [g.n for g in graphs])[:-1]
    edge = np.cumsum([len(graphs)] + [g.n_edges for g in graphs])[:-1]
    deg = np.concatenate([[len(graphs)]] + [np.diff(g.ptr) for g in graphs])
    graph = Graph(
        np.concatenate([[CODE[OBSERVATION]]] + [g.code for g in graphs]),
        np.concatenate([[0], np.cumsum(deg)]),
        np.concatenate([state] + [g.dst + s for g, s in zip(graphs, state)]),
        np.concatenate([[0]] + [g.level + 1 for g in graphs]),
    )
    joined = DecisionDAG.__new__(DecisionDAG)
    joined.__dict__.update(family="joined", base=None, graph=graph, n_states=graph.n, root=0,
                           terminal_states=graph.terminals, n_terminal_states=len(graph.terminals))
    return joined, [(slice(s, s + g.n), slice(e, e + g.n_edges))
                    for g, s, e in zip(graphs, state.tolist(), edge.tolist())]


def _spread(count):
    """(item, position) of each of the count[i] repeats of every item i."""
    item = np.repeat(np.arange(len(count)), count)
    return item, np.arange(len(item)) - (np.cumsum(count) - count)[item]


def interleave(problem, k, cap=STATE_CAP):
    """Product DAG of the problem and k mediator copies of its dual.

    A state holds one node per component: the base tree, then k duals (the
    same n nodes, decision and observation codes swapped). Its components at
    an observation point of their own tree advance at once, one child
    combination per edge, first component most significant; if there are
    none, the player moves one component at a decision point to a child.

    Built one BFS layer at a time on int64 keys sum_c node_c * n^c, one move
    pass per layer in (state, component, child) order, keeping each key's
    first occurrence. Points alternate below every tree root (the problem
    repairs D -> D and rejects O -> O), so only the root state has several
    components at an observation point, every later move adds one to the
    summed component depth, and every path to a state makes the same number
    of moves: a layer meets no earlier state, and states come out in level
    order, edges in source order. A layer taking the DAG past ``cap`` states
    raises CapacityError. ``nodes`` holds each state's node per component.
    """
    if not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    k = int(k)
    g = problem.graph
    n = g.n
    if n ** (k + 1) > np.iinfo(np.int64).max:
        raise CapacityError(f"{k} mediators over {n} nodes overflow the state key")
    radix = n ** np.arange(k + 1, dtype=np.int64)
    codes = np.vstack([g.code] + [DUAL_CODE[g.code]] * k)
    components = np.arange(k + 1)
    out_deg = np.diff(g.ptr)

    frontier = np.zeros(1, dtype=np.int64)
    layers, total = [], 1
    while len(frontier):
        digits = frontier[:, None] // radix % n
        kinds = codes[components, digits]
        code = kinds.max(axis=1)  # CODE orders terminal < decision < observation
        active = kinds == code[:, None]
        if layers:
            rows, comps = np.nonzero(active)
            node = digits[rows, comps]
            item, j = _spread(out_deg[node])
            rows, comps, node = rows[item], comps[item], node[item]
            keys = frontier[rows] + (g.dst[g.ptr[node] + j] - node) * radix[comps]
        else:  # the root: every combination of its active components' children
            keys = np.zeros(1, dtype=np.int64)
            for c in np.flatnonzero(active[0]):
                keys = (keys[:, None] + g.dst[g.ptr[0]:g.ptr[1]] * radix[c]).ravel()
            rows = np.zeros(len(keys), dtype=np.intp)
        # each key's first occurrence starts a run of equal keys in a stable sort
        order = keys.argsort(kind="stable")
        sorted_keys = keys[order]
        first = np.concatenate([order[:1], order[1:][sorted_keys[1:] != sorted_keys[:-1]]])
        first.sort()
        total += len(first)
        if total > cap:
            raise CapacityError(f"interleaving exceeds {cap} states; reduce k or the problem")
        layers.append((frontier, digits, code, np.bincount(rows, minlength=len(frontier)), keys))
        frontier = keys[first]

    found, nodes, code, deg, keys = (np.concatenate(part) for part in zip(*layers))
    order = np.argsort(found)
    dst = order[np.searchsorted(found[order], keys)]
    graph = Graph(code, np.concatenate([[0], np.cumsum(deg)]), dst, g.level[nodes].sum(1))
    ends = problem.terminal_index[nodes[graph.terminals]]
    dag = DecisionDAG("mediator", problem, graph, ends[:, 0], ends[:, 1:])
    dag.k = k
    dag.nodes = nodes
    return dag


def build_dt_problem(n_bits, k, distinct=False, cap=STATE_CAP):
    """Depth-k query-tree deviation problem over an n-bit hypercube.

    The deviator observes which output bit is being decided, adaptively
    queries up to k input bits (all of them when unconstrained; with
    ``distinct`` each query must differ from the observed index and earlier
    queries, stopping early when none remain), then commits the output bit.
    Terminal states record the full history, so without the distinctness
    constraint there are exactly n^(k+1) * 2^(k+1) of them.

    Every branch asks the same number of queries, so the tree is regular by
    level. It is built one level at a time, each state's children in order
    after every state of its own level, so edge e leads to state e + 1 and
    the level of a state is its history depth. The level sizes are counted
    first, and a tree of more than ``cap`` states raises CapacityError before
    anything is built. A terminal writes output 2 * j0 + a for the observed
    coordinate j0 and committed bit a; its monomial holds 2 * j + a for each
    query j answered a.
    """
    if not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    k = int(k)
    base = hypercube_problem(n_bits)
    depth = min(k, n_bits - 1) if distinct else k
    # Per level: size, kind and out-degree. The root observes j0, each query
    # depth adds its query states and their reply states, and the last branch
    # states commit the output bit. Sizes at least double per query depth.
    size, kind, deg = [1], [OBSERVATION], [n_bits]
    for r in range(depth + 1):
        branches = size[-1] * deg[-1]
        if r < depth:
            m = n_bits - 1 - r if distinct else n_bits
            size += [branches, branches * m]
            kind += [DECISION, OBSERVATION]
            deg += [m, 2]
        else:
            size += [branches, 2 * branches]
            kind += [DECISION, TERMINAL]
            deg += [2, 0]
        if sum(size) > cap:
            raise CapacityError(f"query tree exceeds {cap} states")
    n = sum(size)
    graph = Graph(
        np.repeat([CODE[kd] for kd in kind], size),
        np.concatenate([[0], np.cumsum(np.repeat(deg, size))]),
        np.arange(1, n),
        np.repeat(np.arange(len(size)), size),
    )

    # Each branch state's j0 and literals so far, one query depth at a time.
    j0 = np.arange(n_bits)
    lits = np.zeros((n_bits, 0), dtype=np.intp)
    for m in deg[1 : 2 * depth : 2]:
        if distinct:
            free = np.ones((len(j0), n_bits), dtype=bool)
            free[np.arange(len(j0))[:, None], np.column_stack([j0, lits // 2])] = False
            query = np.nonzero(free)[1].reshape(-1, m)
        else:
            query = np.broadcast_to(np.arange(n_bits), (len(j0), m))
        j0 = np.repeat(j0, 2 * m)
        lits = np.column_stack([
            np.repeat(lits, 2 * m, axis=0), (2 * query[..., None] + [0, 1]).reshape(-1)
        ])
    outs = 2 * np.repeat(j0, 2) + np.tile([0, 1], len(j0))
    dag = DecisionDAG("query-tree", base, graph, outs, np.repeat(lits, 2, axis=0))
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


def forward_flow(dag, policy):
    """Push unit mass from the root through the DAG.

    ``policy`` is a per-edge share array: 1 on observation edges, and a
    distribution over each decision state's edges.
    """
    return ReducedStrategy(dag, *flow_down(dag.graph, policy))


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
            row = dag.monomials.terms[dag.mono_row[slot]]
            outputs[dag.terminal_out[slot]].append((q[slot], row[row >= 0]))
    return PolynomialDeviation(dag.base.n_terminals, outputs)


def terminal_weights(dag, u, pi):
    """Utility over reduced strategies induced by utility u and mixture pi.

    w[t] = u[out(t)] * E_pi[prod_{i in mono(t)} x[i]], so that <w, q> equals
    <u, E_pi[phi_q(x)]> for every reduced strategy q. A leading round axis,
    u (T, N) against a ``RoundMixtures`` pi, gives each round's row.
    """
    u = np.asarray(u, dtype=float)
    values = pi.monomial_expectation(dag.monomials)
    # transposed, one gather serves a single round and a leading round axis
    return (u.T[dag.terminal_out] * values.T[dag.mono_row]).T


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
    problem, g = dag.base, dag.graph
    # under[u, v]: node u is v or lies below it in the base tree
    under = np.eye(problem.n_nodes, dtype=bool)
    for node in range(1, problem.n_nodes):
        under[node] |= under[problem.parent[node]]
    base, med = dag.nodes.T
    b, m, b_next, m_next = base[g.src], med[g.src], base[g.dst], med[g.dst]
    code = problem.graph.code
    chase = (code[m] == CODE[OBSERVATION]) & under[b, m] & (b != m)
    hit = np.where(
        chase, (m_next != m) & under[b, m_next],
        (code[b] == CODE[DECISION]) & (problem.parent[m] == b) & (b_next == m),
    )
    first = np.full(g.n, g.n_edges)
    np.minimum.at(first, g.src[hit], np.flatnonzero(hit))
    share = np.where(g.decision_edge, 0.0, 1.0)
    pick = np.where(first < g.n_edges, first, g.ptr[:-1])
    share[pick[g.code == CODE[DECISION]]] = 1.0
    return share
