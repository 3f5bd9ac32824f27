"""Tree-form sequential decision problems.

A problem is a rooted tree of decision points (the agent picks one child),
observation points (the environment picks; the agent must handle every child)
and terminals. A strategy lives in tree form: a vector over terminals whose
induced node values satisfy the flow equations (root value 1, every child of
an observation point carries the point's own value, children of a decision
point sum to it). Pure strategies are the 0/1 points of that polytope.

Instances are immutable after construction; all derived arrays are built once.

Trees and the deviation DAGs of ``dags`` compile to one ``Graph``: per-state
kind codes, CSR edges, and the edges and states grouped by level. Every
per-state pass is written once, on that form, as a few array operations per
level: the top-down flow (``flow_down``), the bottom-up backup
(``back_up``), the pure-strategy count (``count_pure``), the tree node
values (``tree_values``) and the pure-strategy supports of a stack of
per-edge share arrays (``DecisionProblem.pure_support``), which also
enumerate the pure strategies.
"""

from __future__ import annotations

import collections
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, MembershipError, ParseError, StructureError

DECISION = "D"
OBSERVATION = "O"
TERMINAL = "T"

CODE = {TERMINAL: 0, DECISION: 1, OBSERVATION: 2}

FLOW_TOL = 1e-9
ENUM_CAP = 10**6


class Graph:
    """Compiled state graph shared by trees and decision DAGs.

    Its one input is arrays (``graph_arrays`` converts per-state lists):
    kind codes ``code`` (see CODE), CSR offsets ``ptr`` (state s owns edges
    ``ptr[s]:ptr[s + 1]`` in child order), edge targets ``dst`` and ``level``.
    The root is state 0 and edge e runs ``src[e] -> dst[e]``. Every edge must
    climb at least one level, and the passes walk the graph level by level:

    - ``levels`` lists, shallowest first, the edges leaving each level as
      (edge ids, sources, targets) in CSR order. Walking them in order, a
      state's in-edges are all done before the state is read.
    - ``blocks`` lists, deepest level first, the non-terminal states of a
      level sharing one kind code and one out-degree d, as (code, states,
      edges, children): ``edges`` is the (len(states), d) matrix of their
      edge ids and ``children`` that of the edges' targets. Walking them in
      order, every child is done before its parent.
    """

    def __init__(self, code, ptr, dst, level):
        self.code = np.asarray(code, dtype=np.int8)
        self.n = n = len(self.code)
        self.ptr = np.asarray(ptr, dtype=np.intp)
        self.dst = np.asarray(dst, dtype=np.intp)
        self.level = np.asarray(level, dtype=np.intp)
        self.n_edges = int(self.ptr[-1])
        deg = self.ptr[1:] - self.ptr[:-1]
        self.src = np.arange(n).repeat(deg)
        edge_level = self.level[self.src]
        if (self.level[self.dst] <= edge_level).any():
            raise StructureError("state order is not topological")
        self.terminals = (self.code == CODE[TERMINAL]).nonzero()[0]
        self.decision_edge = self.code[self.src] == CODE[DECISION]
        # Fraction of a state's mass each edge carries under uniform play.
        self.uniform_share = np.where(self.decision_edge, 1.0 / deg[self.src], 1.0)
        self.uniform_share.flags.writeable = False

        order = edge_level.argsort(kind="stable")
        self.levels = [(e, self.src[e], self.dst[e]) for e in _runs(order, edge_level[order])]

        # one stable sort by (deepest level first, code, degree)
        inner = deg.nonzero()[0]
        key = (-3 * self.level[inner] + self.code[inner]) * (deg.max(initial=0) + 1) + deg[inner]
        order = key.argsort(kind="stable")
        self.blocks = []
        for states in _runs(inner[order], key[order]):
            if states.size:
                edges = self.ptr[states][:, None] + np.arange(deg[states[0]])
                self.blocks.append(
                    (int(self.code[states[0]]), states, edges, self.dst[edges])
                )


def _runs(items, keys):
    """``items`` cut where the sorted ``keys`` change: one run of items per
    key; one empty run when there are no items."""
    cuts = ((keys[1:] != keys[:-1]).nonzero()[0] + 1).tolist()
    return [items[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(items)])]


def graph_arrays(kind, children):
    """The ``Graph`` arrays (code, ptr, dst) of per-state kind strings and
    child lists."""
    code = np.fromiter(map(CODE.__getitem__, kind), dtype=np.int8, count=len(kind))
    ptr = np.concatenate([[0], np.cumsum(list(map(len, children)))])
    return code, ptr, np.fromiter(itertools.chain.from_iterable(children), dtype=np.intp)


def row_dots(w, v):
    """Row-wise dot products w[i] @ v[i]. Each row is one vector dot product,
    so it rounds exactly as a per-state ``np.dot`` does."""
    return np.matmul(w[:, None, :], v[:, :, None])[:, 0, 0]


def flow_down(graph, share):
    """Push unit mass from the root; edge e carries share[e] of its source.

    Observation edges carry share 1, each decision state's edges a
    distribution. Returns (state mass, edge mass).
    """
    mass = np.zeros(graph.n)
    mass[0] = 1.0
    edge_mass = np.zeros(graph.n_edges)
    for e, s, d in graph.levels:
        em = mass[s] * share[e]
        edge_mass[e] = em
        np.add.at(mass, d, em)
    return mass, edge_mass


def back_up(graph, leaf, rule):
    """Back values up from the terminals, which read ``leaf`` in index order.

    Observation states sum their children. Decision states take the largest
    child (rule "max"), the smallest ("min"), or weight the children by a
    per-edge share array. Returns (state values, share), where for "max" and
    "min" the share is the pure policy taking the first best edge.
    """
    value = np.zeros(graph.n)
    value[graph.terminals] = leaf
    pick = isinstance(rule, str)
    share = graph.uniform_share if pick else rule
    for code, states, edges, children in graph.blocks:
        below = value[children]
        if pick and code == CODE[DECISION]:
            value[states] = below.max(1) if rule == "max" else below.min(1)
        else:
            value[states] = row_dots(share[edges], below)
    if pick:
        share = pure_share(graph, value[graph.dst], maximize=rule == "max")
    return value, share


def pure_share(graph, edge_value, maximize=True):
    """Pure policy taking each decision state's first edge of largest (or
    smallest) ``edge_value``; observation edges carry share 1."""
    share = np.where(graph.decision_edge, 0.0, 1.0)
    for code, _, edges, _ in graph.blocks:
        if code == CODE[DECISION]:
            v = edge_value[edges]
            best = v.argmax(1) if maximize else v.argmin(1)
            share[edges[np.arange(len(edges)), best]] = 1.0
    return share


def count_pure(graph):
    """Number of pure strategies: decision states add, observation states
    multiply (exact integers)."""
    count = np.ones(graph.n, dtype=object)
    for code, states, _, children in graph.blocks:
        below = count[children]
        count[states] = below.sum(1) if code == CODE[DECISION] else below.prod(1)
    return int(count[0])


def sum_pass(graph):
    """``tree_values``' blocks of a tree's graph: the ones of decision
    states, the first children of the rest."""
    return [
        (states, children, np.ones(children.shape)) if code == CODE[DECISION]
        else (states, children[:, 0].copy(), None)
        for code, states, _, children in graph.blocks
    ]


def tree_values(graph, leaf):
    """Node values of a terminal vector on a tree's graph: decision states
    sum their children, each one dot with a row of ones, observation states
    copy their first child (``graph.sum_pass``, which ``DecisionProblem``
    sets)."""
    value = np.zeros(graph.n)
    value[graph.terminals] = leaf
    for states, children, ones in graph.sum_pass:
        value[states] = value[children] if ones is None else row_dots(ones, value[children])
    return value


def _run_indices(base, lens):
    """Pool indices of consecutive runs, run i being lens[i] atoms from
    base[i]."""
    first = (base - lens.cumsum() + lens).repeat(lens)
    first += np.arange(len(first))
    return first


@dataclass(frozen=True)
class NodeRow:
    """One node line: id, kind, parent id (None for the root), edge label."""

    node_id: str
    kind: str
    parent: str | None
    label: str | None


class DecisionProblem:
    """Immutable tree of decision/observation/terminal nodes, BFS indexed.

    Nodes are re-indexed breadth-first from the root with children kept in
    their appearance order; terminals get a dense index in the same order.
    Consecutive decision points on a path are repaired by inserting a dummy
    single-child observation point (recorded in ``transform_log``). An
    observation point directly under another observation point is rejected:
    the dummy-insertion repair cannot fix that shape.
    """

    def __init__(self, rows, name="problem"):
        rows = [NodeRow(*r) if not isinstance(r, NodeRow) else r for r in rows]
        self.name = name
        rows, self.transform_log = self._repair_alternation(rows)

        by_id: dict[str, NodeRow] = {}
        children_ids: dict[str, list[str]] = collections.defaultdict(list)
        root_id = None
        for row in rows:
            if row.kind not in (DECISION, OBSERVATION, TERMINAL):
                raise StructureError(f"node {row.node_id!r}: unknown kind {row.kind!r}")
            if row.node_id in by_id:
                raise StructureError(f"duplicate node id {row.node_id!r}")
            if row.parent is None:
                if root_id is not None:
                    raise StructureError(
                        f"multiple roots: {root_id!r} and {row.node_id!r}"
                    )
                root_id = row.node_id
            else:
                if row.parent not in by_id:
                    raise StructureError(
                        f"node {row.node_id!r}: parent {row.parent!r} not defined yet "
                        "(parents must precede children)"
                    )
                if by_id[row.parent].kind == TERMINAL:
                    raise StructureError(
                        f"terminal {row.parent!r} has child {row.node_id!r}"
                    )
                children_ids[row.parent].append(row.node_id)
            by_id[row.node_id] = row
        if root_id is None:
            raise StructureError("no root node (exactly one node must have parent '-')")

        for node_id, row in by_id.items():
            kids = children_ids[node_id]
            if row.kind == DECISION and len(kids) < 2:
                raise StructureError(
                    f"decision point {node_id!r} has {len(kids)} children "
                    "(needs at least 2)"
                )
            if row.kind == OBSERVATION and len(kids) < 1:
                raise StructureError(f"observation point {node_id!r} has no children")
            if row.kind == OBSERVATION:
                for kid in kids:
                    if by_id[kid].kind == OBSERVATION:
                        raise StructureError(
                            f"observation point {kid!r} directly under observation "
                            f"point {node_id!r}; points must alternate and this shape "
                            "is not repairable by dummy observation insertion"
                        )

        # BFS re-index.
        order = []
        depth = []
        queue = collections.deque([(root_id, 0)])
        while queue:
            cur, d = queue.popleft()
            order.append(cur)
            depth.append(d)
            queue.extend((c, d + 1) for c in children_ids[cur])
        if len(order) != len(by_id):
            raise StructureError("disconnected nodes present")

        index = {node_id: i for i, node_id in enumerate(order)}
        n = len(order)
        self.n_nodes = n
        self.root = 0
        self.node_ids = order
        self.kind = [by_id[i].kind for i in order]
        self.parent = np.array(
            [-1 if by_id[i].parent is None else index[by_id[i].parent] for i in order]
        )
        self.edge_label = [by_id[i].label for i in order]
        self.children = [tuple(index[c] for c in children_ids[i]) for i in order]
        self.graph = Graph(*graph_arrays(self.kind, self.children), depth)
        self.graph.sum_pass = sum_pass(self.graph)

        self.terminals = self.graph.terminals
        self.n_terminals = len(self.terminals)
        self.terminal_index = np.full(n, -1, dtype=int)
        self.terminal_index[self.terminals] = np.arange(self.n_terminals)
        # terminal z as a bit set: bit z % 64 of little-endian word z // 64
        words = -(-self.n_terminals // 64)
        eye = np.eye(self.n_terminals, 64 * words, dtype=bool)
        self.terminal_bits = np.packbits(eye, axis=1, bitorder="little").view("<i8")
        self.terminal_bits.flags.writeable = False
        observed = ~self.graph.decision_edge
        self.observation_edges = np.stack([self.graph.dst[observed], self.graph.src[observed]])

        # Decision edges (decision node, chosen child) on the path to each terminal.
        parent = self.parent.tolist()
        paths = []
        for node in self.terminals.tolist():
            edges = []
            cur = node
            while parent[cur] >= 0:
                p = parent[cur]
                if self.kind[p] == DECISION:
                    edges.append((p, cur))
                cur = p
            paths.append(tuple(reversed(edges)))
        self.decision_edges = paths
        self.depth = max((len(p) for p in paths), default=0)

        # The fixed point's start: the uniform point and its node values, read-only.
        self.start = self.uniform_point()
        self.start_values = self.node_values(self.start)
        self.require_membership(self.start, context="fixed-point init", vals=self.start_values)
        self.start.flags.writeable = self.start_values.flags.writeable = False

    @staticmethod
    def _repair_alternation(rows):
        kind_of = {r.node_id: r.kind for r in rows}
        out = []
        log = []
        for row in rows:
            if (
                row.parent is not None
                and kind_of.get(row.parent) == DECISION
                and row.kind == DECISION
            ):
                dummy = f"{row.node_id}&obs"
                suffix = 0
                while dummy in kind_of:
                    suffix += 1
                    dummy = f"{row.node_id}&obs{suffix}"
                kind_of[dummy] = OBSERVATION
                out.append(NodeRow(dummy, OBSERVATION, row.parent, row.label))
                out.append(NodeRow(row.node_id, row.kind, dummy, "pass"))
                log.append(
                    f"inserted observation point {dummy!r} between decision points "
                    f"{row.parent!r} and {row.node_id!r}"
                )
            else:
                out.append(row)
        return out, log

    # -- derived values ----------------------------------------------------

    def node_values(self, x):
        """Node values induced by a terminal vector (bottom-up)."""
        return tree_values(self.graph, np.asarray(x, dtype=float))

    def membership_violation(self, x, tol=FLOW_TOL, vals=None):
        """None if x satisfies the flow equations, else a description
        (``vals``: x's node values, when the caller has them)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_terminals,):
            return f"wrong length {x.shape} (expected {self.n_terminals})"
        if vals is None:
            vals = self.node_values(x)
        if self.in_polytope(x, vals, tol):
            return None
        z = int(np.argmin(np.isfinite(x)))  # the first value that is not finite, else 0
        if not np.isfinite(x[z]):
            return f"terminal {self.node_ids[self.terminals[z]]!r}: {x[z]} is not a finite number"
        if np.min(x) < -tol:
            z = int(np.argmin(x))
            return f"negative value {x[z]:.3g} at terminal {self.node_ids[self.terminals[z]]!r}"
        if abs(vals[self.root] - 1.0) > tol:
            return f"root value {vals[self.root]:.12g} != 1"
        dst, src = self.observation_edges
        e = int(np.argmax(np.abs(vals[dst] - vals[src]) > tol))
        node, c = src[e], dst[e]
        return (
            f"observation point {self.node_ids[node]!r}: child "
            f"{self.node_ids[c]!r} carries {vals[c]:.12g} != {vals[node]:.12g}"
        )

    def in_polytope(self, x, vals, tol=FLOW_TOL):
        """Whether the float x of n terminals, with node values ``vals``,
        satisfies the flow equations within tol; NaN fails every test."""
        child, parent = vals[self.observation_edges]
        return bool(x.min() >= -tol and abs(vals[self.root] - 1.0) <= tol
                    and np.max(abs(child - parent), initial=0.0) <= tol)

    def membership(self, x, tol=FLOW_TOL):
        return self.membership_violation(x, tol) is None

    def require_membership(self, x, tol=FLOW_TOL, context="", vals=None):
        violation = self.membership_violation(x, tol, vals)
        if violation is not None:
            prefix = f"{context}: " if context else ""
            raise MembershipError(prefix + violation)

    # -- pure strategies ---------------------------------------------------

    def count_pure_strategies(self):
        return count_pure(self.graph)

    def enumerate_pure_strategies(self, cap=ENUM_CAP):
        """All distinct tree-form pure strategies as a (P, N) 0/1 array, in
        ``pure_support`` order."""
        try:
            return self.pure_support(self.graph.uniform_share, cap)[1]
        except CapacityError:
            raise CapacityError(
                f"{self.count_pure_strategies()} pure strategies exceeds the cap of {cap}; "
                "raise the cap only for desk-scale work"
            ) from None

    def support_counts(self, share):
        """The count pass of ``pure_support``: for a stack of share arrays
        (K, E), each state's number of atoms (n, K) for each point, 0 where
        the state is not reached. A state is reached when every decision edge
        above it has positive share. Counts are floats, so a huge one
        overflows to inf, never wraps."""
        g = self.graph
        passes = (share > 0.0).T | ~g.decision_edge[:, None]
        reach = np.zeros((g.n, len(share)), dtype=bool)
        reach[0] = True
        for e, s, d in g.levels:
            reach[d] = reach[s] & passes[e]
        count = reach.astype(float)
        for code, states, _, children in g.blocks:
            reduce = np.add.reduce if code == CODE[DECISION] else np.multiply.reduce
            count[states] = reduce(count[children], 1)
        return count

    def pure_support(self, share, cap):
        """The pure strategies that randomizing by each of a stack of per-edge
        share arrays (K, E), or by one (E,), reaches: weights (A,) and 0/1
        matrix (A, N) of every point's atoms, point after point.

        The count pass (``support_counts``) sizes every reached state's atoms
        for every point, and a point whose support passes ``cap`` atoms
        raises CapacityError before anything is allocated. The walk then
        goes over the graph's blocks, deepest first, keeping the atoms of
        every reached state and point in one pool (a weight, and the atom's
        terminals as bits): a decision state stacks its children's atoms
        over the edges of positive share, each scaled by that share; an
        observation state takes the row-major product of its children's
        atoms, first child most significant, grown one child at a time: each
        atom so far is repeated once per atom of the next child and joined
        with it, so weights multiply in child order. These are the products
        of a recursive walk down from the root, in its order.
        """
        share = share[None] if share.ndim == 1 else share
        count = self.support_counts(share)
        if (count > cap).any():
            raise CapacityError(
                f"behavioral support exceeds {cap} atoms; use the implicit descriptor instead"
            )
        g, points, n = self.graph, len(share), self.n_terminals
        size = count.astype(np.intp)
        # The pool holds one atom per terminal, which every point shares,
        # then each block's atoms, (state, point) after (state, point).
        inner = np.concatenate([g.terminals[:0]] + [states for _, states, _, _ in g.blocks])
        flat = size[inner].ravel()
        ends = flat.cumsum() + n
        start = np.empty_like(size)
        start[g.terminals] = np.arange(n)[:, None]
        start[inner] = (ends - flat).reshape(-1, points)
        weights = np.empty(ends[-1] if len(ends) else n)
        weights[:n] = 1.0
        bits = np.empty((len(weights), self.terminal_bits.shape[1]), self.terminal_bits.dtype)
        bits[:n] = self.terminal_bits
        at = n
        for code, _, edges, children in g.blocks:
            # (state, point) rows of each child's atom count and pool start
            lens = size[children].transpose(0, 2, 1).reshape(-1, children.shape[1])
            base = start[children].transpose(0, 2, 1).reshape(lens.shape)
            if code == CODE[DECISION]:
                lens = lens.ravel()
                pick = _run_indices(base.ravel(), lens)
                w = weights.take(pick) * share.T[edges].transpose(0, 2, 1).ravel().repeat(lens)
                b = bits.take(pick, axis=0)
            else:  # the first child's atoms, then each later child's under every atom so far
                have = lens[:, 0]  # each row's atoms so far
                pick = _run_indices(base[:, 0], have)
                w, b = weights.take(pick), bits.take(pick, axis=0)
                for lens_j, base_j in zip(lens.T[1:], base.T[1:]):
                    c = lens_j.repeat(have)
                    pick = _run_indices(base_j.repeat(have), c)
                    w = w.repeat(c) * weights.take(pick)
                    b = b.repeat(c, axis=0) + bits.take(pick, axis=0)
                    have = have * lens_j
            weights[at : at + len(w)] = w
            bits[at : at + len(w)] = b
            at += len(w)
        # the root is walked last; a lone terminal is every point's one atom
        root = slice(start[0, 0], None) if g.blocks else np.zeros(points, dtype=np.intp)
        matrix = np.unpackbits(bits[root].view(np.uint8), axis=1, count=n, bitorder="little")
        return weights[root].copy(), matrix.astype(float)

    def uniform_point(self):
        """Tree-form point of the uniform behavioral strategy."""
        return flow_down(self.graph, self.graph.uniform_share)[0][self.terminals]

    def random_point(self, rng):
        """Tree-form point from random Dirichlet behavioral splits."""
        g = self.graph
        share = np.ones(g.n_edges)
        for node in np.flatnonzero(g.code == CODE[DECISION]):
            lo, hi = g.ptr[node], g.ptr[node + 1]
            share[lo:hi] = rng.dirichlet(np.ones(hi - lo))
        return flow_down(g, share)[0][self.terminals]

    # -- restructuring -------------------------------------------------------

    def binarize(self):
        """Split wide decision points into balanced cascades of binary ones.

        Returns (problem, terminal_map, log) where terminal_map sends each old
        dense terminal index to its new one. Terminals and pure strategies are
        in exact bijection with the originals. The constructor's alternation
        repair inserts the needed dummy observation points between cascade
        levels.
        """
        rows = []
        log = []

        def emit(node, parent_id, label):
            node_id = self.node_ids[node]
            kind = self.kind[node]
            rows.append(NodeRow(node_id, kind, parent_id, label))
            if kind == TERMINAL:
                return
            kids = list(self.children[node])
            if kind == DECISION and len(kids) > 2:
                log.append(
                    f"decision point {node_id!r} with {len(kids)} actions split "
                    "into a balanced binary cascade"
                )
                emit_group(node_id, node_id, kids)
            else:
                for c in kids:
                    emit(c, node_id, self.edge_label[c])

        def emit_group(owner_id, parent_id, kids):
            if len(kids) == 1:
                emit(kids[0], parent_id, self.edge_label[kids[0]])
                return
            if len(kids) == 2:
                for c in kids:
                    emit(c, parent_id, self.edge_label[c])
                return
            mid = (len(kids) + 1) // 2
            for half, tag in ((kids[:mid], "lo"), (kids[mid:], "hi")):
                if len(half) == 1:
                    emit(half[0], parent_id, self.edge_label[half[0]])
                else:
                    gid = f"{owner_id}&{tag}{len(half)}n{self.node_ids[half[0]]}"
                    rows.append(NodeRow(gid, DECISION, parent_id, tag))
                    emit_group(owner_id, gid, half)

        emit(self.root, None, None)
        problem = DecisionProblem(rows, name=self.name + "~bin")
        new_index = {node_id: i for i, node_id in enumerate(problem.node_ids)}
        term_map = np.array(
            [
                int(problem.terminal_index[new_index[self.node_ids[t]]])
                for t in self.terminals
            ]
        )
        log.extend(problem.transform_log)
        return problem, term_map, log

    def dump(self):
        lines = [f"tfsdp {self.name}"]
        for node in range(self.n_nodes):
            parent = self.parent[node]
            pid = "-" if parent < 0 else self.node_ids[parent]
            label = self.edge_label[node] or "-"
            lines.append(f"{self.node_ids[node]} {self.kind[node]} {pid} {label}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"DecisionProblem({self.name!r}, nodes={self.n_nodes}, "
            f"terminals={self.n_terminals}, depth={self.depth})"
        )


def content_lines(text):
    """The numbered lines ``(line number, text)`` of a problem or game file:
    each line cut at its first ``#``, which starts a comment, and stripped;
    lines left blank are dropped."""
    lines = ((lineno, raw.split("#", 1)[0].strip())
             for lineno, raw in enumerate(text.splitlines(), start=1))
    return [(lineno, line) for lineno, line in lines if line]


def parse_problem(text):
    """Parse the node-list game format.

    Header line ``tfsdp <name>``, then one line per node:
    ``<id> <kind:D|O|T> <parent-id|-> <action-label-from-parent|->``.
    Children are ordered by appearance; parents must precede children.
    Comments and blank lines are skipped (``content_lines``).
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty file: missing 'tfsdp <name>' header")
    lineno, header = lines[0]
    tokens = header.split()
    if tokens[0] != "tfsdp" or len(tokens) != 2:
        raise ParseError(f"line {lineno}: expected header 'tfsdp <name>'")
    return problem_from_lines(tokens[1], lines[1:])


def problem_from_lines(name, lines):
    """The problem of numbered node lines ``(line number, text)``, each
    ``<id> <kind> <parent|-> <label|->``; a ParseError names a bad line's
    number."""
    rows = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError(f"line {lineno}: expected '<id> <kind> <parent|-> <label|->', "
                             f"got {len(tokens)} tokens")
        node_id, kind, parent, label = tokens
        rows.append(NodeRow(node_id, kind, None if parent == "-" else parent,
                            None if label == "-" else label))
    try:
        return DecisionProblem(rows, name=name)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def hypercube_problem(n_bits, name=None):
    """A problem whose pure strategies are the corners of the n-bit hypercube.

    One root observation point with n_bits children, each a decision point
    with two terminal children (clear first, set second).
    """
    if not isinstance(n_bits, numbers.Integral):
        raise ValueError(f"n_bits must be an integer, got {n_bits!r}")
    if n_bits < 1:
        raise StructureError("need at least one bit")
    rows = [NodeRow("root", OBSERVATION, None, None)]
    for j in range(n_bits):
        rows.append(NodeRow(f"b{j}", DECISION, "root", str(j)))
        rows.append(NodeRow(f"b{j}:0", TERMINAL, f"b{j}", "0"))
        rows.append(NodeRow(f"b{j}:1", TERMINAL, f"b{j}", "1"))
    return DecisionProblem(rows, name=name or f"cube{n_bits}")


def hypercube_structure(problem):
    """Per-bit terminal index pairs (clear, set) if the problem is a flat
    observe-then-set-each-bit tree, else None."""
    if problem.kind[problem.root] != OBSERVATION:
        return None
    pairs = []
    for bit in problem.children[problem.root]:
        if problem.kind[bit] != DECISION or len(problem.children[bit]) != 2:
            return None
        lo, hi = problem.children[bit]
        if problem.kind[lo] != TERMINAL or problem.kind[hi] != TERMINAL:
            return None
        pairs.append((int(problem.terminal_index[lo]), int(problem.terminal_index[hi])))
    return pairs


def l2_diameter(points):
    """Largest pairwise Euclidean distance among the given points."""
    points = np.asarray(points, dtype=float)
    sq = np.sum(points**2, axis=1)
    gram = points @ points.T
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    return float(math.sqrt(max(np.max(d2), 0.0)))
