"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately naive: direct definitions and exhaustive
enumeration only. These functions read a problem's raw node arrays (kind,
children, terminal indexing) and re-derive everything else from scratch, so
they stay independent of the library's algorithmic code paths.
"""

from __future__ import annotations

import collections
import copy
import itertools
import math
import string
import time
import types

import numpy as np
import scipy.optimize

from phiregret.dags import best_reduced_strategy, terminal_weights
from phiregret.errors import CapacityError, InvalidDeviationError, StructureError
from phiregret.fixedpoint import STALL_TOL, FixedPointConfig, FixedPointResult
from phiregret.maps import (
    BehavioralDescriptor,
    MixtureStrategy,
    MonomialTable,
    SupportMix,
    caratheodory,
    padded,
)
from phiregret.nfg import (
    CeResult,
    NormalFormGame,
    SwapLearner,
    ce_horizon,
    expectation_oracle,
    swap_regret_from_moments,
)
from phiregret.nfg import swap_gap as nfg_swap_gap
from phiregret.profile import CorrelatedProfile
from phiregret.tfsdp import (
    CODE,
    DECISION,
    OBSERVATION,
    TERMINAL,
    Graph,
    back_up,
    flow_down,
    graph_arrays,
    hypercube_problem,
)


def enumerate_pure(problem):
    """All tree-form pure strategies, by direct recursion over the node tree."""

    def rec(node):
        kind = problem.kind[node]
        if kind == "T":
            vec = np.zeros(problem.n_terminals)
            vec[problem.terminal_index[node]] = 1.0
            return [vec]
        parts = [rec(c) for c in problem.children[node]]
        if kind == "D":
            return [v for part in parts for v in part]
        out = []
        for combo in itertools.product(*parts):
            vec = np.zeros(problem.n_terminals)
            for piece in combo:
                vec = vec + piece
            out.append(vec)
        return out

    return np.array(rec(problem.root))


def enumerate_pure_tuples(problem):
    """The library's former enumeration, kept verbatim: a recursion over
    terminal-index tuples (decision points concatenate their children's
    lists, observation points take the left-to-right product), then a fill
    loop. Pins the row order of ``enumerate_pure_strategies``."""

    def rec(node):
        kind = problem.kind[node]
        if kind == TERMINAL:
            return [(int(problem.terminal_index[node]),)]
        parts = [rec(c) for c in problem.children[node]]
        if kind == DECISION:
            return [p for part in parts for p in part]
        out = parts[0]
        for part in parts[1:]:
            out = [a + b for a in out for b in part]
        return out

    combos = rec(problem.root)
    pure = np.zeros((len(combos), problem.n_terminals))
    for i, combo in enumerate(combos):
        pure[i, list(combo)] = 1.0
    return pure


def node_value(problem, x, node):
    """Value of a node as the sum of x over a canonical terminal cut."""
    kind = problem.kind[node]
    if kind == "T":
        return float(x[problem.terminal_index[node]])
    if kind == "D":
        return float(sum(node_value(problem, x, c) for c in problem.children[node]))
    return node_value(problem, x, problem.children[node][0])


def membership(problem, x, tol=1e-9):
    if np.min(x) < -tol:
        return False
    if abs(node_value(problem, x, problem.root) - 1.0) > tol:
        return False
    for node in range(problem.n_nodes):
        if problem.kind[node] != "O":
            continue
        v = node_value(problem, x, node)
        for c in problem.children[node]:
            if abs(node_value(problem, x, c) - v) > tol:
                return False
    return True


def behavioral_support(problem, x, pure=None):
    """Support of the behavioral randomization of x, from the definition.

    The probability of a pure strategy y is the product, over decision points
    j that y reaches and that carry positive value under x, of
    value(chosen child) / value(j). x's node values are computed once, by
    ``node_value``; pure is ``pure_node_values(problem)`` if the caller has
    it already.
    """
    ys, y_vals = pure_node_values(problem) if pure is None else pure
    x_vals = [node_value(problem, x, j) for j in range(problem.n_nodes)]
    atoms = []
    for y, y_val in zip(ys, y_vals):
        prob = 1.0
        for j in range(problem.n_nodes):
            if problem.kind[j] != "D":
                continue
            vj = x_vals[j]
            if vj <= 0.0 or y_val[j] != 1.0:
                continue
            chosen = [c for c in problem.children[j] if y_val[c] == 1.0]
            assert len(chosen) == 1
            prob *= x_vals[chosen[0]] / vj
        if prob > 0.0:
            atoms.append((prob, y))
    return atoms


def pure_node_values(problem):
    """Every pure strategy (``enumerate_pure``) and, per strategy, the
    ``node_value`` of every node."""
    ys = enumerate_pure(problem)
    return ys, [[node_value(problem, y, j) for j in range(problem.n_nodes)] for y in ys]


def pure_support_recursive(problem, share, cap):
    """The library's former ``DecisionProblem.pure_support``, kept verbatim:
    the pure strategies that randomizing by one per-edge share array
    reaches, (weights (P,), 0/1 matrix (P, N)), by a recursion down from the
    root (``_support``)."""
    return _support(problem, 0, share.tolist(), problem.graph.ptr.tolist(),
                    np.eye(problem.n_terminals), cap)


def _check_atoms(n_atoms, cap):
    if n_atoms > cap:
        raise CapacityError(
            f"behavioral support exceeds {cap} atoms; use the implicit descriptor instead"
        )


def _support(self, s, share, ptr, rows, cap):
    """``pure_support``'s block of the subtree at state s (``rows``: the
    identity, one row per terminal); ``self`` is the problem, the former
    method's body unchanged."""
    kind = self.kind[s]
    if kind == TERMINAL:
        z = self.terminal_index[s]
        return np.ones(1), rows[z : z + 1]
    if kind == DECISION:
        weights, blocks = [], []
        for e, c in zip(range(ptr[s], ptr[s + 1]), self.children[s]):
            if share[e] > 0.0:
                w, m = _support(self, c, share, ptr, rows, cap)
                weights.append(share[e] * w)
                blocks.append(m)
        _check_atoms(sum(map(len, weights)), cap)
        return np.concatenate(weights), np.concatenate(blocks)
    first, *rest = self.children[s]
    weights, matrix = _support(self, first, share, ptr, rows, cap)
    for c in rest:
        w, m = _support(self, c, share, ptr, rows, cap)
        _check_atoms(len(weights) * len(w), cap)
        weights = (weights[:, None] * w).ravel()
        matrix = (matrix[:, None, :] + m).reshape(len(weights), -1)
    return weights, matrix


def phi_equilibrium_gap_loop(profile, game, player, dag):
    """The library's former ``efg.phi_equilibrium_gap``, kept verbatim: one
    ``MixtureStrategy`` and one ``terminal_weights`` call per round, the
    weights and baseline added up round by round."""
    if profile.rounds == 0:
        return 0.0
    profile.require_shape([p.n_terminals for p in game.problems])
    total_w = np.zeros(dag.n_terminal_states)
    baseline = 0.0
    for t in range(profile.rounds):
        comps = profile.components(t, player)
        mixture = MixtureStrategy([(1.0 / len(comps), c) for c in comps])
        u = game.utility_vector(player, profile.round_mean(t, 1 - player))
        total_w += terminal_weights(dag, u, mixture)
        baseline += float(u @ mixture.mean())
    best, _ = best_reduced_strategy(dag, total_w)
    return (best - baseline) / profile.rounds


def monomial_expectation(problem, x, terminal_set):
    """E[prod of y[z] for z in terminal_set] under the behavioral map, by enumeration."""
    total = 0.0
    for prob, y in behavioral_support(problem, x):
        mask = 1.0
        for z in terminal_set:
            mask *= y[z]
        total += prob * mask
    return total


def uniform_point(problem):
    """Tree-form point of uniform play: each terminal's mass is the product
    of 1/(number of children) over its decision ancestors."""
    x = np.zeros(problem.n_terminals)
    for node in range(problem.n_nodes):
        if problem.kind[node] != "T":
            continue
        mass = 1.0
        cur = node
        while problem.parent[cur] >= 0:
            cur = problem.parent[cur]
            if problem.kind[cur] == "D":
                mass /= len(problem.children[cur])
        x[problem.terminal_index[node]] = mass
    return x


def pure_response(problem, u, maximize=True):
    """(value, strategy) of the best (or worst) pure strategy by recursion,
    each decision point keeping its first child among equal values."""
    u = np.asarray(u, dtype=float)

    def rec(node):
        kind = problem.kind[node]
        if kind == "T":
            vec = np.zeros(problem.n_terminals)
            vec[problem.terminal_index[node]] = 1.0
            return float(u[problem.terminal_index[node]]), vec
        parts = [rec(c) for c in problem.children[node]]
        if kind == "O":
            return sum(v for v, _ in parts), sum(vec for _, vec in parts)
        best = parts[0]
        for part in parts[1:]:
            if (part[0] > best[0]) if maximize else (part[0] < best[0]):
                best = part
        return best

    return rec(problem.root)


def best_response_value(problem, u):
    pure = enumerate_pure(problem)
    return float(np.max(pure @ np.asarray(u, dtype=float)))


def worst_response_value(problem, u):
    pure = enumerate_pure(problem)
    return float(np.min(pure @ np.asarray(u, dtype=float)))


def dual_norm(problem, v):
    """max <u, v> subject to |<u, y>| <= 1 for every pure strategy y."""
    pure = enumerate_pure(problem)
    a_ub = np.vstack([pure, -pure])
    b_ub = np.ones(a_ub.shape[0])
    res = scipy.optimize.linprog(
        c=-np.asarray(v, dtype=float),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * problem.n_terminals,
        method="highs",
    )
    if res.status == 3:
        raise ValueError("unbounded")
    assert res.success, res.message
    return float(-res.fun)


def swap_regret(dists, utils):
    """Average swap regret of a play sequence, by explicit search over swaps.

    dists, utils: arrays of shape (T, A). Utilities are per-action expected
    payoffs at each round.
    """
    dists = np.asarray(dists, dtype=float)
    utils = np.asarray(utils, dtype=float)
    t_rounds, n_actions = dists.shape
    total = 0.0
    for a in range(n_actions):
        gains = [
            sum(dists[t, a] * (utils[t, b] - utils[t, a]) for t in range(t_rounds))
            for b in range(n_actions)
        ]
        total += max(gains)
    return total / t_rounds


def power_iterate_average(q, x1, L):
    """(1/L) sum_{l<L} (Q^T)^l x1, one power iterate at a time."""
    x = np.asarray(x1, dtype=float)
    total = np.zeros_like(x)
    for _ in range(L):
        total = total + x
        x = q.T @ x
    return total / L


def dag_policy_flow(dag, lists, choices):
    """Terminal-state masses of a deterministic state policy on a decision DAG.

    lists is ``dag_lists(dag)``; choices maps decision-state index ->
    outgoing edge position.
    """
    mass = np.zeros(dag.n_states)
    mass[dag.root] = 1.0
    for s in lists.topo:
        if mass[s] == 0.0:
            continue
        kind = lists.kind[s]
        if kind == "O":
            for c in lists.edges[s]:
                mass[c] += mass[s]
        elif kind == "D":
            mass[lists.edges[s][choices[s]]] += mass[s]
    return mass[dag.terminal_states]


def best_pure_reduced_value(dag, weights, cap=200000):
    """max over deterministic state policies of <weights, terminal masses>."""
    lists = dag_lists(dag)
    decision_states = [s for s in range(dag.n_states) if lists.kind[s] == "D"]
    n_combos = 1
    for s in decision_states:
        n_combos *= len(lists.edges[s])
        if n_combos > cap:
            raise ValueError("too many policies to enumerate")
    best = -np.inf
    weights = np.asarray(weights, dtype=float)
    for combo in itertools.product(*[range(len(lists.edges[s])) for s in decision_states]):
        choices = dict(zip(decision_states, combo))
        val = float(dag_policy_flow(dag, lists, choices) @ weights)
        best = max(best, val)
    return best


def pure_reduced_vectors(dag, cap=200000):
    """Distinct terminal-mass vectors of deterministic state policies."""
    lists = dag_lists(dag)
    decision_states = [s for s in range(dag.n_states) if lists.kind[s] == "D"]
    n_combos = 1
    for s in decision_states:
        n_combos *= len(lists.edges[s])
        if n_combos > cap:
            raise ValueError("too many policies to enumerate")
    seen = {}
    for combo in itertools.product(*[range(len(lists.edges[s])) for s in decision_states]):
        choices = dict(zip(decision_states, combo))
        vec = dag_policy_flow(dag, lists, choices)
        seen[vec.tobytes()] = vec
    return list(seen.values())


def rm_plus_step(dag, regrets, weights):
    """One round of regret-matching+ at every decision state, state by state.

    regrets maps each decision state to its per-edge regret array. Returns
    the terminal-state masses played this round and the updated regrets.
    Reads only the kind, edges and terminal_slot of ``dag_lists``; states
    are in topological index order.
    """
    lists = dag_lists(dag)
    n = len(lists.kind)
    policy = {}
    for s in range(n):
        if lists.kind[s] == "D":
            r = regrets[s]
            total = sum(r)
            policy[s] = [v / total for v in r] if total > 0 else [1.0 / len(r)] * len(r)
    reach = [0.0] * n
    reach[0] = 1.0
    for s in range(n):
        for e, c in enumerate(lists.edges[s]):
            reach[c] += reach[s] * (policy[s][e] if lists.kind[s] == "D" else 1.0)
    value = [0.0] * n
    for s in reversed(range(n)):
        if lists.kind[s] == "T":
            value[s] = float(weights[lists.terminal_slot[s]])
        elif lists.kind[s] == "O":
            value[s] = sum(value[c] for c in lists.edges[s])
        else:
            value[s] = sum(p * value[c] for p, c in zip(policy[s], lists.edges[s]))
    updated = {
        s: np.array([
            max(0.0, r + reach[s] * (value[c] - value[s]))
            for r, c in zip(regrets[s], lists.edges[s])
        ])
        for s in policy
    }
    played = np.zeros(len(lists.terminal_slot))
    for s, slot in lists.terminal_slot.items():
        played[slot] = reach[s]
    return played, updated


def support_mean(atoms):
    """Weighted sum of a mixture's (weight, vector) atoms, one atom at a
    time, left to right."""
    total = np.zeros(len(atoms[0][1]))
    for w, y in atoms:
        total = total + w * np.asarray(y, dtype=float)
    return total


def support_monomial(atoms, terminal_set):
    """E[prod of y[z] for z in terminal_set] over a mixture's atoms, one atom
    at a time, left to right."""
    total = 0.0
    for w, y in atoms:
        mask = 1.0
        for z in terminal_set:
            mask *= y[z]
        total += w * mask
    return total


def component_atoms(component, pure=None):
    """(weight, vector) atoms of a profile component: a behavioral
    descriptor's by enumeration from the definition, an explicit mixture's
    as listed. pure, a dict, keeps each problem's ``pure_node_values``
    across calls."""
    if not hasattr(component, "base"):
        return component.atoms
    problem = component.problem
    if pure is None:
        return behavioral_support(problem, component.base)
    if problem not in pure:
        pure[problem] = pure_node_values(problem)
    return behavioral_support(problem, component.base, pure[problem])


def export_rows(profile):
    """Profile CSV text written one atom at a time, one f-string per row.
    Each problem's pure strategies and their node values are enumerated once
    per call."""
    lines = ["t,player,ell,j,alpha,pure-strategy-bits"]
    pure = {}
    for t in range(profile.rounds):
        for i in range(profile.n_players):
            for ell, comp in enumerate(profile.components(t, i), start=1):
                for j, (alpha, y) in enumerate(component_atoms(comp, pure), start=1):
                    bits = "".join(str(int(round(b))) for b in y)
                    lines.append(f"{t + 1},{i + 1},{ell},{j},{float(alpha):.17g},{bits}")
    return "\n".join(lines) + "\n"


def from_csv_rows(text):
    """The library's former profile import, kept verbatim: one row at a time
    (one split, four int(), one float() and the checks), grouped in dicts,
    then each component's weight sum checked with math.fsum and its atom
    matrix decoded from its joined bit strings. It never checks j."""
    from phiregret.errors import ParseError
    from phiregret.profile import HEADER

    rows = {}  # (t, player) -> {ell: (first line, alphas, bit strings)}
    dims = {}
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != HEADER:
        raise ParseError("missing profile header row")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            t, player, ell, j = map(int, parts[:4])
            alpha = float(parts[4])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        bits = parts[5]
        if min(t, player, ell, j) < 1:
            raise ParseError(f"line {lineno}: indices are 1-based")
        if not math.isfinite(alpha):
            raise ParseError(f"line {lineno}: atom weight {alpha} is not finite")
        if alpha < 0:
            raise ParseError(f"line {lineno}: negative atom weight {alpha}")
        if not bits or bits.strip("01"):
            raise ParseError(f"line {lineno}: pure-strategy bits {bits!r} are not 0s and 1s")
        if dims.setdefault(player - 1, len(bits)) != len(bits):
            raise ParseError(f"line {lineno}: inconsistent strategy length")
        levels = rows.setdefault((t - 1, player - 1), {})
        if ell not in levels:
            levels[ell] = (lineno, [], [])
        levels[ell][1].append(alpha)
        levels[ell][2].append(bits)

    def component(lineno, alphas, bits):
        total = math.fsum(alphas)
        if abs(total - 1.0) > 1e-9:
            raise ParseError(f"line {lineno}: component weights sum to {total}, expected 1")
        matrix = np.frombuffer("".join(bits).encode(), dtype=np.uint8).reshape(len(bits), -1)
        return SupportMix.from_arrays(alphas, matrix - 48)

    n_rounds = max((t for t, _ in rows), default=-1) + 1
    n_players = max((i for _, i in rows), default=-1) + 1
    # A player with no atoms in any round fails round 1 below, so the dims
    # stop at the first such player instead of running to the largest
    # player number (which a huge player field would make exhaust memory).
    missing = next(i for i in itertools.count() if i not in dims)
    profile = None
    if missing >= n_players:
        profile = CorrelatedProfile(n_players, dims=[dims[i] for i in range(n_players)])
    for t in range(n_rounds):
        per_player = []
        for i in range(n_players):
            levels = rows.get((t, i))
            if not levels:
                raise ParseError(f"round {t + 1}: no atoms for player {i + 1}")
            per_player.append([component(*levels[ell]) for ell in sorted(levels)])
        profile.add_round(per_player)
    return profile


def swap_gap(profile, game, utility_oracle):
    """Per-player swap gap of a profile, one round at a time.

    Round means average the per-atom component means; utility_oracle(game,
    dists) gives each player's per-action utilities against one round's
    mean strategies, and each round adds outer(mean, utility) to the
    player's reroute matrix.
    """
    reroute = [np.zeros((a, a)) for a in game.action_counts]
    for t in range(profile.rounds):
        means = []
        for i in range(profile.n_players):
            comps = profile.components(t, i)
            total = support_mean(component_atoms(comps[0]))
            for comp in comps[1:]:
                total = total + support_mean(component_atoms(comp))
            means.append(total / len(comps))
        utils = utility_oracle(game, means)
        for i in range(profile.n_players):
            reroute[i] = reroute[i] + np.outer(means[i], utils[i])
    return np.array([
        float(np.sum(np.max(r, axis=1) - np.diag(r))) / profile.rounds for r in reroute
    ])


def all_low_degree_boolean_functions(n_vars, max_degree):
    """Reference enumeration: the per-table, per-subset, per-point Moebius
    loop that ``polynomials.all_low_degree_boolean_functions`` replaced, kept
    verbatim."""
    if n_vars > 4:
        raise ValueError("truth-table enumeration is capped at 4 variables")
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(n_vars), r) for r in range(n_vars + 1)
        )
    )
    index = {frozenset(s): i for i, s in enumerate(subsets)}
    points = list(itertools.product((0, 1), repeat=n_vars))
    out = []
    for table in range(2 ** len(points)):
        f = [(table >> i) & 1 for i in range(len(points))]
        coeffs = {}
        ok = True
        for s in subsets:
            sset = frozenset(s)
            total = 0
            for t_bits, ft in zip(points, f):
                t = frozenset(i for i in range(n_vars) if t_bits[i])
                if t <= sset:
                    total += ft if (len(sset) - len(t)) % 2 == 0 else -ft
            if total != 0 and len(sset) > max_degree:
                ok = False
                break
            if total != 0:
                coeffs[sset] = float(total)
        if ok:
            out.append(tuple((c, m) for m, c in coeffs.items()))
    return out


def dual_problem(problem):
    """The same tree with decision and observation points swapped.

    Node ids, order and terminals are preserved, so the dual's strategy
    vectors pair coordinate-for-coordinate with the original's and applying
    the construction twice restores the original node-for-node. Observation
    points with a single branch become single-action decision points, which
    the ``DecisionProblem`` constructor rejects, so the dual is a copy of the
    problem with its kinds swapped and every kind-dependent field re-derived.
    """
    swap = {DECISION: OBSERVATION, OBSERVATION: DECISION, TERMINAL: TERMINAL}
    dual = copy.copy(problem)
    dual.name = (
        problem.name[:-5]
        if problem.name.endswith("~dual")
        else problem.name + "~dual"
    )
    dual.transform_log = []
    dual.kind = [swap[k] for k in problem.kind]
    dual.graph = Graph(*graph_arrays(dual.kind, problem.children), problem.graph.level)
    dual.terminals = dual.graph.terminals
    dual.decision_edges = []
    for node in dual.terminals:
        edges = []
        while problem.parent[node] >= 0:
            parent = problem.parent[node]
            if dual.kind[parent] == DECISION:
                edges.append((int(parent), int(node)))
            node = parent
        dual.decision_edges.append(tuple(reversed(edges)))
    dual.depth = max(map(len, dual.decision_edges), default=0)
    return dual


def interleave_bfs(problem, k, cap=200_000):
    """Reference interleaving: the per-state BFS over component tuples that
    ``dags.interleave`` replaced, kept verbatim, then the stable level sort
    of its sorted-list rebuild. Returns the DAG's lists and its compiled
    arrays as a ``SimpleNamespace``."""
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
    order = sorted(range(len(raw_states)), key=lambda i: (level[i], i))
    rank = {tmp: pos for pos, tmp in enumerate(order)}
    states = [raw_states[i] for i in order]
    kind = [raw_kind[i] for i in order]
    edges = [tuple(rank[c] for c in raw_edges[i]) for i in order]
    moves = [tuple(raw_moves[i]) for i in order]
    payload = {rank[tmp]: pl for tmp, pl in payload.items()}

    terminals = [s for s in range(len(states)) if kind[s] == TERMINAL]
    terminal_mono = [payload[s][1] for s in terminals]
    row = {m: i for i, m in enumerate(dict.fromkeys(terminal_mono))}
    degree = [len(e) for e in edges]
    return types.SimpleNamespace(
        states=states,
        kind=kind,
        edges=edges,
        edge_moves=moves,
        level=np.array([level[i] for i in order]),
        code=np.array([CODE[kd] for kd in kind]),
        ptr=np.concatenate([[0], np.cumsum(degree)]).astype(int),
        src=np.repeat(np.arange(len(states)), degree),
        dst=np.array([c for e in edges for c in e], dtype=int),
        terminal_out=np.array([payload[s][0] for s in terminals]),
        terminal_mono=terminal_mono,
        terms=MonomialTable(list(row)).terms,
        mono_row=np.array([row[m] for m in terminal_mono]),
    )


def dt_problem_recursive(n_bits, k, distinct=False, cap=200_000):
    """Reference query tree: the per-state recursion that
    ``dags.build_dt_problem`` replaced, kept verbatim, then the stable level
    sort of ``interleave_bfs``. Returns the DAG's lists and its compiled
    arrays as a ``SimpleNamespace``; ``preorder`` holds the recursion's own
    graph arrays (code, ptr, dst, level), terminal outputs and padded
    monomials, from which the library built its DAG before the sort."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    base = hypercube_problem(n_bits)
    raw_states = []
    raw_kind = []
    raw_edges = []
    raw_moves = []
    outs = []
    monos = []
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
            kids.append(add_state((j0, replies, ("end", a0)), TERMINAL, lvl + 1))
            outs.append(2 * j0 + a0)
            monos.append([2 * j + a for j, a in replies])
        raw_edges[idx] = tuple(kids)
        raw_moves[idx] = (("act", 0), ("act", 1))
        return idx

    root = add_state(("start",), OBSERVATION, 0)
    branches = []
    for j0 in range(n_bits):
        branches.append(build_branch(j0, (), 1))
    raw_edges[root] = tuple(branches)
    raw_moves[root] = tuple(("observe", j0) for j0 in range(n_bits))

    raw_terminals = [i for i, kd in enumerate(raw_kind) if kd == TERMINAL]
    payload = dict(zip(raw_terminals, zip(outs, map(frozenset, monos))))
    order = sorted(range(len(raw_states)), key=lambda i: (level[i], i))
    rank = {tmp: pos for pos, tmp in enumerate(order)}
    kind = [raw_kind[i] for i in order]
    edges = [tuple(rank[c] for c in raw_edges[i]) for i in order]
    ends = [payload[i] for i in order if i in payload]
    terminal_mono = [mono for _, mono in ends]
    row = {m: i for i, m in enumerate(dict.fromkeys(terminal_mono))}
    degree = [len(e) for e in edges]
    return types.SimpleNamespace(
        base=base,
        states=[raw_states[i] for i in order],
        kind=kind,
        edges=edges,
        edge_moves=[raw_moves[i] for i in order],
        level=np.array([level[i] for i in order]),
        code=np.array([CODE[kd] for kd in kind]),
        ptr=np.concatenate([[0], np.cumsum(degree)]).astype(int),
        src=np.repeat(np.arange(len(kind)), degree),
        dst=np.array([c for e in edges for c in e], dtype=int),
        terminal_out=np.array([out for out, _ in ends]),
        terminal_mono=terminal_mono,
        terms=MonomialTable(list(row)).terms,
        mono_row=np.array([row[m] for m in terminal_mono]),
        preorder=types.SimpleNamespace(
            graph=(*graph_arrays(raw_kind, raw_edges), level),
            terminal_out=outs,
            terms=padded(monos),
        ),
    )


def dag_lists(dag):
    """The per-state list views a ``DecisionDAG`` once carried, rebuilt from
    its arrays: ``kind`` strings, child tuples ``edges``, ``terminal_mono``
    frozensets, ``terminal_slot`` {terminal state: slot}, ``topo`` and
    ``decision_states``; and ``states`` with each edge's advance label
    ``edge_moves``. An interleaving's states are its node tuples, and an
    edge's move is the (component, node) pairs that advance, in component
    order; a query tree's come from ``dt_problem_recursive``."""
    g = dag.graph
    ptr, dst = g.ptr.tolist(), g.dst.tolist()
    kind_of = {code: kd for kd, code in CODE.items()}
    kind = [kind_of[c] for c in g.code.tolist()]
    if dag.family == "mediator":
        states = list(map(tuple, dag.nodes.tolist()))
        moves = [[] for _ in states]
        for s, d in zip(g.src.tolist(), dst):
            pairs = enumerate(zip(states[d], states[s]))
            moves[s].append(tuple((c, node) for c, (node, was) in pairs if node != was))
        moves = list(map(tuple, moves))
    else:
        ref = dt_problem_recursive(dag.n_bits, dag.k, dag.distinct)
        states, moves = ref.states, ref.edge_moves
    return types.SimpleNamespace(
        states=states,
        edge_moves=moves,
        kind=kind,
        edges=[tuple(dst[a:b]) for a, b in zip(ptr, ptr[1:])],
        terminal_mono=[
            frozenset(row[row >= 0].tolist()) for row in dag.monomials.terms[dag.mono_row]
        ],
        terminal_slot={s: i for i, s in enumerate(dag.terminal_states.tolist())},
        topo=list(range(dag.n_states)),
        decision_states=[s for s, kd in enumerate(kind) if kd == DECISION],
    )


def bm_next_single(learner, L, q=None):
    """The library's former one-player ``nfg.bm_next``, kept verbatim: a
    (2A, 2A) block squared over the bits of L and a (2A,) vector."""
    L = int(L)
    if L < 1:
        raise ValueError("need at least one iterate")
    n = learner.n_actions
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = (learner.q_matrix() if q is None else q).T
    block[n:, :n] = block[n:, n:] = np.eye(n)
    v = np.zeros(2 * n)
    v[:n] = 1.0 / n
    for bit in reversed(bin(L)[2:]):
        if bit == "1":
            v = block @ v
        block = block @ block
    return v[n:] / L


def bm_observe_single(learner, u, pi):
    """The library's former one-player ``nfg.bm_observe``, kept verbatim."""
    learner.mwu.observe(np.outer(pi, np.asarray(u, dtype=float)))


def expectation_oracle_per_call(game, dists):
    """The library's former ``nfg.expectation_oracle``, kept verbatim: it
    builds every player's einsum spec and argument list (or walks the
    polymatrix edges) anew on every call."""
    if len(dists) != game.n_players:
        raise ValueError(f"need {game.n_players} distributions, got {len(dists)}")
    dists = [np.asarray(d, dtype=float) for d in dists]
    lead = dists[0].shape[:-1]
    for i, d in enumerate(dists):
        if d.shape != lead + (game.action_counts[i],):
            raise ValueError(
                f"player {i} distribution has shape {d.shape}, "
                f"expected {lead + (game.action_counts[i],)}"
            )
    out = []
    if game.is_polymatrix:
        for i in range(game.n_players):
            u = np.zeros(lead + (game.action_counts[i],))
            for (a, b), (m_a, m_b) in game.edges.items():
                if i == a:
                    u += (m_a @ dists[b][..., None])[..., 0]
                elif i == b:
                    u += (m_b @ dists[a][..., None])[..., 0]
            out.append(u)
        return out
    letters = string.ascii_lowercase[: game.n_players]
    for i in range(game.n_players):
        others = ["..." + letters[j] for j in range(game.n_players) if j != i]
        spec = letters + "," + ",".join(others) + "->..." + letters[i]
        args = [dists[j] for j in range(game.n_players) if j != i]
        out.append(np.einsum(spec, game.tensors[i], *args))
    return out


def run_ce_per_player(game, eps, c=8.0, horizon=None, L=None, record_profile=True,
                      checkpoints=(), audit=True):
    """The library's former ``nfg.run_ce``, kept verbatim: one unstacked
    SwapLearner per player and a Python loop over players every round. Pins
    the batched loop's results bit for bit. The library's ``swap_gap`` is
    imported here as ``nfg_swap_gap``, beside this module's own oracle."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if horizon is None:
        horizon = ce_horizon(game, eps, c)
    if L is None:
        L = max(1, math.ceil(4.0 / eps))
    start = time.monotonic()
    learners = [SwapLearner(a, horizon=horizon) for a in game.action_counts]
    moments = [np.zeros((a, a)) for a in game.action_counts]
    rerouted = np.zeros(game.n_players)  # sum_t u_t . (Q_t^T pi_t)
    realized = np.zeros(game.n_players)  # sum_t u_t . pi_t
    err_sum = np.zeros(game.n_players)
    profile = CorrelatedProfile(game.n_players, dims=game.action_counts) if record_profile else None
    eyes = [np.eye(a) for a in game.action_counts]
    checkpoints = set(checkpoints)
    curve_rows = []
    for t in range(1, horizon + 1):
        qs = [learner.q_matrix() for learner in learners]
        pis = [bm_next_single(learners[i], L, q=qs[i]) for i in range(game.n_players)]
        utils = expectation_oracle(game, pis)
        for i in range(game.n_players):
            moments[i] += np.outer(pis[i], utils[i])
            shifted = qs[i].T @ pis[i]
            rerouted[i] += float(utils[i] @ shifted)
            realized[i] += float(utils[i] @ pis[i])
            err_sum[i] += float(np.sum(np.abs(shifted - pis[i])))
            bm_observe_single(learners[i], utils[i], pis[i])
        if record_profile:
            played = [pi > 0 for pi in pis]
            profile.add_round([
                SupportMix.from_arrays(pis[i][played[i]], eyes[i][played[i]])
                for i in range(game.n_players)
            ])
        if t in checkpoints or t == horizon:
            swap = np.array([
                swap_regret_from_moments(moments[i], t) for i in range(game.n_players)
            ])
            ext = np.array([
                (float(np.sum(np.max(moments[i], axis=1))) - rerouted[i]) / t
                for i in range(game.n_players)
            ])
            curve_rows.append((
                t, float(np.max(swap)), float(np.max(ext)), float(np.max(err_sum / t))
            ))
    swap_final = np.array([
        swap_regret_from_moments(moments[i], horizon) for i in range(game.n_players)
    ])
    gaps = None
    if record_profile and audit:
        gaps = nfg_swap_gap(profile, game)
    return CeResult(
        profile=profile,
        rounds=horizon,
        L=L,
        certified_gaps=gaps,
        swap_regrets=swap_final,
        elapsed=time.monotonic() - start,
        curve_rows=curve_rows,
    )


def expected_fixed_point_loop(problem, phi, cfg):
    """The library's former ``fixedpoint.expected_fixed_point``, kept
    verbatim: each iterate runs ``consistent_map``, the image, the node
    values and ``membership_violation`` anew, and the behavioral component
    copies its base."""
    image = phi if callable(phi) else (lambda comp: comp.expected_image(phi))
    x = cfg.init if cfg.init is not None else problem.uniform_point()
    x = np.asarray(x, dtype=float)
    vals = _node_values(problem, x)
    problem.require_membership(x, context="fixed-point init", vals=vals)
    iterates = [x]
    components = []
    for _ in range(cfg.L):
        comp = consistent_map(problem, x, cfg.delta, vals)
        components.append(comp)
        nxt = image(comp)
        vals = _node_values(problem, nxt)
        violation = problem.membership_violation(nxt, vals=vals)
        if violation is not None:
            raise InvalidDeviationError(
                f"extended map left the polytope ({violation}); "
                "the deviation is not valid on this problem"
            )
        if np.max(np.abs(nxt - x)) <= STALL_TOL:
            pi = MixtureStrategy([(1.0, comp)])
            return FixedPointResult(iterates, pi, nxt - x, cfg.L, True)
        iterates.append(nxt)
        x = nxt
    pi = MixtureStrategy([(1.0 / cfg.L, c) for c in components])
    error = (iterates[-1] - iterates[0]) / cfg.L
    return FixedPointResult(iterates[:-1], pi, error, cfg.L, False)


def _node_values(problem, x):
    """x's node values, shared by the membership check and the consistent
    map; None for a point of the wrong length, which the check reports."""
    return problem.node_values(x) if np.shape(x) == (problem.n_terminals,) else None


def consistent_map(problem, x, delta="beta", vals=None):
    """The library's former ``maps.consistent_map``, kept verbatim: the
    named consistent map's mixture at x, "beta" for the behavioral
    descriptor, "cara" for the peeling decomposition."""
    if delta == "beta":
        return BehavioralDescriptor(problem, x, vals)
    if delta == "cara":
        return caratheodory(problem, x, vals=vals)
    raise ValueError(f"unknown consistent map {delta!r}")


def fixed_point_config_from_eps(eps, **kw):
    """The library's former ``FixedPointConfig.from_eps``: the budget for a
    fixed-point error of eps (L = ceil(2/eps))."""
    return FixedPointConfig(L=max(1, math.ceil(2.0 / eps)), **kw)


def validate_flow(strategy, tol=1e-9):
    """The library's former ``ReducedStrategy.validate``: raise
    StructureError naming the first state whose flow breaks a rule, else
    return the strategy."""
    g = strategy.dag.graph
    mass, em = strategy.state_mass, strategy.edge_mass
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
    return strategy


def policy_from_choices(dag, choices, default=0):
    """The library's former ``dags.policy_from_choices``: the pure policy of
    a {decision state: edge index} table."""
    g = dag.graph
    share = np.where(g.decision_edge, 0.0, 1.0)
    states = np.flatnonzero(g.code == CODE[DECISION])
    picks = [choices.get(s, default) for s in states.tolist()]
    share[g.ptr[states] + np.array(picks, dtype=np.intp)] = 1.0
    return share


def bits_to_point(pairs, bits):
    """The library's former ``tfsdp.bits_to_point``: the tree-form point for
    per-bit set probabilities."""
    out = np.zeros(2 * len(pairs))
    for (lo, hi), b in zip(pairs, bits):
        out[hi] = b
        out[lo] = 1.0 - b
    return out


def graph_pure_response(problem, u, maximize=True):
    """The library's former ``DecisionProblem.best_pure_response`` (and, with
    maximize=False, ``worst_pure_response``): (value, strategy) by
    ``back_up`` and ``flow_down``; ties break to the lowest child."""
    value, share = back_up(
        problem.graph, np.asarray(u, dtype=float), "max" if maximize else "min"
    )
    return float(value[problem.root]), flow_down(problem.graph, share)[0][problem.terminals]


def eval_point(phi, x):
    """The library's former ``PolynomialDeviation.eval_point``: phi at x,
    each output a sum of coefficient times monomial, in term order."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(phi.n_outputs)
    for z, terms in enumerate(phi.terms):
        total = 0.0
        for c, m in terms:
            v = c
            for i in m:
                v *= x[i]
            total += v
        out[z] = total
    return out


def is_valid_on(phi, problem, pure=None, tol=1e-9):
    """The library's former ``PolynomialDeviation.is_valid_on``: whether
    ``validate_on_polytope`` passes."""
    try:
        phi.validate_on_polytope(problem, pure, tol)
        return True
    except InvalidDeviationError:
        return False


DENSE_CAP = 10**6


def to_dense(game):
    """The library's former ``NormalFormGame.to_dense``: the game expanded to
    dense tensors (small games only)."""
    size = math.prod(game.action_counts)
    if size > DENSE_CAP:
        raise ValueError(f"{size} joint actions exceed the dense cap")
    if game.tensors is not None:
        return game
    shape = tuple(game.action_counts)
    tensors = [np.zeros(shape) for _ in range(game.n_players)]
    for joint in np.ndindex(*shape):
        for i in range(game.n_players):
            tensors[i][joint] = game.payoff(i, joint)
    return NormalFormGame.dense(tensors, name=game.name)


def game_value(game, x1, x2, player):
    """The library's former ``EFGame.value``: the bilinear payoff x1^T U_i x2."""
    return float(np.asarray(x1) @ game.payoffs[player] @ np.asarray(x2))


def pure_bound_enumerated(problems, mats):
    """The library's former ``EFGame._pure_bound``: the largest |x^T U y|
    over every pair of the two problems' pure strategies."""
    xs = problems[0].enumerate_pure_strategies()
    ys = problems[1].enumerate_pure_strategies()
    X = np.array(xs, dtype=float)
    Y = np.array(ys, dtype=float)
    worst = 0.0
    for u in mats:
        worst = max(worst, float(np.max(np.abs(X @ u @ Y.T))))
    return worst


def graph_reference(code, ptr, dst, level):
    """The library's former ``Graph`` constructor, on a namespace: levels cut
    by ``np.split`` and blocks ordered by a three-key ``lexsort``."""
    self = types.SimpleNamespace()
    self.code = np.asarray(code, dtype=np.int8)
    self.n = n = len(self.code)
    self.ptr = np.asarray(ptr, dtype=np.intp)
    self.dst = np.asarray(dst, dtype=np.intp)
    self.level = np.asarray(level, dtype=np.intp)
    self.n_edges = int(self.ptr[-1])
    deg = np.diff(self.ptr)
    self.src = np.repeat(np.arange(n), deg)
    edge_level = self.level[self.src]
    if np.any(self.level[self.dst] <= edge_level):
        raise StructureError("state order is not topological")
    self.terminals = np.flatnonzero(self.code == CODE[TERMINAL])
    self.decision_edge = self.code[self.src] == CODE[DECISION]
    # Fraction of a state's mass each edge carries under uniform play.
    self.uniform_share = np.where(self.decision_edge, 1.0 / deg[self.src], 1.0)
    self.uniform_share.flags.writeable = False

    order = np.argsort(edge_level, kind="stable")
    cuts = np.flatnonzero(np.diff(edge_level[order])) + 1
    self.levels = [(e, self.src[e], self.dst[e]) for e in np.split(order, cuts)]

    inner = np.flatnonzero(deg)
    inner = inner[np.lexsort((deg[inner], self.code[inner], -self.level[inner]))]
    key = np.stack([self.level[inner], self.code[inner], deg[inner]])
    cuts = np.flatnonzero(np.any(np.diff(key), axis=0)) + 1
    self.blocks = []
    for states in np.split(inner, cuts):
        if states.size:
            edges = self.ptr[states][:, None] + np.arange(deg[states[0]])
            self.blocks.append(
                (int(self.code[states[0]]), states, edges, self.dst[edges])
            )
    return self
