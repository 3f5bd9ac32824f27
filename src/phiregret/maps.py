"""Consistent maps from the strategy polytope into distributions over pure
strategies, and evaluation of deviations extended through them.

Two maps are provided. The behavioral map randomizes independently at each
decision point according to the conditional flow, so monomial expectations
factor into a short product and never require enumerating the support. The
peeling map repeatedly subtracts the largest feasible multiple of a greedy
pure strategy, producing at most one atom per terminal.

Monomials are compiled once into a ``MonomialTable``; every mixture's
``monomial_expectation`` evaluates a whole table in one call; an explicit
mixture reads its rows of degree 1 off its mean. A ``RoundMixtures`` holds
uniform mixtures, a row per round: the fixed point's pi is one round, and
the audit evaluates a profile's rounds together. A profile's atom columns
are read as stacks of one atom count, with their means, each stack's rows
checked as every ``SupportMix``'s are, and its components expanded into
columns a block at a time (``support_blocks``).
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .tfsdp import flow_down, pure_share

SUPPORT_CAP = 10**6
PEEL_TOL = 1e-12
STACK_ATOMS = 1024  # atoms a stack of mixtures holds at most, a block of expanded supports at least


def padded(rows):
    """Rows of ints as one array, padded with -1 to the longest row."""
    out = np.full((len(rows), max(map(len, rows), default=0)), -1, dtype=np.intp)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


class MonomialTable:
    """Distinct monomials over terminal coordinates, compiled once.

    ``terms`` (U, K) holds each monomial's coordinates, padded with -1; a pad
    reads as 1. ``monomial_expectation`` takes a table and returns U values.
    """

    def __init__(self, monomials):
        self._set(padded([sorted(int(z) for z in m) for m in monomials]))

    @classmethod
    def distinct(cls, rows):
        """The distinct monomials among ``rows`` (R, K), one monomial per row
        padded with -1 (in any order, a repeated coordinate read once), as a
        table in order of first occurrence, and each row's index into it."""
        rows, top = np.asarray(rows, dtype=np.intp), np.iinfo(np.intp).max
        terms = np.sort(np.where(rows < 0, top, rows), axis=1)
        terms[:, 1:][terms[:, 1:] == terms[:, :-1]] = top
        terms.sort(axis=1)
        terms = terms[:, : (terms < top).sum(1).max(initial=0)]
        terms[terms == top] = -1
        # a stable lexsort groups equal rows with each group's first row first
        order = np.lexsort(terms.T[::-1]) if terms.size else np.arange(len(terms))
        ranked = terms[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        group = np.empty(len(order), dtype=np.intp)
        group[order] = np.cumsum(new) - 1
        first = order[new]
        by_first = np.argsort(first)
        table = cls.__new__(cls)
        table._set(terms[first[by_first]])
        return table, np.argsort(by_first)[group]

    def _set(self, terms):
        self.terms = terms
        self.n = len(terms)
        self._paths = None
        linear = (terms >= 0).sum(1) == 1  # rows of one coordinate, read off a mean
        rest = terms[~linear]  # each row's index into (the other rows' values, the mean):
        self._split = rest, np.where(linear, len(rest) + terms.max(1, initial=-1),
                                     np.cumsum(~linear) - 1)

    def at(self, points):
        """Every monomial at each row of ``points`` (..., d): shape (..., U)."""
        return _products(self.terms, np.asarray(points, dtype=float))

    def decision_paths(self, problem):
        """``(edges, conflict)`` against the problem's tree: column u of
        ``edges`` (E, U) holds the decision edges (graph edge ids) monomial u
        requires, padded with -1, and ``conflict`` (U,) marks those requiring
        two edges out of one decision point. Compiled on the first call, with
        the flow buffer and start expectations ``monomial_expectation_beta`` reads."""
        if self._paths is None or self._paths[0] is not problem:
            g = problem.graph
            into = np.empty(g.n, dtype=np.intp)
            into[g.dst] = np.arange(g.n_edges)
            need = [
                sorted({int(into[c]) for z in row[row >= 0]
                        for _, c in problem.decision_edges[z]})
                for row in self.terms
            ]
            conflict = np.array(
                [len(set(g.src[e].tolist())) < len(e) for e in need], dtype=bool
            )
            self._paths = (problem, padded(need).T.copy(), conflict, np.empty(g.n_edges + 1))
            start = monomial_expectation_beta(problem, problem.start_values.copy(), self)
            start.flags.writeable = False
            self._paths += (start,)
        return self._paths[1:3]


def _products(terms, points):
    """The monomials ``terms`` (U, K) at each row of ``points`` (..., d), in
    the points' dtype, from the points padded with a 1 for a -1 to read."""
    pad = np.concatenate((points, np.ones(points.shape[:-1] + (1,), points.dtype)), axis=-1)
    out = np.ones(points.shape[:-1] + (len(terms),), points.dtype)
    for col in terms.T:
        out *= pad[..., col]
    return out


def _conditional_flow(graph, vals, flow):
    """Each edge's share vals[dst] / vals[src] of its source's node value (1
    below a state of value 0), then a trailing 1 for a -1 pad to read,
    written into ``flow`` (n_edges + 1,); node values (n, K) give (n_edges +
    1, K), a column per point."""
    flow.fill(1.0)
    above = vals[graph.src]
    np.divide(vals[graph.dst], above, out=flow[:-1], where=above > 0.0)
    return flow


def _beta_share(problem, vals):
    """The behavioral map's per-edge shares (K, E) at points of node values
    ``vals`` (K, n)."""
    g = problem.graph
    return _conditional_flow(g, vals.T, np.empty((g.n_edges + 1, len(vals)))).T[:, :-1]


def monomial_expectation_beta(problem, vals, table):
    """E[prod_{z in S} x'_z] for every monomial S of ``table`` when x' is
    drawn from the behavioral map at x.

    ``vals`` are the node values of x (``problem.node_values(x)``). Each
    expectation is the product of the conditional flows over the decision
    edges its monomial requires, an unreached decision point counting 1; it
    is 0 on a conflict. At ``problem.start_values`` they are read off the table.
    """
    edges, conflict = table.decision_paths(problem)
    if vals is problem.start_values:
        return table._paths[4]
    flow = _conditional_flow(problem.graph, vals, table._paths[3])
    out = flow[edges[0]] if len(edges) else np.ones(table.n)
    for row in edges[1:]:
        out *= flow[row]
    out[conflict] = 0.0
    return out


class SupportMix:
    """Finite mixture of pure strategies, stored as arrays.

    ``weights`` (n,) holds the atom probabilities and ``matrix`` (n, d) the
    atoms' 0/1 vectors as uint8, one row per atom; a uint8 matrix is kept as
    it is, any other is cast, and an entry of it other than 0 or 1 raises
    ValueError (``zero_one``), views of checked rows included. A mean
    or a table of monomial expectations is one float reduction over the rows
    in row order, so it rounds exactly as a left-to-right sum of weighted
    atoms would; a monomial of one coordinate reads the mean's, the same sum.
    ``SupportMix(atoms)`` takes
    (weight, vector) pairs; ``from_arrays`` the two arrays.
    Leading axes, weights (..., n) and matrix (..., n, d), make a stack of
    mixtures of n atoms each, whose means and expectations are stacked too.
    """

    def __init__(self, atoms):
        atoms = list(atoms)
        self._set(np.array([w for w, _ in atoms], dtype=float), [y for _, y in atoms])

    @classmethod
    def from_arrays(cls, weights, matrix):
        mix = cls.__new__(cls)
        mix._set(np.asarray(weights, dtype=float), matrix)
        return mix

    def _set(self, weights, matrix):
        matrix = np.asarray(matrix)
        if matrix.ndim < 2 or weights.shape != matrix.shape[:-1]:
            raise ValueError(
                f"need (..., n) weights and (..., n, d) atoms, got {weights.shape} and "
                f"{matrix.shape}"
            )
        if not zero_one(matrix):
            raise ValueError("atom rows must hold only 0s and 1s")
        self.weights = weights
        self.matrix = matrix.astype(np.uint8, copy=False)
        self._mean = None

    @property
    def atoms(self):
        return list(zip(self.weights.tolist(), self.matrix))

    @property
    def n_atoms(self):
        return self.weights.shape[-1]

    def mean(self):
        if self._mean is None:
            self._mean = _weighted_sum(self.weights, self.matrix).copy()
            self._mean.flags.writeable = False
        return self._mean

    def monomial_expectation(self, table):
        rest, index = table._split
        values = self.mean()
        if len(rest):
            values = np.concatenate((_weighted_sum(self.weights, _products(rest, self.matrix)),
                                     values), axis=-1)
        return values[..., index]

    def support(self):
        """The explicit mixture itself (see ``BehavioralDescriptor.support``)."""
        return self

    def __repr__(self):
        return f"SupportMix(atoms={self.n_atoms})"


def zero_one(matrix):
    """Whether every entry of the atom rows ``matrix`` is 0 or 1 (uint8: none past 1)."""
    if matrix.dtype == np.uint8:
        return matrix.max(initial=0) <= 1
    return ((matrix == 0) | (matrix == 1)).all()


def _weighted_sum(weights, values):
    """Each mixture's atom values (..., n, k) times its weights (..., n),
    added left to right by one cumsum over the atom axis."""
    terms = weights[..., None] * values
    return np.cumsum(terms, axis=-2, out=terms)[..., -1, :]


def _stacks(weights, matrix, sizes):
    """Consecutive mixtures of ``sizes`` atoms each, read as stacks of one
    atom count, at most STACK_ATOMS atoms a stack unless one mixture has
    more: yields each stack's mixture indices, weights (k, n) and atom rows
    (k, n, d), views where the mixtures are consecutive."""
    starts = sizes.cumsum() - sizes
    for n in sorted(set(sizes.tolist())):
        pick = (sizes == n).nonzero()[0]
        step = max(1, STACK_ATOMS // n)
        for k in range(0, len(pick), step):
            at = pick[k : k + step]
            rows = starts[at, None] + np.arange(n)
            if at[-1] - at[0] == len(at) - 1:  # consecutive mixtures: views
                rows = slice(rows[0, 0], rows[-1, -1] + 1)
            yield at, weights[rows].reshape(len(at), n), matrix[rows].reshape(len(at), n, -1)


def segment_means(weights, matrix, sizes):
    """The means (C, d) of consecutive mixtures of ``sizes`` atoms each, read
    only, each the left-to-right sum ``SupportMix.mean`` takes."""
    means = np.empty((len(sizes), matrix.shape[1]))
    for at, w, m in _stacks(weights, matrix, sizes):
        means[at] = _weighted_sum(w, m)
    means.flags.writeable = False
    return means


class BehavioralDescriptor:
    """The behavioral map's distribution at a base point, kept implicit.

    The base is read-only, so its node values are computed once (or taken
    from the caller as ``vals``) and shared by every monomial expectation.
    """

    def __init__(self, problem, base, vals=None):
        self.problem = problem
        self.base = np.array(base, dtype=float)
        self.base.flags.writeable = False
        self.vals = problem.node_values(self.base) if vals is None else vals

    @classmethod
    def shared(cls, problem, base, vals):
        """The descriptor of a read-only float base and its node values, kept without a copy."""
        comp = cls.__new__(cls)
        comp.problem, comp.base, comp.vals = problem, base, vals
        return comp

    def mean(self):
        return self.base

    def monomial_expectation(self, table):
        return monomial_expectation_beta(self.problem, self.vals, table)

    def support(self, cap=SUPPORT_CAP):
        return beta_support(self.problem, self.base, cap, self.vals)

    def __repr__(self):
        return f"BehavioralDescriptor(base={self.base.round(6).tolist()})"


def beta_support(problem, x, cap=SUPPORT_CAP, vals=None):
    """Explicit support of the behavioral map at x (desk scale only), or at
    each row of a stack of points x (K, N), whose node values ``vals`` the
    caller may pass: the pure strategies that each point's conditional flows
    reach, from one ``DecisionProblem.pure_support`` walk, as one SupportMix
    of every point's atoms, point after point. Pure strategies outside the
    positive region have probability zero and are omitted; a point whose
    support passes ``cap`` atoms raises CapacityError before anything is
    allocated.
    """
    if vals is None:
        vals = [problem.node_values(p) for p in np.atleast_2d(np.asarray(x, dtype=float))]
    share = _beta_share(problem, np.atleast_2d(vals))
    return SupportMix.from_arrays(*problem.pure_support(share, cap))


def support_blocks(components):
    """The components' atoms in order, as (weights, rows, atom counts)
    blocks: a component other than a behavioral descriptor gives one block
    of its support(); a run of behavioral descriptors of one problem is sized
    by one ``DecisionProblem.support_counts`` pass, then expanded by
    ``beta_support`` in blocks of at least STACK_ATOMS atoms."""
    def owner_of(comp):
        return comp.problem if isinstance(comp, BehavioralDescriptor) else None

    for owner, run in groupby(components, owner_of):
        run = list(run)
        if owner is None:
            for comp in run:
                mix = comp.support()
                yield mix.weights, mix.matrix, [mix.n_atoms]
            continue
        vals = np.array([c.vals for c in run])
        counts = owner.support_counts(_beta_share(owner, vals))[0]
        lo, atoms = 0, 0
        for hi, n in enumerate(counts.tolist(), start=1):
            atoms += n
            if atoms >= STACK_ATOMS or hi == len(run):
                mix = beta_support(owner, np.array([c.base for c in run[lo:hi]]),
                                   SUPPORT_CAP, vals[lo:hi])
                yield mix.weights, mix.matrix, counts[lo:hi].astype(np.intp)
                lo, atoms = hi, 0


def caratheodory(problem, x, tol=PEEL_TOL, vals=None):
    """Small-support mixture with mean x: at most one atom per terminal.

    Each round follows the child with the most remaining flow at every
    reached decision point (ties to the lowest index), subtracts the largest
    multiple of that pure strategy that keeps the residual nonnegative, and
    repeats until the flow is exhausted. Each round zeroes at least one
    terminal's residual.
    """
    x = np.asarray(x, dtype=float)
    problem.require_membership(x, context="peeling decomposition", vals=vals)
    g = problem.graph
    residual = x.copy()
    atoms = []
    remaining = 1.0
    while remaining > tol:
        vals = problem.node_values(residual)
        greedy = pure_share(g, vals[g.dst])
        y = flow_down(g, greedy)[0][problem.terminals]
        t = np.min(residual[y > 0.0])
        atoms.append((t, y))
        residual -= t * y
        remaining -= t
        if len(atoms) > problem.n_terminals + 1:
            raise RuntimeError(
                "peeling failed to terminate; residual flow "
                f"{remaining:.3g} after {len(atoms)} atoms"
            )
    total = sum(w for w, _ in atoms)
    return SupportMix([(w / total, y) for w, y in atoms])


def consistent_map(problem, x, delta, vals=None):
    """The named consistent map's mixture at a read-only float point x, whose
    node values ``vals`` the caller may pass: "beta" for the behavioral
    descriptor, which keeps x and vals uncopied, "cara" for the peeling
    decomposition."""
    if delta == "beta":
        vals = problem.node_values(x) if vals is None else vals
        return BehavioralDescriptor.shared(problem, x, vals)
    if delta == "cara":
        return caratheodory(problem, x, vals=vals)
    raise ValueError(f"unknown consistent map {delta!r}")


def extended_map_eval(phi, problem, x, delta="beta"):
    """Expectation of phi over the named consistent map's mixture at x
    (``consistent_map``).

    Both routes replace each monomial of phi by its expectation, in closed
    form for the behavioral map and over the atoms for the peeling map.
    Either way the output is a convex mix of phi's values on pure strategies,
    so it stays inside the polytope whenever phi itself maps pure strategies
    into it.
    """
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return phi(consistent_map(problem, x, delta))


class RoundMixtures:
    """T rounds of uniform mixtures over their components, evaluated a stack
    of components at a time.

    ``counts`` (T,) holds each round's number of components. Row t of
    ``mean()`` and of ``monomial_expectation(table)`` (and so of ``phi(pi)``)
    weights each of round t's components by 1 / counts[t]: every component's
    value is scaled by the weight and the scaled values are added in
    component order. Built from per-round component lists, kept in order in
    ``components``, each component is read on its own; built
    ``from_columns`` (``components`` None), the components are read as
    ``SupportMix`` stacks of one atom count, at most STACK_ATOMS atoms a
    stack unless one component has more, with its components' means.
    """

    def __init__(self, rounds):
        self._layout(np.array([len(comps) for comps in rounds], dtype=np.intp))
        self.components = [comp for comps in rounds for comp in comps]
        self._known = None

    @classmethod
    def single(cls, comp, known=None):
        """One round of the one component ``comp``, on a layout built once;
        ``known``, if given, is a table and comp's expectations of it."""
        pi = cls.__new__(cls)
        pi.__dict__.update(_SINGLE, components=[comp], _known=known)
        return pi

    @classmethod
    def from_columns(cls, weights, matrix, sizes, counts, means):
        """The rounds of a column profile's player: atom weights (N,) and
        0/1 rows (N, d) of all components in (round, component) order, each
        component's atom count ``sizes``, each round's component count
        ``counts`` and each component's mean ``means`` (C, d)."""
        rounds = cls.__new__(cls)
        rounds._layout(np.asarray(counts))
        rounds.components = rounds._known = None
        rounds._columns = (weights, matrix, np.asarray(sizes), means)
        return rounds

    def _layout(self, counts):
        """Keep ``counts`` and the layout ``_combine`` reads: each round's
        first component, 1 / count and the largest count. A round of no
        components has no mean and is refused."""
        if counts.min(initial=1) < 1:
            raise ValueError(f"round {int(counts.argmin()) + 1} of {len(counts)} has no components")
        self.counts, self._first = counts, counts.cumsum() - counts
        self._weight, self._most = (1.0 / counts)[:, None], counts.max(initial=1)

    def _combine(self, values):
        """Row t: round t's rows of ``values`` (C, k), each scaled by
        1 / counts[t] and added in order."""
        first, weight = self._first, self._weight
        out = values[first] * weight
        for j in range(1, self._most):
            more = self.counts > j  # the rounds of more than j components
            out[more] += values[first[more] + j] * weight[more]
        return out

    def mean(self):
        if self.components is None:
            return self._combine(self._columns[3])
        return self._combine(np.array([comp.mean() for comp in self.components]))

    def monomial_expectation(self, table):
        if self._known is not None and self._known[0] is table:
            return self._combine(self._known[1][None])
        if self.components is not None:
            return self._combine(np.array([comp.monomial_expectation(table)
                                           for comp in self.components]))
        weights, matrix, sizes, means = self._columns
        values = np.empty((len(sizes), table.n))
        for at, w, m in _stacks(weights, matrix, sizes):
            mix = SupportMix.from_arrays(w, m)
            mix._mean = means[at]  # the stack's means, as segment_means took them
            mix._mean.flags.writeable = False
            values[at] = mix.monomial_expectation(table)
        return self._combine(values)

    def __repr__(self):
        return f"RoundMixtures(rounds={len(self.counts)})"


_SINGLE = vars(RoundMixtures([[None]]))  # the layout of one round of one component
