"""Consistent maps from the strategy polytope into distributions over pure
strategies, and evaluation of deviations extended through them.

Two maps are provided. The behavioral map randomizes independently at each
decision point according to the conditional flow, so monomial expectations
factor into a short product and never require enumerating the support. The
peeling map repeatedly subtracts the largest feasible multiple of a greedy
pure strategy, producing at most one atom per terminal.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .tfsdp import DECISION, TERMINAL, flow_down, pure_share

SUPPORT_CAP = 10**6
PEEL_TOL = 1e-12


def monomial_expectation_beta(problem, vals, terminal_set):
    """E[prod_{z in S} x'_z] when x' is drawn from the behavioral map at x.

    ``vals`` are the node values of x (``problem.node_values(x)``). Zero when
    two terminals in S need conflicting actions at a shared decision point;
    otherwise the product of conditional flows over the decision edges the
    set requires, skipping unreached decision points.
    """
    required = {}
    for z in terminal_set:
        for j, child in problem.decision_edges[int(z)]:
            prev = required.get(j)
            if prev is not None and prev != child:
                return 0.0
            required[j] = child
    if not required:
        return 1.0
    prob = 1.0
    for j, child in required.items():
        if vals[j] > 0.0:
            prob *= vals[child] / vals[j]
            if prob == 0.0:
                return 0.0
    return prob


class SupportMix:
    """Finite mixture of pure strategies, stored as arrays.

    ``weights`` (n,) holds the atom probabilities and ``matrix`` (n, d) the
    atoms' 0/1 vectors, one row per atom. A mean or a monomial expectation is
    one gather and one reduction over the rows; the reductions run over the
    atoms in row order, so they round exactly as a left-to-right sum of
    weighted atoms would. ``SupportMix(atoms)`` takes (weight, vector)
    pairs; ``from_arrays`` takes the two arrays as they are.
    """

    def __init__(self, atoms):
        atoms = list(atoms)
        self._set(
            np.array([w for w, _ in atoms], dtype=float),
            np.array([y for _, y in atoms], dtype=float),
        )

    @classmethod
    def from_arrays(cls, weights, matrix):
        mix = cls.__new__(cls)
        mix._set(np.asarray(weights, dtype=float), np.asarray(matrix, dtype=float))
        return mix

    def _set(self, weights, matrix):
        if weights.ndim != 1 or matrix.ndim != 2 or len(weights) != len(matrix):
            raise ValueError(
                f"need (n,) weights and (n, d) atoms, got {weights.shape} and {matrix.shape}"
            )
        self.weights = weights
        self.matrix = matrix
        self._mean = None

    @property
    def atoms(self):
        return list(zip(self.weights.tolist(), self.matrix))

    @property
    def n_atoms(self):
        return len(self.weights)

    def mean(self):
        if self._mean is None:
            total = (self.weights[:, None] * self.matrix).cumsum(axis=0)[-1].copy()
            total.flags.writeable = False
            self._mean = total
        return self._mean

    def monomial_expectation(self, terminal_set):
        idx = list(terminal_set)
        if not idx:
            return 1.0
        terms = self.weights * self.matrix[:, idx].prod(axis=1)
        return float(terms.cumsum()[-1])

    def expected_image(self, phi):
        out = np.zeros(phi.n_outputs)
        for w, y in zip(self.weights, self.matrix):
            out += w * phi.eval_point(y)
        return out

    def __repr__(self):
        return f"SupportMix(atoms={self.n_atoms})"


class BehavioralDescriptor:
    """The behavioral map's distribution at a base point, kept implicit.

    The base is read-only, so its node values are computed once here and
    shared by every monomial expectation.
    """

    def __init__(self, problem, base):
        self.problem = problem
        self.base = np.array(base, dtype=float)
        self.base.flags.writeable = False
        self.vals = problem.node_values(self.base)

    def mean(self):
        return self.base

    def monomial_expectation(self, terminal_set):
        return monomial_expectation_beta(self.problem, self.vals, terminal_set)

    def expected_image(self, phi):
        return phi.expected_value(self.monomial_expectation)

    def support(self, cap=SUPPORT_CAP):
        return beta_support(self.problem, self.base, cap)

    def __repr__(self):
        return f"BehavioralDescriptor(base={self.base.round(6).tolist()})"


def beta_support(problem, x, cap=SUPPORT_CAP):
    """Explicit support of the behavioral map at x (desk scale only).

    Walks the positive-flow part of the tree, each subtree giving a block of
    atom weights and 0/1 rows: decision points stack their children's blocks
    scaled by conditional flow, observation points take the row-major outer
    product of their children's blocks. Pure strategies outside the positive
    region have probability zero and are omitted. A block over ``cap`` atoms
    raises CapacityError before it is allocated.
    """
    x = np.asarray(x, dtype=float)
    vals = problem.node_values(x)
    d = problem.n_terminals

    def check(n_atoms):
        if n_atoms > cap:
            raise CapacityError(
                f"behavioral support exceeds {cap} atoms; "
                "use the implicit descriptor instead"
            )

    def rec(node):
        kind = problem.kind[node]
        if kind == TERMINAL:
            row = np.zeros((1, d))
            row[0, problem.terminal_index[node]] = 1.0
            return np.ones(1), row
        if kind == DECISION:
            weights, blocks = [], []
            for c in problem.children[node]:
                if vals[c] > 0.0:
                    w, m = rec(c)
                    weights.append(vals[c] / vals[node] * w)
                    blocks.append(m)
            check(sum(map(len, weights)))
            return np.concatenate(weights), np.concatenate(blocks)
        weights, matrix = np.ones(1), np.zeros((1, d))
        for c in problem.children[node]:
            w, m = rec(c)
            check(len(weights) * len(w))
            weights = (weights[:, None] * w).ravel()
            matrix = (matrix[:, None, :] + m).reshape(-1, d)
        return weights, matrix

    return SupportMix.from_arrays(*rec(problem.root))


def caratheodory(problem, x, tol=PEEL_TOL):
    """Small-support mixture with mean x: at most one atom per terminal.

    Each round follows the child with the most remaining flow at every
    reached decision point (ties to the lowest index), subtracts the largest
    multiple of that pure strategy that keeps the residual nonnegative, and
    repeats until the flow is exhausted. Each round zeroes at least one
    terminal's residual.
    """
    x = np.asarray(x, dtype=float)
    problem.require_membership(x, context="peeling decomposition")
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


def consistent_map(problem, x, delta="beta"):
    """The named consistent map's mixture at x: "beta" for the behavioral
    descriptor, "cara" (or "caratheodory") for the peeling decomposition."""
    if delta == "beta":
        return BehavioralDescriptor(problem, x)
    if delta in ("cara", "caratheodory"):
        return caratheodory(problem, x)
    raise ValueError(f"unknown consistent map {delta!r}")


def extended_map_eval(phi, problem, x, delta="beta", validate=False):
    """Expectation of phi over the chosen consistent map's mixture at x.

    The behavioral route expands phi monomial by monomial; the peeling route
    evaluates phi on each atom. Either way the output is a convex mix of
    phi's values on pure strategies, so it stays inside the polytope whenever
    phi itself maps pure strategies into it.
    """
    if validate:
        phi.validate_on_polytope(problem)
    return consistent_map(problem, x, delta).expected_image(phi)


class MixtureStrategy:
    """Weighted mixture of per-round mixtures over pure strategies.

    Components expose ``mean`` and ``monomial_expectation``; both the
    implicit behavioral descriptor and the explicit SupportMix qualify.
    Monomial expectations are cached, since deviation evaluation asks for
    the same monomials across many terminals.
    """

    def __init__(self, components, kind="beta"):
        self.kind = kind
        total = sum(w for w, _ in components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights sum to {total}, expected 1")
        self.components = [(float(w), c) for w, c in components]
        self._cache: dict[frozenset, float] = {}
        self._mean = None

    def mean(self):
        if self._mean is None:
            out = None
            for w, comp in self.components:
                m = w * comp.mean()
                out = m if out is None else out + m
            out.flags.writeable = False
            self._mean = out
        return self._mean

    def monomial_expectation(self, terminal_set):
        key = frozenset(terminal_set)
        if not key:
            return 1.0
        if key not in self._cache:
            self._cache[key] = float(
                sum(w * comp.monomial_expectation(key) for w, comp in self.components)
            )
        return self._cache[key]

    def expected_image(self, phi):
        return phi.expected_value(self.monomial_expectation)

    def __repr__(self):
        return f"MixtureStrategy({self.kind}, components={len(self.components)})"
