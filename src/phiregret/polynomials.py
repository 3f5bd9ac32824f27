"""Multilinear polynomial maps between strategy vectors.

A deviation is stored per output terminal as a list of (coefficient, monomial)
terms, where a monomial is a frozenset of input terminal indices and the empty
set is the constant term. Pure strategies are 0/1 vectors, so monomials are
idempotent and products reduce by set union. The module also extends maps
from pure strategies to all 0/1 vectors, draws random valid low-degree
deviations, and enumerates the low-degree Boolean functions on up to four
variables through one Moebius matrix product.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidDeviationError, StructureError
from .tfsdp import DECISION, OBSERVATION, TERMINAL

COEFF_TOL = 1e-14


def _normalize_terms(raw):
    acc: dict[frozenset, float] = {}
    for coeff, mono in raw:
        mono = frozenset(int(i) for i in mono)
        acc[mono] = acc.get(mono, 0.0) + float(coeff)
    return tuple(
        (c, m) for m, c in sorted(acc.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        if abs(c) > COEFF_TOL
    )


def _multiply_terms(a, b):
    out: dict[frozenset, float] = {}
    for ca, ma in a:
        for cb, mb in b:
            m = ma | mb
            out[m] = out.get(m, 0.0) + ca * cb
    return tuple((c, m) for m, c in out.items() if abs(c) > COEFF_TOL)


class PolynomialDeviation:
    """A polynomial map from one strategy vector space to another.

    ``outputs[z]`` is an iterable of (coefficient, monomial) pairs giving the
    z-th output coordinate; monomials are iterables of input terminal indices.
    """

    def __init__(self, n_inputs, outputs):
        self.n_inputs = int(n_inputs)
        self.terms = [_normalize_terms(out) for out in outputs]
        self.n_outputs = len(self.terms)

    @classmethod
    def identity(cls, n):
        return cls(n, [[(1.0, (z,))] for z in range(n)])

    @classmethod
    def constant(cls, n_inputs, point):
        return cls(n_inputs, [[(float(v), ())] for v in point])

    @property
    def degree(self):
        return max((len(m) for out in self.terms for _, m in out), default=0)

    def monomials(self):
        """Every distinct non-constant monomial appearing in any output."""
        return {m for out in self.terms for _, m in out if m}

    def eval_batch(self, points):
        points = np.asarray(points, dtype=float)
        out = np.zeros((points.shape[0], self.n_outputs))
        for z, terms in enumerate(self.terms):
            for c, m in terms:
                col = np.full(points.shape[0], c)
                for i in m:
                    col = col * points[:, i]
                out[:, z] += col
        return out

    def expected_value(self, mono_fn):
        """Output when each monomial is replaced by its expectation.

        For a random input x' this computes E[phi(x')] coordinate-wise from
        E[prod_{i in m} x'_i] = mono_fn(m), by linearity of expectation.
        """
        out = np.zeros(self.n_outputs)
        for z, terms in enumerate(self.terms):
            total = 0.0
            for c, m in terms:
                total += c * float(mono_fn(m)) if m else c
            out[z] = total
        return out

    def compose(self, inner):
        """self after inner, expanding products and merging idempotent monomials."""
        if inner.n_outputs != self.n_inputs:
            raise ValueError(
                f"cannot compose: inner has {inner.n_outputs} outputs, "
                f"outer expects {self.n_inputs} inputs"
            )
        outputs = []
        for terms in self.terms:
            acc: dict[frozenset, float] = {}
            for c, m in terms:
                prod = ((c, frozenset()),)
                for i in sorted(m):
                    prod = _multiply_terms(prod, inner.terms[i])
                for pc, pm in prod:
                    acc[pm] = acc.get(pm, 0.0) + pc
            outputs.append(list(acc.items()))
        return PolynomialDeviation(
            inner.n_inputs, [[(c, m) for m, c in out] for out in outputs]
        )

    def validate_on_polytope(self, problem, pure=None, tol=1e-9):
        """Raise unless every pure strategy maps into the strategy polytope."""
        if pure is None:
            pure = problem.enumerate_pure_strategies()
        images = self.eval_batch(pure)
        for row, image in zip(pure, images):
            violation = problem.membership_violation(image, tol)
            if violation is not None:
                raise InvalidDeviationError(
                    f"image of pure strategy {row.astype(int).tolist()} leaves "
                    f"the polytope: {violation}"
                )
        return images

    def __repr__(self):
        n_terms = sum(len(t) for t in self.terms)
        return (
            f"PolynomialDeviation({self.n_inputs}->{self.n_outputs}, "
            f"degree={self.degree}, terms={n_terms})"
        )


def convex_combination(deviations, weights):
    """Pointwise convex mix of deviations with matching shapes."""
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12 or np.min(weights) < 0:
        raise ValueError("weights must be a probability vector")
    first = deviations[0]
    outputs = [[] for _ in range(first.n_outputs)]
    for w, dev in zip(weights, deviations):
        if dev.n_inputs != first.n_inputs or dev.n_outputs != first.n_outputs:
            raise ValueError("deviation shapes differ")
        for z, terms in enumerate(dev.terms):
            outputs[z].extend((w * c, m) for c, m in terms)
    return PolynomialDeviation(first.n_inputs, outputs)


def canonical_cut(problem, node):
    """Terminal indices whose coordinate sum equals the node's value on the
    polytope: a terminal is itself, a decision point joins its children, an
    observation point delegates to its first child."""
    kind = problem.kind[node]
    if kind == TERMINAL:
        return [int(problem.terminal_index[node])]
    if kind == OBSERVATION:
        return canonical_cut(problem, problem.children[node][0])
    out = []
    for c in problem.children[node]:
        out.extend(canonical_cut(problem, c))
    return out


def extend_identity(problem):
    """Low-degree polynomial on all 0/1 vectors that is the identity on the
    pure strategies.

    Each output terminal is a product, over the decision points on its path,
    of a linear form: the cut sum of the point's first child when the path
    takes the first action, and one minus that sum otherwise. Every decision
    point must be binary (binarize first if not); the degree is at most the
    problem depth.
    """
    for node in range(problem.n_nodes):
        if problem.kind[node] == DECISION and len(problem.children[node]) != 2:
            raise StructureError(
                f"decision point {problem.node_ids[node]!r} has "
                f"{len(problem.children[node])} actions; the identity extension "
                "needs binary decision points (binarize the problem first)"
            )
    first_child_form = {}
    for node in range(problem.n_nodes):
        if problem.kind[node] == DECISION:
            cut = canonical_cut(problem, problem.children[node][0])
            first_child_form[node] = tuple((1.0, frozenset([t])) for t in cut)
    outputs = []
    for edges in problem.decision_edges:
        poly = ((1.0, frozenset()),)
        for j, chosen in edges:
            form = first_child_form[j]
            if chosen != problem.children[j][0]:
                form = ((1.0, frozenset()),) + tuple((-c, m) for c, m in form)
            poly = _multiply_terms(poly, form)
        outputs.append(list(poly))
    return PolynomialDeviation(problem.n_terminals, outputs)


def extend_polynomial(f, problem):
    """Compose a map defined on pure strategies with the identity extension,
    yielding a map on all 0/1 vectors that agrees with f on pure strategies.
    Degree grows by at most a factor of the problem depth."""
    return f.compose(extend_identity(problem))


def random_low_degree_deviation(problem, rng, degree=2, pieces=3, pure=None):
    """Random validated deviation of the requested degree.

    Each piece tests a random monomial m of the given size (0/1-valued on
    pure strategies) and outputs one of two random polytope points
    accordingly: m(x)*g1 + (1-m(x))*g0. Pieces are mixed convexly, and the
    identity joins the mix when the problem is shallow enough. The result
    maps every pure strategy into the polytope by construction, and is
    validated before being returned.
    """
    if pure is None:
        pure = problem.enumerate_pure_strategies()
    n = problem.n_terminals
    parts = []
    for _ in range(pieces):
        size = int(rng.integers(1, degree + 1))
        mono = tuple(rng.choice(n, size=size, replace=False))
        g1 = problem.random_point(rng)
        g0 = problem.random_point(rng)
        outputs = []
        for z in range(n):
            outputs.append([(g1[z], mono), (g0[z], ()), (-g0[z], mono)])
        parts.append(PolynomialDeviation(n, outputs))
    if problem.depth <= degree:
        parts.append(PolynomialDeviation.identity(n))
    weights = rng.dirichlet(np.ones(len(parts)))
    dev = convex_combination(parts, weights)
    dev.validate_on_polytope(problem, pure)
    return dev


def all_low_degree_boolean_functions(n_vars, max_degree):
    """Every function {0,1}^n -> {0,1} of at most the given degree, as
    multilinear term tuples in truth-table order (bit i of a table's index
    is its value at the i-th point of {0,1}^n in product order). Brute force
    over all 2^(2^n) truth tables; desk scale only.

    The degree of a truth table is read off its Moebius transform: the
    coefficient of monomial S is sum_{T <= S} (-1)^(|S|-|T|) f(T), one
    integer matrix applied to every table at once.
    """
    if n_vars > 4:
        raise ValueError("truth-table enumeration is capped at 4 variables")
    subsets = [
        frozenset(s) for r in range(n_vars + 1)
        for s in itertools.combinations(range(n_vars), r)
    ]
    points = [
        frozenset(itertools.compress(range(n_vars), bits))
        for bits in itertools.product((0, 1), repeat=n_vars)
    ]
    moebius = np.array(
        [[(-1) ** (len(s) - len(t)) if t <= s else 0 for t in points] for s in subsets],
        dtype=np.int64,
    )
    tables = (np.arange(2 ** len(points))[:, None] >> np.arange(len(points))) & 1
    coeffs = tables @ moebius.T
    too_high = [len(s) > max_degree for s in subsets]
    kept = coeffs[~np.any(coeffs[:, too_high] != 0, axis=1)]
    return [tuple((float(c), s) for c, s in zip(row, subsets) if c) for row in kept]
