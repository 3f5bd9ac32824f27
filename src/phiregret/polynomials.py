"""Multilinear polynomial maps between strategy vectors.

A monomial is a set of input terminal indices; pure strategies are 0/1
vectors, so monomials are idempotent and products reduce by set union. A
deviation keeps its distinct monomials in one ``maps.MonomialTable`` and its
terms as coefficient, table-row and output arrays, so evaluating it at
points or over a mixture is one table evaluation and one ``bincount``. The
module also extends maps from pure strategies to all 0/1 vectors, draws
random valid low-degree deviations, and enumerates the low-degree Boolean
functions on up to four variables through one Moebius matrix product.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidDeviationError, StructureError
from .maps import MonomialTable
from .tfsdp import DECISION, OBSERVATION, TERMINAL

COEFF_TOL = 1e-14


def _normalize_terms(raw, n_inputs):
    acc: dict[frozenset, float] = {}
    for coeff, mono in raw:
        mono = frozenset(int(i) for i in mono)
        if not math.isfinite(float(coeff)):
            raise ValueError(f"coefficient {coeff} of monomial {sorted(mono)} is not finite")
        if not all(0 <= i < n_inputs for i in mono):
            raise ValueError(f"monomial {sorted(mono)} leaves the inputs 0..{n_inputs - 1}")
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


def _term_lists(dev):
    """Each output's (coefficient, monomial) terms in stored order, for the
    builders' set arithmetic (desk scale)."""
    monos = [frozenset(t[t >= 0].tolist()) for t in dev.table.terms] + [frozenset()]
    outputs = [[] for _ in range(dev.n_outputs)]
    for c, r, z in zip(dev.coef.tolist(), dev.row.tolist(), dev.out.tolist()):
        outputs[z].append((c, monos[r]))
    return outputs


class PolynomialDeviation:
    """A polynomial map from one strategy vector space to another.

    ``outputs[z]`` is an iterable of (coefficient, monomial) pairs giving the
    z-th output coordinate: finite coefficients, monomials of input indices
    in [0, n_inputs). Merged by monomial and sorted by degree, then index,
    the terms are kept in output order as arrays ``coef``, ``out`` and
    ``row`` into ``table``, the distinct non-constant monomials (a constant
    reads row table.n, a trailing 1). Called on a mixture, the deviation
    returns E[phi(x)], a row per round of a ``RoundMixtures``.
    """

    def __init__(self, n_inputs, outputs):
        terms = [_normalize_terms(out, int(n_inputs)) for out in outputs]
        flat = [(c, m, z) for z, out in enumerate(terms) for c, m in out]
        index = {m: r for r, m in enumerate(dict.fromkeys(m for _, m, _ in flat if m))}
        self.n_inputs, self.n_outputs, self.table = int(n_inputs), len(terms), MonomialTable(index)
        self.coef = np.array([c for c, _, _ in flat], dtype=float)
        self.row = np.array([index.get(m, len(index)) for _, m, _ in flat], dtype=np.intp)
        self.out = np.array([z for _, _, z in flat], dtype=np.intp)
        self._constant = any(not m for _, m, _ in flat)  # a term reads the trailing 1

    @classmethod
    def from_arrays(cls, n_inputs, n_outputs, table, coef, row, out):
        """The deviation of the terms ``coef`` (float), ``row`` into ``table``
        and ``out`` (intp), kept as given: unmerged, in their order."""
        dev = cls.__new__(cls)
        dev.n_inputs, dev.n_outputs, dev.table = n_inputs, n_outputs, table
        dev.coef, dev.row, dev.out = coef, row, out
        dev._constant = row.max(initial=-1) == table.n
        return dev

    @classmethod
    def identity(cls, n):
        return cls(n, [[(1.0, (z,))] for z in range(n)])

    @classmethod
    def constant(cls, n_inputs, point):
        return cls(n_inputs, [[(float(v), ())] for v in point])

    def _monomials(self):
        """The table rows the terms read, each once, and their monomials."""
        rows = np.unique(self.row[self.row < self.table.n])
        return rows, [frozenset(t[t >= 0].tolist()) for t in self.table.terms[rows]]

    @property
    def degree(self):
        return max(map(len, self._monomials()[1]), default=0)

    def monomials(self):
        """Every distinct non-constant monomial appearing in any output."""
        return set(self._monomials()[1]) - {frozenset()}

    def _collect(self, values):
        """Sum coef * values[..., row] into each term's output, term by term in
        order (row table.n reads a trailing 1, padded on only when a constant
        term reads it), for every leading index of ``values`` (..., table.n)
        in one bincount, each index's outputs offset past the previous ones;
        one row, as every fixed-point iterate has, needs no offsets."""
        lead, n = values.shape[:-1], self.n_outputs
        if self._constant:
            padded = np.empty(lead + (self.table.n + 1,))
            padded[..., :-1] = values
            padded[..., -1] = 1.0
            values = padded
        terms = values.take(self.row, axis=-1)
        terms *= self.coef
        if not lead:
            return np.bincount(self.out, terms, minlength=n)
        k = math.prod(lead)
        bins = (self.out + n * np.arange(k)[:, None]).ravel()
        return np.bincount(bins, terms.ravel(), minlength=k * n).reshape(lead + (n,))

    def __call__(self, mixture):
        return self.image(mixture)[0]

    def image(self, mixture):
        """``self(mixture)``, and the (table, expectations) pair it is read from."""
        values = mixture.monomial_expectation(self.table)
        return self._collect(values), (self.table, values)

    def eval_batch(self, points):
        return self._collect(self.table.at(points))

    def expected_value(self, mono_fn):
        """Output when each monomial is replaced by its expectation.

        For a random input x' this computes E[phi(x')] coordinate-wise from
        E[prod_{i in m} x'_i] = mono_fn(m), one call per distinct monomial,
        by linearity of expectation; a constant term adds its coefficient.
        """
        values = np.ones(self.table.n)
        rows, monos = self._monomials()
        values[rows] = [float(mono_fn(m)) if m else 1.0 for m in monos]
        return self._collect(values)

    def compose(self, inner):
        """self after inner, expanding products and merging idempotent monomials."""
        if inner.n_outputs != self.n_inputs:
            raise ValueError(
                f"cannot compose: inner has {inner.n_outputs} outputs, "
                f"outer expects {self.n_inputs} inputs"
            )
        inner_terms = _term_lists(inner)
        outputs = []
        for terms in _term_lists(self):
            acc: dict[frozenset, float] = {}
            for c, m in terms:
                prod = ((c, frozenset()),)
                for i in sorted(m):
                    prod = _multiply_terms(prod, inner_terms[i])
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
        return (
            f"PolynomialDeviation({self.n_inputs}->{self.n_outputs}, "
            f"degree={self.degree}, terms={len(self.coef)})"
        )


def convex_combination(deviations, weights):
    """Pointwise convex mix of deviations with matching shapes."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(deviations),):
        raise ValueError(f"{weights.size} weights for {len(deviations)} deviations")
    if not np.isfinite(weights).all():
        raise ValueError(f"weights must be finite, got {weights.tolist()}")
    if abs(weights.sum() - 1.0) > 1e-12 or np.min(weights) < 0:
        raise ValueError("weights must be a probability vector")
    first = deviations[0]
    outputs = [[] for _ in range(first.n_outputs)]
    for w, dev in zip(weights, deviations):
        if dev.n_inputs != first.n_inputs or dev.n_outputs != first.n_outputs:
            raise ValueError("deviation shapes differ")
        for z, terms in enumerate(_term_lists(dev)):
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
