"""Expected fixed points of extended deviations, and the regret minimizer
built on them.

A deviation phi maps pure strategies into the polytope; lifted through a
consistent map delta it becomes a self-map of the polytope. Instead of
solving for an exact fixed point, iterate x_{l+1} = phi^delta(x_l) and play
the uniform mixture pi of the delta(x_l) (a one-round ``RoundMixtures``):
E_pi[phi(x) - x] telescopes to (phi^delta(x_L) - x_1)/L, whose induced norm
is at most 2/L. Feeding the induced linear utilities to an external-regret
learner over the deviation DAG then drives the full deviation regret down.
``PhiRegretRun`` measures both regrets of such a run exactly, from one
hindsight best response per checkpoint, and the displacement its fixed
points measured, which is their difference.

An iterate reuses what the problem and DAG build once: the tree pass, the
start point, its node values and monomial expectations (the first image
reads them), a boolean membership test (a failure alone is worded) and the
monomial paths with their flow buffer; a stalled pi reuses one layout. Its
behavioral component keeps the iterate and node values uncopied.
``SharedCfr`` runs the learners of several minimizers as one, over their
joined DAGs, reading the decision edges it lists once in one gather.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dags import (
    ReducedStrategy, best_reduced_strategy, deviation_polynomial, join, terminal_weights,
)
from .errors import InvalidDeviationError
from .learners import CfrLearner, RegretMeter
from .maps import RoundMixtures, consistent_map
from .polynomials import PolynomialDeviation
from .tfsdp import tree_values

STALL_TOL = 1e-12


@dataclass(frozen=True)
class FixedPointConfig:
    """Iteration budget and consistent-map choice for fixed-point runs."""

    L: int = 50
    delta: str = "beta"
    init: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.L, numbers.Integral) or self.L < 1:
            raise ValueError(f"the fixed point needs an integer L >= 1, got {self.L!r}")
        if self.delta not in ("beta", "cara"):
            raise ValueError(f"unknown consistent map {self.delta!r}")


@dataclass
class FixedPointResult:
    iterates: list
    pi: RoundMixtures
    error_vector: np.ndarray
    L: int
    stalled: bool

    @property
    def error_bound(self):
        return 2.0 / self.L


def expected_fixed_point(problem, phi, cfg):
    """Run the averaging iteration for one deviation.

    ``phi`` is a PolynomialDeviation: called on a mixture over pure
    strategies, it returns E[phi(x)]. Returns the iterates, the one-round
    ``RoundMixtures`` pi, and the exact displacement
    E_pi[phi(x) - x] = (phi^delta(x_L) - x_1)/L.

    If an iterate reproduces itself (an exact fixed point of the extended
    map), pi collapses to that single component and the displacement is the
    residual at the fixed point — at most the stall tolerance, well under
    the 2/L guarantee, and holds a PolynomialDeviation's last expectations.
    """
    shape = (problem.n_terminals,)
    if cfg.init is None:
        x, vals = problem.start, problem.start_values
    else:
        x = np.array(cfg.init, dtype=float)
        vals = problem.node_values(x) if x.shape == shape else None
        problem.require_membership(x, context="fixed-point init", vals=vals)
    iterates = [x]
    components = []
    for _ in range(cfg.L):
        x.flags.writeable = False  # the component keeps the iterate, uncopied
        comp = consistent_map(problem, x, cfg.delta, vals)
        components.append(comp)
        nxt, known = phi.image(comp) if isinstance(phi, PolynomialDeviation) else (phi(comp), None)
        nxt = np.asarray(nxt, dtype=float)
        vals = tree_values(problem.graph, nxt) if nxt.shape == shape else None
        if vals is None or not problem.in_polytope(nxt, vals):
            raise InvalidDeviationError(
                f"extended map left the polytope "
                f"({problem.membership_violation(nxt, vals=vals)}); "
                "the deviation is not valid on this problem"
            )
        if abs(nxt - x).max() <= STALL_TOL:
            return FixedPointResult(iterates, RoundMixtures.single(comp, known), nxt - x, cfg.L, True)
        iterates.append(nxt)
        x = nxt
    error = (iterates[-1] - iterates[0]) / cfg.L
    return FixedPointResult(iterates[:-1], RoundMixtures([components]), error, cfg.L, False)


@dataclass
class RoundRecord:
    round: int
    phi_regret: float
    external_regret: float
    fp_error_bound: float


CURVE_COLUMNS = ("round", "phi_regret", "external_regret", "fp_error_bound")


def curves_csv(rows, columns=CURVE_COLUMNS):
    """Regret curves as CSV text: the header, then one line per checkpoint
    row, with floats written to round-trip."""
    lines = [",".join(columns)]
    lines += [
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


class PhiRegretRun(RegretMeter):
    """Aggregates a learning run for exact regret measurement.

    On top of the meter's summed terminal-state weights (for the hindsight
    best deviation) and realized deviation values <W_t, q_t>, tracks the
    baseline utilities <u_t, mean of pi_t>, the fixed-point bounds and the
    displacements <u_t, error_vector_t> the fixed points measured. One
    hindsight solve gives both regrets, so a checkpoint solves once.
    """

    def __init__(self, dag):
        super().__init__(dag)
        self.baseline = 0.0
        self.fp_slack_sum = 0.0
        self.displacement = 0.0
        self.records = []

    def record(self, weights, q_vector, base_value, fp_bound, displacement):
        super().record(weights, q_vector)
        self.baseline += float(base_value)
        self.fp_slack_sum += float(fp_bound)
        self.displacement += float(displacement)

    def _regrets(self):
        """Time-averaged (Phi-regret against the best deviation in the DAG's
        set, external regret of the played deviations), from one solve."""
        if self.rounds == 0:
            return 0.0, 0.0
        best, _ = best_reduced_strategy(self.dag, self.weight_sum)
        return (best - self.baseline) / self.rounds, (best - self.realized) / self.rounds

    def phi_regret(self):
        return self._regrets()[0]

    def external_regret(self):
        return self._regrets()[1]

    def fp_error_bound(self):
        return self.fp_slack_sum / self.rounds if self.rounds else 0.0

    def fp_displacement(self):
        """The mean <u_t, error_vector_t>: Phi-regret minus external regret, up to rounding."""
        return self.displacement / self.rounds if self.rounds else 0.0

    def checkpoint(self):
        rec = RoundRecord(self.rounds, *self._regrets(), self.fp_error_bound())
        self.records.append(rec)
        return rec


class PhiRegretMinimizer:
    """Deviation-regret minimizer over a decision-DAG deviation set.

    Each round: the inner learner proposes a deviation q; the expected
    fixed point of q's extended map yields the mixture pi to play. On
    feedback u (normalized so all pure-strategy payoffs lie in [-1, 1]),
    the learner is charged the linear utility w[t] = u[out(t)] * E_pi[mono(t)]
    whose value at q is exactly <u, E_pi[phi_q(x)]>.
    """

    def __init__(self, dag, cfg=None, learner=None):
        self.dag = dag
        self.problem = dag.base
        self.cfg = cfg or FixedPointConfig()
        self.learner = learner or CfrLearner(dag)
        self.run = PhiRegretRun(dag)
        self._pending = None

    def next_mixture(self):
        q = self.learner.next_strategy()
        qv = q.terminal_vector()
        fp = expected_fixed_point(self.problem, deviation_polynomial(self.dag, qv), self.cfg)
        self._pending = (qv, fp)
        return q, fp

    def observe_utility(self, u):
        """Charge the learner for utility u over the base problem's terminals;
        a u of the wrong length or with a non-finite value changes nothing."""
        if self._pending is None:
            raise RuntimeError("observe_utility called before next_mixture")
        u, n = np.asarray(u, dtype=float), self.problem.n_terminals
        if u.shape != (n,):
            raise ValueError(f"utility of shape {u.shape}; expected length {n}")
        if not np.isfinite(u).all():
            raise ValueError("utility values must be finite")
        qv, fp = self._pending
        self._pending = None
        w = terminal_weights(self.dag, u[None], fp.pi)[0]
        self.learner.observe(w)
        base = float(u @ fp.pi.mean()[0])
        self.run.record(w, qv, base, fp.error_bound, u @ fp.error_vector)
        return w


class SharedCfr:
    """One CfrLearner over several DAGs joined under an observation root
    (``dags.join``); ``seats[i]`` is the i-th DAG's learner. Restricted to a
    DAG, the joint flow and regrets are that DAG's own, so each seat plays
    exactly as a CfrLearner of its own, at one learner's dispatch for all. A
    seat reads its slice of the joint flow; the joint update runs once every
    seat has observed. Seats hold the learner, not this object, so no
    reference cycle outlives a run."""

    def __init__(self, dags):
        joined, parts = join(dags)
        self.learner = CfrLearner(joined)
        self.waiting = [None] * len(dags)
        self.seats = [_Seat(self.learner, self.waiting, i, dag, *part)
                      for i, (dag, part) in enumerate(zip(dags, parts))]


class _Seat:
    """One DAG's learner within a SharedCfr."""

    def __init__(self, learner, waiting, index, dag, states, edges):
        self.learner, self.waiting, self.index = learner, waiting, index
        self.dag, self.states, self.edges = dag, states, edges

    def next_strategy(self):
        q = self.learner.next_strategy()
        return ReducedStrategy(self.dag, q.state_mass[self.states], q.edge_mass[self.edges])

    def observe(self, weights):
        self.waiting[self.index] = weights
        if all(w is not None for w in self.waiting):
            self.learner.observe(np.concatenate(self.waiting))
            self.waiting[:] = [None] * len(self.waiting)


def extract_expected_fixed_point(minimizer, phi, eps, diameter=None, budget=10000):
    """Drive any deviation-regret minimizer to an approximate fixed point.

    Round t: ask the minimizer for its mixture, measure the displacement
    g = E[phi(x) - x] of the PolynomialDeviation phi; stop when the
    Euclidean norm is at most eps times the strategy-set diameter, otherwise
    feed back the utility g (normalized), which rewards moving along the
    displacement — a minimizer with vanishing regret against phi cannot keep
    the displacement large.

    The minimizer must expose next_mixture() (returning a mixture, or the
    (deviation, FixedPointResult) pair of PhiRegretMinimizer) and
    observe_utility(u). eps > 0 and diameter >= 0 must be finite; diameter
    defaults to the max pairwise distance between the problem's pure
    strategies. Returns (mixture, rounds, error).
    """
    if not isinstance(budget, numbers.Integral) or budget < 1:
        raise ValueError(f"the round budget must be an integer >= 1, got {budget!r}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if diameter is not None and not 0 <= diameter < np.inf:
        raise ValueError(f"diameter must be nonnegative and finite, got {diameter}")
    if diameter is None:
        problem = getattr(minimizer, "problem", None)
        if problem is None:
            raise ValueError("pass diameter= when the minimizer has no .problem")
        from .tfsdp import l2_diameter

        diameter = l2_diameter(problem.enumerate_pure_strategies())
    threshold = eps * diameter
    last_err = None
    for t in range(1, budget + 1):
        pi = minimizer.next_mixture()
        pi = pi[1].pi if isinstance(pi, tuple) else pi
        g = phi(pi) - pi.mean()
        g = g[0] if isinstance(pi, RoundMixtures) else g  # pi's one round
        err = float(np.linalg.norm(g))
        last_err = err
        if err <= threshold:
            return pi, t, err
        minimizer.observe_utility(g / err)
    raise RuntimeError(
        f"no {eps:.3g}-expected fixed point within {budget} rounds "
        f"(last error {last_err:.3g}); the minimizer's regret exceeds the target"
    )
