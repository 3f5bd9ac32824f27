"""Expected fixed points of extended deviations, and the regret minimizer
built on them.

A deviation phi maps pure strategies into the polytope; lifted through a
consistent map delta it becomes a self-map of the polytope. Instead of
solving for an exact fixed point, iterate x_{l+1} = phi^delta(x_l) and play
the uniform mixture pi of the delta(x_l): the deviation displacement
E_pi[phi(x) - x] telescopes to (phi^delta(x_L) - x_1)/L, whose induced norm
is at most 2/L. Feeding the induced linear utilities to an external-regret
learner over the deviation DAG then drives the full deviation regret down.
``PhiRegretRun`` measures both regrets of such a run exactly, from one
hindsight best response per checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dags import best_reduced_strategy, deviation_image, terminal_weights
from .errors import InvalidDeviationError
from .learners import CfrLearner, RegretMeter
from .maps import MixtureStrategy, consistent_map

STALL_TOL = 1e-12


@dataclass
class FixedPointConfig:
    """Iteration budget and consistent-map choice for fixed-point runs."""

    L: int = 50
    delta: str = "beta"
    init: np.ndarray | None = None

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"the fixed point needs L >= 1 iterates, got {self.L}")

    @classmethod
    def from_eps(cls, eps, **kw):
        """Budget for a fixed-point error of eps (L = ceil(2/eps))."""
        return cls(L=max(1, math.ceil(2.0 / eps)), **kw)


@dataclass
class FixedPointResult:
    iterates: list
    pi: MixtureStrategy
    error_vector: np.ndarray
    L: int
    stalled: bool

    @property
    def error_bound(self):
        return 2.0 / self.L


def expected_fixed_point(problem, phi, cfg):
    """Run the averaging iteration for one deviation.

    ``phi`` is a PolynomialDeviation, or any callable mapping a mixture over
    pure strategies (anything exposing monomial expectations) to E[phi(x)].
    Returns the iterates, the mixture pi, and the exact displacement
    E_pi[phi(x) - x] = (phi^delta(x_L) - x_1)/L.

    If an iterate reproduces itself (an exact fixed point of the extended
    map), pi collapses to that single component and the displacement is the
    residual at the fixed point — at most the stall tolerance, well under
    the 2/L guarantee.
    """
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
    baseline utilities <u_t, mean of pi_t> and the fixed-point bounds. One
    hindsight solve gives both regrets, so a checkpoint solves once.
    """

    def __init__(self, dag):
        super().__init__(dag)
        self.baseline = 0.0
        self.fp_slack_sum = 0.0
        self.records = []

    def record(self, weights, q_vector, base_value, fp_bound):
        super().record(weights, q_vector)
        self.baseline += float(base_value)
        self.fp_slack_sum += float(fp_bound)

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
        fp = expected_fixed_point(
            self.problem, lambda pi: deviation_image(self.dag, qv, pi), self.cfg
        )
        self._pending = (qv, fp)
        return q, fp

    def observe_utility(self, u):
        if self._pending is None:
            raise RuntimeError("observe_utility called before next_mixture")
        qv, fp = self._pending
        self._pending = None
        w = terminal_weights(self.dag, u, fp.pi)
        self.learner.observe(w)
        base = float(np.asarray(u, dtype=float) @ fp.pi.mean())
        self.run.record(w, qv, base, fp.error_bound)
        return w


def _as_mixture(proposed):
    """The playable mixture of a next_mixture() return: PhiRegretMinimizer's
    (deviation, FixedPointResult) pair, or a bare mixture."""
    if isinstance(proposed, tuple):
        _, fp = proposed
        return fp.pi
    return proposed


def extract_expected_fixed_point(minimizer, phi, eps, diameter=None, budget=10000):
    """Drive any deviation-regret minimizer to an approximate fixed point.

    Round t: ask the minimizer for its mixture, measure the displacement
    g = E[phi(x) - x]; stop when the Euclidean norm is at most eps times the
    strategy-set diameter, otherwise feed back the utility g (normalized),
    which rewards moving along the displacement — a minimizer with vanishing
    regret against phi cannot keep the displacement large.

    The minimizer must expose next_mixture() (returning a mixture, or the
    (deviation, FixedPointResult) pair of PhiRegretMinimizer) and
    observe_utility(u). diameter defaults to the max pairwise distance
    between the problem's pure strategies. Returns (mixture, rounds, error).
    """
    if diameter is None:
        problem = getattr(minimizer, "problem", None)
        if problem is None:
            raise ValueError("pass diameter= when the minimizer has no .problem")
        from .tfsdp import l2_diameter

        diameter = l2_diameter(problem.enumerate_pure_strategies())
    image = phi if callable(phi) else (lambda pi: pi.expected_image(phi))
    threshold = eps * diameter
    last_err = None
    for t in range(1, budget + 1):
        pi = _as_mixture(minimizer.next_mixture())
        g = image(pi) - pi.mean()
        err = float(np.linalg.norm(g))
        last_err = err
        if err <= threshold:
            return pi, t, err
        minimizer.observe_utility(g / err)
    raise RuntimeError(
        f"no {eps:.3g}-expected fixed point within {budget} rounds "
        f"(last error {last_err:.3g}); the minimizer's regret exceeds the target"
    )
