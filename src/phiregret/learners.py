"""External-regret learners: regret-matching+ over decision DAGs and
multiplicative weights over finite arms, plus exact regret measurement.

The regret-matching+ learner keeps one regret per edge of the DAG's compiled
graph (see ``tfsdp.Graph``); its policy is a per-edge share array. Each
round it builds that policy and its top-down flow once, plays the flow, and
backs up the round's values under the same policy.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .dags import best_reduced_strategy, forward_flow, state_weights
from .tfsdp import CODE, DECISION, back_up


class CfrLearner:
    """Regret-matching+ at every decision state of a decision DAG.

    The learner holds its current policy ``share`` (at each decision state
    the local positive-regret distribution, uniform when all regrets are
    zero) and the flow ``strategy`` it pushes through the DAG, built once
    per round: in ``__init__`` and at the end of ``observe``.
    ``next_strategy`` returns the held strategy; the share and the masses
    are read-only.
    ``observe`` takes the utility over terminal states, backs up state
    values under the held policy, and adds the per-edge advantages,
    weighted by the held strategy's reach, to the clipped regret tallies.
    Mass arriving over several in-edges is summed before splitting; reach is
    tracked per state, not per history.
    """

    def __init__(self, dag):
        self.dag = dag
        self.regrets = np.zeros(dag.graph.n_edges)
        blocks = [e for code, _, e, _ in dag.graph.blocks if code == CODE[DECISION]]
        ends = np.cumsum([e.size for e in blocks], dtype=np.intp).tolist()
        self._blocks = [(slice(end - e.size, end), e.shape) for e, end in zip(blocks, ends)]
        self._edges = np.concatenate([e.ravel() for e in blocks] + [np.zeros(0, np.intp)])
        self._degree = np.array([e.shape[1] for e in blocks for _ in e], dtype=np.intp)
        self._refresh()

    def policy(self):
        """Per-edge shares: positive regrets normalized per decision state (one
        gather, a ``sum(1)`` per block, one division), uniform at a 0 total."""
        r = self.regrets[self._edges]
        sums = [r[at].reshape(shape).sum(1) for at, shape in self._blocks]
        total = np.concatenate(sums + [r[:0]]).repeat(self._degree)
        share = self.dag.graph.uniform_share.copy()
        share[self._edges] = np.divide(r, total, out=share[self._edges], where=total > 0.0)
        return share

    def _refresh(self):
        self.share = self.policy()
        self.strategy = forward_flow(self.dag, self.share)
        for held in (self.share, self.strategy.state_mass, self.strategy.edge_mass):
            held.flags.writeable = False

    def next_strategy(self):
        return self.strategy

    def observe(self, weights):
        weights = state_weights(self.dag, weights)
        if not np.all(np.isfinite(weights)):
            raise ValueError("terminal weights must be finite")
        g = self.dag.graph
        reach = self.strategy.state_mass
        value, _ = back_up(g, weights, self.share)
        dec = g.decision_edge
        gain = reach[g.src[dec]] * (value[g.dst[dec]] - value[g.src[dec]])
        self.regrets[dec] = np.maximum(0.0, self.regrets[dec] + gain)
        self._refresh()
        return self


class Mwu:
    """Multiplicative weights over a fixed set of arms.

    With a known horizon T, a positive integer, the learning rate is
    sqrt(ln(A)/T); otherwise the doubling trick restarts the weights with a halved rate each epoch.
    rows=R runs R instances in lockstep on the rows of an (R, A) matrix;
    a tuple R gives leading axes R, so the weights are an R + (A,) array.
    """

    def __init__(self, n_arms, horizon=None, rows=None):
        if n_arms < 1:
            raise ValueError("need at least one arm")
        if horizon is not None and (not isinstance(horizon, numbers.Integral) or horizon < 1):
            raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
        self.n_arms = n_arms
        lead = () if rows is None else tuple(np.atleast_1d(rows))
        self.log_weights = np.zeros(lead + (n_arms,))
        self.horizon = horizon
        if horizon is not None:
            self.eta = math.sqrt(math.log(max(n_arms, 2)) / horizon)
        else:
            self._epoch_len = 1
            self._epoch_used = 0
            self.eta = math.sqrt(math.log(max(n_arms, 2)))

    def next_distribution(self):
        shifted = self.log_weights - np.maximum.reduce(self.log_weights, axis=-1, keepdims=True)
        w = np.exp(shifted)
        return w / np.add.reduce(w, axis=-1, keepdims=True)

    def observe(self, utilities):
        utilities = np.asarray(utilities, dtype=float)
        if utilities.shape != self.log_weights.shape:
            raise ValueError(f"utilities of shape {utilities.shape}; expected "
                             f"{self.log_weights.shape}")
        if not np.isfinite(utilities).all():
            raise ValueError("arm utilities must be finite")
        self.log_weights = self.log_weights + self.eta * utilities
        if self.horizon is None:
            self._epoch_used += 1
            if self._epoch_used >= self._epoch_len:
                self._epoch_len *= 2
                self._epoch_used = 0
                self.log_weights = np.zeros_like(self.log_weights)
                self.eta = math.sqrt(
                    math.log(max(self.n_arms, 2)) / self._epoch_len
                )


class RegretMeter:
    """Running exact external regret over a decision DAG.

    Accumulates the observed terminal-state weights and the realized values;
    the time average of (best fixed reduced strategy in hindsight) minus
    (realized) is read off on demand.
    """

    def __init__(self, dag):
        self.dag = dag
        self.weight_sum = np.zeros(dag.n_terminal_states)
        self.realized = 0.0
        self.rounds = 0

    def record(self, weights, played_terminal_vector):
        weights = state_weights(self.dag, weights)
        self.weight_sum += weights
        self.realized += float(weights @ played_terminal_vector)
        self.rounds += 1

    def average_regret(self):
        if self.rounds == 0:
            return 0.0
        best, _ = best_reduced_strategy(self.dag, self.weight_sum)
        return (best - self.realized) / self.rounds
