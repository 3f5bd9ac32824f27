"""Two-player extensive-form games and self-play to deviation equilibria.

Payoffs are bilinear in the players' tree-form strategy vectors: player i
receives x1^T U_i x2, so against a fixed opponent mixture the per-round
feedback is the linear utility U_i applied to the opponent's mean. Self-play
drives one deviation-regret minimizer per learning seat, over that seat's
deviation DAG, and the learning seats share one learner; a pinned seat
plays one strategy. The uniform average of the played mixtures is the
profile, and its exact equilibrium gap equals the measured time-averaged
regret.
"""

from __future__ import annotations

import math
import numbers
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .dags import STATE_CAP, best_reduced_strategy, build_dt_problem, interleave, terminal_weights
from .errors import ParseError
from .fixedpoint import FixedPointConfig, PhiRegretMinimizer, SharedCfr
from .maps import BehavioralDescriptor
from .profile import CorrelatedProfile, uniform_means
from .tfsdp import CODE, DECISION, content_lines, hypercube_structure, problem_from_lines, row_dots

PAYOFF_TOL = 1e-9
PASS_CELLS = 1 << 16  # states x pure strategies in one best-response pass of _pure_bound
_HELD = {}  # (problem, spec, cap) -> a weak reference to the DAG built for them


class EFGame:
    """Two decision problems tied together by terminal-pair payoff matrices.

    payoffs[i][z1, z2] is player i's payoff when the players' pure
    strategies select terminals z1 and z2; mixed payoffs are the bilinear
    extension. Payoffs must be finite, and pure-profile payoffs must lie in
    [-1, 1] (pass normalize=True to rescale both matrices by the worst pure
    magnitude, kept as ``scale``). The worst pure magnitude is found by best
    response: only the player with fewer pure strategies is enumerated, so
    that side alone is bound by the enumeration cap.
    """

    def __init__(self, problems, payoffs, name="efg", normalize=False):
        if len(problems) != 2 or len(payoffs) != 2:
            raise ValueError("exactly two players")
        self.problems = list(problems)
        self.name = name
        shape = (problems[0].n_terminals, problems[1].n_terminals)
        mats = []
        for i, u in enumerate(payoffs):
            u = np.asarray(u, dtype=float)
            if u.shape != shape:
                raise ValueError(f"player {i} payoff shape {u.shape} != {shape}")
            if not np.isfinite(u).all():
                raise ValueError(f"player {i} payoffs are not all finite")
            mats.append(u)
        worst = self._pure_bound(mats)
        if normalize and worst > 0:
            mats = [u / worst for u in mats]
            worst = 1.0
        if not worst <= 1.0 + PAYOFF_TOL:
            raise ValueError(
                f"pure-profile payoff magnitude {worst:.3g} outside [-1, 1]; "
                "pass normalize=True"
            )
        self.payoffs = mats
        self.scale = worst

    def _pure_bound(self, mats):
        """Largest |x^T U y| over pure pairs (x, y) and both matrices U.

        The player with fewer pure strategies (player 1 on a tie) is
        enumerated. For each of its pure strategies, the columns U y and
        -U y (or U^T x and -U^T x) are backed up the other player's tree:
        observation states add their children and decision states take the
        largest, so the root holds that column's best response value. Each
        pass takes at most PASS_CELLS // (the tree's states) pure strategies,
        so memory stays bounded however many there are. A NaN, from sums
        that overflow, is kept, and the caller rejects it.
        """
        counts = [p.count_pure_strategies() for p in self.problems]
        small = int(counts[1] < counts[0])
        pure = self.problems[small].enumerate_pure_strategies().T
        g = self.problems[1 - small].graph
        step = max(1, PASS_CELLS // g.n)
        tops = []
        for lo in range(0, pure.shape[1], step):
            cols = np.hstack([(u if small else u.T) @ pure[:, lo : lo + step] for u in mats])
            value = np.empty((g.n, 2 * cols.shape[1]))
            value[g.terminals] = np.hstack([cols, -cols])
            for code, states, _, children in g.blocks:
                below = value[children]
                value[states] = below.max(1) if code == CODE[DECISION] else below.sum(1)
            tops.append(value[0].max())
        return float(np.max(tops))

    @classmethod
    def zero_sum(cls, problem1, problem2, u1, name="efg", normalize=False):
        u1 = np.asarray(u1, dtype=float)
        return cls([problem1, problem2], [u1, -u1], name=name, normalize=normalize)

    def utility_vector(self, player, opponent_mean):
        """Linear per-terminal utility for `player` against the opponent mean."""
        if player == 0:
            return self.payoffs[0] @ np.asarray(opponent_mean, dtype=float)
        return self.payoffs[1].T @ np.asarray(opponent_mean, dtype=float)

    def __repr__(self):
        sizes = [p.n_terminals for p in self.problems]
        return f"EFGame({self.name!r}, terminals={sizes})"


def deviation_dag(problem, spec, cap=STATE_CAP):
    """Build a deviation DAG from a spec string.

    'external' (constant deviations), 'med:K' (K-mediator deviations), or
    'dt:K' (depth-K decision-tree deviations; the problem must be a
    hypercube of bit decisions). While a caller still holds the DAG built for
    the same problem object, spec (stripped, lowercased) and cap, that DAG is
    returned again, so DAGs are read-only; the memo holds DAGs weakly.
    """
    spec = spec.strip().lower()
    key = problem, spec, cap
    dag = _HELD[key]() if key in _HELD else None
    if dag is not None:
        return dag
    if spec == "external" or spec.startswith("med:"):
        dag = interleave(problem, 0 if spec == "external" else _spec_depth(spec), cap=cap)
    elif spec.startswith("dt:"):
        k = _spec_depth(spec)
        pairs = hypercube_structure(problem)
        if pairs is None:
            raise ValueError(
                "dt:K deviations need a hypercube problem (one decision per bit)"
            )
        dag = build_dt_problem(len(pairs), k, cap=cap)
    else:
        raise ValueError(f"unknown deviation spec {spec!r}")
    _HELD[key] = weakref.ref(dag, lambda ref: _HELD.get(key) is ref and _HELD.pop(key))
    return dag


def _spec_depth(spec):
    """The K of a 'med:K' or 'dt:K' spec."""
    try:
        k = int(spec.partition(":")[2])
    except ValueError:
        k = -1
    if k < 0:
        raise ValueError(f"deviation spec {spec!r}: K must be a nonnegative integer")
    return k


@dataclass
class SelfPlayResult:
    profile: CorrelatedProfile | None
    minimizers: list
    rounds: int
    elapsed: float
    checkpoints: dict = field(default_factory=dict)

    def run_for(self, player):
        minimizer = self.minimizers[player]
        if minimizer is None:
            raise ValueError(f"player {player} did not learn")
        return minimizer.run


def efg_self_play(game, devs, rounds, delta="beta", L=None, checkpoints=(),
                  record_profile=True):
    """Run both seats for `rounds` rounds and average the played mixtures.

    devs is a per-player configuration: a deviation spec string (see
    deviation_dag), a prebuilt DecisionDAG, or a strategy vector for a
    fixed, non-learning seat. Utilities are exchanged through the
    bilinear payoffs against the opponent's current mean strategy.

    A learning seat is a PhiRegretMinimizer (``minimizers[i]``; None for a
    pinned seat, which plays its one strategy every round). A round takes
    each learning seat's deviation q and expected fixed point fp from
    ``next_mixture``, then charges each its utility. The learning seats,
    one or two, share one CfrLearner over their joined DAGs
    (``SharedCfr``): it plays as a learner per seat would and updates
    once, after every seat's weights arrive.
    """
    if len(devs) != 2:
        raise ValueError("two deviation configurations required")
    if not isinstance(rounds, numbers.Integral):
        raise ValueError(f"rounds must be an integer, got {rounds!r}")
    if rounds < 0:
        raise ValueError(f"rounds must be nonnegative, got {rounds}")
    cfg = FixedPointConfig(delta=delta) if L is None else FixedPointConfig(L=L, delta=delta)
    seats = [deviation_dag(p, d) if isinstance(d, str) else d for p, d in zip(game.problems, devs)]
    pinned = [None] * 2  # a pinned seat's one-component round
    for i, (p, seat) in enumerate(zip(game.problems, seats)):
        if isinstance(seat, (np.ndarray, list)):
            strategy = np.asarray(seat, dtype=float)
            p.require_membership(strategy, context="pinned seat strategy")
            pinned[i] = [BehavioralDescriptor(p, strategy)]
        else:
            _require_base(seat, p)
    dags = [seat for seat, pin in zip(seats, pinned) if pin is None]
    learners = iter(SharedCfr(dags).seats if dags else ())
    minimizers = [None if pin else PhiRegretMinimizer(seat, cfg, next(learners))
                  for seat, pin in zip(seats, pinned)]
    profile = CorrelatedProfile(2, dims=[p.n_terminals for p in game.problems]) if record_profile else None
    checkpoints = set(checkpoints)
    marks = {}
    start = time.monotonic()
    for t in range(1, rounds + 1):
        steps = [None if m is None else m.next_mixture() for m in minimizers]  # each seat's (q, fp)
        comps = [pin if step is None else step[1].pi.components for pin, step in zip(pinned, steps)]
        means = [uniform_means(np.array([c.mean() for c in cs]), [len(cs)])[0] for cs in comps]
        for i, m in enumerate(minimizers):
            if m is not None:
                m.observe_utility(game.utility_vector(i, means[1 - i]))
        if record_profile:
            profile.add_round(comps)
        if t in checkpoints or t == rounds:
            marks[t] = [None if m is None else m.run.checkpoint() for m in minimizers]
    return SelfPlayResult(
        profile=profile,
        minimizers=minimizers,
        rounds=rounds,
        elapsed=time.monotonic() - start,
        checkpoints=marks,
    )


def _require_base(dag, problem):
    """Raise unless the DAG's base is the problem or has its graph arrays (as
    a ``dt:K`` base, a fresh hypercube, does)."""
    a, b = dag.base, problem
    if a is not b and not all(np.array_equal(getattr(a.graph, f), getattr(b.graph, f))
                              for f in ("code", "ptr", "dst")):
        raise ValueError("deviation DAG does not match the player's problem")


def phi_equilibrium_gap(profile, game, player, dag):
    """Exact best-deviation gain for one player against a profile.

    Aggregates the per-round terminal-state weights induced by the
    opponent's means, solves for the best reduced strategy in hindsight,
    and subtracts the realized baseline. This is the same expression the
    learning run tracks, so auditing a self-play profile with the same
    deviation set reproduces the measured regret.

    All rounds are charged at once: one ``terminal_weights`` call over the
    player's ``RoundMixtures``, then the weights summed down the rounds by
    one cumsum and the baseline's row dots, one per round, by another, each
    in round order. A running total from 0.0 adds them the same way, except
    that it never ends at -0.0; adding 0.0 at the end matches that too.
    """
    _require_base(dag, game.problems[player])
    if profile.rounds == 0:
        return 0.0
    profile.require_shape([p.n_terminals for p in game.problems])
    utils = np.array([game.utility_vector(player, m) for m in profile.stacked_means(1 - player)])
    rounds = profile.mixtures(player)
    total_w = terminal_weights(dag, utils, rounds).cumsum(axis=0)[-1] + 0.0
    baseline = float(row_dots(utils, rounds.mean()).cumsum()[-1] + 0.0)
    best, _ = best_reduced_strategy(dag, total_w)
    return (best - baseline) / profile.rounds


def parse_efg(text):
    """Read a two-player game file.

    Sections: `efg <name>`, then `player 1` and `player 2` each followed by
    tree node lines (id kind parent label), then `payoffs` with lines
    `z1 z2 u1 [u2]` naming terminal node ids; u2 defaults to -u1. Missing
    terminal pairs pay zero. Comments and blank lines are skipped as in a
    problem file (``content_lines``). Player sections of the same content
    lines give both players one problem, player 1's (``<name>-p1``).
    """
    rows = content_lines(text)
    if not rows:
        raise ParseError("expected header 'efg <name>'")
    no, header = rows[0]
    parts = header.split()
    if parts[0] != "efg" or len(parts) != 2:
        raise ParseError(f"line {no}: expected header 'efg <name>'")
    name = parts[1]
    sections = {"player 1": None, "player 2": None, "payoffs": None}
    current = None
    for no, ln in rows[1:]:
        key = ln.lower()
        if key in sections:
            if sections[key] is not None:
                raise ParseError(f"line {no}: repeated section '{key}'")
            current = sections[key] = []
            continue
        if current is None:
            raise ParseError(f"line {no}: content before any section header")
        current.append((no, ln))
    one = sections["player 1"]
    problems = []
    for key, body in sections.items():
        if not body:
            raise ParseError(f"missing section '{key}'")
        if key == "player 2" and len(body) == len(one) and all(
                a == b for (_, a), (_, b) in zip(body, one)):
            problems.append(problems[0])  # the same tree: one problem, player 1's
        elif key != "payoffs":
            problems.append(problem_from_lines(f"{name}-p{key[-1]}", body))
    shape = (problems[0].n_terminals, problems[1].n_terminals)
    mats = [np.zeros(shape), np.zeros(shape)]
    index = []
    for p in problems:
        index.append({p.node_ids[node]: int(p.terminal_index[node]) for node in p.terminals})
    seen = set()
    for no, ln in sections["payoffs"]:
        parts = ln.split()
        if len(parts) not in (3, 4):
            raise ParseError(f"line {no}: expected 'z1 z2 u1 [u2]'")
        z1, z2 = parts[0], parts[1]
        if z1 not in index[0]:
            raise ParseError(f"line {no}: {z1!r} is not a terminal of player 1")
        if z2 not in index[1]:
            raise ParseError(f"line {no}: {z2!r} is not a terminal of player 2")
        if (z1, z2) in seen:
            raise ParseError(f"line {no}: duplicate payoff entry ({z1}, {z2})")
        seen.add((z1, z2))
        try:
            u1 = float(parts[2])
            u2 = float(parts[3]) if len(parts) == 4 else -u1
        except ValueError as exc:
            raise ParseError(f"line {no}: {exc}") from None
        if not (math.isfinite(u1) and math.isfinite(u2)):
            raise ParseError(f"line {no}: payoffs must be finite numbers")
        mats[0][index[0][z1], index[1][z2]] = u1
        mats[1][index[0][z1], index[1][z2]] = u2
    try:
        return EFGame(problems, mats, name=name)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def dump_efg(game):
    """Write a game back to the format parse_efg reads."""
    lines = [f"efg {game.name}"]
    for i, problem in enumerate(game.problems, start=1):
        lines.append(f"player {i}")
        for row in problem.dump().splitlines()[1:]:
            lines.append(row)
    lines.append("payoffs")
    p1, p2 = game.problems
    ids1 = {int(p1.terminal_index[node]): p1.node_ids[node] for node in p1.terminals}
    ids2 = {int(p2.terminal_index[node]): p2.node_ids[node] for node in p2.terminals}
    u1, u2 = game.payoffs
    for a in range(p1.n_terminals):
        for b in range(p2.n_terminals):
            if u1[a, b] != 0.0 or u2[a, b] != 0.0:
                lines.append(
                    f"{ids1[a]} {ids2[b]} {u1[a, b]:.17g} {u2[a, b]:.17g}"
                )
    return "\n".join(lines) + "\n"
