"""Normal-form games and fast correlated equilibria.

Players run a swap-regret learner: one multiplicative-weights row per
action (the classic reduction), with the stationary distribution of the
row-stochastic matrix Q replaced by the average of the power iterates
x_{l+1} = Q^T x_l. That average pi satisfies ||Q^T pi - pi||_1 <= 2/L by the
same telescoping argument as the general template, and squaring over the
bits of L makes a round O(log L) small matrix products, not an eigensolve.
Self-play stacks the players that have the same action count into one
learner, so a round takes one batched step per action count, not one per
player. A SwapLearner keeps bm_next's block template, and a NormalFormGame
its players' contractions, shared by expectation_oracle and run_ce. A round
of run_ce plays into fixed buffers and copies pi_t, u_t and Q_t^T pi_t into
ROUND_BLOCK-row logs. The regret sums are updated once per block, by one
cumsum down the block in round order, and the profile is built from the
play log after the last round.
"""

from __future__ import annotations

import math
import numbers
import string
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .fixedpoint import curves_csv
from .learners import Mwu
from .profile import CorrelatedProfile

PAYOFF_TOL = 1e-9
ROUND_BLOCK = 4096


class NormalFormGame:
    """n-player game with payoffs in [-1, 1].

    Two storage layouts: a dense payoff tensor per player, or polymatrix
    edge matrices where a player's payoff is the sum of its pairwise edge
    payoffs against each neighbor.
    """

    def __init__(self, action_counts, tensors=None, edges=None, name="game"):
        self.action_counts = [int(a) for a in action_counts]
        if any(a < 1 for a in self.action_counts):
            raise ValueError("every player needs at least one action")
        self.n_players = len(self.action_counts)
        self.name = name
        if (tensors is None) == (edges is None):
            raise ValueError("provide exactly one of tensors= or edges=")
        self.tensors = None
        self.edges = None
        if tensors is not None:
            if len(tensors) != self.n_players:
                raise ValueError("one payoff tensor per player")
            shape = tuple(self.action_counts)
            self.tensors = []
            for i, t in enumerate(tensors):
                t = np.asarray(t, dtype=float)
                if t.shape != shape:
                    raise ValueError(
                        f"player {i} tensor shape {t.shape} != {shape}"
                    )
                self._check_range(t)
                self.tensors.append(t)
        else:
            self.edges = {}
            for (i, j), (m_i, m_j) in edges.items():
                if not (0 <= i < self.n_players and 0 <= j < self.n_players):
                    raise ValueError(f"edge ({i}, {j}) references unknown player")
                if i >= j:
                    raise ValueError("edges are keyed (i, j) with i < j")
                m_i = np.asarray(m_i, dtype=float)
                m_j = np.asarray(m_j, dtype=float)
                want_i = (self.action_counts[i], self.action_counts[j])
                want_j = (self.action_counts[j], self.action_counts[i])
                if m_i.shape != want_i or m_j.shape != want_j:
                    raise ValueError(
                        f"edge ({i}, {j}) matrices must be {want_i} and {want_j}"
                    )
                if not (np.isfinite(m_i).all() and np.isfinite(m_j).all()):
                    raise ValueError(f"edge ({i}, {j}) payoffs are not all finite")
                self.edges[(i, j)] = (m_i, m_j)
            # the [-1,1] invariant applies to total payoffs, i.e. edge sums
            for i in range(self.n_players):
                hi = sum(
                    np.max(np.abs(mats[0] if pair[0] == i else mats[1]))
                    for pair, mats in self.edges.items()
                    if i in pair
                )
                if hi > 1.0 + PAYOFF_TOL:
                    raise ValueError(
                        f"player {i} polymatrix payoffs can reach {hi:.3g}, "
                        "outside [-1, 1]"
                    )
        # each player's contraction: (einsum spec, tensor, other players), or
        # the (edge matrix, neighbour) pairs in edge order
        if self.tensors is not None:
            letters = string.ascii_lowercase[: self.n_players]
            self._plan = []
            for i, t in enumerate(self.tensors):
                others = [j for j in range(self.n_players) if j != i]
                spec = letters + "," + ",".join("..." + letters[j] for j in others)
                self._plan.append((spec + "->..." + letters[i], t, others))
        else:
            self._plan = [[(m_a, b) if i == a else (m_b, a) for (a, b), (m_a, m_b)
                           in self.edges.items() if i in (a, b)] for i in range(self.n_players)]

    @staticmethod
    def _check_range(values):
        worst = float(np.max(np.abs(values))) if np.asarray(values).size else 0.0
        if not math.isfinite(worst):  # the max of a NaN is NaN
            raise ValueError("payoffs are not all finite")
        if worst > 1.0 + PAYOFF_TOL:
            raise ValueError(f"payoff magnitude {worst:.3g} outside [-1, 1]")

    @classmethod
    def dense(cls, tensors, name="game"):
        counts = np.asarray(tensors[0]).shape
        return cls(counts, tensors=tensors, name=name)

    @classmethod
    def polymatrix(cls, action_counts, edges, name="game"):
        return cls(action_counts, edges=edges, name=name)

    @property
    def is_polymatrix(self):
        return self.edges is not None

    @property
    def max_actions(self):
        return max(self.action_counts)

    def payoff(self, player, joint):
        joint = tuple(int(a) for a in joint)
        if self.tensors is not None:
            return float(self.tensors[player][joint])
        total = 0.0
        for (i, j), (m_i, m_j) in self.edges.items():
            if player == i:
                total += m_i[joint[i], joint[j]]
            elif player == j:
                total += m_j[joint[j], joint[i]]
        return float(total)

    def _contract(self, dists, out):
        """Write every u_i(., pi_{-i}) into out[i]; ``_check_dists`` checks dists."""
        if self.tensors is None:
            for u, pairs in zip(out, self._plan):
                u[...] = 0.0
                for m, j in pairs:
                    u += (m @ dists[j][..., None])[..., 0]
        else:
            for u, (spec, tensor, others) in zip(out, self._plan):
                np.einsum(spec, tensor, *[dists[j] for j in others], out=u)

    def __repr__(self):
        layout = "polymatrix" if self.is_polymatrix else "dense"
        return f"NormalFormGame({self.name!r}, actions={self.action_counts}, {layout})"


def expectation_oracle(game, dists):
    """Expected utility of every own action against the others' mixtures.

    Returns one vector per player: entry a is u_i(a, pi_{-i}). Dense games
    contract the payoff tensor against the other players' distributions;
    polymatrix games sum edge-matrix products. The distributions may share
    leading axes (rounds, say), which the outputs keep.
    """
    dists = _check_dists(game, dists)
    out = [np.empty(dists[0].shape[:-1] + (a,)) for a in game.action_counts]
    game._contract(dists, out)
    return out


def _check_dists(game, dists):
    """Float arrays, one per player, with the same leading axes; or a ValueError."""
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
    return dists


class SwapLearner:
    """Swap-regret learner: one external-regret MWU row per action.

    mwu holds an (A, A) log-weight matrix whose row a decides where
    recommendation a gets rerouted; q_matrix() is its row-wise softmax, Q.
    stack=G holds G players with A actions each as one (G, A, A) matrix:
    q_matrix() is then (G, A, A), and bm_next and bm_observe step all G
    players at once.
    """

    def __init__(self, n_actions, horizon=None, stack=None):
        self.n_actions = int(n_actions)
        self.stack = stack
        rows = self.n_actions if stack is None else (int(stack), self.n_actions)
        self.mwu = Mwu(self.n_actions, horizon=horizon, rows=rows)
        n, lead = self.n_actions, self.mwu.log_weights.shape[:-2]
        self.block = np.zeros(lead + (2 * n, 2 * n))
        # the bottom block row [I, I]: flattened, both diagonals step 2n + 1
        bottom = self.block[..., n:, :].reshape(lead + (2 * n * n,))
        bottom[..., :: 2 * n + 1] = bottom[..., n :: 2 * n + 1] = 1.0
        self.start = np.zeros(lead + (2 * n, 1))
        self.start[..., :n, :] = 1.0 / n
        self.block.flags.writeable = self.start.flags.writeable = False

    def q_matrix(self):
        return self.mwu.next_distribution()

    def __repr__(self):
        stack = "" if self.stack is None else f", stack={self.stack}"
        return f"SwapLearner(n_actions={self.n_actions}{stack})"


def bm_next(learner, L, q=None):
    """Average of L power iterates of Q^T from the uniform point x1: the play
    distribution pi, of shape (A,), or (G, A) for a stacked learner.

    pi = (1/L) sum_{l<L} M^l x1 with M = Q^T has ||M pi - pi||_1 <= 2/L by
    telescoping. [[M, 0], [I, I]]^n = [[M^n, 0], [sum_{l<n} M^l, I]], so pi
    is read off its L-th power, taken by squaring over the bits of L. A stack
    squares a (G, 2A, 2A) block and carries its vector as (G, 2A, 1), so each
    player's products are the ones its own learner would take.
    q is the learner's current Q, if the caller has already built it.
    """
    L = int(L)
    if L < 1:
        raise ValueError("need at least one iterate")
    n = learner.n_actions
    q = learner.q_matrix() if q is None else q
    block = learner.block.copy()
    block[..., :n, :n] = q.swapaxes(-1, -2)
    v = learner.start
    # the leading bit of L is always 1, and the block it would square next
    # is never read
    for bit in reversed(bin(L)[3:]):
        if bit == "1":
            v = block @ v
        block = block @ block
    return (block @ v)[..., n:, 0] / L


def bm_observe(learner, u, pi):
    """Charge each per-action row its share pi[a] of the round utility
    (per player, for a stacked learner)."""
    u = np.asarray(u, dtype=float)
    pi = np.asarray(pi, dtype=float)
    learner.mwu.observe(pi[..., :, None] * u[..., None, :])


def swap_gap(profile, game):
    """Exact per-player swap gap of a correlated profile.

    For each player: sum over recommendations a of the best single reroute
    a -> a', i.e. sum_a max_a' E[1{rec=a} (u(a') - u(a))], computed from the
    per-round product distributions. Each player's round means come from
    ``CorrelatedProfile.stacked_means`` (for a column profile, rows of its
    round means, computed in one pass per player on first read). All rounds
    go through the oracle at once; the reroute matrix sums the per-round
    outer products in round order, ROUND_BLOCK rounds at a time. Returns an
    array of per-player gaps.
    """
    gaps = np.zeros(game.n_players)
    T = profile.rounds
    if T == 0:
        return gaps
    profile.require_shape(game.action_counts)
    means = [profile.stacked_means(i) for i in range(game.n_players)]
    utils = expectation_oracle(game, means)
    for i, a in enumerate(game.action_counts):
        r = np.zeros((a, a))
        for start in range(0, T, ROUND_BLOCK):
            block = slice(start, start + ROUND_BLOCK)
            outer = np.einsum("ta,tb->tab", means[i][block], utils[i][block])
            outer[0] += r
            r = np.cumsum(outer, axis=0)[-1]
        gaps[i] = swap_regret_from_moments(r, T)
    return gaps


def swap_regret_from_moments(moment, rounds):
    """Average swap regret given the accumulated outer(pi_t, u_t) matrix."""
    if rounds == 0:
        return 0.0
    return float(np.sum(np.max(moment, axis=1) - np.diag(moment))) / rounds


@dataclass
class CeResult:
    profile: CorrelatedProfile
    rounds: int
    L: int
    certified_gaps: np.ndarray | None
    swap_regrets: np.ndarray
    elapsed: float
    curve_rows: list = field(default_factory=list)

    def curves_csv(self):
        return curves_csv(self.curve_rows)


def ce_horizon(game, eps, c=8.0):
    """Rounds T = ceil(c * A ln A / eps^2), with A the largest action count."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    A = game.max_actions
    rounds = c * A * math.log(max(A, 2)) / eps**2 if eps**2 > 0 else math.inf
    if rounds == math.inf:
        raise ValueError(f"eps {eps} is too small: c A ln A / eps^2 rounds is not finite")
    return max(1, math.ceil(rounds))


def run_ce(game, eps, c=8.0, horizon=None, L=None, record_profile=True,
           checkpoints=(), audit=True):
    """All-players swap-regret self-play to an eps-correlated equilibrium.

    Horizon T = ceil(c * A ln A / eps^2) with A the largest action count,
    and L = ceil(4 / eps) power iterates per round, unless overridden. The
    players with the same action count play as one stacked SwapLearner. The
    returned profile is the uniform mixture over rounds of the product play
    distributions; when audit is set its exact swap gap is computed.

    A round only plays, into buffers allocated and shape-checked once:
    bm_next writes pi_t, the game's contraction writes u_t from each
    player's row of pi_t, and pi_t, u_t and Q_t^T pi_t are copied into
    ROUND_BLOCK-row logs, one set per action count. When a block fills, and
    at the horizon, one pass accounts for it: the moments
    sum_t outer(pi_t, u_t), the rerouted utilities u_t . Q_t^T pi_t and the
    fixed-point errors are carried into the block's first row and summed
    down it by cumsum, the same sequential sums as a per-round update, and
    the curve rows of the checkpoints in the block are read off those sums.
    Without record_profile memory stays O(ROUND_BLOCK); with it each
    player's log of pi_t becomes the profile after play, in one
    ``CorrelatedProfile.from_columns`` call.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if horizon is None:
        horizon = ce_horizon(game, eps, c)
    elif not isinstance(horizon, numbers.Integral) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    if L is None:
        if 4.0 / eps == math.inf:
            raise ValueError(f"eps {eps} is too small: 4 / eps power iterates is not finite")
        L = max(1, math.ceil(4.0 / eps))
    elif not isinstance(L, numbers.Integral) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    horizon = int(horizon)
    start = time.monotonic()
    by_count = {}
    for i, a in enumerate(game.action_counts):
        by_count.setdefault(a, []).append(i)
    groups = list(by_count.values())  # the players of each stack
    learners = [SwapLearner(a, horizon=horizon, stack=len(p)) for a, p in by_count.items()]
    rows = min(ROUND_BLOCK, horizon)
    played = [np.empty((rows, len(p), a)) for a, p in by_count.items()]  # pi_t
    utils = [np.empty_like(pi) for pi in played]  # u_t
    shifted = [np.empty(pi.shape + (1,)) for pi in played]  # Q_t^T pi_t
    # running sums: outer(pi_t, u_t), u_t . (Q_t^T pi_t) and ||Q_t^T pi_t - pi_t||_1
    sums = [[np.zeros((len(p), a, a)), np.zeros(len(p)), np.zeros(len(p))]
            for a, p in by_count.items()]
    logs = [[] for _ in groups]  # each group's pi_t blocks, when recording
    # this round's pi_t and u_t per group, and each player's row of them
    pi_now = [np.empty((len(p), a)) for a, p in by_count.items()]
    u_now = [np.empty_like(pi) for pi in pi_now]
    pi_rows, u_rows = [None] * game.n_players, [None] * game.n_players
    for g, players in enumerate(groups):
        for k, i in enumerate(players):
            pi_rows[i], u_rows[i] = pi_now[g][k], u_now[g][k]
    _check_dists(game, pi_rows)
    wanted = set(checkpoints)
    marks = np.array([t for t in range(1, horizon) if t in wanted] + [horizon])
    curve_rows = []

    def account(done, n):
        """Fold rounds done+1 .. done+n into the sums; write their curve rows."""
        block = []
        for g in range(len(groups)):
            pi, u, sh = played[g][:n], utils[g][:n], shifted[g][:n]
            moment, rerouted, err = sums[g]
            outer = pi[:, :, :, None] * u[:, :, None, :]
            outer[0] += moment
            reroute = (u[:, :, None, :] @ sh)[:, :, 0, 0]
            reroute[0] += rerouted
            miss = np.sum(np.abs(sh[..., 0] - pi), axis=2)
            miss[0] += err
            block.append([np.add.accumulate(x, axis=0, out=x) for x in (outer, reroute, miss)])
            sums[g] = [x[-1].copy() for x in block[-1]]
            if record_profile:
                logs[g].append(pi.copy())
        for t in marks[(marks > done) & (marks <= done + n)].tolist():
            swap, ext, err = regrets(t, [[x[t - done - 1] for x in b] for b in block])
            curve_rows.append((t, float(np.max(swap)), float(np.max(ext)), float(np.max(err))))

    def regrets(t, state):
        """Per-player swap regret, external regret of the reroutes and mean
        fixed-point error after t rounds, in player order, from each group's
        (moments, rerouted, error) sums."""
        swap, ext, err = np.zeros((3, game.n_players))
        for players, (moment, rerouted, miss) in zip(groups, state):
            swap[players] = [swap_regret_from_moments(m, t) for m in moment]
            ext[players] = (np.sum(np.max(moment, axis=2), axis=1) - rerouted) / t
            err[players] = miss / t
        return swap, ext, err

    for done in range(0, horizon, rows):
        n = min(rows, horizon - done)
        for b in range(n):
            qs = [learner.q_matrix() for learner in learners]
            for g, learner in enumerate(learners):
                pi_now[g][...] = bm_next(learner, L, q=qs[g])
            game._contract(pi_rows, u_rows)
            for g, learner in enumerate(learners):
                played[g][b], utils[g][b] = pi_now[g], u_now[g]
                np.matmul(qs[g].swapaxes(1, 2), pi_now[g][:, :, None], out=shifted[g][b])
                bm_observe(learner, u_now[g], pi_now[g])
        account(done, n)
    profile = gaps = None
    if record_profile:
        columns = [None] * game.n_players
        for players, log in zip(groups, logs):
            log = np.concatenate(log)
            for k, i in enumerate(players):
                p = log[:, k]
                positive = p > 0
                atoms = np.eye(game.action_counts[i])[positive.nonzero()[1]]
                columns[i] = (p[positive], atoms, positive.sum(1), np.arange(horizon))
        profile = CorrelatedProfile.from_columns(game.action_counts, columns, horizon)
        if audit:
            gaps = swap_gap(profile, game)
    return CeResult(
        profile=profile,
        rounds=horizon,
        L=L,
        certified_gaps=gaps,
        swap_regrets=regrets(horizon, sums)[0],
        elapsed=time.monotonic() - start,
        curve_rows=curve_rows,
    )


def parse_nfg(text):
    """Read a normal-form game file.

    Header `nfg n A1 ... An`; then either dense payoff lines
    `a1 ... an u1 ... un` (0-based actions) or polymatrix blocks: a line
    `edge i j` followed by A_i rows of player i's payoffs (A_j columns)
    and A_j rows of player j's payoffs (A_i columns).
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [(no + 1, ln) for no, ln in enumerate(lines) if ln]
    if not rows:
        raise ParseError("empty game file")
    no, header = rows[0]
    parts = header.split()
    if parts[0] != "nfg" or len(parts) < 3:
        raise ParseError(f"line {no}: expected header 'nfg n A1 ... An'")
    try:
        n = int(parts[1])
        counts = [int(p) for p in parts[2:]]
    except ValueError as exc:
        raise ParseError(f"line {no}: {exc}") from None
    if len(counts) != n or n < 1:
        raise ParseError(f"line {no}: header lists {len(counts)} action counts for {n} players")
    if min(counts) < 1:
        raise ParseError(f"line {no}: every player needs at least 1 action, got {min(counts)}")
    body = rows[1:]
    if any(ln.startswith("edge ") for _, ln in body):
        return _parse_polymatrix(n, counts, body)
    return _parse_dense(n, counts, body)


def _parse_dense(n, counts, body):
    shape = tuple(counts)
    tensors = [np.zeros(shape) for _ in range(n)]
    seen = {}  # joint action -> its line
    for no, ln in body:
        parts = ln.split()
        if len(parts) != 2 * n:
            raise ParseError(
                f"line {no}: expected {n} actions and {n} payoffs, got {len(parts)} fields"
            )
        try:
            joint = tuple(int(p) for p in parts[:n])
            payoffs = [float(p) for p in parts[n:]]
        except ValueError as exc:
            raise ParseError(f"line {no}: {exc}") from None
        for i, a in enumerate(joint):
            if not 0 <= a < counts[i]:
                raise ParseError(f"line {no}: action {a} out of range for player {i + 1}")
        if joint in seen:
            raise ParseError(f"line {no}: duplicate joint action {joint}")
        seen[joint] = no
        for i in range(n):
            tensors[i][joint] = payoffs[i]
    try:
        return NormalFormGame(counts, tensors=tensors)
    except ValueError as exc:
        bad = ~np.isfinite(tensors).all(axis=0)
        if bad.any():
            no = min(seen[joint] for joint in zip(*bad.nonzero()))
            raise ParseError(f"line {no}: payoffs must be finite numbers") from None
        raise ParseError(str(exc)) from None


def _parse_polymatrix(n, counts, body):
    edges = {}
    pos = 0
    while pos < len(body):
        no, ln = body[pos]
        parts = ln.split()
        if parts[0] != "edge" or len(parts) != 3:
            raise ParseError(f"line {no}: expected 'edge i j'")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {no}: {exc}") from None
        if not (0 <= i < j < n):
            raise ParseError(f"line {no}: edge players must satisfy 0 <= i < j < n")
        if (i, j) in edges:
            raise ParseError(f"line {no}: duplicate edge ({i}, {j})")
        need = counts[i] + counts[j]
        block = body[pos + 1 : pos + 1 + need]
        if len(block) < need:
            raise ParseError(f"line {no}: edge block needs {need} matrix rows")

        def matrix_rows(rows, n_rows, n_cols):
            mat = []
            for r_no, r_ln in rows[:n_rows]:
                vals = r_ln.split()
                if len(vals) != n_cols:
                    raise ParseError(
                        f"line {r_no}: expected {n_cols} payoffs, got {len(vals)}"
                    )
                try:
                    mat.append([float(v) for v in vals])
                except ValueError as exc:
                    raise ParseError(f"line {r_no}: {exc}") from None
                if not all(map(math.isfinite, mat[-1])):
                    raise ParseError(f"line {r_no}: payoffs must be finite numbers")
            return np.array(mat)

        m_i = matrix_rows(block, counts[i], counts[j])
        m_j = matrix_rows(block[counts[i]:], counts[j], counts[i])
        edges[(i, j)] = (m_i, m_j)
        pos += 1 + need
    try:
        return NormalFormGame(counts, edges=edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def dump_nfg(game):
    """Write a game back to the file format parse_nfg reads."""
    header = "nfg " + str(game.n_players) + " " + " ".join(map(str, game.action_counts))
    lines = [header]
    if game.is_polymatrix:
        for (i, j), (m_i, m_j) in sorted(game.edges.items()):
            lines.append(f"edge {i} {j}")
            for row in m_i:
                lines.append(" ".join(f"{v:.17g}" for v in row))
            for row in m_j:
                lines.append(" ".join(f"{v:.17g}" for v in row))
    else:
        for joint in np.ndindex(*game.action_counts):
            payoffs = " ".join(f"{game.tensors[i][joint]:.17g}" for i in range(game.n_players))
            lines.append(" ".join(map(str, joint)) + " " + payoffs)
    return "\n".join(lines) + "\n"


def matching_pennies():
    """The 2x2 zero-sum classic: player 1 wants a match, player 2 a mismatch."""
    u1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame.dense([u1, -u1], name="matching_pennies")
