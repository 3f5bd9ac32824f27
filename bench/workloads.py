"""The benchmark's workloads: seeded game generators and one CLI session each.

A session is what the README's command-line session does, in one process:
parse the game text, build the deviation DAGs (setup), self-play (play),
export the profile to CSV text, import it and audit every player exactly
(certify). The calls are the public functions `cli.py` makes. Games are
generated from the seed and handed to the library only as text, as the CLI
reads them from a file; the CSV stays in memory instead of a file.

Correctness gates are checked after each session, outside the timed and
traced regions, and are never skipped.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from phiregret import (
    CorrelatedProfile,
    deviation_dag,
    efg_self_play,
    parse_efg,
    parse_nfg,
    phi_equilibrium_gap,
    run_ce,
    swap_gap,
)

clock = time.perf_counter

GAP_TOL = 1e-9
BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class Session:
    """Timings and audited per-player gaps of one session."""

    setup_s: float
    play_s: float
    rounds: int
    certify_s: float
    gaps: list

    @property
    def rounds_per_s(self):
        return self.rounds / self.play_s


@dataclass(frozen=True)
class EfgWorkload:
    """Two-player zero-sum game on hypercube problems, both seats learning."""

    name: str
    why: str
    bits: tuple
    dev: str
    rounds: int
    session_s: float
    setup_reps: int
    L: int = 50

    def game_text(self, rng, label):
        n1, n2 = self.bits
        u = rng.uniform(-1.0, 1.0, size=(2 * n1, 2 * n2))
        u /= np.max(np.abs(_corners(n1) @ u @ _corners(n2).T))
        lines = [f"efg {label}"]
        for player, n in ((1, n1), (2, n2)):
            lines.append(f"player {player}")
            lines.append("root O - -")
            for j in range(n):
                lines += [f"b{j} D root {j}", f"b{j}:0 T b{j} 0", f"b{j}:1 T b{j} 1"]
        lines.append("payoffs")
        for a, b in itertools.product(range(2 * n1), range(2 * n2)):
            lines.append(f"b{a // 2}:{a % 2} b{b // 2}:{b % 2} {float(u[a, b])!r}")
        return "\n".join(lines) + "\n"

    def setup(self, text):
        game = parse_efg(text)
        return game, [deviation_dag(p, self.dev) for p in game.problems]

    def session(self, text):
        t0 = clock()
        game, dags = self.setup(text)
        t1 = clock()
        res = efg_self_play(game, dags, rounds=self.rounds, L=self.L)
        t2 = clock()
        csv = res.profile.export_csv()
        profile = CorrelatedProfile.from_csv(csv)
        gaps = [phi_equilibrium_gap(profile, game, i, dags[i]) for i in (0, 1)]
        t3 = clock()
        return Session(t1 - t0, t2 - t1, self.rounds, t3 - t2, gaps), (res, csv, profile)

    def gates(self, gaps, state):
        res, csv, profile = state
        runs = [res.run_for(i) for i in (0, 1)]
        phi = [r.phi_regret() for r in runs]
        ext = [r.external_regret() for r in runs]
        return {
            "audit_equals_phi_regret": all(
                abs(g - p) <= GAP_TOL for g, p in zip(gaps, phi)),
            "phi_regret_within_external_plus_2_over_L": all(
                p <= e + 2.0 / self.L + BOUND_SLACK for p, e in zip(phi, ext)),
            "csv_roundtrip_bit_exact": profile.export_csv() == csv,
        }


@dataclass(frozen=True)
class NfgWorkload:
    """Dense n-player normal-form game, swap-regret self-play to eps-CE."""

    name: str
    why: str
    players: int
    actions: int
    eps: float
    session_s: float
    setup_reps: int

    def game_text(self, rng, label):
        shape = (self.actions,) * self.players
        payoff = rng.uniform(-1.0, 1.0, size=(self.players,) + shape)
        lines = [f"nfg {self.players} " + " ".join([str(self.actions)] * self.players)]
        for joint in np.ndindex(*shape):
            values = " ".join(repr(float(payoff[(i,) + joint])) for i in range(self.players))
            lines.append(" ".join(map(str, joint)) + " " + values)
        return "\n".join(lines) + "\n"

    def setup(self, text):
        return parse_nfg(text)

    def session(self, text):
        # run_ce's own audit is off: the session audits the re-imported
        # profile instead, exactly as `audit --profile` does after `nfg-ce --out`.
        t0 = clock()
        game = self.setup(text)
        t1 = clock()
        res = run_ce(game, self.eps, audit=False)
        t2 = clock()
        csv = res.profile.export_csv()
        profile = CorrelatedProfile.from_csv(csv)
        gaps = [float(g) for g in swap_gap(profile, game)]
        t3 = clock()
        return Session(t1 - t0, t2 - t1, res.rounds, t3 - t2, gaps), (csv, profile)

    def gates(self, gaps, state):
        csv, profile = state
        return {
            "swap_gap_within_eps": max(gaps) <= self.eps,
            "csv_roundtrip_bit_exact": profile.export_csv() == csv,
        }


def _corners(n):
    """Every pure strategy of an n-bit hypercube problem as a terminal vector
    (terminal 2j clears bit j, 2j + 1 sets it)."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    out = np.zeros((2 ** n, 2 * n))
    out[np.arange(2 ** n)[:, None], 2 * np.arange(n) + bits] = 1.0
    return out


# Nominal session lengths (session_s) are single untraced sessions on a
# 2-core Xeon at the commit that introduced the benchmark; they only fix how
# many sessions a run of --seconds holds, so every commit does the same work.
WORKLOADS = {
    w.name: w
    for w in (
        EfgWorkload(
            name="efg-med2",
            why="per-round DAG passes dominate: flow, CFR and degree-2 behavioral "
                "monomials on 820-state med:2 DAGs; profile layer nearly idle, nfg never runs",
            bits=(3, 3),
            dev="med:2",
            rounds=15,
            session_s=0.7,
            setup_reps=5,
        ),
        NfgWorkload(
            name="nfg-ce",
            why="bm_next, per-action Mwu rows and expectation_oracle dominate; "
                "no tree, DAG or fixed-point code runs",
            players=3,
            actions=5,
            eps=0.1,
            session_s=11.0,
            setup_reps=50,
        ),
        EfgWorkload(
            name="efg-wide",
            why="profile export and import of 2^11-atom behavioral supports and the "
                "audit over explicit atoms dominate; pure-strategy enumeration in setup",
            bits=(11, 2),
            dev="med:1",
            rounds=20,
            session_s=0.75,
            setup_reps=3,
        ),
    )
}


def session_count(workload, seconds):
    """Sessions in a run of `seconds`: fixed by the arguments alone, so the
    same seed and length give the same games and the same audit numbers."""
    return max(3, round(seconds / workload.session_s))


def trace_session_count(workload, seconds):
    """Games in a traced run, each played three times."""
    return max(1, round(seconds / (3 * workload.session_s)))
