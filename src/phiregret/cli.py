"""Command-line front end: correlated-equilibrium runs, extensive-form
self-play, profile auditing, the depth-hierarchy table, and the min-gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .efg import deviation_dag, efg_self_play, parse_efg, phi_equilibrium_gap
from .errors import CapacityError, ParseError
from .fixedpoint import CURVE_COLUMNS, RoundRecord, curves_csv
from .gadget import gadget_min_sum
from .nfg import ce_horizon, parse_nfg, run_ce, swap_gap
from .profile import CorrelatedProfile
from .separation import separation_table


def _read(path):
    return Path(path).read_text()


def _write(path, text):
    Path(path).write_text(text)


def _checkpoint_schedule(rounds, n=50):
    step = max(1, rounds // n)
    marks = list(range(step, rounds + 1, step))
    if not marks or marks[-1] != rounds:
        marks.append(rounds)
    return marks


def _run_nfg_ce(args):
    game = parse_nfg(_read(args.game))
    if args.polymatrix and not game.is_polymatrix:
        raise SystemExit("--polymatrix given but the file holds a dense game")
    # schedule curve checkpoints against the same horizon run_ce will use
    horizon = ce_horizon(game, args.eps)
    res = run_ce(
        game,
        args.eps,
        checkpoints=_checkpoint_schedule(horizon) if args.curves else (),
    )
    gaps = " ".join(f"{g:.6f}" for g in res.certified_gaps)
    print(f"game={game.name} players={game.n_players} actions={game.action_counts}")
    print(f"rounds={res.rounds} L={res.L} elapsed={res.elapsed:.2f}s")
    print(f"swap-gap per player: {gaps}")
    print("certified" if float(np.max(res.certified_gaps)) <= args.eps else "NOT within eps")
    if args.out:
        _write(args.out, res.profile.export_csv())
        print(f"profile -> {args.out}")
    if args.curves:
        _write(args.curves, res.curves_csv())
        print(f"curves -> {args.curves}")
    return 0


def _run_efg(args):
    game = parse_efg(_read(args.game))
    checkpoints = _checkpoint_schedule(args.rounds) if args.curves else ()
    res = efg_self_play(
        game,
        [args.dev, args.dev],
        rounds=args.rounds,
        delta=args.delta,
        L=args.fixed_point_iters,
        checkpoints=checkpoints,
        record_profile=args.out is not None,
    )
    print(f"game={game.name} rounds={res.rounds} dev={args.dev} "
          f"delta={args.delta} elapsed={res.elapsed:.2f}s")
    for i in (0, 1):
        # self-play checkpoints its last round, so only --rounds 0 has no record
        records = res.run_for(i).records
        last = records[-1] if records else RoundRecord(0, 0.0, 0.0, 0.0)
        print(f"player {i + 1}: phi-regret={last.phi_regret:.6f} "
              f"external={last.external_regret:.6f} fp-bound={last.fp_error_bound:.6f}")
    if args.out:
        _write(args.out, res.profile.export_csv())
        print(f"profile -> {args.out}")
    if args.curves:
        rows = [
            (i + 1, r.round, r.phi_regret, r.external_regret, r.fp_error_bound)
            for i in (0, 1)
            for r in res.run_for(i).records
        ]
        _write(args.curves, curves_csv(rows, ("player",) + CURVE_COLUMNS))
        print(f"curves -> {args.curves}")
    return 0


def _run_audit(args):
    profile = CorrelatedProfile.from_csv(_read(args.profile))
    text = _read(args.game)
    head = text.lstrip().split(None, 1)[0] if text.strip() else ""
    if head == "nfg":
        game = parse_nfg(text)
        if args.dev is not None and args.dev.strip().lower() != "swap":
            raise SystemExit("normal-form profiles audit swap deviations; use --dev swap")
        gaps = swap_gap(profile, game)
        for i, g in enumerate(gaps, start=1):
            print(f"player {i}: swap gap {g:.9f}")
        return 0
    if head == "efg":
        game = parse_efg(text)
        if not args.dev:
            raise SystemExit("--dev SPEC is required for extensive-form audits")
        for i in (0, 1):
            dag = deviation_dag(game.problems[i], args.dev)
            gap = phi_equilibrium_gap(profile, game, i, dag)
            print(f"player {i + 1}: {args.dev} gap {gap:.9f}")
        return 0
    raise SystemExit(f"unrecognized game header {head!r} (want nfg or efg)")


def _run_separation(args):
    for depth, gap in separation_table(args.k):
        print(f"depth {depth}: gap {gap:.9f}")
    return 0


def _run_gadget(args):
    value = gadget_min_sum(args.t1, args.t2, args.eps)
    print(f"{value:.17g}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="phiregret",
        description="Deviation-regret minimization for tree-form decision problems",
    )
    sp = p.add_subparsers(dest="cmd", required=True)

    a = sp.add_parser("nfg-ce", help="self-play a normal-form game to a correlated equilibrium")
    a.add_argument("--game", required=True, help="nfg game file")
    a.add_argument("--eps", type=float, required=True, help="target swap gap")
    a.add_argument("--polymatrix", action="store_true",
                   help="require the file to define a polymatrix game")
    a.add_argument("--out", default=None, help="profile CSV path")
    a.add_argument("--curves", default=None, help="regret curves CSV path")
    a.set_defaults(func=_run_nfg_ce)

    a = sp.add_parser("efg-run", help="self-play a two-player extensive-form game")
    a.add_argument("--game", required=True, help="efg game file")
    a.add_argument("--dev", required=True,
                   help="deviation set: external, dt:K, or med:K")
    a.add_argument("--rounds", type=int, required=True)
    a.add_argument("--delta", choices=("beta", "cara"), default="beta",
                   help="consistent map used inside the fixed-point iteration")
    a.add_argument("--fixed-point-iters", type=int, default=None,
                   help="iterates per fixed point (default 50)")
    a.add_argument("--out", default=None, help="profile CSV path")
    a.add_argument("--curves", default=None, help="regret curves CSV path")
    a.set_defaults(func=_run_efg)

    a = sp.add_parser("audit", help="exact deviation gaps of a stored profile")
    a.add_argument("--profile", required=True, help="profile CSV path")
    a.add_argument("--game", required=True, help="nfg or efg game file")
    a.add_argument("--dev", default=None,
                   help="deviation set (efg: external/dt:K/med:K, nfg: swap)")
    a.set_defaults(func=_run_audit)

    a = sp.add_parser("separation", help="depth-hierarchy gap table")
    a.add_argument("--k", type=int, required=True)
    a.set_defaults(func=_run_separation)

    a = sp.add_parser("gadget", help="approximate min(1, t1+t2) with products")
    a.add_argument("--t1", type=float, required=True)
    a.add_argument("--t2", type=float, required=True)
    a.add_argument("--eps", type=float, required=True)
    a.set_defaults(func=_run_gadget)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
