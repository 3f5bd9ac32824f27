"""Run one workload of the phiregret benchmark and print its metrics.

    python3 bench/run.py --workload efg-med2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, and the run fails without printing a result when that is
missing. Load is a closed loop in one process: sessions run one after
another, each on its own game generated from (seed, session index). BLAS is
pinned to one thread before numpy loads.

--trace 0 prints the end-to-end metrics over the run's sessions. --trace 1
plays the first few of the same games three times (untraced, traced,
untraced) and prints the per-layer metrics plus the tracing overhead. The
last line of output is always one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (metric, unit); bounds and directions live in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("certify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("audit_gap", "payoff"),
]
TRACE_METRICS = [
    ("trace.rounds_per_s", "rounds/s", "higher"),
    ("trace.rounds_per_s_untraced", "rounds/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def prepare():
    """Pin BLAS to one thread and import the package from the checkout's src/.

    Call before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "phiregret" / "__init__.py").is_file():
        raise SystemExit(f"error: no phiregret sources under {src}")
    sys.path.insert(0, str(src))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("efg-med2", "nfg-ce", "efg-wide"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown: not a git checkout"


def environment(args, games):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "loadavg_at_start": os.getloadavg(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "games": games,
        "inputs": "games generated from (seed, session) and passed to the library as text",
        "load": "closed loop: one process, one session at a time",
    }


def attempt(workload, text, tracer=None):
    """One session and its gates; None if it raised (traceback on stderr)."""
    try:
        with tracer or contextlib.nullcontext():
            session, state = workload.session(text)
        gates = workload.gates(session.gaps, state)
    except Exception:
        traceback.print_exc()
        return None
    return session, gates


def report_session(k, outcome):
    if outcome is None:
        print(f"session {k}: raised")
        return
    s, gates = outcome
    verdicts = " ".join(f"{name}={'pass' if ok else 'FAIL'}" for name, ok in gates.items())
    gaps = " ".join(f"{g:.9f}" for g in s.gaps)
    print(f"session {k}: setup={s.setup_s:.4f}s rounds={s.rounds} play={s.play_s:.4f}s "
          f"rounds/s={s.rounds_per_s:.2f} certify={s.certify_s:.4f}s gaps={gaps} {verdicts}")


def failed(outcome):
    return outcome is None or not all(outcome[1].values())


def _pooled_rate(sessions):
    return sum(s.rounds for s in sessions) / sum(s.play_s for s in sessions)


def timed_run(workload, n, game_text):
    sessions, setups = [], []
    n_failed = 0
    for k in range(n):
        text = game_text(k)
        outcome = attempt(workload, text)
        report_session(k, outcome)
        n_failed += failed(outcome)
        if outcome is None:
            continue
        sessions.append(outcome[0])
        setups.append(outcome[0].setup_s)
        for _ in range(workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup(text)
            setups.append(time.perf_counter() - t0)
    if not sessions:
        raise SystemExit("error: every session raised")
    values = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": _pooled_rate(sessions),
        "certify_s": statistics.mean(s.certify_s for s in sessions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "audit_gap": statistics.mean(max(s.gaps) for s in sessions),
    }
    units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"  (setup_s: median of {len(setups)} setups; rounds_per_s: all rounds over all "
          f"play time; certify_s, audit_gap: means over {len(sessions)} sessions)")
    print(f"fail_ratio = {n_failed / n!r} ({n_failed} of {n} sessions)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return n, n_failed, metrics


def traced_run(workload, m, game_text):
    from tracer import LAYER_METRICS, Tracer, layer_metrics

    # The first m games of the timed run are played three times: untraced,
    # traced, untraced, so drift and warm-up fall on both sides of the
    # overhead comparison. Per-layer metrics are totals over the traced pass.
    texts = [game_text(k) for k in range(m)]
    tracer = Tracer()
    passes = {"untraced": [], "traced": []}
    n_failed = 0
    for label, tr in (("untraced", None), ("traced", tracer), ("untraced", None)):
        for k, text in enumerate(texts):
            outcome = attempt(workload, text, tr)
            report_session(f"{k} ({label})", outcome)
            n_failed += failed(outcome)
            if outcome is None:
                raise SystemExit("error: a session raised; no per-layer metrics")
            passes[label].append(outcome[0])
    traced = _pooled_rate(passes["traced"])
    untraced = _pooled_rate(passes["untraced"])
    values = layer_metrics(tracer)
    values["trace.rounds_per_s"] = traced
    values["trace.rounds_per_s_untraced"] = untraced
    values["trace.overhead"] = untraced / traced - 1.0
    table = [(name, unit, target) for name, unit, _, _, target in LAYER_METRICS]
    table += [(name, unit, f"tracing overhead@{workload.name}") for name, unit, _ in TRACE_METRICS]
    for name, unit, target in table:
        print(f"{name} = {values[name]!r} {unit}  -> {target}")
    print(f"fail_ratio = {n_failed / (3 * m)!r} ({n_failed} of {3 * m} sessions)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    return 3 * m, n_failed, metrics


def main(argv=None):
    args = parse_args(argv)
    prepare()
    import numpy as np
    from workloads import WORKLOADS, session_count, trace_session_count

    workload = WORKLOADS[args.workload]
    count = trace_session_count if args.trace else session_count
    games = count(workload, args.seconds)
    print("env " + json.dumps(environment(args, games)))
    print(f"workload {workload.name}: {workload.why}")

    def game_text(k):
        rng = np.random.default_rng([args.seed, k])
        return workload.game_text(rng, f"{workload.name}-{args.seed}-{k}")

    run = traced_run if args.trace else timed_run
    attempted, n_failed, metrics = run(workload, games, game_text)
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
