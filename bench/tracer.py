"""Span tracing around phiregret's public functions, from outside the library.

`Tracer` is a context manager. On entry it replaces every module binding of
each function in SPANS, in any loaded module, and each traced method on its
class, with a wrapper that
records one span per call: call count, self time (duration minus the time of
wrapped calls made inside it) and per-call durations. On exit it restores
the originals. Nothing inside the library changes.

`LAYER_METRICS` names each per-layer metric, how to read it off a finished
tracer, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

PACKAGE = "phiregret"


class Span:
    __slots__ = ("calls", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []


def _fp_outcome(tracer, result):
    """Read iterates used, the stall flag and the displacement off a
    FixedPointResult. `iterates` holds exactly the points the extended map
    was evaluated at, whether or not the iteration stalled."""
    tracer.samples["fixedpoint.iterates"].append(len(result.iterates))
    tracer.samples["fixedpoint.stalled"].append(bool(result.stalled))
    tracer.samples["fixedpoint.displacement"].append(
        float(np.max(np.abs(result.error_vector)))
    )


def _dag_size(tracer, dag):
    tracer.counts["dags.n_states"] += dag.n_states
    tracer.counts["dags.n_terminal_states"] += dag.n_terminal_states


def _support_size(tracer, mix):
    tracer.counts["maps.beta_support.atoms"] += mix.n_atoms


def _export_size(tracer, text):
    tracer.counts["profile.export.rows"] += text.count("\n") - 1
    tracer.counts["profile.export.bytes"] += len(text.encode())


# Workloads on which a span must run; on every other workload it must not.
EFG = ("efg-med2", "efg-wide")
NFG = ("nfg-ce",)
ALL = EFG + NFG

# (module, function or Class.method, span name, hook on the return value,
#  workloads that exercise it)
SPANS = [
    ("tfsdp", "DecisionProblem.node_values", "tfsdp.node_values", None, EFG),
    ("tfsdp", "DecisionProblem.membership_violation", "tfsdp.membership_violation", None, EFG),
    ("tfsdp", "DecisionProblem.enumerate_pure_strategies", "tfsdp.enumerate_pure_strategies", None, EFG),
    ("maps", "monomial_expectation_beta", "maps.monomial_expectation_beta", None, EFG),
    ("maps", "beta_support", "maps.beta_support", _support_size, EFG),
    ("maps", "SupportMix.monomial_expectation", "maps.support_monomial", None, EFG),
    ("efg", "deviation_dag", "dags.deviation_dag", _dag_size, EFG),
    ("dags", "forward_flow", "dags.forward_flow", None, EFG),
    ("dags", "terminal_weights", "dags.terminal_weights", None, EFG),
    ("dags", "best_reduced_strategy", "dags.best_reduced_strategy", None, EFG),
    ("learners", "CfrLearner.next_strategy", "learners.cfr_next", None, EFG),
    ("learners", "CfrLearner.observe", "learners.cfr_observe", None, EFG),
    ("learners", "Mwu.next_distribution", "learners.mwu_next", None, NFG),
    ("learners", "Mwu.observe", "learners.mwu_observe", None, NFG),
    ("fixedpoint", "expected_fixed_point", "fixedpoint.expected_fixed_point", _fp_outcome, EFG),
    ("fixedpoint", "PhiRegretMinimizer.next_mixture", "fixedpoint.next_mixture", None, EFG),
    ("fixedpoint", "PhiRegretMinimizer.observe_utility", "fixedpoint.observe_utility", None, EFG),
    ("efg", "parse_efg", "efg.parse_efg", None, EFG),
    ("efg", "EFGame.__init__", "efg.game_init", None, EFG),
    ("efg", "EFGame.utility_vector", "efg.utility_vector", None, EFG),
    ("efg", "phi_equilibrium_gap", "efg.phi_equilibrium_gap", None, EFG),
    ("nfg", "parse_nfg", "nfg.parse_nfg", None, NFG),
    ("nfg", "bm_next", "nfg.bm_next", None, NFG),
    ("nfg", "SwapLearner.q_matrix", "nfg.q_matrix", None, NFG),
    ("nfg", "bm_observe", "nfg.bm_observe", None, NFG),
    ("nfg", "expectation_oracle", "nfg.expectation_oracle", None, NFG),
    ("nfg", "swap_gap", "nfg.swap_gap", None, NFG),
    ("profile", "CorrelatedProfile.export_csv", "profile.export_csv", _export_size, ALL),
    ("profile", "CorrelatedProfile.from_csv", "profile.from_csv", None, ALL),
    ("profile", "CorrelatedProfile.round_mean", "profile.round_mean", None, ALL),
]


class Tracer:
    """Records spans and counts while installed (`with Tracer() as tr:`)."""

    def __init__(self):
        self.spans = {name: Span() for _, _, name, _, _ in SPANS}
        self.counts = {"dags.n_states": 0, "dags.n_terminal_states": 0,
                       "maps.beta_support.atoms": 0, "profile.export.rows": 0,
                       "profile.export.bytes": 0}
        self.samples = {"fixedpoint.iterates": [], "fixedpoint.stalled": [],
                        "fixedpoint.displacement": []}
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, hook):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += duration
                span.calls += 1
                span.self_s += duration - inner
                span.durations.append(duration)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def __enter__(self):
        importlib.import_module(PACKAGE)
        functions = {}
        for mod_name, attr, name, hook, _ in SPANS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." not in attr:
                fn = getattr(module, attr)
                functions[id(fn)] = (fn, self._wrap(fn, name, hook))
                continue
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                patched = self._wrap(raw, name, hook)
            setattr(cls, meth, patched)
            self._undo.append((cls, meth, raw))
        # every module that imported a traced function by name holds its own
        # binding (dags, fixedpoint and efg all bind terminal_weights)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._undo.append((module, key, value))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

def _percentile_ms(span, q):
    return float(np.percentile(span.durations, q)) * 1e3 if span.durations else 0.0


def _calls(name):
    return lambda tr: tr.spans[name].calls


def _self_s(name):
    return lambda tr: tr.spans[name].self_s


def _p(name, q):
    return lambda tr: _percentile_ms(tr.spans[name], q)


def _count(name):
    return lambda tr: tr.counts[name]


def _sample_stat(name, stat):
    def read(tr):
        values = tr.samples[name]
        return float(stat(np.asarray(values, dtype=float))) if values else 0.0
    return read


MED2 = "rounds_per_s@efg-med2"
EFG_PLAY = "rounds_per_s@efg-med2,efg-wide"
WIDE_CERT = "certify_s@efg-wide"
NFG_PLAY = "rounds_per_s@nfg-ce"

# (metric, unit, better, reader, end-to-end metric@workload it should move)
LAYER_METRICS = [
    ("tfsdp.node_values.calls", "count", "lower", _calls("tfsdp.node_values"), MED2),
    ("tfsdp.node_values.self_s", "s", "lower", _self_s("tfsdp.node_values"), MED2),
    ("tfsdp.membership_violation.self_s", "s", "lower",
     _self_s("tfsdp.membership_violation"), MED2),
    ("tfsdp.enumerate_pure_strategies.self_s", "s", "lower",
     _self_s("tfsdp.enumerate_pure_strategies"), "setup_s@efg-wide"),
    ("maps.monomial_expectation_beta.calls", "count", "lower",
     _calls("maps.monomial_expectation_beta"), MED2),
    ("maps.monomial_expectation_beta.self_s", "s", "lower",
     _self_s("maps.monomial_expectation_beta"), MED2),
    ("maps.beta_support.calls", "count", "lower", _calls("maps.beta_support"),
     "certify_s,peak_rss_mb@efg-wide"),
    ("maps.beta_support.self_s", "s", "lower", _self_s("maps.beta_support"),
     "certify_s,peak_rss_mb@efg-wide"),
    ("maps.beta_support.atoms", "count", "lower", _count("maps.beta_support.atoms"),
     "certify_s,peak_rss_mb@efg-wide"),
    ("maps.support_monomial.calls", "count", "lower", _calls("maps.support_monomial"), WIDE_CERT),
    ("maps.support_monomial.self_s", "s", "lower", _self_s("maps.support_monomial"), WIDE_CERT),
    ("dags.deviation_dag.self_s", "s", "lower", _self_s("dags.deviation_dag"), "setup_s@efg-*"),
    ("dags.n_states", "count", "lower", _count("dags.n_states"), "setup_s@efg-*"),
    ("dags.n_terminal_states", "count", "lower", _count("dags.n_terminal_states"), "setup_s@efg-*"),
    ("dags.forward_flow.calls", "count", "lower", _calls("dags.forward_flow"), EFG_PLAY),
    ("dags.forward_flow.self_s", "s", "lower", _self_s("dags.forward_flow"), EFG_PLAY),
    ("dags.terminal_weights.calls", "count", "lower", _calls("dags.terminal_weights"),
     "rounds_per_s@efg-med2;certify_s@efg-wide"),
    ("dags.terminal_weights.self_s", "s", "lower", _self_s("dags.terminal_weights"),
     "rounds_per_s@efg-med2;certify_s@efg-wide"),
    ("dags.best_reduced_strategy.calls", "count", "lower",
     _calls("dags.best_reduced_strategy"), "certify_s@efg-*"),
    ("dags.best_reduced_strategy.self_s", "s", "lower",
     _self_s("dags.best_reduced_strategy"), "certify_s@efg-*"),
    ("learners.cfr_next.self_s", "s", "lower", _self_s("learners.cfr_next"), EFG_PLAY),
    ("learners.cfr_observe.self_s", "s", "lower", _self_s("learners.cfr_observe"), EFG_PLAY),
    ("learners.mwu_next.calls", "count", "lower", _calls("learners.mwu_next"), NFG_PLAY),
    ("learners.mwu_next.self_s", "s", "lower", _self_s("learners.mwu_next"), NFG_PLAY),
    ("learners.mwu_observe.self_s", "s", "lower", _self_s("learners.mwu_observe"), NFG_PLAY),
    ("fixedpoint.expected_fixed_point.calls", "count", "lower",
     _calls("fixedpoint.expected_fixed_point"), EFG_PLAY),
    ("fixedpoint.expected_fixed_point.self_s", "s", "lower",
     _self_s("fixedpoint.expected_fixed_point"), EFG_PLAY),
    ("fixedpoint.expected_fixed_point.p50_ms", "ms", "lower",
     _p("fixedpoint.expected_fixed_point", 50), EFG_PLAY),
    ("fixedpoint.expected_fixed_point.p95_ms", "ms", "lower",
     _p("fixedpoint.expected_fixed_point", 95), EFG_PLAY),
    ("fixedpoint.next_mixture.self_s", "s", "lower", _self_s("fixedpoint.next_mixture"), EFG_PLAY),
    ("fixedpoint.observe_utility.self_s", "s", "lower",
     _self_s("fixedpoint.observe_utility"), EFG_PLAY),
    ("fixedpoint.iterates.mean", "count", "lower",
     _sample_stat("fixedpoint.iterates", np.mean), MED2),
    ("fixedpoint.iterates.p95", "count", "lower",
     _sample_stat("fixedpoint.iterates", lambda v: np.percentile(v, 95)), MED2),
    ("fixedpoint.stall_ratio", "ratio", "higher",
     _sample_stat("fixedpoint.stalled", np.mean), MED2),
    ("fixedpoint.displacement_max", "inf-norm", "lower",
     _sample_stat("fixedpoint.displacement", np.max), MED2),
    ("efg.parse_efg.self_s", "s", "lower", _self_s("efg.parse_efg"), "setup_s@efg-wide"),
    ("efg.game_init.self_s", "s", "lower", _self_s("efg.game_init"), "setup_s@efg-wide"),
    ("efg.utility_vector.self_s", "s", "lower", _self_s("efg.utility_vector"), EFG_PLAY),
    ("efg.phi_equilibrium_gap.self_s", "s", "lower",
     _self_s("efg.phi_equilibrium_gap"), WIDE_CERT),
    ("nfg.parse_nfg.self_s", "s", "lower", _self_s("nfg.parse_nfg"), "setup_s@nfg-ce"),
    ("nfg.bm_next.calls", "count", "lower", _calls("nfg.bm_next"), NFG_PLAY),
    ("nfg.bm_next.self_s", "s", "lower", _self_s("nfg.bm_next"), NFG_PLAY),
    ("nfg.bm_next.p50_ms", "ms", "lower", _p("nfg.bm_next", 50), NFG_PLAY),
    ("nfg.bm_next.p95_ms", "ms", "lower", _p("nfg.bm_next", 95), NFG_PLAY),
    ("nfg.q_matrix.calls", "count", "lower", _calls("nfg.q_matrix"), NFG_PLAY),
    ("nfg.bm_observe.self_s", "s", "lower", _self_s("nfg.bm_observe"), NFG_PLAY),
    ("nfg.expectation_oracle.calls", "count", "lower", _calls("nfg.expectation_oracle"),
     "rounds_per_s,certify_s@nfg-ce"),
    ("nfg.expectation_oracle.self_s", "s", "lower", _self_s("nfg.expectation_oracle"),
     "rounds_per_s,certify_s@nfg-ce"),
    ("nfg.swap_gap.self_s", "s", "lower", _self_s("nfg.swap_gap"), "certify_s@nfg-ce"),
    ("profile.export_csv.self_s", "s", "lower", _self_s("profile.export_csv"),
     "certify_s,peak_rss_mb@efg-wide,nfg-ce"),
    ("profile.export.rows", "count", "lower", _count("profile.export.rows"),
     "certify_s,peak_rss_mb@efg-wide,nfg-ce"),
    ("profile.export.bytes", "bytes", "lower", _count("profile.export.bytes"),
     "certify_s,peak_rss_mb@efg-wide,nfg-ce"),
    ("profile.from_csv.self_s", "s", "lower", _self_s("profile.from_csv"),
     "certify_s,peak_rss_mb@efg-wide,nfg-ce"),
    ("profile.round_mean.self_s", "s", "lower", _self_s("profile.round_mean"),
     "certify_s,peak_rss_mb@efg-wide,nfg-ce"),
]


def layer_metrics(tracer):
    """{metric: value} for every entry of LAYER_METRICS."""
    return {name: reader(tracer) for name, _, _, reader, _ in LAYER_METRICS}
