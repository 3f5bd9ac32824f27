"""Tests of the benchmark itself (not part of the library's suite):

    python -m pytest bench/test_bench.py -q

They run shrunken copies of the three workloads under the tracer and check
that every traced layer runs on the workloads that exercise it and on no
other, that tracing reaches every binding of a wrapped function, and that
BENCHMARK.json names exactly the metrics the runner prints.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

run.prepare()

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SMALL = {
    "efg-med2": replace(WORKLOADS["efg-med2"], rounds=3),
    "nfg-ce": replace(WORKLOADS["nfg-ce"], eps=0.5),
    "efg-wide": replace(WORKLOADS["efg-wide"], rounds=2),
}


def _text(workload, seed=0):
    return workload.game_text(np.random.default_rng([seed, 0]), workload.name)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name, workload in SMALL.items():
        tracer = tracing.Tracer()
        outcome = run.attempt(workload, _text(workload), tracer)
        assert outcome is not None, f"{name} raised"
        assert all(outcome[1].values()), f"{name} failed a gate: {outcome[1]}"
        out[name] = tracer
    return out


@pytest.mark.parametrize("spec", tracing.SPANS, ids=[s[2] for s in tracing.SPANS])
def test_span_runs_only_where_exercised(traced, spec):
    span, exercised_by = spec[2], spec[4]
    for name, tracer in traced.items():
        calls = tracer.spans[span].calls
        if name in exercised_by:
            assert calls > 0, f"{span} never ran on {name}"
        else:
            assert calls == 0, f"{span} ran {calls} times on {name}, which bypasses it"


def test_fixed_point_outcomes_are_read_from_every_call(traced):
    tracer = traced["efg-med2"]
    n = tracer.spans["fixedpoint.expected_fixed_point"].calls
    assert n == 2 * SMALL["efg-med2"].rounds
    for key in ("fixedpoint.iterates", "fixedpoint.stalled", "fixedpoint.displacement"):
        assert len(tracer.samples[key]) == n
    assert max(tracer.samples["fixedpoint.displacement"]) <= 2.0 / SMALL["efg-med2"].L


def test_every_binding_is_wrapped_then_restored():
    functions = {}
    for mod_name, attr, *_ in tracing.SPANS:
        if "." not in attr:
            module = sys.modules[f"phiregret.{mod_name}"]
            functions[id(getattr(module, attr))] = getattr(module, attr)
    bindings = [
        (module, key, value)
        for module in list(sys.modules.values())
        if isinstance(getattr(module, "__dict__", None), dict)
        for key, value in list(vars(module).items())
        if id(value) in functions and functions[id(value)] is value
    ]
    holders = {(m.__name__, k) for m, k, _ in bindings}
    for module in ("dags", "fixedpoint", "efg"):
        assert (f"phiregret.{module}", "terminal_weights") in holders
    for module in ("dags", "learners", "efg"):
        assert (f"phiregret.{module}", "best_reduced_strategy") in holders
    for module in ("dags", "learners"):
        assert (f"phiregret.{module}", "forward_flow") in holders

    from phiregret.learners import CfrLearner, Mwu
    from phiregret.nfg import SwapLearner
    from phiregret.profile import CorrelatedProfile

    methods = [(CfrLearner, "observe"), (Mwu, "next_distribution"),
               (SwapLearner, "q_matrix"), (CorrelatedProfile, "from_csv")]
    before = {(cls, name): cls.__dict__[name] for cls, name in methods}
    with tracing.Tracer():
        for module, key, original in bindings:
            assert getattr(module, key).__wrapped__ is original, (module.__name__, key)
        for cls, name in methods:
            assert cls.__dict__[name] is not before[(cls, name)]
    for module, key, original in bindings:
        assert getattr(module, key) is original
    for cls, name in methods:
        assert cls.__dict__[name] is before[(cls, name)]


def test_games_are_seeded_text():
    for workload in SMALL.values():
        assert _text(workload, 1) == _text(workload, 1)
        assert _text(workload, 1) != _text(workload, 2)
        workload.setup(_text(workload, 1))


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    layers = [(n, u, b) for n, u, b, _, _ in tracing.LAYER_METRICS] + run.TRACE_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "efg-med2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
