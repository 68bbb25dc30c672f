"""Self-tests of the benchmark harness, on a workload small enough to run in
seconds. Run with ``python3 -m pytest perfbench``."""

import json
import re
from pathlib import Path

import pytest

import run
from spans import LAYER_METRICS, SELF_TIME_METRIC, Tracer
from workloads import Call, Workload

from manetsim import simulation
from manetsim.engine import Engine

TINY = Workload(
    name="tiny",
    why="harness self-test",
    calls=(
        Call("run_experiment", "[scenario]\nnodes = 6\narea_x = 120\narea_y = 120\n"
                               "sim_time_s = 6\nstream_start_s = 1\nprotocol = batmobile\n"),
        Call("compare", "[scenario]\nnodes = 6\narea_x = 120\narea_y = 120\n"
                        "sim_time_s = 6\nstream_start_s = 1\n"),
    ),
    seeds_per_call=2,
)

BENCHMARK_JSON = Path(run.HERE).parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def observed_pins() -> dict:
    bench = run.Bench(TINY, 7, None)
    assert bench.checked_pass(record=True) is not None
    assert bench.checker.failed == 0
    return bench.checker.seen


def test_matching_pins_pass_and_a_wrong_pin_is_a_failed_run():
    pins = observed_pins()
    assert len(pins) == 6 and all("state_hash" in p for p in pins.values())
    assert run.Bench(TINY, 7, pins).checked_pass(record=True) is not None

    for field in ("state_hash", "row_sha256"):
        wrong = {key: dict(value) for key, value in pins.items()}
        key = sorted(wrong)[0]
        wrong[key][field] = "0" * 64
        bench = run.Bench(TINY, 7, wrong)
        bench.checked_pass(record=True)
        assert (bench.checker.attempted, bench.checker.failed) == (6, 1)
        assert key in bench.checker.problems[0]


def test_a_run_without_a_pin_fails_when_pins_apply():
    pins = observed_pins()
    del pins[sorted(pins)[0]]
    bench = run.Bench(TINY, 7, pins)
    bench.checked_pass(record=True)
    assert bench.checker.failed == 1


def test_metric_names():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert tuple(m["name"] for m in spec["per_layer"]) == LAYER_METRICS
    assert set(SELF_TIME_METRIC.values()) <= set(LAYER_METRICS)
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in run.WORKLOADS.values()]


def test_self_times_sum_to_traced_wall_and_tracing_is_neutral():
    bench = run.Bench(TINY, 7, None)
    untraced = bench.checked_pass(record=True)
    tracer = Tracer()
    with tracer.installed():
        traced = bench.checked_pass(tracer=tracer, record=True)
    assert bench.checker.failed == 0  # same state_hash and row digests as untraced
    assert [text for _, _, text in traced] == [text for _, _, text in untraced]

    wall = sum(host_s for host_s, _, _ in traced)
    assert sum(tracer.self_seconds().values()) == pytest.approx(wall, rel=0.01)
    metrics = tracer.layer_metrics()
    assert metrics["engine.events"][0] == tracer.counts["events_processed"]
    assert metrics["mobility.predict_calls"][0] > 0
    assert metrics["balancer.hook_calls"][0] > 0 and metrics["balancer.plain_calls"][0] > 0
    assert all(NAME.fullmatch(name) for name in metrics)

    n = len(tracer.span_name)
    for i in range(n):
        parent = tracer.span_parent[i]
        assert tracer.span_start[i] <= tracer.span_end[i]
        if parent >= 0:
            assert parent < i
            assert tracer.span_start[parent] <= tracer.span_start[i]
            assert tracer.span_end[i] <= tracer.span_end[parent]


def test_tracer_restores_every_patch():
    before = (Engine.on, Engine.schedule, simulation.Simulation.__init__,
              simulation.postrouting_hook)
    with Tracer().installed():
        assert Engine.schedule is not before[1]
    assert (Engine.on, Engine.schedule, simulation.Simulation.__init__,
            simulation.postrouting_hook) == before
