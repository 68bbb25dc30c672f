"""Host-time benchmark for manetsim's seed-batch calls.

    python3 perfbench/run.py --workload sparse_ref|dense_mix|crowd50|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-pins

Run from anywhere; the simulator is imported from ``src/`` next to this
directory, never from an installed copy. ``--trace 0`` measures the
end-to-end metrics with no wrappers in place; ``--trace 1`` adds one traced
pass and reports the per-layer metrics instead. Every run is checked against
the pins in ``pins.json`` (at the default workload seed), against its own
earlier runs, for conservation, and for a PDR inside [0, 1]. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS_PATH = HERE / "pins.json"
SPANS_DIR = HERE / "out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120

if not (SRC / "manetsim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no simulator sources at {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

from manetsim import experiment  # noqa: E402
from manetsim.config import parse_scenario_text  # noqa: E402

from hostclock import REFERENCE_KERNEL_S, HostClock, reference_seconds  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, sim_seeds  # noqa: E402


def run_key(row) -> str:
    """Identifies one (config, seed) run inside a workload."""
    return f"{row.protocol}/{'balanced' if row.balanced else 'plain'}/{row.seed}"


def row_digests(csv_text: str) -> list[str]:
    """sha256 of each data line of a result CSV, in row order."""
    return [hashlib.sha256(line.encode()).hexdigest() for line in csv_text.splitlines()[1:]]


class Checker:
    """Counts attempted and failed runs.

    A run fails if its batch call raises, if its conservation check is false,
    if its PDR lies outside [0, 1], if its hashes differ from an earlier run
    of the same (config, seed) in this process, or if they differ from its pin.
    """

    def __init__(self, pins: dict | None):
        self.pins = pins  # run key -> {"state_hash", "row_sha256"}; None = no pins
        self.seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def batch_raised(self, runs: int, exc_text: str) -> None:
        self.attempted += runs
        for _ in range(runs):
            self._fail(f"batch call raised: {exc_text}")

    def check(self, row, digest: str, result=None) -> None:
        """``result`` is the run's RunResult when it was recorded, else None."""
        self.attempted += 1
        key = run_key(row)
        observed = {"row_sha256": digest}
        if result is not None:
            observed["state_hash"] = result.state_hash
            if not result.conservation_ok:
                return self._fail(f"{key}: conservation check failed")
        if not 0.0 <= row.overall_pdr <= 1.0:
            return self._fail(f"{key}: overall PDR {row.overall_pdr} outside [0, 1]")
        expected = [self.seen.get(key, {})]
        if self.pins is not None:
            expected.append(self.pins.get(key, {"row_sha256": "<no pin>"}))
        for reference in expected:
            for field, value in observed.items():
                if field in reference and reference[field] != value:
                    return self._fail(f"{key}: {field} {value[:12]} != expected {reference[field][:12]}")
        self.seen.setdefault(key, {}).update(observed)


@contextlib.contextmanager
def recording():
    """Keeps the RunResult of every simulate() the batch functions make."""
    results: dict[tuple, object] = {}
    original = experiment.simulate

    def simulate(config, seed, **kwargs):
        result = original(config, seed, **kwargs)
        results[(config.protocol, config.balancing, seed)] = result
        return result

    experiment.simulate = simulate
    try:
        yield results
    finally:
        experiment.simulate = original


class Bench:
    def __init__(self, workload: Workload, workload_seed: int, pins: dict | None):
        self.workload = workload
        self.seeds = sim_seeds(workload, workload_seed)
        self.configs = [
            parse_scenario_text(call.text, f"{workload.name}[{i}]")
            for i, call in enumerate(workload.calls)
        ]
        self.checker = Checker(pins)
        self.clock = HostClock()
        self.events_per_pass = 0

    def _batch(self, index: int):
        call = self.workload.calls[index]
        return experiment.compare if call.batch == "compare" else experiment.run_experiment

    def _runs_in(self, index: int) -> int:
        per_seed = 2 if self.workload.calls[index].batch == "compare" else 1
        return per_seed * len(self.seeds[index])

    def call(self, index: int, tracer: Tracer | None = None):
        """One batch call plus its CSV; returns (host_s, reference_s, csv_text, rows)."""
        batch, config, seeds = self._batch(index), self.configs[index], self.seeds[index]
        to_csv = experiment.rows_to_csv_text
        if tracer is not None:
            batch, to_csv = tracer.wrap("experiment.batch", batch), tracer.wrap("experiment.csv", to_csv)

        def region():
            rows = batch(config, seeds)
            return rows, to_csv(rows)

        (rows, text), host_s, ref_s = self.clock.time(
            region if tracer is None else lambda: tracer.root(region))
        return host_s, ref_s, text, rows

    def checked_pass(self, tracer: Tracer | None = None, record: bool = False):
        """Every call once, each run checked. Returns per-call
        (host_s, reference_s, csv_text), or None once a call has raised."""
        out = []
        events = 0
        for index in range(len(self.workload.calls)):
            with recording() if record else contextlib.nullcontext({}) as results:
                try:
                    host_s, ref_s, text, rows = self.call(index, tracer)
                except Exception as exc:
                    traceback.print_exc()
                    self.checker.batch_raised(self._runs_in(index), f"{type(exc).__name__}: {exc}")
                    return None
            for row, digest in zip(rows, row_digests(text)):
                result = results.get((row.protocol, row.balanced, row.seed))
                self.checker.check(row, digest, result)
            events += sum(row.runtime_events for row in rows)
            out.append((host_s, ref_s, text))
        self.events_per_pass = events
        return out

    def timed_passes(self, seconds: float):
        """Untraced passes until the next one would overrun ``seconds``.
        Returns the (host_s, reference_s) samples of each call, or None."""
        samples: list[list[tuple[float, float]]] = [[] for _ in self.workload.calls]
        start = time.perf_counter()
        last = 0.0
        while not samples[0] or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            done = self.checked_pass()
            if done is None:
                return None
            for per_call, (host_s, ref_s, _) in zip(samples, done):
                per_call.append((host_s, ref_s))
            last = time.perf_counter() - t0
        return samples


def measure_setup(workload: Workload, seed: int) -> list[dict]:
    """SETUP_REPEATS fresh interpreters. Each entry holds the child's own step
    times plus its parent-side wall, less the child's kernel run, in host and
    in reference seconds."""
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(seed)],
            input=workload.calls[0].text, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        steps = json.loads(proc.stdout.strip().splitlines()[-1])
        host_s = time.perf_counter() - t0 - steps["kernel_s"]
        runs.append({**steps, "host_s": host_s,
                     "ref_s": reference_seconds(host_s, steps["kernel_s"])})
    return runs


def load_pins(workload: str, workload_seed: int) -> dict | None:
    if workload_seed != DEFAULT_SEED:
        return None
    return json.loads(PINS_PATH.read_text())["workloads"][workload]


def report(correct: bool, checker: Checker, metrics: dict[str, tuple[float, str]],
           notes: dict[str, str]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'runs_failed':<30} {checker.failed:>16d} of {checker.attempted} runs attempted")
    for problem in checker.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def bench_one(name: str, workload_seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    bench = Bench(workload, workload_seed, load_pins(name, workload_seed))
    checker = bench.checker
    print(f"{name}: workload seed {workload_seed}, {len(workload.calls)} batch call(s) "
          f"per pass, simulation seeds {bench.seeds}")
    setup = measure_setup(workload, bench.seeds[0][0])

    warm = bench.checked_pass(record=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = bench.timed_passes(seconds) if warm is not None else None
    if samples is None:
        report(False, checker, {}, {})
        return 1
    n = len(samples[0])
    wall_s = sum(statistics.median(ref for _, ref in per_call) for per_call in samples)
    host_wall_s = sum(statistics.median(host for host, _ in per_call) for per_call in samples)
    slowness = statistics.median(bench.clock.kernel_s) / REFERENCE_KERNEL_S
    wall_note = (f"reference s; sum over {len(samples)} call(s) of the median of {n} samples "
                 f"each; {host_wall_s:.4g} host s at host slowness {slowness:.3f}")

    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "events_per_s": (bench.events_per_pass / wall_s, "1/s"),
            "setup_s": (statistics.median(r["ref_s"] for r in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = {
            "wall_s": wall_note,
            "events_per_s": f"{bench.events_per_pass} events per pass / wall_s",
            "setup_s": f"reference s; median of {len(setup)} fresh interpreters, "
                       f"{statistics.median(r['host_s'] for r in setup):.4g} host s",
            "peak_rss_mb": "1 sample, after the first pass",
        }
        report(checker.failed == 0, checker, metrics, notes)
        return 0

    tracer = Tracer()
    with tracer.installed():
        traced = bench.checked_pass(tracer=tracer, record=True)
    if traced is None:
        report(False, checker, {}, {})
        return 1
    traced_wall = sum(host_s for host_s, _, _ in traced)
    correct = checker.failed == 0
    if [text for _, _, text in traced] != [text for _, _, text in warm]:
        correct = False
        checker.problems.append("traced CSV bytes differ from the untraced run")
    metrics = tracer.layer_metrics()
    events = metrics["engine.events"][0]
    if events != tracer.counts.get("events_processed"):
        correct = False
        checker.problems.append(
            f"traced handler spans {events} != events processed {tracer.counts.get('events_processed')}")
    self_total = sum(tracer.self_seconds().values())
    if abs(self_total - traced_wall) > 0.01 * traced_wall:
        correct = False
        checker.problems.append(f"self times sum to {self_total:.4f} s, traced wall {traced_wall:.4f} s")
    metrics.update({
        "cli.import_s": (statistics.median(r["import_s"] for r in setup), "s"),
        "config.parse_s": (statistics.median(r["parse_s"] for r in setup), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead": (sum(ref_s for _, ref_s, _ in traced) / wall_s, "ratio"),
    })
    metrics = {metric: metrics[metric] for metric in LAYER_METRICS}
    tracer.write_spans(SPANS_DIR / f"{name}.spans")
    report(correct, checker, metrics, {
        "trace.wall_s": "host s of the traced pass",
        "trace.overhead": "traced pass / untraced wall_s, both in reference s",
    })
    return 0


def bench_all(workload_seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; prints their lines and one JSON summary
    whose metric names are prefixed with the workload name."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(workload_seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def write_pins() -> int:
    """Records state_hash and CSV-row sha256 of every run at the default seed."""
    pins = {}
    for name, workload in WORKLOADS.items():
        bench = Bench(workload, DEFAULT_SEED, None)
        if bench.checked_pass(record=True) is None or bench.checker.failed:
            print("\n".join(bench.checker.problems), file=sys.stderr)
            return 1
        pins[name] = bench.checker.seen
    PINS_PATH.write_text(json.dumps(
        {"workload_seed": DEFAULT_SEED, "workloads": pins}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, pins.values()))} pins to {PINS_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed-loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record pins.json from the current sources and exit")
    args = parser.parse_args(argv)
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return bench_all(args.seed, args.seconds, bool(args.trace))
    return bench_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
