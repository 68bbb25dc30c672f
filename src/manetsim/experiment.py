"""Experiment orchestration: seed batches, parameter sweeps, CSV emission.

Rows are fully deterministic functions of (config, seed): float columns are
quantized to 9 significant digits at row construction and the runtime column
reports the processed-event count, so identical inputs produce byte-identical
CSV output. A batch's runs are dealt out by a fixed stride between the
calling process and children forked for the batch (see ``simulate_all``);
rows, CSVs and trace files are built in the calling process, in job order,
so the bytes do not depend on how many processes ran.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, fields, replace

from . import simulation
from .config import ConfigError, ScenarioConfig, validate
from .simulation import RunResult, simulate
from .traffic import DROP_CAUSES

SWEEP_PARAMETERS = ("lambda", "nodes", "streams")


@dataclass(frozen=True)
class ResultRow:
    scenario_id: str
    protocol: str
    balanced: bool
    lambda_factor: float
    nodes: int
    streams: int
    seed: int
    overall_pdr: float
    mean_current_pdr: float
    drop_collision: int  # one drop_<cause> per traffic.DROP_CAUSES entry, in order
    drop_queue: int
    drop_no_route: int
    drop_ttl: int
    drop_link: int
    control_messages: int
    runtime_events: int


CSV_COLUMNS = tuple("lambda" if f.name == "lambda_factor" else f.name for f in fields(ResultRow))


def quantize(value: float) -> float:
    """Round-trip through the 9-significant-digit CSV representation."""
    return float(f"{value:.9g}")


def scenario_id(config: ScenarioConfig) -> str:
    blob = ";".join(f"{k}={v}" for k, v in config.canonical_items())
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def result_row(config: ScenarioConfig, result: RunResult) -> ResultRow:
    return ResultRow(
        scenario_id=scenario_id(config),
        protocol=config.protocol,
        balanced=config.balancing,
        lambda_factor=quantize(config.lambda_factor),
        nodes=config.nodes,
        streams=config.streams,
        seed=result.seed,
        overall_pdr=quantize(result.overall_pdr),
        mean_current_pdr=quantize(result.mean_current_pdr),
        **{f"drop_{cause}": result.drops[cause] for cause in DROP_CAUSES},
        control_messages=result.control_tx,
        runtime_events=result.events_processed,
    )


def default_seeds(config: ScenarioConfig) -> list[int]:
    return [config.seed + i for i in range(config.runs)]


def simulate_all(jobs: list[tuple[ScenarioConfig, int]]) -> list[RunResult]:
    """The RunResult of each (config, seed) job, in job order.

    The jobs run on w = min(len(jobs), os.cpu_count()) processes: this one,
    process 0, and w - 1 forked children. Process k runs jobs k, k + w,
    k + 2w, ... in order, with the results of running them one after
    another; a serial batch is the case w = 1 and forks nothing. w is 1 also
    when the platform cannot fork or when ``simulate`` here has been
    replaced: a caller observing every run (perfbench's recorder) then sees
    each one. A child pickles back its results, or its error, through its
    own pipe. No child outlives the call: if this process fails or is
    interrupted, it kills and reaps the children left.
    """
    workers = min(len(jobs), os.cpu_count() or 1)
    if workers < 2 or not hasattr(os, "fork") or simulate is not simulation.simulate:
        workers = 1
    else:  # ~4 ms of set-up that a serial batch does not need
        import pickle
        import signal
    results: list = [None] * len(jobs)
    children: dict[int, tuple[int, int]] = {}  # pid -> (k, read end of its result pipe)
    try:
        for k in range(1, workers):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(result_r)
                os.close(result_w)
                raise
            if pid == 0:  # a child leaves only by os._exit
                status = 1
                try:
                    os.close(result_r)
                    _child(jobs[k::workers], result_w)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = (k, result_r)
            os.close(result_w)
        results[::workers] = _run(jobs[::workers])
        for pid, (k, result_r) in list(children.items()):
            with open(result_r, "rb", closefd=False) as pipe:
                data = pipe.read()  # read before waitpid: a child blocks until its pickle is read
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(result_r)
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise WorkerError(f"worker process {pid} ended with {how} and no results")
            done, error, text = pickle.loads(data)  # bytes a child of this call wrote
            if error is not None:
                raise error from _WorkerTraceback(text)
            results[k::workers] = done
    finally:
        for pid, (_, result_r) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(result_r)
    return results


class WorkerError(RuntimeError):
    """A worker process ended without returning its results."""


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process."""


def _run(jobs: list[tuple[ScenarioConfig, int]]) -> list[RunResult]:
    return [simulate(config, seed) for config, seed in jobs]


def _child(jobs: list[tuple[ScenarioConfig, int]], result_w: int) -> None:
    """Run a forked child's jobs and pickle the outcome to result_w."""
    import pickle

    try:
        data = pickle.dumps((_run(jobs), None, None))
    except BaseException as exc:  # it reaches the caller, which re-raises it
        import traceback

        text = traceback.format_exc()
        try:
            data = pickle.dumps((None, exc, text))
        except Exception:
            data = pickle.dumps((None, WorkerError(f"{type(exc).__name__}: {exc}"), text))
    with open(result_w, "wb") as pipe:
        pipe.write(data)


def _rows(jobs: list[tuple[ScenarioConfig, int]], trace_dir: str | None) -> list[ResultRow]:
    """One row per job, in job order; each run's windowed-PDR trace goes into
    trace_dir if given."""
    rows = []
    for (config, seed), result in zip(jobs, simulate_all(jobs)):
        if trace_dir is not None:
            write_pdr_trace(
                result,
                os.path.join(trace_dir, f"trace_{scenario_id(config)}_{seed}.csv"),
            )
        rows.append(result_row(config, result))
    return rows


def run_experiment(
    config: ScenarioConfig,
    seeds: list[int],
    trace_dir: str | None = None,
) -> list[ResultRow]:
    """One complete simulation per seed, rows in seed order."""
    validate(config)
    return _rows([(config, seed) for seed in seeds], trace_dir)


def _sweep_config(config: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    if not math.isfinite(value):
        raise ConfigError(f"{parameter} sweep value must be finite, got {value}")
    if parameter == "lambda":
        return replace(config, lambda_factor=float(value))
    if parameter in ("nodes", "streams"):
        if value != int(value):
            raise ConfigError(f"{parameter} sweep value must be an integer, got {value}")
        return replace(config, **{parameter: int(value)})
    raise ConfigError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}")


def sweep(
    config: ScenarioConfig,
    parameter: str,
    values: list[float],
    seeds: list[int],
    trace_dir: str | None = None,
) -> list[ResultRow]:
    """Cartesian product of values x seeds; every config is validated before
    any simulation starts."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    configs = []
    for value in values:
        swept = _sweep_config(config, parameter, value)
        validate(swept)
        configs.append(swept)
    return _rows([(swept, seed) for swept in configs for seed in seeds], trace_dir)


def compare(
    config: ScenarioConfig,
    seeds: list[int],
    trace_dir: str | None = None,
) -> list[ResultRow]:
    """Plain vs balanced on identical seeds, paired per seed. Every plain run comes
    before every balanced one in the batch, so each process runs both halves."""
    plain = replace(config, balancing=False)
    balanced = replace(config, balancing=True)
    validate(plain)
    rows = _rows([(plain, seed) for seed in seeds] + [(balanced, seed) for seed in seeds],
                 trace_dir)
    return [row for pair in zip(rows[:len(seeds)], rows[len(seeds):]) for row in pair]


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def rows_to_csv_text(rows: list[ResultRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, f.name)) for f in fields(ResultRow)])
    return buffer.getvalue()


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv_text(rows))


def write_pdr_trace(result: RunResult, path: str) -> None:
    """Per-run windowed PDR trace: (window_end_s, sent, received, current_pdr)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("window_end_s", "sent", "received", "current_pdr"))
        for window_end, sent, received, pdr in result.pdr_trace:
            writer.writerow((
                f"{window_end:.9g}", sent, received,
                "" if pdr is None else f"{pdr:.9g}",
            ))
