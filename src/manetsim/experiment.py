"""Experiment orchestration: seed batches, parameter sweeps, CSV emission.

Rows are fully deterministic functions of (config, seed): float columns are
quantized to 9 significant digits at row construction and the runtime column
reports the processed-event count, so identical inputs produce byte-identical
CSV output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, fields, replace

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


def _run(config: ScenarioConfig, seed: int, trace_dir: str | None) -> ResultRow:
    """One complete simulation; its windowed-PDR trace goes into trace_dir if given."""
    result = simulate(config, seed)
    if trace_dir is not None:
        write_pdr_trace(
            result,
            os.path.join(trace_dir, f"trace_{scenario_id(config)}_{seed}.csv"),
        )
    return result_row(config, result)


def run_experiment(
    config: ScenarioConfig,
    seeds: list[int],
    trace_dir: str | None = None,
) -> list[ResultRow]:
    """One complete simulation per seed, rows in seed order."""
    validate(config)
    return [_run(config, seed, trace_dir) for seed in seeds]


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
    rows = []
    for swept in configs:
        rows.extend(run_experiment(swept, seeds, trace_dir))
    return rows


def compare(
    config: ScenarioConfig,
    seeds: list[int],
    trace_dir: str | None = None,
) -> list[ResultRow]:
    """Plain vs balanced on identical seeds, paired per seed."""
    plain = replace(config, balancing=False)
    balanced = replace(config, balancing=True)
    validate(plain)
    return [_run(variant, seed, trace_dir) for seed in seeds for variant in (plain, balanced)]


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
