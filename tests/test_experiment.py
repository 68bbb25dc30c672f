import os
import signal
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from manetsim import experiment
from manetsim.balancer import DropReason
from manetsim.config import ConfigError, ScenarioConfig
from manetsim.engine import Engine, SchedulingError
from manetsim.experiment import (
    CSV_COLUMNS,
    ResultRow,
    compare,
    default_seeds,
    quantize,
    result_row,
    rows_to_csv_text,
    run_experiment,
    scenario_id,
    sweep,
    write_csv,
)
from manetsim.simulation import Simulation, simulate
from manetsim.traffic import DROP_CAUSES

FAST = ScenarioConfig(sim_time_s=6.0, nodes=6, stream_start_s=1.0)


def test_one_row_per_seed_in_order():
    rows = run_experiment(FAST, [3, 1, 2])
    assert [row.seed for row in rows] == [3, 1, 2]
    assert all(row.protocol == "batman" and row.balanced for row in rows)


def test_empty_seed_list_gives_empty_table():
    assert run_experiment(FAST, []) == []


def test_rows_are_reproducible_byte_for_byte(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(run_experiment(FAST, [1, 2]), str(first))
    write_csv(run_experiment(FAST, [1, 2]), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_scenario_id_separates_configs_not_seeds():
    assert scenario_id(FAST) == scenario_id(FAST)
    assert scenario_id(FAST) != scenario_id(replace(FAST, lambda_factor=0.5))
    row_a, row_b = run_experiment(FAST, [1, 2])
    assert row_a.scenario_id == row_b.scenario_id


def test_an_int_or_bool_for_a_float_field_names_the_same_run():
    found = ScenarioConfig(nodes=4, sim_time_s=2.0, stream_start_s=1.0, bitrate_bps=90000)
    assert type(found.bitrate_bps) is float
    assert scenario_id(found) == scenario_id(replace(found, bitrate_bps=90000.0)) == "22d1e629a568"
    assert repr(replace(FAST, speed_mps=True).speed_mps) == "1.0"  # a bool is an int
    assert repr(replace(FAST, nodes=7).nodes) == "7"  # an int field keeps its int


@pytest.mark.parametrize("field, value", [
    ("nodes", 6.0), ("tq_window", 8.0), ("mac_jitter_us", 200.0), ("ttl", 16.0),
    ("nodes", True), ("balancing", 1), ("exclude_prev_hop", 0),
])
def test_an_int_or_bool_field_of_another_type_is_rejected_before_running(field, value):
    # Each used to crash mid-run (a float where the run needs an int) or name
    # the run with a second scenario_id (1 for True, 16.0 for 16).
    with pytest.raises(ConfigError, match=f"{field} must be of type"):
        run_experiment(replace(FAST, **{field: value}), [1])


def test_sweep_produces_cartesian_product():
    rows = sweep(FAST, "lambda", [0.0, 0.9, 1.1], [1, 2])
    assert len(rows) == 6
    assert [(row.lambda_factor, row.seed) for row in rows] == [
        (0.0, 1), (0.0, 2), (0.9, 1), (0.9, 2), (1.1, 1), (1.1, 2)]


def test_sweep_nodes_rejects_fractional_before_running():
    with pytest.raises(ConfigError, match="integer"):
        sweep(FAST, "nodes", [5, 3.5], [1])


def test_sweep_validates_every_value_before_running():
    with pytest.raises(ConfigError):
        sweep(FAST, "nodes", [5, 1], [1])  # node count 1 invalid
    with pytest.raises(ConfigError):
        sweep(FAST, "lambda", [0.5, -0.1], [1])
    with pytest.raises(ConfigError):
        sweep(FAST, "bogus", [1], [1])
    with pytest.raises(ConfigError):
        sweep(FAST, "lambda", [], [1])


def test_sweep_records_swept_value():
    rows = sweep(FAST, "streams", [1, 2], [4])
    assert [row.streams for row in rows] == [1, 2]


def test_compare_pairs_plain_and_balanced_per_seed():
    rows = compare(FAST, [1, 2])
    assert [(row.seed, row.balanced) for row in rows] == [
        (1, False), (1, True), (2, False), (2, True)]


def test_csv_header_only_for_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], str(path))
    text = path.read_text()
    assert text == ",".join(CSV_COLUMNS) + "\n"


def test_quantize_is_idempotent():
    for value in (0.1234567891234, 1.0, 0.0, 171.5 / 172, 2 / 3):
        assert quantize(quantize(value)) == quantize(value)


def test_default_seeds_follow_run_count():
    config = replace(FAST, seed=10, runs=4)
    assert default_seeds(config) == [10, 11, 12, 13]


def test_result_row_carries_drop_breakdown():
    result = simulate(FAST, 1)
    row = result_row(FAST, result)
    assert row.drop_no_route == result.drops["no_route"]
    assert row.runtime_events == result.events_processed
    assert row.control_messages == result.control_tx


def test_drop_fields_follow_drop_causes():
    drop_fields = [f.name for f in fields(ResultRow) if f.name.startswith("drop_")]
    assert drop_fields == [f"drop_{cause}" for cause in DROP_CAUSES]
    assert {reason.value for reason in DropReason} <= set(DROP_CAUSES)


def test_csv_header_matches_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Result CSV columns:\n\n", 1)[1].split("\n\n", 1)[0]
    assert rows_to_csv_text([]) == "".join(line.strip() for line in block.splitlines()) + "\n"


def test_trace_files_written_per_run(tmp_path):
    trace_dir = tmp_path / "traces"
    rows = run_experiment(FAST, [1], trace_dir=str(trace_dir))
    files = os.listdir(trace_dir)
    assert len(files) == 1
    content = (trace_dir / files[0]).read_text().splitlines()
    assert content[0] == "window_end_s,sent,received,current_pdr"
    assert len(content) == 1 + 6  # one window per second of the run
    first_window = content[1].split(",")
    assert first_window[3] == ""  # stream starts at 1 s; window 0 has no sends


def test_csv_text_deterministic_for_same_rows():
    rows = run_experiment(FAST, [1])
    assert rows_to_csv_text(rows) == rows_to_csv_text(rows)


# -- fan-out over worker processes ----------------------------------------------

def run_batches(trace_root):
    """Each batch function on a few seeds: name -> (rows, CSV text, trace files)."""
    out = {}
    for name, batch in (
        ("run_experiment", lambda trace_dir: run_experiment(FAST, [1, 2, 3], trace_dir)),
        ("compare", lambda trace_dir: compare(FAST, [1, 2], trace_dir)),
        ("sweep", lambda trace_dir: sweep(FAST, "lambda", [0.0, 0.9], [1, 2], trace_dir)),
    ):
        trace_dir = trace_root / name
        rows = batch(str(trace_dir))
        traces = {path.name: path.read_bytes() for path in trace_dir.iterdir()}
        out[name] = (rows, rows_to_csv_text(rows), traces)
    return out


def test_fanned_out_batches_equal_serial_ones(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fanned = run_batches(tmp_path / "fanned")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = run_batches(tmp_path / "serial")
    assert fanned == serial
    assert [len(traces) for _, _, traces in serial.values()] == [3, 4, 4]


def test_a_replaced_simulate_sees_every_run(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen = []

    def recording(config, seed, **kwargs):
        seen.append((config, seed))
        return simulate(config, seed, **kwargs)

    monkeypatch.setattr(experiment, "simulate", recording)
    rows = run_experiment(FAST, [1, 2, 3])
    assert seen == [(FAST, 1), (FAST, 2), (FAST, 3)]
    assert [row.seed for row in rows] == [1, 2, 3]


def test_one_run_or_no_fork_starts_no_process(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    assert len(run_experiment(FAST, [1])) == 1
    assert forks == []
    assert len(run_experiment(FAST, [1, 2])) == 2
    assert forks == [os.getpid()]  # the caller runs the other run itself
    monkeypatch.delattr(os, "fork")
    assert len(run_experiment(FAST, [1, 2])) == 2
    assert forks == [os.getpid()]


def test_a_batch_longer_than_the_process_count_equals_the_serial_one(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = run_experiment(FAST, [1, 2, 3, 4, 5])
    for workers in (2, 3):
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        assert run_experiment(FAST, [1, 2, 3, 4, 5]) == serial


@pytest.mark.parametrize("workers", [2, 3])
def test_process_k_runs_every_job_k_mod_w(monkeypatch, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    run = Simulation.run

    def tagged(sim):
        return run(sim), os.getpid()

    monkeypatch.setattr(Simulation, "run", tagged)  # forked workers inherit it
    jobs = [(FAST, seed) for seed in range(1, 8)]
    pids = [pid for _, pid in experiment.simulate_all(jobs)]
    by_residue = [set(pids[k::workers]) for k in range(workers)]
    assert by_residue[0] == {os.getpid()}
    assert all(len(ran) == 1 for ran in by_residue)
    assert len(set.union(*by_residue)) == workers


def test_compare_gives_each_process_a_plain_and_a_balanced_run(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run, row = Simulation.run, experiment.result_row
    ran = []

    def tagged(sim):
        result = run(sim)
        result.pid = os.getpid()
        return result

    def recording(config, result):
        ran.append((result.pid, config.balancing))
        return row(config, result)

    monkeypatch.setattr(Simulation, "run", tagged)  # forked workers inherit it
    monkeypatch.setattr(experiment, "result_row", recording)
    rows = compare(FAST, [1, 2])
    assert [(row.seed, row.balanced) for row in rows] == [
        (1, False), (1, True), (2, False), (2, True)]
    halves = {}
    for pid, balanced in ran:
        halves.setdefault(pid, []).append(balanced)
    assert os.getpid() in halves
    assert sorted(map(sorted, halves.values())) == [[False, True], [False, True]]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_normal_batch_reaps_every_worker(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert len(run_experiment(FAST, [1, 2, 3])) == 3
    assert_no_child_left()


def test_a_worker_that_dies_without_results_names_its_exit_status(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_until = Engine.run_until

    def dying(engine, t_end_us):
        if engine.master_seed == 2:  # job 1: the first job of the one child
            os._exit(3)
        return run_until(engine, t_end_us)

    monkeypatch.setattr(Engine, "run_until", dying)
    with pytest.raises(experiment.WorkerError,
                       match=r"worker process \d+ ended with exit status 3 and no results"):
        run_experiment(FAST, [1, 2, 3])
    assert_no_child_left()


@pytest.mark.parametrize("error", [SchedulingError("seed 1 failed"), KeyboardInterrupt()])
def test_a_failure_in_the_callers_share_kills_and_reaps_the_workers(monkeypatch, error):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_until = Engine.run_until

    def failing(engine, t_end_us):
        if engine.master_seed == 1:  # job 0: the caller's first job
            raise error
        if engine.master_seed == 2:  # the child is still running when the caller fails
            time.sleep(60)
        return run_until(engine, t_end_us)

    monkeypatch.setattr(Engine, "run_until", failing)
    start = time.monotonic()
    with pytest.raises(type(error)):
        run_experiment(FAST, [1, 2, 3])
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_until = Engine.run_until

    def failing(engine, t_end_us):
        if engine.master_seed == 2:
            raise SchedulingError(f"seed 2 failed in process {os.getpid()}")
        return run_until(engine, t_end_us)

    monkeypatch.setattr(Engine, "run_until", failing)  # forked workers inherit it
    with pytest.raises(SchedulingError, match="seed 2 failed") as failure:
        run_experiment(FAST, [1, 2, 3])
    assert int(str(failure.value).rsplit(" ", 1)[1]) != os.getpid()


def test_a_worker_killed_by_a_signal_names_the_signal(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_until = Engine.run_until

    def killed(engine, t_end_us):
        if engine.master_seed == 2:  # job 1: the first job of the one child
            os.kill(os.getpid(), signal.SIGKILL)
        return run_until(engine, t_end_us)

    monkeypatch.setattr(Engine, "run_until", killed)
    with pytest.raises(experiment.WorkerError,
                       match=r"worker process \d+ ended with signal 9 and no results"):
        run_experiment(FAST, [1, 2, 3])
    assert_no_child_left()


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # pickling the exception pickles this too, and fails


def test_a_worker_error_that_cannot_be_pickled_arrives_by_name(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_until = Engine.run_until

    def failing(engine, t_end_us):
        if engine.master_seed == 2:
            raise Unpicklable("seed 2 failed")
        return run_until(engine, t_end_us)

    monkeypatch.setattr(Engine, "run_until", failing)
    with pytest.raises(experiment.WorkerError, match=r"^Unpicklable: seed 2 failed$") as failure:
        run_experiment(FAST, [1, 2, 3])
    cause = failure.value.__cause__
    assert type(cause).__name__ == "_WorkerTraceback"
    assert str(cause).startswith("Traceback") and "Unpicklable: seed 2 failed" in str(cause)
    assert_no_child_left()
