import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import manetsim
from manetsim.cli import main
from manetsim.config import load_scenario
from manetsim.experiment import CSV_COLUMNS, scenario_id


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fast_config(tmp_path, extra=""):
    path = tmp_path / "scenario.cfg"
    path.write_text("nodes = 6\nsim_time_s = 5\nstream_start_s = 1\nruns = 2\n" + extra)
    return str(path)


def test_run_writes_csv_to_stdout(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--config", fast_config(tmp_path), "--seeds", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert ",3," in lines[1]


def test_run_uses_config_run_count_for_default_seeds(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--config", fast_config(tmp_path))
    assert code == 0
    assert len(out.splitlines()) == 3  # header + runs=2


def test_run_writes_file_and_traces(capsys, tmp_path):
    out_csv = tmp_path / "rows.csv"
    trace_dir = tmp_path / "traces"
    code, _, err = run_cli(
        capsys, "run", "--config", fast_config(tmp_path),
        "--seeds", "1,2", "--out", str(out_csv), "--trace-pdr", str(trace_dir))
    assert code == 0
    assert out_csv.exists()
    assert len(list(trace_dir.iterdir())) == 2
    assert "wrote 2 rows" in err


def test_empty_seed_list_is_success(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--config", fast_config(tmp_path), "--seeds", "")
    assert code == 0
    assert out.splitlines() == [",".join(CSV_COLUMNS)]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("seeds", ["1,1", "3,1, 3"])
def test_repeated_seed_is_config_error(capsys, tmp_path, command, seeds):
    code, out, err = run_cli(capsys, command, "--config", fast_config(tmp_path), "--seeds", seeds)
    assert code == 1
    assert out == ""
    assert err == f"configuration error: --seeds repeats seed {seeds[-1]}\n"


def test_seed_reads_as_seeds_and_the_row_keeps_the_config_scenario_id(capsys, tmp_path):
    config = fast_config(tmp_path)
    _, by_seeds, _ = run_cli(capsys, "run", "--config", config, "--seeds", "5")
    # argparse reads a prefix of --seeds as --seeds.
    _, by_seed, _ = run_cli(capsys, "run", "--config", config, "--seed", "5")
    assert by_seed == by_seeds
    row = by_seeds.splitlines()[1].split(",")
    assert (row[0], row[6]) == (scenario_id(load_scenario(config)), "5")


def test_run_help_lists_seeds_as_the_one_seed_option(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = capsys.readouterr().out
    assert "--seeds" in out and not re.search(r"--seed\b", out)


@pytest.mark.parametrize("command, values, repeated", [
    ("sweep-lambda", "0.9,0.9", "0.9"),
    ("sweep-nodes", "5,6,5.0", "5.0"),  # compared as numbers
])
def test_repeated_sweep_value_is_config_error(capsys, tmp_path, command, values, repeated):
    code, out, err = run_cli(capsys, command, "--config", fast_config(tmp_path),
                             "--values", values, "--seeds", "1")
    assert (code, out) == (1, "")
    assert err == f"configuration error: --values repeats {repeated}\n"


def test_config_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nodes = 1\n")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 1
    assert "configuration error" in err


@pytest.mark.parametrize("command", ["run", "sweep-lambda", "sweep-nodes", "sweep-streams",
                                     "compare"])
@pytest.mark.parametrize("overrides", [[], ["--seeds", "2", "--protocol", "golsr",
                                            "--balancing", "on"]])
def test_bad_scenario_file_exits_1_through_every_subcommand(capsys, tmp_path, command,
                                                            overrides):
    path = tmp_path / "bad.cfg"
    path.write_text("nodes = 1\n")
    code, out, err = run_cli(capsys, command, "--config", str(path), *overrides)
    assert code == 1
    assert "configuration error" in err
    assert out == ""


def test_missing_config_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.cfg")
    assert code == 1


def test_protocol_and_balancing_overrides(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "run", "--config", fast_config(tmp_path),
        "--seeds", "1", "--protocol", "golsr", "--balancing", "off")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[1] == "golsr"
    assert row[2] == "false"


def test_sweep_lambda_row_count(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "sweep-lambda", "--config", fast_config(tmp_path),
        "--values", "0.9,1.1", "--seeds", "1,2")
    assert code == 0
    assert len(out.splitlines()) == 1 + 4


def test_sweep_without_values_runs_the_default_values(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "sweep-streams", "--config", fast_config(tmp_path), "--seeds", "1")
    assert code == 0
    assert [line.split(",")[5] for line in out.splitlines()[1:]] == ["1", "2", "3"]


@pytest.mark.parametrize("value", ["", " "])
def test_sweep_with_empty_values_is_config_error(capsys, tmp_path, value):
    code, out, err = run_cli(
        capsys, "sweep-lambda", "--config", fast_config(tmp_path),
        "--values", value, "--seeds", "1")
    assert (code, out) == (1, "")
    assert "sweep needs at least one value" in err


def test_sweep_nodes_invalid_value_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep-nodes", "--config", fast_config(tmp_path),
        "--values", "3.5", "--seeds", "1")
    assert code == 1
    assert "integer" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_sweep_nodes_non_finite_value_is_config_error(capsys, tmp_path, value):
    code, _, err = run_cli(
        capsys, "sweep-nodes", "--config", fast_config(tmp_path),
        "--values", value, "--seeds", "1")
    assert code == 1
    assert "finite" in err


def test_sweep_non_numeric_value_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep-lambda", "--config", fast_config(tmp_path),
        "--values", "abc", "--seeds", "1")
    assert code == 1
    assert "configuration error:" in err and "Traceback" not in err


def test_non_finite_config_value_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--config", fast_config(tmp_path, "[batman]\nogm_interval_s = inf\n"))
    assert code == 1
    assert "configuration error" in err and "ogm_interval_s must be finite" in err


@pytest.mark.parametrize("text, key", [
    ("sim_time_s = 1e303\n", "sim_time_s"),  # exited 2 with an OverflowError traceback
    ("[batman]\nogm_interval_s = 1e303\n", "ogm_interval_s"),  # raised inside validate()
], ids=["sim-time", "ogm-interval"])
def test_time_past_the_microsecond_clock_is_config_error(capsys, tmp_path, text, key):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--seeds", "1")
    assert code == 1
    assert "configuration error" in err and f"{key} must fit the microsecond clock" in err


@pytest.mark.parametrize("speed", ["1e20", "1e300"])
def test_speed_past_the_area_per_tick_is_config_error(capsys, tmp_path, speed):
    # At these speeds a waypoint step's travel budget no longer shrinks, so the
    # run would never finish.
    code, _, err = run_cli(
        capsys, "run", "--config", fast_config(tmp_path, f"speed_mps = {speed}\n"))
    assert code == 1
    assert "configuration error" in err and "area diagonal" in err


@pytest.mark.parametrize("extra, key", [
    ("[channel]\nfrequency_hz = 0\n", "frequency_hz"),  # divided by zero in the range
    ("[channel]\nfrequency_hz = -2.4e9\n", "frequency_hz"),  # ran on a negative range
    ("[channel]\ntx_power_dbm = 100000\n", "tx_power_dbm"),  # the range overflowed
    ("[mac]\nrate_bps = 1e-300\n", "rate_bps"),  # an infinite airtime
    ("[mac]\noverhead_bytes = 1" + "0" * 400 + "\n", "overhead_bytes"),  # no float holds it
    ("[mac]\ncontrol_bytes = 1" + "0" * 400 + "\n", "control_bytes"),
], ids=["frequency-0", "frequency-negative", "tx-power-1e5", "rate-1e-300", "overhead-1e400",
        "control-1e400"])
def test_link_budget_or_airtime_past_a_float_is_config_error(capsys, tmp_path, extra, key):
    # Each of these used to pass validation, then crash or run on a nonsense range.
    code, _, err = run_cli(capsys, "run", "--config", fast_config(tmp_path, extra), "--seeds", "1")
    assert code == 1
    assert "configuration error" in err and key in err and "Traceback" not in err


def output_error_lines(err):
    return [line for line in err.splitlines() if line.startswith("output error: ")]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unwritable_out_path_exits_1_naming_it(capsys, tmp_path, command):
    out = tmp_path / "missing" / "rows.csv"
    code, _, err = run_cli(capsys, command, "--config", fast_config(tmp_path), "--seeds", "1",
                           "--out", str(out))
    assert code == 1
    [line] = output_error_lines(err)
    assert str(out) in line and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_trace_dir_under_a_regular_file_exits_1_naming_it(capsys, tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, command, "--config", fast_config(tmp_path), "--seeds", "1",
                             "--trace-pdr", str(blocker / "sub"))
    assert (code, out) == (1, "")
    [line] = output_error_lines(err)
    assert str(blocker / "sub") in line and "Traceback" not in err
    assert err.splitlines() == [line]


def test_an_os_error_without_a_file_is_a_run_failure(capsys, tmp_path, monkeypatch):
    # Forking the batch's workers fails like this when the host is out of
    # processes; that is not an output the user named.
    def no_fork(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr("manetsim.cli.run_experiment", no_fork)
    code, _, err = run_cli(capsys, "run", "--config", fast_config(tmp_path), "--seeds", "1,2")
    assert code == 2
    assert "Traceback" in err and "output error" not in err


def test_compare_writes_one_trace_per_run(capsys, tmp_path):
    trace_dir = tmp_path / "traces"
    code, _, _ = run_cli(
        capsys, "compare", "--config", fast_config(tmp_path),
        "--seeds", "1,2", "--trace-pdr", str(trace_dir))
    assert code == 0
    assert len(list(trace_dir.iterdir())) == 2 * 2  # plain and balanced per seed


def test_compare_emits_paired_rows_and_summary(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "compare", "--config", fast_config(tmp_path), "--seeds", "1,2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 4
    assert "balanced better in" in err


def test_identical_invocations_identical_output(capsys, tmp_path):
    config = fast_config(tmp_path)
    _, first, _ = run_cli(capsys, "run", "--config", config, "--seeds", "1,2")
    _, second, _ = run_cli(capsys, "run", "--config", config, "--seeds", "1,2")
    assert first == second


def modules_loaded_by_cli_import(*roots, then="pass"):
    """Names of the modules under ``roots`` that a fresh ``import manetsim.cli``
    loads, followed by the statement ``then``."""
    src = str(Path(manetsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (f"import sys, manetsim, manetsim.cli; {then}; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_importing_the_cli_leaves_scipy_unloaded():
    # Only scripts/run_trends.py needs scipy, for its confidence intervals, and
    # importing it costs more than a short run, so neither the import nor a run
    # of `manetsim` may load it. The run predicts, so that path is covered too.
    run = ("manetsim.simulate(manetsim.ScenarioConfig(protocol='batmobile', nodes=4, "
           "sim_time_s=2.0, stream_start_s=1.0), 1)")
    assert modules_loaded_by_cli_import("scipy", then=run) == "[]"


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # A batch of two or more runs imports these to fan out; they cost ~30 ms,
    # so `manetsim run` pays that only when it has runs to split.
    assert modules_loaded_by_cli_import("multiprocessing", "concurrent") == "[]"
