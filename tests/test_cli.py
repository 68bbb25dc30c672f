import os
import subprocess
import sys
from pathlib import Path

import manetsim
from manetsim.cli import main
from manetsim.experiment import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fast_config(tmp_path, extra=""):
    path = tmp_path / "scenario.cfg"
    path.write_text("nodes = 6\nsim_time_s = 5\nstream_start_s = 1\nruns = 2\n" + extra)
    return str(path)


def test_run_writes_csv_to_stdout(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--config", fast_config(tmp_path), "--seed", "3")
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


def test_config_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nodes = 1\n")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 1
    assert "configuration error" in err


def test_missing_config_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.cfg")
    assert code == 1


def test_protocol_and_balancing_overrides(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "run", "--config", fast_config(tmp_path),
        "--seed", "1", "--protocol", "golsr", "--balancing", "off")
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


def test_sweep_nodes_invalid_value_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep-nodes", "--config", fast_config(tmp_path),
        "--values", "3.5", "--seeds", "1")
    assert code == 1
    assert "integer" in err


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


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is needed only by traffic.confidence_interval, and importing it
    # costs more than a short run, so `manetsim run` must not pay for it.
    src = str(Path(manetsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, manetsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
