"""scripts/run_trends.py: its Student-t interval and one short end-to-end run."""

import csv
import importlib.util
from pathlib import Path

import pytest

from manetsim.experiment import CSV_COLUMNS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_trends.py"
_spec = importlib.util.spec_from_file_location("run_trends", SCRIPT)
run_trends = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_trends)
confidence_interval = run_trends.confidence_interval

TREND_CSVS = ("balancing_gain_reference.csv", "likelihood_sweep_reference.csv",
              "node_sweep_reference.csv")


def test_confidence_interval_zero_variance():
    assert confidence_interval([0.8, 0.8, 0.8]) == pytest.approx((0.8, 0.8, 0.8))


def test_confidence_interval_two_samples_against_t_table():
    mean, lo, hi = confidence_interval([0.6, 0.8])
    assert mean == pytest.approx(0.7)
    # half-width = t(0.975, df=1) * s / sqrt(n) = 12.706 * 0.1414 / 1.414
    assert hi - mean == pytest.approx(1.2706, abs=1e-3)
    assert (lo, hi) == pytest.approx((-0.571, 1.971), abs=1e-3)


def test_confidence_interval_contains_mean():
    mean, lo, hi = confidence_interval([0.1, 0.5, 0.9, 0.4])
    assert lo <= mean <= hi


def test_confidence_interval_needs_two_samples():
    with pytest.raises(ValueError):
        confidence_interval([0.5])


def test_short_run_writes_the_three_reference_csvs(tmp_path, capsys):
    run_trends.main(["--seeds", "2", "--sim-time", "6", "--out", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(TREND_CSVS)
    for name in TREND_CSVS:
        with open(tmp_path / name, newline="") as handle:
            assert tuple(next(csv.reader(handle))) == CSV_COLUMNS
    assert "over 2 seeds" in capsys.readouterr().out


def test_one_seed_is_rejected_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run_trends.main(["--seeds", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "at least 2 seeds" in capsys.readouterr().err
    assert not out.exists()
