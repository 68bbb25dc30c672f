"""Behaviour pins: the state hash, result-CSV row and decision trace of short
fixed runs, the medium's jitter draw, and the CSV files the command line writes.

The runs, their hashes and the jitter check live in ``pinned_runs.py``.
"""

import hashlib

import pytest
from pinned_runs import (
    CLI_PINS,
    CLI_SCENARIO,
    JITTER_SPANS,
    PINS,
    SCENARIOS,
    jitter_draws,
    observe,
)

from manetsim import cli


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pinned_run_is_unchanged(name):
    assert observe(name) == PINS[name]


@pytest.mark.parametrize("span", JITTER_SPANS)
def test_jitter_draw_equals_randrange_on_the_mac_stream(span):
    drawn, expected = jitter_draws(span)
    assert drawn == expected


@pytest.mark.parametrize("command", sorted(CLI_PINS))
def test_cli_csv_is_unchanged(command, tmp_path):
    args, pin = CLI_PINS[command]
    scenario, out = tmp_path / "scenario.ini", tmp_path / "result.csv"
    scenario.write_text(CLI_SCENARIO)
    assert cli.main([command, "--config", str(scenario), *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin
