"""Behaviour pins: the state hash and result-CSV row of short fixed runs.

A run's contract is that the same (config, seed) gives the same
``RunResult.state_hash`` and the same CSV bytes. These pins were recorded
from the simulator before any hot-path optimisation; a change that moves one
changes behaviour and must say so and record them again.
"""

import hashlib

import pytest

from manetsim.config import ScenarioConfig
from manetsim.experiment import result_row, rows_to_csv_text
from manetsim.simulation import simulate

DENSE = dict(area_x=150.0, area_y=150.0, streams=3, sim_time_s=8.0, stream_start_s=2.0)

SCENARIOS = {
    "reference-batman": ScenarioConfig(sim_time_s=30.0, protocol="batman"),
    "reference-golsr": ScenarioConfig(sim_time_s=30.0, protocol="golsr"),
    "reference-batmobile": ScenarioConfig(sim_time_s=30.0, protocol="batmobile"),
    "dense-batman-balanced": ScenarioConfig(protocol="batman", balancing=True, **DENSE),
    "dense-batmobile-plain": ScenarioConfig(protocol="batmobile", balancing=False, **DENSE),
    "crowd50-batman": ScenarioConfig(
        area_x=150.0, area_y=150.0, nodes=50, streams=3, sim_time_s=3.0, stream_start_s=1.0),
}

SEED = 1

# name -> (state_hash, sha256 of the CSV data line)
PINS = {
    "crowd50-batman": (
        "22c2541a5c99ead1e2c1f4c1b8d77b40244c30ae5434a84f6edb40ac6191d668",
        "35484c047a27b9775423217bafce75aa6a90e5a462755dcbc68ede2ea78c0138",
    ),
    "dense-batman-balanced": (
        "f7c04ea7b46ecfa16616f8527145aeac96e1e45f6d3bee7f4cb03f2fdbf3cf1c",
        "c93e742cbcbfa7e8aaa3392a1e004d2993a6469c4f1d6479238dfb0b83be7b8e",
    ),
    "dense-batmobile-plain": (
        "021ea734b9482079a47478c7d78e078babe78f7a3c20b03b304d99d319fd5b28",
        "8e4688c1bce96b5475f8e64ff19a502caaf4cd595f51a06bd1fe962926963aea",
    ),
    "reference-batman": (
        "20138da4f2b7f6eaa48e1a70ca9ef1480e58f540ee78ec679b699fedbdc7a9c5",
        "46a7fd7f81713dc36137fac8629883d6770924f694f03454363f9658bb83cecb",
    ),
    "reference-batmobile": (
        "879659c2c7dd46abdc5a10239f24d53494e8bb4347f67d1be0e679d238482559",
        "6487396e40e364225c6fc9ab3fbb8ac587194b61cba9c3e93e1977591c6bafaa",
    ),
    "reference-golsr": (
        "af0e3b58aeecd6622632f5d6cb88b88c118616c7f1252baa145b835aa62877af",
        "22a7c6393aa77f0042a9135359c66cc1162ef133c4c223216ee6dc6875356ce7",
    ),
}


def observe(config: ScenarioConfig) -> tuple[str, str]:
    result = simulate(config, SEED)
    line = rows_to_csv_text([result_row(config, result)]).splitlines()[1]
    return result.state_hash, hashlib.sha256(line.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pinned_run_is_unchanged(name):
    assert observe(SCENARIOS[name]) == PINS[name]
