"""Whole runs against the first tree of the simulator, over drawn configs.

Each row of ``seed_oracle_table.json`` is a config drawn over every key,
a run seed, and the ``state_hash`` and CSV-row sha256 that the first tree
(``8e5d264``) gave for it; ``scripts/record_seed_oracle.py`` recorded them.
"""

from dataclasses import fields

from seed_oracle import draw_configs, load_table, observed

from manetsim.config import ScenarioConfig
from manetsim.experiment import simulate_all

TABLE = load_table()


def test_table_is_the_generators_draw_over_every_key():
    assert [(row["config"], row["seed"]) for row in TABLE] == draw_configs(len(TABLE))
    keys = {f.name for f in fields(ScenarioConfig)}
    assert all(row["config"].keys() == keys for row in TABLE)


def test_every_drawn_run_equals_the_first_tree():
    configs = [ScenarioConfig(**row["config"]) for row in TABLE]
    results = simulate_all([(config, row["seed"]) for config, row in zip(configs, TABLE)])
    differ = [
        (i, config.protocol)
        for i, (config, result, row) in enumerate(zip(configs, results, TABLE))
        if observed(config, result) != (row["state_hash"], row["row_sha256"])
    ]
    assert not differ, f"{len(differ)} of {len(TABLE)} rows differ (index, protocol): {differ}"
