"""The seed's simulator as a whole-run oracle: drawn configs and what the
first tree (``8e5d264``, before any rewrite) gave for each.

``draw_configs`` draws scenario configs over every ``ScenarioConfig`` key from
a fixed seed. ``seed_oracle_table.json`` holds, for each drawn config, one
run seed and that run's ``state_hash`` and CSV-row sha256 as recorded from
the first tree by ``scripts/record_seed_oracle.py``. ``tests/test_seed_oracle.py``
reruns every row. Two classes of config are left out by rule, because the
simulator has changed on purpose for them since that tree:

- ``fit_samples > score_buffer``: the first tree sized each position history
  by ``score_buffer``, so its prediction fitted fewer samples than asked;
- any config today's ``validate()`` rejects.

Standard library and ``manetsim`` only, so the recorder can import it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from manetsim.config import PROTOCOLS, ConfigError, ScenarioConfig, validate
from manetsim.experiment import result_row, rows_to_csv_text

TABLE = Path(__file__).with_name("seed_oracle_table.json")
DRAW_SEED = 20240
ROWS = 60


def _draw(rng: random.Random) -> dict:
    """Every ScenarioConfig key, each from a range that keeps a run short."""
    sim_time_s = round(rng.uniform(2.0, 5.0), 3)  # stream_start_s lies inside it
    payload_bytes = rng.randint(1, 1460)  # bitrate_bps sends 5 to 300 of them a second
    return dict(
        area_x=round(rng.uniform(40.0, 300.0), 2),
        area_y=round(rng.uniform(40.0, 300.0), 2),
        area_z=round(rng.uniform(0.5, 20.0), 2),
        nodes=rng.randint(3, 14),
        speed_mps=round(rng.uniform(0.0, 30.0), 3),
        sim_time_s=sim_time_s,
        runs=rng.randint(1, 30),
        lambda_factor=rng.choice((0.0, 0.3, 0.6, 0.9, 1.0, 1.1, round(rng.uniform(0, 2), 3))),
        protocol=rng.choice(PROTOCOLS),
        balancing=rng.random() < 0.5,
        seed=rng.randint(0, 1000),
        streams=rng.randint(1, 3),
        stream_start_s=round(rng.uniform(0.0, sim_time_s / 2), 3),
        bitrate_bps=payload_bytes * 8.0 * rng.randint(5, 300),
        payload_bytes=payload_bytes,
        window_s=round(rng.uniform(0.1, 2.0), 3),
        ttl=rng.randint(1, 16),
        exclude_prev_hop=rng.random() < 0.5,
        ranking_expiry_s=round(rng.uniform(0.3, 5.0), 3),
        tx_power_dbm=round(rng.uniform(10.0, 25.0), 2),
        path_loss_exponent=round(rng.uniform(2.2, 3.0), 3),
        frequency_hz=rng.choice((9e8, 2.4e9, 5.8e9)),
        sensitivity_dbm=round(rng.uniform(-95.0, -80.0), 2),
        mac_rate_bps=round(10 ** rng.uniform(5.3, 7.7), -2),
        mac_overhead_bytes=rng.randint(0, 100),
        mac_jitter_us=rng.choice((0, 1, 2, 3, 16, 17, rng.randint(0, 1000))),
        queue_capacity=rng.randint(1, 60),
        control_bytes=rng.randint(1, 200),
        ogm_interval_s=round(rng.uniform(0.1, 1.0), 3),
        tq_window=rng.choice((1, 2, 3, rng.randint(1, 16))),
        hop_penalty=rng.choice((1.0, 0.95, round(rng.uniform(0.5, 1.0), 3))),
        hello_interval_s=round(rng.uniform(0.1, 1.0), 3),
        tc_interval_s=round(rng.uniform(0.2, 2.0), 3),
        geo_floor=rng.choice((1e-6, 0.01, 0.1)),
        score_buffer=rng.randint(1, 12),
        mobility_update_s=round(rng.uniform(0.05, 0.5), 3),
        fit_samples=rng.randint(2, 12),
        prediction_steps=rng.randint(1, 20),
        prediction_weight=rng.randint(0, 12),
        trend_clamp=round(rng.uniform(0.0, 0.5), 3),
    )


def draw_configs(count: int = ROWS) -> list[tuple[dict, int]]:
    """`count` (config keywords, run seed) pairs, drawn in a fixed order; a
    draw either rule leaves out is skipped."""
    rng = random.Random(DRAW_SEED)
    drawn: list[tuple[dict, int]] = []
    while len(drawn) < count:
        keywords, run_seed = _draw(rng), rng.randint(1, 10**6)
        if keywords["fit_samples"] > keywords["score_buffer"]:
            continue
        try:
            validate(ScenarioConfig(**keywords))
        except ConfigError:
            continue
        drawn.append((keywords, run_seed))
    return drawn


def observed(config: ScenarioConfig, result) -> tuple[str, str]:
    """A run's (state_hash, sha256 of its CSV data line)."""
    line = rows_to_csv_text([result_row(config, result)]).splitlines()[1]
    return result.state_hash, hashlib.sha256(line.encode()).hexdigest()


def load_table() -> list[dict]:
    """The recorded rows: each a dict of config, seed, state_hash and row_sha256."""
    return json.loads(TABLE.read_text(encoding="utf-8"))


def table_text(rows: list[dict]) -> str:
    """The table file's text: a JSON list, one row per line."""
    return "[\n" + ",\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]\n"

