"""Scenario configuration: reference defaults, file parsing, validation.

Config files are flat ``key = value`` text with optional ``[section]``
headers; keys before any header belong to [scenario]. Unknown keys, type
mismatches and invariant violations raise ConfigError with the offending
line. An empty file yields the full reference default scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .engine import us_from_s
from .mobility import Area
from .traffic import send_interval_us

PROTOCOLS = ("batman", "golsr", "batmobile")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    # [scenario]
    area_x: float = 500.0
    area_y: float = 500.0
    area_z: float = 10.0
    nodes: int = 15
    speed_mps: float = 13.889  # 50 km/h
    sim_time_s: float = 600.0
    runs: int = 25
    lambda_factor: float = 0.9
    protocol: str = "batman"
    balancing: bool = True
    seed: int = 1
    streams: int = 1
    stream_start_s: float = 5.0
    bitrate_bps: float = 2e6
    payload_bytes: int = 1460  # MTU
    window_s: float = 1.0
    ttl: int = 16
    exclude_prev_hop: bool = True
    ranking_expiry_s: float = 3.0
    # [channel]
    tx_power_dbm: float = 20.0  # 100 mW
    path_loss_exponent: float = 2.75
    frequency_hz: float = 2.4e9
    sensitivity_dbm: float = -83.0
    # [mac]
    mac_rate_bps: float = 24e6
    mac_overhead_bytes: int = 64
    mac_jitter_us: int = 200
    queue_capacity: int = 50
    control_bytes: int = 64
    # [batman]
    ogm_interval_s: float = 0.5
    tq_window: int = 8
    hop_penalty: float = 0.95
    # [golsr]
    hello_interval_s: float = 0.5
    tc_interval_s: float = 1.0
    geo_floor: float = 1e-6
    # [batmobile]
    score_buffer: int = 8
    mobility_update_s: float = 0.25
    fit_samples: int = 5
    prediction_steps: int = 15
    prediction_weight: int = 7
    trend_clamp: float = 0.1

    def area(self) -> Area:
        return Area(self.area_x, self.area_y, self.area_z)

    def diagonal_m(self) -> float:
        return math.sqrt(self.area_x**2 + self.area_y**2 + self.area_z**2)

    def canonical_items(self) -> list[tuple[str, str]]:
        return [(f.name, repr(getattr(self, f.name))) for f in fields(self)]


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Section -> the file keys it accepts. A key sets the ScenarioConfig field of
# the same name unless _FIELD_OF_KEY renames it; the field's annotation picks
# the parser.
_SECTION_KEYS = {
    "scenario": (
        "area_x", "area_y", "area_z", "nodes", "speed_mps", "sim_time_s", "runs", "lambda",
        "protocol", "balancing", "seed", "streams", "stream_start_s", "bitrate_bps",
        "payload_bytes", "window_s", "ttl", "exclude_prev_hop", "ranking_expiry_s",
    ),
    "channel": ("tx_power_dbm", "path_loss_exponent", "frequency_hz", "sensitivity_dbm"),
    "mac": ("rate_bps", "overhead_bytes", "jitter_us", "queue_capacity", "control_bytes"),
    "batman": ("ogm_interval_s", "tq_window", "hop_penalty"),
    "golsr": ("hello_interval_s", "tc_interval_s", "geo_floor"),
    "batmobile": (
        "ogm_interval_s", "score_buffer", "mobility_update_s", "fit_samples",
        "prediction_steps", "prediction_weight", "trend_clamp",
    ),
}
_FIELD_OF_KEY = {"lambda": "lambda_factor", "rate_bps": "mac_rate_bps",
                 "overhead_bytes": "mac_overhead_bytes", "jitter_us": "mac_jitter_us"}
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_PARSERS = {"float": float, "int": int, "str": str, "bool": _parse_bool}
_KEYS = {(section, key): _FIELD_OF_KEY.get(key, key)
         for section, keys in _SECTION_KEYS.items() for key in keys}


def parse_scenario_text(text: str, source: str = "<config>") -> ScenarioConfig:
    overrides: dict[str, object] = {}
    section = "scenario"
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                raise ConfigError(f"{source}:{line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        attr = _KEYS.get((section, key))
        if attr is None:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r} in section [{section}]")
        try:
            overrides[attr] = _PARSERS[_FIELD_TYPES[attr]](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{line_no}: bad value for {key!r}: {exc}") from exc
    config = replace(ScenarioConfig(), **overrides)
    validate(config)
    return config


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), source=path)


def validate(config: ScenarioConfig) -> None:
    def fail(message: str) -> None:
        raise ConfigError(f"invalid scenario: {message}")

    # First, so that no later check or run-time conversion sees inf or nan.
    for name, kind in _FIELD_TYPES.items():
        if kind == "float" and not math.isfinite(getattr(config, name)):
            fail(f"{name} must be finite, got {getattr(config, name)}")
    if config.nodes < 2:
        fail(f"nodes must be >= 2, got {config.nodes}")
    if config.lambda_factor < 0:
        fail(f"lambda must be >= 0, got {config.lambda_factor}")
    if config.protocol not in PROTOCOLS:
        fail(f"protocol must be one of {PROTOCOLS}, got {config.protocol!r}")
    for name in ("area_x", "area_y", "area_z", "sim_time_s", "window_s", "bitrate_bps",
                 "ogm_interval_s", "hello_interval_s", "tc_interval_s", "mobility_update_s",
                 "mac_rate_bps", "ranking_expiry_s"):
        if getattr(config, name) <= 0:
            fail(f"{name} must be positive, got {getattr(config, name)}")
    # Mobility and the medium square coordinate differences; past this size
    # the squares overflow a float.
    if not math.isfinite(config.area_x * config.area_x + config.area_y * config.area_y
                         + config.area_z * config.area_z):
        fail(f"area {config.area_x} x {config.area_y} x {config.area_z} m is too large: "
             "its squared diagonal overflows a float")
    # The engine clock counts whole microseconds: a period that rounds to 0 us
    # would reschedule at one timestamp forever or divide by zero mid-run.
    for name in ("window_s", "ogm_interval_s", "hello_interval_s", "tc_interval_s",
                 "mobility_update_s"):
        if us_from_s(getattr(config, name)) < 1:
            fail(f"{name} must be at least 1 us, got {getattr(config, name)}")
    if config.speed_mps < 0:
        fail("speed_mps must be >= 0")
    # A waypoint step spends its travel budget leg by leg; a budget too large
    # next to the legs is not reduced by subtracting one, and the step never ends.
    travel_m = config.speed_mps * config.mobility_update_s
    if travel_m > config.diagonal_m():
        fail(f"speed_mps {config.speed_mps} covers {travel_m:g} m per "
             f"{config.mobility_update_s} s mobility tick, more than the "
             f"{config.diagonal_m():g} m area diagonal")
    if config.streams < 1:
        fail("streams must be >= 1")
    if 2 * config.streams > config.nodes:
        fail(f"{config.streams} streams need {2 * config.streams} nodes, have {config.nodes}")
    if not 0 <= config.stream_start_s < config.sim_time_s:
        fail("stream_start_s must lie inside the simulated interval")
    if not 0 < config.payload_bytes <= 1460:
        fail(f"payload_bytes must be in (0, 1460], got {config.payload_bytes}")
    try:
        interval_us = send_interval_us(config.payload_bytes, config.bitrate_bps)
    except OverflowError:
        fail(f"bitrate_bps {config.bitrate_bps} sends packets too far apart for the us clock")
    if interval_us < 1:
        fail(f"bitrate_bps {config.bitrate_bps} sends {config.payload_bytes}-byte packets "
             "less than 1 us apart")
    if config.runs < 1:
        fail("runs must be >= 1")
    if config.queue_capacity < 1 or config.ttl < 1:
        fail("queue_capacity and ttl must be >= 1")
    if config.mac_jitter_us < 0 or config.mac_overhead_bytes < 0 or config.control_bytes < 1:
        fail("mac_jitter_us/overhead_bytes must be >= 0 and control_bytes >= 1")
    if config.sensitivity_dbm >= config.tx_power_dbm:
        fail("receiver sensitivity must lie below the transmit power")
    if config.path_loss_exponent <= 2:
        fail(f"path_loss_exponent must exceed 2, got {config.path_loss_exponent}")
    if not 0 < config.hop_penalty <= 1:
        fail("hop_penalty must be in (0, 1]")
    if config.tq_window < 1 or config.score_buffer < 1:
        fail("tq_window and score_buffer must be >= 1")
    if config.fit_samples < 2:
        fail("fit_samples must be >= 2")
    if config.prediction_steps < 1:
        fail("prediction_steps must be >= 1")
    if not 0 <= config.prediction_weight <= config.score_buffer:
        fail("prediction_weight must be within the score buffer scale")
    if config.trend_clamp < 0:
        fail("trend_clamp must be >= 0")
    if config.geo_floor <= 0:
        fail("geo_floor must be positive")
