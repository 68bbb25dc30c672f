"""Scenario configuration: reference defaults, file parsing, validation.

Config files are flat ``key = value`` text with optional ``[section]``
headers; keys before any header belong to [scenario]. Unknown keys, type
mismatches and invariant violations raise ConfigError with the offending
line. An empty file yields the full reference default scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .channel import ChannelParams, MacParams
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

    def channel_params(self) -> ChannelParams:
        return ChannelParams(
            tx_power_dbm=self.tx_power_dbm,
            path_loss_exponent=self.path_loss_exponent,
            frequency_hz=self.frequency_hz,
            sensitivity_dbm=self.sensitivity_dbm,
        )

    def mac_params(self) -> MacParams:
        return MacParams(
            rate_bps=self.mac_rate_bps,
            overhead_bytes=self.mac_overhead_bytes,
            jitter_us=self.mac_jitter_us,
            queue_capacity=self.queue_capacity,
        )

    def canonical_items(self) -> list[tuple[str, str]]:
        return [(f.name, repr(getattr(self, f.name))) for f in fields(self)]


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# (section, file key) -> (attribute, parser)
_KEY_MAP: dict[tuple[str, str], tuple[str, object]] = {
    ("scenario", "area_x"): ("area_x", float),
    ("scenario", "area_y"): ("area_y", float),
    ("scenario", "area_z"): ("area_z", float),
    ("scenario", "nodes"): ("nodes", int),
    ("scenario", "speed_mps"): ("speed_mps", float),
    ("scenario", "sim_time_s"): ("sim_time_s", float),
    ("scenario", "runs"): ("runs", int),
    ("scenario", "lambda"): ("lambda_factor", float),
    ("scenario", "protocol"): ("protocol", str),
    ("scenario", "balancing"): ("balancing", _parse_bool),
    ("scenario", "seed"): ("seed", int),
    ("scenario", "streams"): ("streams", int),
    ("scenario", "stream_start_s"): ("stream_start_s", float),
    ("scenario", "bitrate_bps"): ("bitrate_bps", float),
    ("scenario", "payload_bytes"): ("payload_bytes", int),
    ("scenario", "window_s"): ("window_s", float),
    ("scenario", "ttl"): ("ttl", int),
    ("scenario", "exclude_prev_hop"): ("exclude_prev_hop", _parse_bool),
    ("scenario", "ranking_expiry_s"): ("ranking_expiry_s", float),
    ("channel", "tx_power_dbm"): ("tx_power_dbm", float),
    ("channel", "path_loss_exponent"): ("path_loss_exponent", float),
    ("channel", "frequency_hz"): ("frequency_hz", float),
    ("channel", "sensitivity_dbm"): ("sensitivity_dbm", float),
    ("mac", "rate_bps"): ("mac_rate_bps", float),
    ("mac", "overhead_bytes"): ("mac_overhead_bytes", int),
    ("mac", "jitter_us"): ("mac_jitter_us", int),
    ("mac", "queue_capacity"): ("queue_capacity", int),
    ("mac", "control_bytes"): ("control_bytes", int),
    ("batman", "ogm_interval_s"): ("ogm_interval_s", float),
    ("batman", "tq_window"): ("tq_window", int),
    ("batman", "hop_penalty"): ("hop_penalty", float),
    ("golsr", "hello_interval_s"): ("hello_interval_s", float),
    ("golsr", "tc_interval_s"): ("tc_interval_s", float),
    ("golsr", "geo_floor"): ("geo_floor", float),
    ("batmobile", "ogm_interval_s"): ("ogm_interval_s", float),
    ("batmobile", "score_buffer"): ("score_buffer", int),
    ("batmobile", "mobility_update_s"): ("mobility_update_s", float),
    ("batmobile", "fit_samples"): ("fit_samples", int),
    ("batmobile", "prediction_steps"): ("prediction_steps", int),
    ("batmobile", "prediction_weight"): ("prediction_weight", int),
    ("batmobile", "trend_clamp"): ("trend_clamp", float),
}

_SECTIONS = {section for section, _ in _KEY_MAP}


def parse_scenario_text(text: str, source: str = "<config>") -> ScenarioConfig:
    overrides: dict[str, object] = {}
    section = "scenario"
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"{source}:{line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        mapping = _KEY_MAP.get((section, key))
        if mapping is None:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r} in section [{section}]")
        attr, parser = mapping
        try:
            overrides[attr] = parser(value)
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
    # The engine clock counts whole microseconds: a period that rounds to 0 us
    # would reschedule at one timestamp forever or divide by zero mid-run.
    for name in ("window_s", "ogm_interval_s", "hello_interval_s", "tc_interval_s",
                 "mobility_update_s"):
        if us_from_s(getattr(config, name)) < 1:
            fail(f"{name} must be at least 1 us, got {getattr(config, name)}")
    if config.speed_mps < 0:
        fail("speed_mps must be >= 0")
    if config.streams < 1:
        fail("streams must be >= 1")
    if 2 * config.streams > config.nodes:
        fail(f"{config.streams} streams need {2 * config.streams} nodes, have {config.nodes}")
    if not 0 <= config.stream_start_s < config.sim_time_s:
        fail("stream_start_s must lie inside the simulated interval")
    if not 0 < config.payload_bytes <= 1460:
        fail(f"payload_bytes must be in (0, 1460], got {config.payload_bytes}")
    if send_interval_us(config.payload_bytes, config.bitrate_bps) < 1:
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
