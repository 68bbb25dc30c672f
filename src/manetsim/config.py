"""Scenario configuration: reference defaults, file parsing, validation.

Config files are flat ``key = value`` text with optional ``[section]``
headers; keys before any header belong to [scenario]. Unknown keys and type
mismatches raise ConfigError with the offending line, invariant violations
with the rule they break. An empty file yields the full reference default scenario.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace

from . import routing
from .channel import airtime_us, max_range_m
from .engine import US_PER_S, us_from_s
from .mobility import Area, distance
from .traffic import MTU_BYTES, send_interval_us

PROTOCOLS = tuple(routing.PROTOCOLS)


class ConfigError(Exception):
    pass


_SYMBOLS = {"gt": ">", "ge": ">=", "le": "<="}


def _key(default, *sections: str, key: str | None = None, **bounds: float):
    """A field set by file key ``key`` (default: its name) in each of ``sections``
    (default: [scenario]), with the one-field bounds gt, ge, le that validate() checks."""
    return field(default=default, metadata={
        "sections": sections or ("scenario",), "key": key, "bounds": bounds})


@dataclass(frozen=True)
class ScenarioConfig:
    area_x: float = _key(500.0, gt=0)
    area_y: float = _key(500.0, gt=0)
    area_z: float = _key(10.0, gt=0)
    nodes: int = _key(15, ge=2)
    speed_mps: float = _key(13.889, ge=0)  # 50 km/h
    sim_time_s: float = _key(600.0, gt=0)
    runs: int = _key(25, ge=1)
    lambda_factor: float = _key(0.9, key="lambda", ge=0)
    protocol: str = _key("batman")
    balancing: bool = _key(True)
    seed: int = _key(1)
    streams: int = _key(1, ge=1)
    stream_start_s: float = _key(5.0)
    bitrate_bps: float = _key(2e6, gt=0)
    payload_bytes: int = _key(MTU_BYTES, ge=1, le=MTU_BYTES)
    window_s: float = _key(1.0, gt=0)
    ttl: int = _key(16, ge=1)
    exclude_prev_hop: bool = _key(True)
    ranking_expiry_s: float = _key(3.0, gt=0)
    tx_power_dbm: float = _key(20.0, "channel")  # 100 mW
    path_loss_exponent: float = _key(2.75, "channel", gt=2)
    frequency_hz: float = _key(2.4e9, "channel", gt=0)
    sensitivity_dbm: float = _key(-83.0, "channel")
    mac_rate_bps: float = _key(24e6, "mac", key="rate_bps", gt=0)
    mac_overhead_bytes: int = _key(64, "mac", key="overhead_bytes", ge=0)
    mac_jitter_us: int = _key(200, "mac", key="jitter_us", ge=0)
    queue_capacity: int = _key(50, "mac", ge=1)
    control_bytes: int = _key(64, "mac", ge=1)
    ogm_interval_s: float = _key(0.5, "batman", "batmobile", gt=0)
    tq_window: int = _key(8, "batman", ge=1)
    hop_penalty: float = _key(0.95, "batman", gt=0, le=1)
    hello_interval_s: float = _key(0.5, "golsr", gt=0)
    tc_interval_s: float = _key(1.0, "golsr", gt=0)
    geo_floor: float = _key(1e-6, "golsr", gt=0)
    score_buffer: int = _key(8, "batmobile", ge=1)
    mobility_update_s: float = _key(0.25, "batmobile", gt=0)
    fit_samples: int = _key(5, "batmobile", ge=2)
    prediction_steps: int = _key(15, "batmobile", ge=1)
    prediction_weight: int = _key(7, "batmobile", ge=0)
    trend_clamp: float = _key(0.1, "batmobile", ge=0)

    def __post_init__(self):
        # scenario_id hashes each field's repr, so 90000 and 90000.0 would name
        # one run twice: a float field holds a float, even given an int or a
        # bool (a bool is an int).
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and isinstance(value, int):
                object.__setattr__(self, f.name, float(value))

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


# (section, file key) -> the ScenarioConfig field it sets; the field's
# annotation picks the parser.
_KEYS = {(section, f.metadata["key"] or f.name): f
         for f in fields(ScenarioConfig) for section in f.metadata["sections"]}
_SECTIONS = {section for section, _ in _KEYS}
_PARSERS = {"float": float, "int": int, "str": str, "bool": _parse_bool}


def parse_scenario_text(text: str, source: str = "<config>") -> ScenarioConfig:
    overrides: dict[str, object] = {}
    set_by: dict[str, tuple[int, str]] = {}  # field -> (line number, line) that set it
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
        target = _KEYS.get((section, key))
        if target is None:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r} in section [{section}]")
        try:
            parsed = _PARSERS[target.type](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{line_no}: bad value for {key!r}: {exc}") from exc
        if target.name not in set_by:
            set_by[target.name] = (line_no, raw.strip())
        elif repr(parsed) != repr(overrides[target.name]):  # repr, because nan != nan
            first_no, first_line = set_by[target.name]
            raise ConfigError(f"{source}:{line_no}: {raw.strip()!r} sets {target.name} to another "
                              f"value than line {first_no}, {first_line!r}")
        overrides[target.name] = parsed
    config = replace(ScenarioConfig(), **overrides)
    validate(config)
    return config


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), source=path)


def validate(config: ScenarioConfig) -> None:
    def fail(message: str) -> None:
        raise ConfigError(f"invalid scenario: {message}")

    # First, so that no later check or run-time conversion sees an int or
    # bool field of another type, inf, nan, a time whose microseconds
    # overflow a float, or a value outside its bounds. A float field already
    # holds a float (see __post_init__); a bool is not an int here.
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", "bool") and type(value).__name__ != f.type:
            fail(f"{f.name} must be of type {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            fail(f"{f.name} must be finite, got {value}")
        if f.name.endswith("_s") and not math.isfinite(value * US_PER_S):
            fail(f"{f.name} must fit the microsecond clock, got {value}")
        for relation, bound in f.metadata["bounds"].items():
            if not getattr(operator, relation)(value, bound):
                fail(f"{f.name} must be {_SYMBOLS[relation]} {bound}, got {value}")
    if config.protocol not in PROTOCOLS:
        fail(f"protocol must be one of {PROTOCOLS}, got {config.protocol!r}")
    # Mobility and the medium square coordinate differences; past this size
    # the squares overflow a float. Below the smallest normal float, distances
    # inside the area underflow to 0: golsr divides by the diagonal, and a
    # waypoint step that covers no distance per leg never ends.
    diagonal2 = (config.area_x * config.area_x + config.area_y * config.area_y
                 + config.area_z * config.area_z)
    area = f"area {config.area_x} x {config.area_y} x {config.area_z} m"
    if not math.isfinite(diagonal2):
        fail(f"{area} is too large: its squared diagonal overflows a float")
    if diagonal2 < sys.float_info.min:
        fail(f"{area} is too small: its squared diagonal underflows the smallest normal float")
    # The engine clock counts whole microseconds: a period that rounds to 0 us
    # would reschedule at one timestamp forever or divide by zero mid-run.
    for name in ("window_s", "ogm_interval_s", "hello_interval_s", "tc_interval_s",
                 "mobility_update_s"):
        if us_from_s(getattr(config, name)) < 1:
            fail(f"{name} must be at least 1 us, got {getattr(config, name)}")
    # A waypoint step spends its travel budget leg by leg; a budget too large
    # next to the legs is not reduced by subtracting one, and the step never ends.
    travel_m = config.speed_mps * config.mobility_update_s
    if travel_m > config.diagonal_m():
        fail(f"speed_mps {config.speed_mps} covers {travel_m:g} m per "
             f"{config.mobility_update_s} s mobility tick, more than the "
             f"{config.diagonal_m():g} m area diagonal")
    if 2 * config.streams > config.nodes:
        fail(f"{config.streams} streams need {2 * config.streams} nodes, have {config.nodes}")
    if not 0 <= config.stream_start_s < config.sim_time_s:
        fail("stream_start_s must lie inside the simulated interval")
    try:
        send_interval_us(config.payload_bytes, config.bitrate_bps)
    except ValueError as exc:
        fail(str(exc))
    if config.sensitivity_dbm >= config.tx_power_dbm:
        fail("receiver sensitivity must lie below the transmit power")
    # The medium's own arithmetic: it squares the range and puts each frame's
    # airtime on the us clock.
    try:
        range2 = max_range_m(config) ** 2
    except OverflowError:
        range2 = math.inf
    if not math.isfinite(range2):
        fail("tx_power_dbm, sensitivity_dbm, path_loss_exponent and frequency_hz give a "
             "range whose square overflows a float")
    # batmobile divides distances by the range, which is 0 once 4*pi*f overflows.
    if max_range_m(config) == 0:
        fail("tx_power_dbm, sensitivity_dbm, path_loss_exponent and frequency_hz give a "
             "reception range of 0 m")
    try:
        airtime_us(max(config.payload_bytes, config.control_bytes), config)
    except OverflowError:
        fail("mac_rate_bps, mac_overhead_bytes and control_bytes give the largest frame an "
             "airtime that overflows a float")
    # A prediction lies at most speed_mps x (prediction_steps + fit_samples) x
    # mobility_update_s outside the area; batmobile squares the distance between two.
    if config.protocol == "batmobile":
        try:
            reach_m = (config.speed_mps * (config.prediction_steps + config.fit_samples)
                       * config.mobility_update_s)
            spread_m = distance((-reach_m, -reach_m, -reach_m), (
                config.area_x + reach_m, config.area_y + reach_m, config.area_z + reach_m))
        except OverflowError:
            spread_m = math.inf
        if not math.isfinite(spread_m):
            fail("speed_mps, prediction_steps, fit_samples and mobility_update_s let batmobile "
                 "predict positions whose squared distance overflows a float")
    if config.prediction_weight > config.score_buffer:
        fail(f"prediction_weight {config.prediction_weight} exceeds "
             f"score_buffer {config.score_buffer}")
