import contextlib
import io
import math
import pathlib
import re
import signal
import struct
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim import config as config_module
from manetsim.channel import airtime_us, max_range_m
from manetsim.cli import main as cli_main
from manetsim.config import (
    PROTOCOLS,
    ConfigError,
    ScenarioConfig,
    load_scenario,
    parse_scenario_text,
    validate,
)
from manetsim.engine import us_from_s
from manetsim.simulation import Simulation, simulate
from manetsim.traffic import send_interval_us

REFERENCE_DEFAULTS = {
    # mission area and movement
    "area_x": 500.0,
    "area_y": 500.0,
    "area_z": 10.0,
    "speed_mps": 13.889,  # 50 km/h
    # channel
    "path_loss_exponent": 2.75,
    "tx_power_dbm": 20.0,  # 100 mW
    "frequency_hz": 2.4e9,
    "sensitivity_dbm": -83.0,
    # traffic
    "bitrate_bps": 2e6,
    "payload_bytes": 1460,
    # run shape
    "sim_time_s": 600.0,
    "runs": 25,
    "lambda_factor": 0.9,
    # protocol timers and prediction parameters
    "ogm_interval_s": 0.5,
    "hello_interval_s": 0.5,
    "tc_interval_s": 1.0,
    "score_buffer": 8,
    "mobility_update_s": 0.25,
    "fit_samples": 5,
    "prediction_steps": 15,
    "prediction_weight": 7,
    "trend_clamp": 0.1,
}


def test_defaults_match_reference_scenario_field_by_field():
    config = ScenarioConfig()
    for name, expected in REFERENCE_DEFAULTS.items():
        assert getattr(config, name) == expected, name


def test_empty_file_yields_full_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    config = load_scenario(str(path))
    assert config == ScenarioConfig()
    assert config.lambda_factor == 0.9
    assert config.bitrate_bps == 2e6


def test_bare_keys_belong_to_scenario_section():
    config = parse_scenario_text("nodes = 10\nlambda = 0.5\n")
    assert config.nodes == 10
    assert config.lambda_factor == 0.5


def test_sections_route_keys():
    text = """
    nodes = 8
    [channel]
    tx_power_dbm = 17
    [batman]
    hop_penalty = 0.9
    [mac]
    queue_capacity = 10
    """
    config = parse_scenario_text(text)
    assert config.nodes == 8
    assert config.tx_power_dbm == 17.0
    assert config.hop_penalty == 0.9
    assert config.queue_capacity == 10


@pytest.mark.parametrize("text, second, first", [
    ("[batman]\nogm_interval_s = 0.5\n[batmobile]\nogm_interval_s = 2.0\n", 4, 2),
    ("nodes = 10\n\nnodes = 20\n", 3, 1),
    ("balancing = on\n[batman]\ntq_window = 4\n[scenario]\nbalancing = false\n", 5, 1),
], ids=["ogm_interval_s", "nodes", "balancing"])
def test_a_field_set_to_two_values_names_both_lines(text, second, first):
    with pytest.raises(ConfigError, match=rf"^<config>:{second}: .* than line {first}, "):
        parse_scenario_text(text)


def test_a_field_set_twice_to_one_value_is_accepted():
    text = ("nodes = 10\nnodes = 10\n"
            "[batman]\nogm_interval_s = 0.5\n[batmobile]\nogm_interval_s = 0.50\n")
    assert parse_scenario_text(text) == replace(ScenarioConfig(), nodes=10)


def test_comments_and_blank_lines_ignored():
    config = parse_scenario_text("# comment\n\nnodes = 6  # trailing\n")
    assert config.nodes == 6


def test_single_node_rejected():
    with pytest.raises(ConfigError, match="nodes"):
        parse_scenario_text("nodes = 1\n")


def test_negative_lambda_rejected():
    with pytest.raises(ConfigError, match="lambda"):
        parse_scenario_text("lambda = -0.5\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'bogus'"):
        parse_scenario_text("nodes = 5\nbogus = 1\n")


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError, match=r":1: unknown section"):
        parse_scenario_text("[nope]\n")


def test_type_mismatch_reports_line():
    with pytest.raises(ConfigError, match=r"<config>:1: bad value for 'nodes'"):
        parse_scenario_text("nodes = many\n")


def test_malformed_line_reports_line():
    with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
        parse_scenario_text("nodes\n")


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigError, match="protocol"):
        parse_scenario_text("protocol = aodv\n")


def test_stream_count_must_fit_node_count():
    with pytest.raises(ConfigError, match="streams"):
        parse_scenario_text("nodes = 4\nstreams = 3\n")


def test_payload_capped_at_mtu():
    with pytest.raises(ConfigError, match="payload"):
        parse_scenario_text("payload_bytes = 2000\n")


def test_sensitivity_must_be_below_tx_power():
    with pytest.raises(ConfigError, match="sensitivity"):
        parse_scenario_text("[channel]\nsensitivity_dbm = 25\n")


def test_nonpositive_duration_rejected():
    with pytest.raises(ConfigError, match="sim_time_s"):
        parse_scenario_text("sim_time_s = 0\n")


def test_validate_accepts_defaults():
    validate(ScenarioConfig())


# Every one-field bound validate() enforces: (section, key, rejected, accepted),
# each value set alone on top of the defaults.
BOUNDS = [
    ("scenario", "nodes", "1", "2"),
    ("scenario", "runs", "0", "1"),
    ("scenario", "streams", "0", "1"),
    ("scenario", "ttl", "0", "1"),
    ("scenario", "payload_bytes", "0", "1"),
    ("scenario", "payload_bytes", "1461", "1460"),
    ("scenario", "speed_mps", "-0.001", "0"),
    ("scenario", "lambda", "-1e-9", "0"),
    ("scenario", "area_x", "0", "1e-9"),
    ("scenario", "area_y", "0", "1e-9"),
    ("scenario", "area_z", "0", "1e-9"),
    ("scenario", "sim_time_s", "0", "5.5"),  # must also outlast stream_start_s = 5
    ("scenario", "window_s", "0", "1e-6"),
    ("scenario", "bitrate_bps", "0", "1"),
    ("scenario", "ranking_expiry_s", "0", "1e-9"),
    ("channel", "path_loss_exponent", "2", "2.0000001"),
    ("channel", "frequency_hz", "0", "1"),
    ("mac", "rate_bps", "0", "1"),
    ("mac", "overhead_bytes", "-1", "0"),
    ("mac", "jitter_us", "-1", "0"),
    ("mac", "queue_capacity", "0", "1"),
    ("mac", "control_bytes", "0", "1"),
    ("batman", "ogm_interval_s", "0", "1e-6"),
    ("batman", "tq_window", "0", "1"),
    ("batman", "hop_penalty", "0", "1e-9"),
    ("batman", "hop_penalty", "1.0000001", "1"),
    ("golsr", "hello_interval_s", "0", "1e-6"),
    ("golsr", "tc_interval_s", "0", "1e-6"),
    ("golsr", "geo_floor", "0", "1e-300"),
    ("batmobile", "ogm_interval_s", "0", "1e-6"),
    ("batmobile", "mobility_update_s", "0", "1e-6"),
    ("batmobile", "score_buffer", "0", "7"),  # must also hold prediction_weight = 7
    ("batmobile", "fit_samples", "1", "2"),
    ("batmobile", "prediction_steps", "0", "1"),
    ("batmobile", "prediction_weight", "-1", "0"),
    ("batmobile", "trend_clamp", "-1e-9", "0"),
]


@pytest.mark.parametrize("section, key, rejected, accepted", BOUNDS)
def test_each_one_field_bound_rejects_and_accepts_at_its_edge(section, key, rejected, accepted):
    with pytest.raises(ConfigError) as info:
        parse_scenario_text(f"[{section}]\n{key} = {rejected}\n")
    message = str(info.value)
    # The bound itself rejects the value: not the 1 us period check, which
    # also rejects every period <= 0, nor a check that reads another field.
    assert key in message and re.search(r"must (be|exceed)", message), message
    assert "1 us" not in message, message
    parse_scenario_text(f"[{section}]\n{key} = {accepted}\n")


def readme_config_block() -> str:
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    match = re.search(r"^    \[scenario\]\n(?:^(?:    .*)?\n)*?^    trend_clamp = .*$",
                      readme, re.MULTILINE)
    assert match, "README default-config block not found"
    return "\n".join(line[4:] for line in match.group(0).splitlines())


def test_readme_config_block_matches_defaults():
    # the README documents the full default scenario; keep it honest
    assert parse_scenario_text(readme_config_block()) == ScenarioConfig()


def readme_keys() -> list[tuple[str, str, str]]:
    """(section, key, literal) for every key line of the README default block."""
    entries, section = [], None
    for line in readme_config_block().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key, _, literal = line.partition("=")
            entries.append((section, key.strip(), literal.strip()))
    return entries


# The four file keys whose field has another name; every other key names its field.
RENAMED = {
    ("scenario", "lambda"): "lambda_factor",
    ("mac", "rate_bps"): "mac_rate_bps",
    ("mac", "overhead_bytes"): "mac_overhead_bytes",
    ("mac", "jitter_us"): "mac_jitter_us",
}


def changed_literal(literal: str) -> tuple[str, str]:
    """A valid value other than the README default, and the type it must parse to."""
    if literal in ("true", "false"):
        return ("false" if literal == "true" else "true"), "bool"
    if literal.isidentifier():
        return "golsr", "str"
    if re.fullmatch(r"-?\d+", literal):
        value = int(literal)
        return str(value - 1 if value > 1 else value + 1), "int"
    return repr(math.nextafter(float(literal), 0.0)), "float"


def test_readme_lists_every_accepted_key_once():
    pairs = [(section, key) for section, key, _ in readme_keys()]
    assert len(pairs) == len(set(pairs)) == 41
    assert set(pairs) == set(config_module._KEYS)


@pytest.mark.parametrize("section, key, literal", readme_keys())
def test_each_key_sets_one_field_with_its_annotated_type(section, key, literal):
    text, kind = changed_literal(literal)
    config = parse_scenario_text(f"[{section}]\n{key} = {text}\n")
    default = ScenarioConfig()
    changed = [f for f in fields(config) if getattr(config, f.name) != getattr(default, f.name)]
    assert [f.name for f in changed] == [RENAMED.get((section, key), key)]
    assert changed[0].type == kind
    assert type(getattr(config, changed[0].name)).__name__ == kind


def test_parsed_int_and_bool_fields_hold_their_own_type():
    # validate(), which the parser calls, rejects an int field holding a float
    # or a bool and a bool field holding an int; "1" for a bool parses to True.
    config = parse_scenario_text("nodes = 6\nttl = 16\nbalancing = 1\n"
                                 "exclude_prev_hop = off\n[mac]\njitter_us = 200\n"
                                 "[batman]\ntq_window = 8\n")
    assert [repr(getattr(config, name)) for name in (
        "nodes", "ttl", "balancing", "exclude_prev_hop", "mac_jitter_us", "tq_window")] == [
        "6", "16", "True", "False", "200", "8"]


@pytest.mark.parametrize("text", [
    "lambda_factor = 0.5\n",  # the field name is not a file key
    "rate_bps = 1e6\n",  # a [mac] key outside its section
    "[mac]\nmac_rate_bps = 1e6\n",
    "[channel]\nnodes = 5\n",
])
def test_keys_outside_their_section_rejected(text):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_scenario_text(text)


@pytest.mark.parametrize("text, name", [
    ("speed_mps = inf\n", "speed_mps"),  # if accepted, the run never ends
    ("[batman]\nogm_interval_s = inf\n", "ogm_interval_s"),  # overflows the us check
    ("sim_time_s = inf\n", "sim_time_s"),  # overflows in Simulation
    ("ranking_expiry_s = inf\n", "ranking_expiry_s"),
    ("area_x = nan\n", "area_x"),  # runs silently with PDR 0
    ("lambda = nan\n", "lambda_factor"),
    ("[channel]\ntx_power_dbm = nan\n", "tx_power_dbm"),
    ("[batmobile]\ntrend_clamp = nan\n", "trend_clamp"),
    ("[golsr]\ngeo_floor = nan\n", "geo_floor"),
    ("bitrate_bps = -inf\n", "bitrate_bps"),
])
def test_non_finite_floats_rejected(text, name):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        parse_scenario_text(text)
    value = float(text.partition("=")[2])
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        validate(replace(ScenarioConfig(), **{name: value}))


@pytest.mark.parametrize("text, name", [
    ("bitrate_bps = 1e12\n", "bitrate_bps"),  # 1460-byte packets 0.01 us apart
    ("[batman]\nogm_interval_s = 1e-7\n", "ogm_interval_s"),
    ("[golsr]\nhello_interval_s = 1e-7\n", "hello_interval_s"),
    ("[golsr]\ntc_interval_s = 1e-7\n", "tc_interval_s"),
    ("[batmobile]\nmobility_update_s = 1e-7\n", "mobility_update_s"),
    ("window_s = 1e-7\n", "window_s"),
    # Finite extremes at the other end: the send interval overflows the us
    # clock, and squared coordinate differences overflow a float.
    ("bitrate_bps = 1e-300\n", "bitrate_bps"),
    ("area_x = 1e200\n", "area"),
    ("area_x = 1e300\n", "area"),
])
def test_periods_below_one_microsecond_rejected(text, name):
    # Each of these used to pass validation and then hang or crash.
    with pytest.raises(ConfigError, match=name):
        parse_scenario_text(text)


TIME_FIELDS = [f.name for f in fields(ScenarioConfig) if f.name.endswith("_s")]


@pytest.mark.parametrize("name", TIME_FIELDS)
def test_times_past_the_microsecond_clock_rejected(name):
    # 1e303 s is 1e309 us, past the largest float: sim_time_s and
    # ranking_expiry_s passed validation and then overflowed in Simulation(),
    # the periods overflowed in validate() itself.
    assert len(TIME_FIELDS) == 8
    with pytest.raises(ConfigError, match=f"{name} must fit the microsecond clock"):
        validate(replace(ScenarioConfig(), **{name: 1e303}))


def test_periods_of_one_microsecond_accepted_and_run():
    config = parse_scenario_text(
        "protocol = batmobile\nnodes = 4\nsim_time_s = 0.002\nstream_start_s = 0\n"
        "window_s = 1e-6\nbitrate_bps = 11.68e9\n"  # 1460-byte packets exactly 1 us apart
        "[batmobile]\nogm_interval_s = 1e-6\nmobility_update_s = 1e-6\n")
    result = simulate(config, 1)
    assert result.sent == 2000
    assert result.conservation_ok


def last_ok(ok, good, bad):
    """The value nearest ``bad``, going from ``good``, at which ``ok`` still holds.

    ``ok`` holds at good, fails at bad and changes once between them. Ints are
    bisected as they are; floats of one sign by their bit patterns, which are
    monotone in the value, so the answer is exact to the last float.
    """
    if isinstance(good, float):
        def to_int(x): return struct.unpack("<q", struct.pack("<d", x))[0]
        def to_value(i): return struct.unpack("<d", struct.pack("<q", i))[0]
    else:
        to_int = to_value = int
    lo, hi = to_int(good), to_int(bad)
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        if ok(to_value(mid)):
            lo = mid
        else:
            hi = mid
    return to_value(lo)


def step_past(edge, bad):
    """The value right after edge on the way to bad."""
    if isinstance(edge, float):
        return math.nextafter(edge, bad)
    return edge + (1 if bad > edge else -1)


def fits(compute) -> bool:
    """Whether compute() gives a finite value, as the medium needs it."""
    try:
        return math.isfinite(compute())
    except OverflowError:
        return False


def range_fits(**change) -> bool:
    # The medium's own expression for its squared reception range.
    return fits(lambda: max_range_m(replace(ScenarioConfig(), **change)) ** 2)


def airtime_fits(**change) -> bool:
    config = replace(ScenarioConfig(), **change)
    return fits(lambda: airtime_us(max(config.payload_bytes, config.control_bytes), config))


def area_fits(**change) -> bool:
    # Mobility and the medium square coordinate differences as large as a side.
    return fits(lambda: sum(side * side for side in replace(ScenarioConfig(), **change).area()))


def interval_fits(bitrate_bps: float) -> bool:
    """Whether 1460-byte packets at bitrate_bps go on the us clock."""
    try:
        return send_interval_us(1460, bitrate_bps) >= 1
    except ValueError:
        return False


@pytest.mark.parametrize("name, fits_with, good, bad", [
    ("tx_power_dbm", range_fits, 20.0, 1e5),
    ("mac_rate_bps", airtime_fits, 24e6, 1e-300),
], ids=["tx_power_dbm", "rate_bps"])
def test_validate_and_the_medium_agree_at_the_overflow_edge(name, fits_with, good, bad):
    # validate() must accept the last value the medium can compute with, and
    # reject the next float: a copy of the arithmetic could be one ulp off.
    edge = last_ok(lambda value: fits_with(**{name: value}), good, bad)
    accepted = replace(ScenarioConfig(), **{name: edge})
    validate(accepted)
    Simulation(accepted, 1)
    with pytest.raises(ConfigError, match="overflows a float"):
        validate(replace(ScenarioConfig(), **{name: math.nextafter(edge, bad)}))


SMALL_RUN = "nodes = 4\nsim_time_s = 2\nstream_start_s = 0.5\n"
CUBE = "area_x = {0}\narea_y = {0}\narea_z = {0}\nspeed_mps = {1}\n"


@pytest.mark.parametrize("rejected, verdict, accepted", [
    # golsr's geo_score divides by the area diagonal: 0 once the squares underflow.
    ("protocol = golsr\n" + CUBE.format("1e-200", 0), "squared diagonal underflows",
     "protocol = golsr\n" + CUBE.format("1e-150", 0)),
    # Distances inside the area underflow to 0, so a waypoint step never ends.
    (CUBE.format("1.5717277847026288e-162", "1.5399724348305664e-161"),
     "squared diagonal underflows", CUBE.format("1e-150", "1e-150")),
    # batmobile's pathscore_link divides by the range: 0 once 4*pi*f overflows.
    ("protocol = batmobile\n[channel]\nfrequency_hz = 1e308\n", "reception range of 0 m",
     "protocol = batmobile\n[channel]\nfrequency_hz = 1e307\n"),
    # batmobile squares the distance between two predictions far outside the area.
    ("protocol = batmobile\n[batmobile]\nprediction_steps = 1" + "0" * 200 + "\n",
     "predict positions whose squared distance overflows",
     "protocol = batmobile\n[batmobile]\nprediction_steps = 1" + "0" * 150 + "\n"),
], ids=["zero-diagonal", "zero-gaps", "zero-range", "prediction-overflow"])
def test_configs_that_crashed_mid_run_are_rejected(rejected, verdict, accepted):
    with pytest.raises(ConfigError, match=verdict):
        parse_scenario_text(SMALL_RUN + rejected)
    result = simulate(parse_scenario_text(SMALL_RUN + accepted), 1)
    assert result.conservation_ok


# Scenario text drawn key by key. Each key draws from ordinary values, or from
# its wild values: both sides of each edge validate() draws for it (a float
# overflow or underflow, the 1 us clock, the area diagonal, the batmobile
# prediction), and inf, nan, zero and negative values, which an int key
# rejects as it parses.
def _edge_texts(ok, good, bad) -> list[str]:
    edge = last_ok(ok, good, bad)
    return [repr(edge), repr(step_past(edge, bad))]


_ODD_FLOATS = ["inf", "-inf", "nan", "-1", "0"]
_PERIOD = (_edge_texts(lambda v: us_from_s(v) >= 1, 1e-6, 1e-7)
           + ["1e-6", "5e-7", "1e-7", "1e300"] + _ODD_FLOATS, st.floats(0.01, 1.0).map(repr))
TEXT_KEYS = {  # (section, key) -> (wild values, ordinary values)
    ("channel", "tx_power_dbm"): (
        _edge_texts(lambda v: range_fits(tx_power_dbm=v), 20.0, 1e5)
        + ["-83", "-82.999", "1e5"] + _ODD_FLOATS, st.floats(-80.0, 60.0).map(repr)),
    ("channel", "sensitivity_dbm"): (
        _edge_texts(lambda v: range_fits(sensitivity_dbm=v), -83.0, -1e5)
        + ["20", "19.999"] + _ODD_FLOATS, st.floats(-120.0, 0.0).map(repr)),
    ("channel", "frequency_hz"): (
        _edge_texts(lambda v: range_fits(frequency_hz=v), 2.4e9, 1e-300)
        + _edge_texts(lambda v: max_range_m(replace(ScenarioConfig(), frequency_hz=v)) > 0,
                      2.4e9, 1.7976931348623157e308)
        + ["1e-300", "1e308", "1.7976931348623157e308"] + _ODD_FLOATS,
        st.floats(1e8, 1e10).map(repr)),
    ("channel", "path_loss_exponent"): (
        ["2", "2.0000001", "1e308"] + _ODD_FLOATS, st.floats(2.01, 6.0).map(repr)),
    ("mac", "rate_bps"): (
        _edge_texts(lambda v: airtime_fits(mac_rate_bps=v), 24e6, 1e-300)
        + ["1e-300", "1e300"] + _ODD_FLOATS, st.floats(1e5, 1e9).map(repr)),
    ("mac", "overhead_bytes"): (
        _edge_texts(lambda v: airtime_fits(mac_overhead_bytes=v), 64, 10**400)
        + ["1" + "0" * 400] + _ODD_FLOATS, st.integers(0, 2000).map(str)),
    ("mac", "control_bytes"): (
        _edge_texts(lambda v: airtime_fits(control_bytes=v), 64, 10**400)
        + ["1" + "0" * 400] + _ODD_FLOATS, st.integers(1, 2000).map(str)),
    ("scenario", "bitrate_bps"): (
        _edge_texts(interval_fits, 2e6, 1e-300) + _edge_texts(interval_fits, 11.68e9, 1e12)
        + ["1e-300", "1e12"] + _ODD_FLOATS, st.floats(1e4, 1e7).map(repr)),
    ("scenario", "payload_bytes"): (
        ["1", "1460", "1461"] + _ODD_FLOATS, st.integers(1, 1460).map(str)),
    ("scenario", "window_s"): _PERIOD,
    ("batman", "ogm_interval_s"): _PERIOD,
    ("batmobile", "ogm_interval_s"): _PERIOD,
    ("golsr", "hello_interval_s"): _PERIOD,
    ("golsr", "tc_interval_s"): _PERIOD,
    ("batmobile", "mobility_update_s"): _PERIOD,
    **{("scenario", side): (
        _edge_texts(lambda v, side=side: area_fits(**{side: v}), 500.0, 1e300)
        + ["1e-9", "1e200"] + _ODD_FLOATS, st.floats(1.0, 600.0).map(repr))
       for side in ("area_x", "area_y", "area_z")},
}


def accepted(config: ScenarioConfig) -> bool:
    try:
        validate(config)
    except ConfigError:
        return False
    return True


# One side for all three, around and below the point where validate() finds
# the area too small, and where its squared diagonal underflows to 0.
_TINY_SIDE = st.sampled_from(_edge_texts(
    lambda v: accepted(replace(ScenarioConfig(), area_x=v, area_y=v, area_z=v, speed_mps=0.0)),
    1e-100, 5e-324) + ["1e-161", "1e-200", "5e-324"])
_SPEED = ("scenario", "speed_mps")


def drawn_config(entries: dict[tuple[str, str], str]) -> ScenarioConfig:
    """The defaults with each drawn value that validate() accepts on its own."""
    config = ScenarioConfig()
    for (section, key), text in entries.items():
        target = config_module._KEYS[(section, key)]
        try:
            value = config_module._PARSERS[target.type](text)
        except ValueError:
            continue
        if accepted(replace(ScenarioConfig(), **{target.name: value})):
            config = replace(config, **{target.name: value})
    return config


def validate_edge_texts(config: ScenarioConfig, name: str, good: float, bad: float,
                        cast=float) -> list[str]:
    """Both sides of the value of ``name`` at which validate() stops accepting
    config, found over floats; none if good is rejected or bad accepted."""
    def ok(value):
        return accepted(replace(config, **{name: cast(value)}))
    if not ok(good) or ok(bad):
        return []
    edge = last_ok(ok, good, bad)
    return [repr(cast(edge)), repr(cast(step_past(edge, bad)))]


# Keys whose edges move with the keys drawn before them (the area, the tick,
# the speed): drawn last, from the config drawn so far.
LATE_KEYS = {
    _SPEED: lambda config: (
        validate_edge_texts(config, "speed_mps", 0.0, 1e300) + ["1e300"] + _ODD_FLOATS,
        st.floats(0.0, 50.0).map(repr)),
    ("batmobile", "prediction_steps"): lambda config: (
        validate_edge_texts(config, "prediction_steps", 1.0, 1.7976931348623157e308, int)
        + ["1" + "0" * 150, "1" + "0" * 200, "1" + "0" * 400, "0", "-1"],
        st.integers(1, 30).map(str)),
}


@st.composite
def scenario_texts(draw) -> dict[tuple[str, str], str]:
    nodes = draw(st.integers(2, 6))
    entries = {("scenario", "nodes"): str(nodes),
               ("scenario", "streams"): str(draw(st.integers(1, nodes // 2))),
               ("scenario", "protocol"): draw(st.sampled_from(PROTOCOLS))}
    keys = draw(st.lists(st.sampled_from(sorted(TEXT_KEYS) + sorted(LATE_KEYS)),
                         max_size=8, unique=True))
    # At most two keys draw wild values, so that most texts are accepted and run.
    wild = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)) if keys else []
    if draw(st.integers(0, 4)) == 0:
        side = draw(_TINY_SIDE)
        entries.update({("scenario", name): side for name in ("area_x", "area_y", "area_z")})
        keys = [key for key in keys if key[1] not in ("area_x", "area_y", "area_z")]
        # Only a speed at or below the edge this diagonal sets is accepted.
        keys.append(_SPEED)
        wild.append(_SPEED)

    def value(key, choices):
        wild_texts, ordinary = choices
        return draw(st.sampled_from(wild_texts) if key in wild else ordinary)

    for key in keys:
        if key in TEXT_KEYS:
            entries[key] = value(key, TEXT_KEYS[key])
    for key, choices in LATE_KEYS.items():
        if key in keys:
            entries[key] = value(key, choices(drawn_config(entries)))
    return entries


def render(entries: dict[tuple[str, str], str]) -> str:
    sections: dict[str, list[str]] = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "".join(line + "\n" for line in lines)
                   for section, lines in sections.items())


MAX_EVENTS = 20_000


def run_seconds(config: ScenarioConfig) -> float:
    """A simulated time whose run stays near MAX_EVENTS events, and as many
    PDR windows, on a generous count: each flooded control message is sent by
    up to every node, and each send costs about three events."""
    def per_s(period_s):
        return 1e6 / us_from_s(period_s)
    control_hz = (per_s(config.hello_interval_s) + per_s(config.tc_interval_s)
                  if config.protocol == "golsr" else per_s(config.ogm_interval_s))
    data_hz = config.streams * 1e6 / send_interval_us(config.payload_bytes, config.bitrate_bps)
    events_per_s = (per_s(config.mobility_update_s)
                    + config.nodes * control_hz * (1 + 3 * config.nodes)
                    + data_hz * (1 + 3 * min(config.ttl, config.nodes)))
    return min(2.0, MAX_EVENTS / events_per_s, MAX_EVENTS * config.window_s)


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run for seconds."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(scenario_texts(), st.sampled_from([0.0, 0.25, 0.5]), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_scenario_text_runs_to_its_end_or_exits_1_through_the_cli(
        tmp_path_factory, entries, start_share, seed):
    # The verdict does not depend on the run length, so a first parse sizes it.
    try:
        seconds = run_seconds(parse_scenario_text(render(entries) + "[scenario]\nsim_time_s = 1\n"
                                                  "stream_start_s = 0\n"))
    except ConfigError:
        seconds = 1.0
    text = (render(entries) + f"[scenario]\nsim_time_s = {seconds!r}\n"
            f"stream_start_s = {start_share * seconds!r}\n")
    with time_limit(10.0):
        try:
            config = parse_scenario_text(text)
        except ConfigError:
            path = tmp_path_factory.getbasetemp() / "scenario_text.cfg"
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(["run", "--config", str(path), "--seeds", "1"])
            lines = err.getvalue().splitlines()
            assert (code, out.getvalue()) == (1, ""), text
            assert len(lines) == 1 and lines[0].startswith("configuration error: "), lines
        else:
            result = Simulation(config, seed).run()
            assert result.conservation_ok, text
            assert result.events_processed <= 5 * MAX_EVENTS, text
