import pytest

from manetsim.config import ConfigError, ScenarioConfig, load_scenario, parse_scenario_text, validate
from manetsim.simulation import simulate

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


def test_readme_config_block_matches_defaults():
    # the README documents the full default scenario; keep it honest
    import pathlib
    import re

    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    match = re.search(r"^    \[scenario\]\n(?:^(?:    .*)?\n)*?^    trend_clamp = .*$",
                      readme, re.MULTILINE)
    assert match, "README default-config block not found"
    block = "\n".join(line[4:] for line in match.group(0).splitlines())
    assert parse_scenario_text(block) == ScenarioConfig()


@pytest.mark.parametrize("text, name", [
    ("bitrate_bps = 1e12\n", "bitrate_bps"),  # 1460-byte packets 0.01 us apart
    ("[batman]\nogm_interval_s = 1e-7\n", "ogm_interval_s"),
    ("[golsr]\nhello_interval_s = 1e-7\n", "hello_interval_s"),
    ("[golsr]\ntc_interval_s = 1e-7\n", "tc_interval_s"),
    ("[batmobile]\nmobility_update_s = 1e-7\n", "mobility_update_s"),
    ("window_s = 1e-7\n", "window_s"),
])
def test_periods_below_one_microsecond_rejected(text, name):
    # Each of these used to pass validation and then hang or crash mid-run.
    with pytest.raises(ConfigError, match=name):
        parse_scenario_text(text)


def test_periods_of_one_microsecond_accepted_and_run():
    config = parse_scenario_text(
        "protocol = batmobile\nnodes = 4\nsim_time_s = 0.002\nstream_start_s = 0\n"
        "window_s = 1e-6\nbitrate_bps = 11.68e9\n"  # 1460-byte packets exactly 1 us apart
        "[batmobile]\nogm_interval_s = 1e-6\nmobility_update_s = 1e-6\n")
    result = simulate(config, 1)
    assert result.sent == 2000
    assert result.conservation_ok
