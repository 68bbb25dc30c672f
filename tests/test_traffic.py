import math
import random

import pytest

from manetsim.config import ScenarioConfig
from manetsim.engine import us_from_s
from manetsim.simulation import Simulation
from manetsim.traffic import (
    DROP_CAUSES,
    StreamSpec,
    StreamStats,
    draw_endpoints,
    mean_current_pdr,
    pdr_series,
    send_interval_us,
)


def test_interval_is_exact_for_reference_stream():
    spec = StreamSpec(0, 1, 0, us_from_s(1.0))
    assert spec.interval_us == 5840  # 1460 B * 8 / 2 Mbit/s


@pytest.mark.parametrize("payload, bitrate", [(1460, 2e6), (1, 8e6), (700, 3.3e5)])
def test_interval_is_set_once_at_construction(payload, bitrate):
    spec = StreamSpec(0, 1, 0, 1000, bitrate_bps=bitrate, payload_bytes=payload)
    assert vars(spec)["interval_us"] == send_interval_us(payload, bitrate)
    # A derived field: it takes no part in equality or repr.
    other = StreamSpec(0, 1, 0, 1000, bitrate_bps=bitrate, payload_bytes=payload)
    object.__setattr__(other, "interval_us", -1)
    assert spec == other
    assert "interval_us" not in repr(spec)
    with pytest.raises(TypeError):
        StreamSpec(0, 1, 0, 1000, interval_us=5840)


def test_interval_off_the_clock_raises_at_construction():
    for bitrate, message in [(1e12, "sends 1460-byte packets less than 1 us apart"),
                             (1e-300, "bitrate_bps 1e-300 sends packets too far apart")]:
        with pytest.raises(ValueError, match=message):
            StreamSpec(0, 1, 0, 1000, bitrate_bps=bitrate)


def run_stream(seconds, trace=False):
    """One reference stream from node 0 to node 1, 200 m apart (out of range),
    so every send ends at the source as a no-route drop."""
    config = ScenarioConfig(nodes=2, sim_time_s=seconds, speed_mps=0.0,
                            area_x=200.0, area_y=10.0, area_z=1.0)
    sim = Simulation(config, 1, initial_positions=[(0.0, 0.0, 0.0), (200.0, 0.0, 0.0)],
                     streams=[StreamSpec(0, 1, 0, us_from_s(seconds))], trace=trace)
    return sim.run()


def test_one_second_of_stream():
    result = run_stream(1.0, trace=True)
    times = [d.time_us for d in result.decisions if d.node == 0]
    assert result.sent == len(times) == 172  # grid starts at t=0
    assert times[0] == 0
    assert all(b - a == 5840 for a, b in zip(times, times[1:]))


def test_six_hundred_seconds_of_stream():
    result = run_stream(600.0)
    assert result.sent == result.drops["no_route"] == 102_740


def test_stream_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        StreamSpec(3, 3, 0, 1000)


def test_stream_rejects_sub_microsecond_interval():
    with pytest.raises(ValueError, match="less than 1 us apart"):
        StreamSpec(0, 1, 0, 1000, bitrate_bps=1e12)


def test_stream_rejects_an_interval_past_the_clock():
    # The interval overflows the us clock: a ValueError naming the field, as
    # for every other rejected StreamSpec.
    with pytest.raises(ValueError, match="bitrate_bps 1e-300 sends packets too far apart"):
        StreamSpec(0, 1, 0, 1000, bitrate_bps=1e-300)


def test_stream_accepts_packets_exactly_one_microsecond_apart():
    spec = StreamSpec(0, 1, 0, 1000, bitrate_bps=11.68e9, payload_bytes=1460)
    assert spec.interval_us == 1


@pytest.mark.parametrize("payload, message", [
    (0, "payload_bytes must be >= 1, got 0"),
    (1461, "payload_bytes must be <= 1460, got 1461"),
    (2000, "payload_bytes must be <= 1460, got 2000"),
])
def test_stream_rejects_payload_outside_one_to_the_mtu(payload, message):
    with pytest.raises(ValueError, match=message):
        StreamSpec(0, 1, 0, 1000, payload_bytes=payload)


@pytest.mark.parametrize("payload", [1, 1460])
def test_stream_accepts_payload_at_the_edges(payload):
    assert StreamSpec(0, 1, 0, 1000, payload_bytes=payload).payload_bytes == payload


@pytest.mark.parametrize("bitrate, message", [
    (0.0, "bitrate_bps must be > 0, got 0.0"),
    (-2e6, "bitrate_bps must be > 0, got -2000000.0"),
    (math.inf, "bitrate_bps must be finite, got inf"),
    (math.nan, "bitrate_bps must be finite, got nan"),
])
def test_stream_rejects_bitrate_not_finite_or_not_positive(bitrate, message):
    with pytest.raises(ValueError, match=message):
        StreamSpec(0, 1, 0, 1000, bitrate_bps=bitrate)


def test_endpoints_disjoint_and_deterministic():
    rng = random.Random(7)
    pairs = draw_endpoints(10, 3, rng)
    flat = [n for pair in pairs for n in pair]
    assert len(flat) == len(set(flat)) == 6
    assert pairs == draw_endpoints(10, 3, random.Random(7))
    with pytest.raises(ValueError):
        draw_endpoints(5, 3, rng)


def make_stats(window_s=1.0):
    return StreamStats(us_from_s(window_s))


def window_pdr(stats, idx):
    """The stream's current PDR in window idx, as pdr_series reports it."""
    return pdr_series([stats], stats.window_us, (idx + 1) * stats.window_us)[idx][3]


def test_current_pdr_plain_window():
    stats = make_stats()
    for k in range(171):
        stats.record_sent(1000 * k)
        stats.record_received(1000 * k + 500)
    assert window_pdr(stats, 0) == pytest.approx(1.0)


def test_current_pdr_exceeds_one_with_late_arrivals():
    stats = make_stats()
    # window 0: 171 sent, nothing received (stall)
    for k in range(171):
        stats.record_sent(k * 5840)
    # window 1: 171 sent, those received plus 9 late ones from window 0
    for k in range(171):
        t = us_from_s(1.0) + k * 5840
        stats.record_sent(t)
        stats.record_received(t)
    for k in range(9):
        stats.record_received(us_from_s(1.0) + k)
    assert window_pdr(stats, 1) == pytest.approx(180 / 171)
    assert window_pdr(stats, 1) > 1.0
    assert stats.received <= stats.sent


def test_current_pdr_absent_when_nothing_sent():
    stats = make_stats()
    stats.record_received(500_000)
    assert window_pdr(stats, 1) is None


def test_pdr_series_pools_streams_window_by_window():
    first, second = make_stats(), make_stats()
    first.record_sent(100)
    first.record_received(200)
    second.record_sent(300)
    second.record_sent(us_from_s(1.5))
    second.record_received(us_from_s(2.0))  # at the horizon: outside every window
    assert pdr_series([first, second], us_from_s(1.0), us_from_s(2.0)) == [
        (1.0, 2, 1, 0.5),
        (2.0, 1, 0, 0.0),
    ]
    assert pdr_series([], us_from_s(1.0), us_from_s(2.0)) == [(1.0, 0, 0, None), (2.0, 0, 0, None)]


def collected(*streams):
    """The run result of a streamless run whose accounting holds these streams."""
    sim = Simulation(ScenarioConfig(nodes=2, sim_time_s=3.0), 1, streams=[])
    sim.stats = list(streams)
    return sim._collect()


def test_overall_pdr_examples():
    first, second = make_stats(), make_stats()
    for k in range(60):
        first.record_sent(k)
    for k in range(40):
        second.record_sent(k)
    for k in range(90):
        (first if k < 55 else second).record_received(k + 200)
    assert collected(first, second).overall_pdr == pytest.approx(0.9)


def test_overall_pdr_zero_received():
    stats = make_stats()
    stats.record_sent(0)
    assert collected(stats).overall_pdr == 0.0


def test_overall_pdr_zero_without_sends():
    result = Simulation(ScenarioConfig(nodes=2, sim_time_s=1.0), 1, streams=[]).run()
    assert (result.sent, result.overall_pdr, result.mean_current_pdr) == (0, 0.0, 0.0)
    assert result.drops == dict.fromkeys(DROP_CAUSES, 0)  # every cause, even with no stream


def test_collect_sums_drops_per_cause():
    first, second = make_stats(), make_stats()
    first.record_drop("link")
    second.record_drop("link")
    second.record_drop("ttl")
    drops = collected(first, second).drops
    assert list(drops) == list(DROP_CAUSES)
    assert (drops["link"], drops["ttl"], sum(drops.values())) == (2, 1, 3)


def test_mean_current_pdr_ignores_absent_windows():
    stats = make_stats()
    stats.record_sent(us_from_s(0.5))
    stats.record_received(us_from_s(0.6))
    stats.record_sent(us_from_s(2.5))
    series = pdr_series([stats], stats.window_us, us_from_s(3.0))
    assert mean_current_pdr(series) == pytest.approx(0.5)
    assert collected(stats).mean_current_pdr == pytest.approx(0.5)


def test_conservation_counters():
    stats = make_stats()
    for k in range(10):
        stats.record_sent(k)
    for k in range(6):
        stats.record_received(k + 100)
    stats.record_drop("collision")
    stats.record_drop("queue")
    stats.record_drop("no_route")
    assert sum(stats.drops.values()) == 3
    assert stats.sent - stats.received - sum(stats.drops.values()) == 1  # one still in flight
    assert not collected(stats).conservation_ok  # no queued frame accounts for it
    stats.record_drop("ttl")
    assert collected(stats).conservation_ok
