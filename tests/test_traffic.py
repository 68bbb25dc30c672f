import random

import pytest

from manetsim.engine import us_from_s
from manetsim.traffic import (
    StreamSpec,
    StreamStats,
    confidence_interval,
    current_pdr,
    draw_endpoints,
    mean_current_pdr,
    overall_pdr,
    pdr_series,
    send_times_us,
)


def test_interval_is_exact_for_reference_stream():
    spec = StreamSpec(0, 1, 0, us_from_s(1.0))
    assert spec.interval_us == 5840  # 1460 B * 8 / 2 Mbit/s


def test_one_second_of_stream():
    spec = StreamSpec(0, 1, 0, us_from_s(1.0))
    times = list(send_times_us(spec))
    assert len(times) in (171, 172)
    assert len(times) == 172  # grid starts at t=0
    assert times[0] == 0
    assert all(b - a == 5840 for a, b in zip(times, times[1:]))


def test_six_hundred_seconds_of_stream():
    spec = StreamSpec(0, 1, 0, us_from_s(600.0))
    count = sum(1 for _ in send_times_us(spec))
    assert count == 102_740


def test_stream_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        StreamSpec(3, 3, 0, 1000)


def test_stream_rejects_sub_microsecond_interval():
    with pytest.raises(ValueError, match="less than 1 us apart"):
        StreamSpec(0, 1, 0, 1000, bitrate_bps=1e12)


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


def test_current_pdr_plain_window():
    stats = make_stats()
    for k in range(171):
        stats.record_sent(1000 * k)
        stats.record_received(1000 * k + 500)
    assert current_pdr(stats, 0) == pytest.approx(1.0)


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
    assert current_pdr(stats, 1) == pytest.approx(180 / 171)
    assert current_pdr(stats, 1) > 1.0
    assert overall_pdr(stats) <= 1.0


def test_current_pdr_absent_when_nothing_sent():
    stats = make_stats()
    stats.record_received(500_000)
    assert current_pdr(stats, 1) is None
    series = pdr_series(stats, us_from_s(2.0))
    assert series[1][3] is None


def test_overall_pdr_examples():
    stats = make_stats()
    for k in range(100):
        stats.record_sent(k)
    for k in range(90):
        stats.record_received(k + 200)
    assert overall_pdr(stats) == pytest.approx(0.9)


def test_overall_pdr_zero_received():
    stats = make_stats()
    stats.record_sent(0)
    assert overall_pdr(stats) == 0.0


def test_overall_pdr_undefined_without_sends():
    with pytest.raises(ValueError):
        overall_pdr(make_stats())


def test_mean_current_pdr_ignores_absent_windows():
    stats = make_stats()
    stats.record_sent(us_from_s(0.5))
    stats.record_received(us_from_s(0.6))
    stats.record_sent(us_from_s(2.5))
    assert mean_current_pdr(stats, us_from_s(3.0)) == pytest.approx(0.5)


def test_conservation_counters():
    stats = make_stats()
    for k in range(10):
        stats.record_sent(k)
    for k in range(6):
        stats.record_received(k + 100)
    stats.record_drop("collision")
    stats.record_drop("queue")
    stats.record_drop("no_route")
    assert stats.total_drops == 3
    assert stats.in_flight == 1
    assert stats.received + stats.total_drops + stats.in_flight == stats.sent


def test_confidence_interval_zero_variance():
    assert confidence_interval([0.8, 0.8, 0.8]) == pytest.approx((0.8, 0.8, 0.8))


def test_confidence_interval_two_samples_against_t_table():
    mean, lo, hi = confidence_interval([0.6, 0.8])
    assert mean == pytest.approx(0.7)
    # half-width = t(0.975, df=1) * s / sqrt(n) = 12.706 * 0.1414 / 1.414
    assert hi - mean == pytest.approx(1.2706, abs=1e-3)
    assert (lo, hi) == pytest.approx((-0.571, 1.971), abs=1e-3)


def test_confidence_interval_contains_mean():
    mean, lo, hi = confidence_interval([0.1, 0.5, 0.9, 0.4])
    assert lo <= mean <= hi


def test_confidence_interval_needs_two_samples():
    with pytest.raises(ValueError):
        confidence_interval([0.5])
