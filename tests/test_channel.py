import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim.channel import (
    ChannelParams,
    Frame,
    FrameKind,
    MacParams,
    Medium,
    airtime_s,
    airtime_us,
    max_range_m,
    path_loss_db,
    receivable,
)
from manetsim.config import ScenarioConfig
from manetsim.engine import Engine, us_from_s
from manetsim.simulation import Simulation

PARAMS = ChannelParams()
MAC = MacParams()


def bisect_max_range(params: ChannelParams) -> float:
    """Independent root-finder over the stated link budget equation."""

    def margin(d):
        loss = 10 * params.path_loss_exponent * math.log10(
            4 * math.pi * d * params.frequency_hz / 3e8
        )
        return params.tx_power_dbm - loss - params.sensitivity_dbm

    lo, hi = 0.1, 10_000.0
    assert margin(lo) > 0 > margin(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if margin(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def test_path_loss_reference_values():
    assert path_loss_db(10.0, PARAMS) == pytest.approx(82.56, abs=0.01)
    assert path_loss_db(100.0, PARAMS) == pytest.approx(110.06, abs=0.01)


def test_path_loss_strictly_increasing():
    distances = [0.5, 1, 5, 10, 25, 50, 100, 400]
    losses = [path_loss_db(d, PARAMS) for d in distances]
    assert losses == sorted(losses)
    assert len(set(losses)) == len(losses)


def test_path_loss_clamps_nonpositive_distance():
    assert path_loss_db(0.0, PARAMS) == path_loss_db(0.1, PARAMS)
    assert path_loss_db(-3.0, PARAMS) == path_loss_db(0.1, PARAMS)


def test_receivable_spot_checks():
    assert receivable(10.0, PARAMS) is True  # received -62.56 dBm
    assert receivable(100.0, PARAMS) is False  # received -90.06 dBm


def test_max_range_matches_independent_root_finder():
    target = bisect_max_range(PARAMS)
    assert max_range_m(PARAMS) == pytest.approx(target, abs=1e-6)
    assert target == pytest.approx(55.4, abs=0.5)
    # boundary behavior
    assert receivable(target - 0.01, PARAMS)
    assert not receivable(target + 0.01, PARAMS)


@given(st.floats(min_value=0.1, max_value=500.0), st.floats(min_value=0.1, max_value=500.0))
@settings(max_examples=100)
def test_reception_threshold_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    if receivable(hi, PARAMS):
        assert receivable(lo, PARAMS)


def test_airtime_reference_values():
    assert airtime_s(1460, MAC) == pytest.approx(508e-6, abs=1e-12)
    assert airtime_us(1460, MAC) == 508
    assert airtime_s(64, MAC) == pytest.approx(42.7e-6, abs=0.1e-6)


def test_airtime_linear_in_size():
    base = airtime_s(0, MAC)
    slope = (airtime_s(300, MAC) - airtime_s(200, MAC)) / 100
    for size in (10, 100, 1000, 1460):
        assert airtime_s(size, MAC) == pytest.approx(base + slope * size, rel=1e-12)


class Harness:
    """Static-position medium with delivery/loss collectors."""

    def __init__(self, positions, mac=MAC, channel=PARAMS, seed=0):
        self.engine = Engine(master_seed=seed)
        self.delivered = []
        self.lost = []
        self.medium = Medium(
            self.engine,
            list(positions),
            channel,
            mac,
            on_deliver=lambda node, frame: self.delivered.append((node, frame)),
            on_unicast_lost=lambda frame, cause: self.lost.append((frame, cause)),
        )

    def send(self, node, frame):
        return self.medium.enqueue(node, frame)

    def run(self, t_s=1.0):
        self.engine.run_until(us_from_s(t_s))


def data_frame(src, dst, size=1460):
    return Frame(kind=FrameKind.DATA, src=src, dst=dst, size_bytes=size,
                 prev_hop=src, next_hop=dst, packet_id=1)


def broadcast_frame(src, size=64):
    return Frame(kind=FrameKind.CONTROL, src=src, dst=None, size_bytes=size, prev_hop=src)


def test_single_transmission_delivered_in_range():
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0)])
    h.send(0, data_frame(0, 1))
    h.run()
    assert [(node, f.packet_id) for node, f in h.delivered] == [(1, 1)]
    assert h.lost == []


def test_out_of_range_receiver_never_delivered():
    h = Harness([(0.0, 0.0, 0.0), (80.0, 0.0, 0.0)])
    h.send(0, data_frame(0, 1))
    h.run()
    assert h.delivered == []
    assert [(f.packet_id, cause) for f, cause in h.lost] == [(1, "link")]


def test_overlapping_receptions_destroy_both():
    # Hidden terminals: 0 and 2 cannot hear each other (110 m apart) but both
    # reach node 1 in the middle; zero jitter forces the overlap.
    mac = MacParams(jitter_us=0)
    h = Harness([(0.0, 0.0, 0.0), (55.0, 0.0, 0.0), (110.0, 0.0, 0.0)], mac=mac)
    h.send(0, data_frame(0, 1))
    h.send(2, data_frame(2, 1))
    h.run()
    assert h.delivered == []
    assert sorted(cause for _, cause in h.lost) == ["collision", "collision"]


def test_carrier_sense_serializes_neighbors():
    # Both senders hear each other, so the second defers and both frames land.
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (15.0, 10.0, 0.0)])
    h.send(0, data_frame(0, 1))
    h.send(2, data_frame(2, 1, size=700))
    h.run()
    assert sorted(node for node, _ in h.delivered) == [1, 1]
    assert h.lost == []
    frames = sorted((f.tx_start_us, f.tx_end_us) for _, f in h.delivered)
    assert frames[0][1] <= frames[1][0]  # no overlap on the air


def test_broadcast_reaches_every_node_in_range():
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (50.0, 0.0, 0.0), (80.0, 0.0, 0.0)])
    h.send(0, broadcast_frame(0))
    h.run()
    assert sorted(node for node, _ in h.delivered) == [1, 2]


def test_queue_capacity_and_fifo_order():
    mac = MacParams(queue_capacity=50)
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0)], mac=mac)
    frames = [Frame(kind=FrameKind.DATA, src=0, dst=1, size_bytes=100,
                    prev_hop=0, next_hop=1, packet_id=i) for i in range(52)]
    accepted = [h.send(0, f) for f in frames]
    assert accepted == [True] * 50 + [False, False]
    assert h.medium.states[0].queue_drops == 2
    h.run(5.0)
    assert [f.packet_id for _, f in h.delivered] == list(range(50))


def test_no_frame_delivered_twice_per_transmission():
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (40.0, 0.0, 0.0)])
    h.send(0, broadcast_frame(0))
    h.run()
    receivers = [node for node, _ in h.delivered]
    assert len(receivers) == len(set(receivers))


def brute_force_neighbors(positions, range2):
    """Reference for Medium.refresh_neighbors: every ordered pair, checked directly."""
    return [
        [b for b, pb in enumerate(positions)
         if b != a and (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2 + (pa[2] - pb[2]) ** 2 <= range2]
        for a, pa in enumerate(positions)
    ]


def assert_cache_matches(medium):
    expected = brute_force_neighbors(medium.positions, medium.range2)
    assert medium.neighbors == expected
    assert medium.neighbor_sets == [set(near) for near in expected]
    for a, near in enumerate(medium.neighbors):
        assert a not in near
        assert near == sorted(near)
        assert all(a in medium.neighbors[b] for b in near)


coordinate = st.sampled_from([0.0, 10.0, 27.7, 55.4]) | st.floats(0.0, 150.0)


@given(st.lists(st.tuples(coordinate, coordinate, st.floats(0.0, 10.0)), max_size=14),
       st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_neighbor_cache_equals_brute_force(extra, rnd):
    r = max_range_m(PARAMS)
    # Always present: a pair exactly max_range_m apart and a co-located pair.
    positions = [(0.0, 0.0, 0.0), (r, 0.0, 0.0), (0.0, 0.0, 0.0), *extra]
    rnd.shuffle(positions)
    h = Harness(positions)
    assert_cache_matches(h.medium)
    edge = [i for i, p in enumerate(positions) if p == (r, 0.0, 0.0)][0]
    origin = [i for i, p in enumerate(positions) if p == (0.0, 0.0, 0.0)]
    assert all(i in h.medium.neighbor_sets[edge] for i in origin)
    assert origin[1] in h.medium.neighbor_sets[origin[0]]


def test_neighbor_cache_follows_moving_nodes():
    config = ScenarioConfig(nodes=20, area_x=150.0, area_y=150.0, speed_mps=20.0,
                            sim_time_s=3.0, stream_start_s=1.0)
    sim = Simulation(config, 5)
    start = [list(near) for near in sim.medium.neighbors]
    sim.run()
    assert sim.histories[0].last()[0] == sim.end_us  # a mobility tick fired at the very end
    assert_cache_matches(sim.medium)
    assert sim.medium.neighbors != start
