import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from linkbudget import path_loss_db, receivable

from manetsim.channel import Frame, Medium, airtime_s, airtime_us, max_range_m
from manetsim.config import ConfigError, ScenarioConfig, validate
from manetsim.engine import Engine, EventKind, us_from_s
from manetsim.simulation import Simulation

PARAMS = ScenarioConfig()


def bisect_max_range(params: ScenarioConfig) -> float:
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


@given(st.floats(-50.0, 60.0), st.floats(-150.0, 50.0),
       st.floats(2.0, 8.0, exclude_min=True), st.floats(1e3, 1e12))
@settings(max_examples=200)
def test_max_range_is_the_reception_threshold_of_any_accepted_link_budget(
        tx_power_dbm, sensitivity_dbm, path_loss_exponent, frequency_hz):
    params = ScenarioConfig(tx_power_dbm=tx_power_dbm, sensitivity_dbm=sensitivity_dbm,
                            path_loss_exponent=path_loss_exponent, frequency_hz=frequency_hz)
    try:
        validate(params)
    except ConfigError:
        assume(False)
    r = max_range_m(params)
    assert receivable(r * (1 - 1e-9), params)
    assert not receivable(r * (1 + 1e-9), params)


def test_airtime_reference_values():
    assert airtime_s(1460, PARAMS) == pytest.approx(508e-6, abs=1e-12)
    assert airtime_us(1460, PARAMS) == 508
    assert airtime_s(64, PARAMS) == pytest.approx(42.7e-6, abs=0.1e-6)


def test_airtime_linear_in_size():
    base = airtime_s(0, PARAMS)
    slope = (airtime_s(300, PARAMS) - airtime_s(200, PARAMS)) / 100
    for size in (10, 100, 1000, 1460):
        assert airtime_s(size, PARAMS) == pytest.approx(base + slope * size, rel=1e-12)


class Harness:
    """Static-position medium with delivery/loss collectors."""

    def __init__(self, positions, config=PARAMS, seed=0):
        self.engine = Engine(master_seed=seed)
        self.deliveries = []  # one (receivers, frame) per delivery call
        self.delivered = []
        self.delivered_at_us = []  # engine clock at each delivery: the frame's tx end
        self.lost = []
        self.medium = Medium(
            self.engine,
            list(positions),
            config,
            on_deliver=self._deliver,
            on_unicast_lost=lambda frame, cause: self.lost.append((frame, cause)),
        )

    def _deliver(self, receivers, frame):
        self.deliveries.append((list(receivers), frame))
        for node in receivers:
            self.delivered.append((node, frame))
            self.delivered_at_us.append(self.engine.clock_us)

    def send(self, node, frame):
        return self.medium.enqueue(node, frame)

    def run(self, t_s=1.0):
        self.engine.run_until(us_from_s(t_s))


def data_frame(src, dst, size=1460):
    return Frame(dst=dst, size_bytes=size, prev_hop=src, next_hop=dst, packet_id=1)


def broadcast_frame(src, size=64):
    return Frame(dst=None, size_bytes=size, prev_hop=src)


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
    config = ScenarioConfig(mac_jitter_us=0)
    h = Harness([(0.0, 0.0, 0.0), (55.0, 0.0, 0.0), (110.0, 0.0, 0.0)], config=config)
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
    on_air = sorted((end - airtime_us(f.size_bytes, PARAMS), end)
                    for end, (_, f) in zip(h.delivered_at_us, h.delivered))
    assert on_air[0][1] <= on_air[1][0]  # no overlap on the air


def test_broadcast_reaches_every_node_in_range():
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (50.0, 0.0, 0.0), (80.0, 0.0, 0.0)])
    h.send(0, broadcast_frame(0))
    h.run()
    assert sorted(node for node, _ in h.delivered) == [1, 2]


def test_queue_capacity_and_fifo_order():
    config = ScenarioConfig(queue_capacity=50)
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0)], config=config)
    frames = [Frame(dst=1, size_bytes=100, prev_hop=0, next_hop=1, packet_id=i)
              for i in range(52)]
    accepted = [h.send(0, f) for f in frames]
    assert accepted == [True] * 50 + [False, False]
    assert h.medium.states[0].queue_drops == 2
    h.run(5.0)
    assert [f.packet_id for _, f in h.delivered] == list(range(50))


def test_a_frame_with_a_next_hop_is_data_and_a_broadcast_is_control():
    # The medium tells the two apart by the next hop alone, queued, on the
    # air and sent.
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0)], config=NO_JITTER)
    data, broadcast = data_frame(0, 1), broadcast_frame(1)
    h.send(0, data)
    h.send(1, broadcast)
    assert h.medium.queued_data_frames() == [data]
    h.engine.run_until(1)  # 0 is on the air and 1 defers
    assert list(h.medium.on_air) == [0]
    assert h.medium.queued_data_frames() == [data]
    assert (h.medium.data_tx, h.medium.control_tx) == (1, 0)
    h.run()
    assert h.medium.queued_data_frames() == []
    assert (h.medium.data_tx, h.medium.control_tx) == (1, 1)
    assert h.deliveries == [([1], data), ([0], broadcast)]


def test_no_frame_delivered_twice_per_transmission():
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (40.0, 0.0, 0.0)])
    h.send(0, broadcast_frame(0))
    h.run()
    receivers = [node for node, _ in h.delivered]
    assert len(receivers) == len(set(receivers))


def test_broadcast_delivered_once_to_its_clean_receivers_ascending():
    # Node 4 is hidden from 0 and reaches only 2, so 2 loses 0's broadcast.
    config = ScenarioConfig(mac_jitter_us=0)
    positions = [(0.0, 0.0, 0.0), (20.0, 0.0, 0.0), (40.0, 0.0, 0.0), (10.0, 20.0, 0.0),
                 (90.0, 0.0, 0.0)]
    h = Harness(positions, config=config)
    frame = broadcast_frame(0)
    h.send(0, frame)
    h.send(4, broadcast_frame(4))
    h.run()
    assert h.deliveries == [([1, 3], frame)]


def test_unicast_delivered_to_the_addressed_hop_only():
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (20.0, 10.0, 0.0)])
    frame = data_frame(0, 1)
    h.send(0, frame)
    h.run()
    assert h.deliveries == [([1], frame)]
    assert h.lost == []


def test_lost_unicast_reaches_only_the_loss_callback():
    # 3 hears 0's frame cleanly but is not addressed; hidden node 2 jams 1.
    config = ScenarioConfig(mac_jitter_us=0)
    h = Harness([(0.0, 0.0, 0.0), (50.0, 0.0, 0.0), (100.0, 0.0, 0.0), (-20.0, 0.0, 0.0)],
                config=config)
    frame = data_frame(0, 1)
    h.send(0, frame)
    h.send(2, broadcast_frame(2))
    h.run()
    assert h.deliveries == []
    assert h.lost == [(frame, "collision")]


# -- reception bookkeeping edges ----------------------------------------------
# Three senders 50 m from receiver 0 at 120-degree spacing, 86.6 m from one
# another: each reaches 0, none hears the others.
STAR = [(0.0, 0.0, 0.0), (50.0, 0.0, 0.0), (-25.0, 43.3, 0.0), (-25.0, -43.3, 0.0)]
NO_JITTER = ScenarioConfig(mac_jitter_us=0)
T_FULL = airtime_us(1460, NO_JITTER)


def send_at(h, t_us, node, frame):
    h.engine.schedule(t_us, EventKind.CALLBACK, lambda: h.send(node, frame))


def star_unicasts(starts):
    """Harness for STAR where sender i + 1 unicasts a full frame to 0 at starts[i]."""
    h = Harness(STAR, config=NO_JITTER)
    frames = []
    for i, t_us in enumerate(starts):
        frame = data_frame(i + 1, 0)
        frame.packet_id = i + 1
        frames.append(frame)
        send_at(h, t_us, i + 1, frame)
    return h, frames


def test_reception_ending_as_another_starts_is_delivered():
    # 1 <-> 2 <-> 3 in a row, 0 hidden from 2 and 3, 3 hidden from 1. Node 2
    # defers on 3's frame until it ends, while 0's shorter frame, timed to end
    # then too, is still registered at 1: the two touch at 1 and do not overlap.
    h = Harness([(0.0, 0.0, 0.0), (50.0, 0.0, 0.0), (100.0, 0.0, 0.0), (140.0, 0.0, 0.0)],
                config=NO_JITTER)
    h.send(3, broadcast_frame(3, size=1460))
    h.send(2, data_frame(2, 1))
    first = data_frame(0, 1, size=100)
    send_at(h, T_FULL - airtime_us(100, NO_JITTER), 0, first)
    h.run()
    assert [(node, f.prev_hop) for node, f in h.delivered] == [(2, 3), (1, 0), (1, 2)]
    assert h.delivered_at_us[1] == T_FULL
    assert h.lost == []


def test_chain_of_receptions_overlapping_pairwise_loses_all_three():
    # The third overlaps only the second, after the first has ended.
    h, frames = star_unicasts([0, T_FULL // 2, T_FULL + T_FULL // 4])
    h.run()
    assert h.delivered == []
    assert h.lost == [(f, "collision") for f in frames]


def test_reception_after_a_collided_pair_is_delivered():
    h, frames = star_unicasts([0, T_FULL // 2, 2 * T_FULL])
    h.run()
    assert h.deliveries == [([0], frames[2])]
    assert h.lost == [(f, "collision") for f in frames[:2]]


def test_hidden_broadcasts_lose_only_the_shared_receiver():
    # 0 and 2 are hidden from each other; 1 hears both, 3 only 0, 4 only 2.
    h = Harness([(0.0, 0.0, 0.0), (50.0, 0.0, 0.0), (100.0, 0.0, 0.0), (-40.0, 0.0, 0.0),
                 (140.0, 0.0, 0.0)], config=NO_JITTER)
    first, second = broadcast_frame(0), broadcast_frame(2)
    h.send(0, first)
    h.send(2, second)
    h.run()
    assert h.deliveries == [([3], first), ([4], second)]


def test_carrier_sense_follows_a_topology_change_inside_an_airtime():
    # A's full frame is on the air when B moves out of its range and C into it.
    # B's reception clock still runs to A's end and C's never saw A, so each
    # must sense the senders it hears now. D's short frame, far from all, is
    # also on the air then and ends first: sensing must scan until A's end.
    a, b, c, d = range(4)
    h = Harness([(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (100.0, 0.0, 0.0), (300.0, 0.0, 0.0)],
                config=NO_JITTER)
    h.send(a, broadcast_frame(a, size=1460))
    h.send(d, broadcast_frame(d))

    def swap_b_and_c():
        positions = h.medium.positions
        positions[b], positions[c] = positions[c], positions[b]
        h.medium.refresh_neighbors()

    h.engine.schedule(10, EventKind.CALLBACK, swap_b_and_c)
    send_at(h, 100, b, broadcast_frame(b))
    send_at(h, 100, c, broadcast_frame(c))
    short = airtime_us(64, NO_JITTER)
    assert short < 100 < T_FULL
    h.engine.run_until(100)
    assert h.medium.neighbors == [[c], [], [a], []]
    # B hears no one and transmits at once; C defers to A's end.
    assert {n: end for n, (end, _) in h.medium.on_air.items()} == {a: T_FULL, b: 100 + short}
    h.engine.run_until(T_FULL)
    assert {n: end for n, (end, _) in h.medium.on_air.items()} == {c: T_FULL + short}


def test_delivered_receiver_list_belongs_to_the_callback():
    seen = []

    def mutate(receivers, frame):
        seen.append(list(receivers))
        receivers.clear()
        receivers.append(99)

    engine = Engine(master_seed=0)
    medium = Medium(engine, [(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (40.0, 0.0, 0.0)], PARAMS,
                    on_deliver=mutate, on_unicast_lost=lambda frame, cause: None)
    medium.enqueue(0, broadcast_frame(0))
    medium.enqueue(0, broadcast_frame(0))
    engine.run_until(us_from_s(1.0))
    assert seen == [[1, 2], [1, 2]]
    assert medium.neighbors[0] == [1, 2]


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
    assert all(i in h.medium.neighbors[edge] for i in origin)
    assert origin[1] in h.medium.neighbors[origin[0]]


# One tick's moves: (node pick, offset in units of a tick's travel) steps
# and (node pick, point) teleports; a pick is taken modulo the node count.
UNIT = st.floats(-1.0, 1.0)
MOVE = (st.tuples(st.integers(0, 63), st.tuples(UNIT, UNIT, UNIT), st.none())
        | st.tuples(st.integers(0, 63), st.none(), st.tuples(coordinate, coordinate, coordinate)))


@given(st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 30.0),
       st.floats(0.0, 0.4),
       st.lists(st.tuples(coordinate, coordinate, st.floats(0.0, 10.0)), max_size=10),
       st.lists(st.lists(MOVE, max_size=6), max_size=12))
@settings(max_examples=150, deadline=None)
def test_verlet_lists_equal_brute_force_and_keep_an_unchanged_topology(speed, gap, extra, ticks):
    # Speeds of 0 and 1e-9 m/s leave only the skin's floor. Nodes 0 and 1 are
    # co-located; node 2 starts just out of node 0's range and, at the first
    # tick, steps less than the floor to exactly max_range_m from it.
    config = ScenarioConfig(speed_mps=speed)
    r = max_range_m(config)
    h = Harness([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (r + gap, 0.0, 0.0), *extra], config=config)
    medium, positions = h.medium, h.medium.positions
    assert_cache_matches(medium)
    step_m = speed * config.mobility_update_s + 0.25  # so that nodes at rest still move

    def tick(number, moves):
        for pick, offset, point in moves:
            node = pick % len(positions)
            if offset is not None:
                x, y, z = positions[node]
                point = (x + offset[0] * step_m, y + offset[1] * step_m, z + offset[2] * step_m)
            positions[node] = point
        # Frames on the air, so that a scan_until set by this tick differs from the last.
        medium.on_air = {node: (1000 * number + node, None) for node in range(number % 3)}
        before, scan_before = medium.neighbors, medium.scan_until
        changed = brute_force_neighbors(positions, medium.range2) != before
        medium.refresh_neighbors()
        assert_cache_matches(medium)
        if changed:
            assert medium.scan_until == max([t_end for t_end, _ in medium.on_air.values()],
                                            default=0)
        else:
            assert medium.neighbors is before
            assert medium.scan_until == scan_before

    tick(0, [(2, None, (r, 0.0, 0.0))])
    assert 2 in medium.neighbors[0]
    for number, moves in enumerate(ticks, 1):
        tick(number, moves)
    # A teleport far longer than any skin, then onto node 0.
    far = len(positions) - 1
    tick(len(ticks) + 1, [(far, None, (1e3, 1e3, 10.0))])
    tick(len(ticks) + 2, [(far, None, positions[0])])
    assert 0 in medium.neighbors[far]


@pytest.mark.parametrize("speed", [0.0, 2.0, 13.889, 30.0])
def test_verlet_lists_follow_two_nodes_closing_head_on(speed):
    # Each tick both nodes cover a tick's travel (at least 0.25 m) toward
    # each other, from a start that no skin reaches, until they pass.
    config = ScenarioConfig(speed_mps=speed)
    step_m = max(speed * config.mobility_update_s, 0.25)
    start = 2 * max_range_m(config)
    h = Harness([(0.0, 0.0, 0.0), (start, 0.0, 0.0)], config=config)
    positions, seen = h.medium.positions, []
    while positions[0][0] < positions[1][0]:
        positions[0] = (positions[0][0] + step_m, 0.0, 0.0)
        positions[1] = (positions[1][0] - step_m, 0.0, 0.0)
        h.medium.refresh_neighbors()
        assert_cache_matches(h.medium)
        seen.append(bool(h.medium.neighbors[0]))
    assert seen[0] is False and seen[-1] is True


def test_neighbor_cache_follows_moving_nodes():
    # batmobile, so that the position window shows when the ticks fired.
    config = ScenarioConfig(nodes=20, area_x=150.0, area_y=150.0, speed_mps=20.0,
                            sim_time_s=3.0, stream_start_s=1.0, protocol="batmobile")
    sim = Simulation(config, 5)
    start = [list(near) for near in sim.medium.neighbors]
    sim.run()
    assert sim.history[-1][0] == sim.end_us  # a mobility tick fired at the very end
    assert_cache_matches(sim.medium)
    assert sim.medium.neighbors != start


# -- brute-force medium oracle --------------------------------------------------
# A topology, a schedule of enqueues with zero jitter, and at most one move of
# the nodes. The reference reads each transmission's start and end from the
# engine's heap, replays carrier sense for every start with the neighbours in
# force at that instant, and decides each receiver's outcome by half-open
# overlap against every other transmission that reached the node. A
# transmission reaches the sender's neighbours at its start. An attempt senses
# a transmission that starts in its own microsecond only if that start ran
# first: the harness records the order in which attempts ran.


def checked_harness(positions, schedule, move=None):
    """Harness that enqueues ``schedule``'s (t_us, node, frame) entries, and
    after every event records each transmission that starts and checks the
    pending-attempt invariant: an idle node with a non-empty queue has exactly
    one attempt pending, and a transmitting node has none. It also records each
    attempt as (t_us, node) in the order the attempts ran. A ``move``, (t_us,
    positions), puts the nodes there at t_us, before any attempt or arrival
    at that time, as a mobility tick does."""
    h = Harness(positions, config=NO_JITTER)
    if move is not None:
        t_us, moved = move

        def relocate():
            h.medium.positions[:] = moved
            h.medium.refresh_neighbors()

        h.engine.schedule(t_us, EventKind.CALLBACK, relocate)
    for t_us, node, frame in schedule:
        send_at(h, t_us, node, frame)
    h.calls, h.losses = [], []  # (end_us, packet_id, receivers or cause)
    h.medium.on_deliver = lambda receivers, frame: h.calls.append(
        (h.engine.clock_us, frame.packet_id, list(receivers)))
    h.medium.on_unicast_lost = lambda frame, cause: h.losses.append(
        (h.engine.clock_us, frame.packet_id, cause))
    heap = h.engine._heap
    h.starts = []  # (node, start_us, end_us) in start order
    h.attempts = []  # (t_us, node) in the order the attempts ran
    seen = set()

    def check():
        attempts = [0] * len(positions)
        airing = [0] * len(positions)
        for t_us, seq, kind, payload in heap:
            if kind is EventKind.TX_ATTEMPT:
                attempts[payload] += 1
            elif kind is EventKind.PACKET_ARRIVAL:
                airing[payload[0]] += 1
                if seq not in seen:
                    seen.add(seq)
                    h.starts.append((payload[0], h.engine.clock_us, t_us))
        for node, mac in enumerate(h.medium.states):
            idle_with_work = not airing[node] and bool(mac.queue)
            assert airing[node] <= 1 and attempts[node] == idle_with_work, (node, h.engine.clock_us)

    def checked(kind, handler):
        def run(payload):
            if kind is EventKind.TX_ATTEMPT:
                h.attempts.append((h.engine.clock_us, payload))
            handler(payload)
            check()
        return run

    handlers = h.engine._handlers
    for kind in list(handlers):
        handlers[kind] = checked(kind, handlers[kind])
    return h


def reference_outcomes(positions, schedule, starts, attempts, move=None):
    """What the medium must deliver and lose, given the observed transmissions
    and the order in which attempts ran.

    Checks on the way that each start is the one carrier sense gives: a node's
    k-th frame is ready at its enqueue or at the node's previous end, whichever
    is later, and starts at the first moment after that when no node it hears
    then is on the air. A transmission that starts at that very moment counts
    only if its attempt ran before the node's own: the medium cannot sense a
    start that has not run yet. Returns (end_us, packet_id, receivers) per
    delivery call and (end_us, packet_id, cause) per lost unicast, sorted.
    """
    range2 = max_range_m(NO_JITTER) ** 2
    before = brute_force_neighbors(positions, range2)
    after = before if move is None else brute_force_neighbors(move[1], range2)

    def hears_at(t_us):
        return before if move is None or t_us < move[0] else after

    ran = {attempt: order for order, attempt in enumerate(attempts)}

    def sensed(node, t_us, sender, start, end):
        if sender not in hears_at(t_us)[node] or not start <= t_us < end:
            return False
        if start < t_us:
            return True
        assert (t_us, node) in ran, ("no attempt", node, t_us)
        return ran[(start, sender)] < ran[(t_us, node)]

    frames_of = [[] for _ in positions]
    for t_us, node, frame in sorted(schedule, key=lambda entry: entry[0]):
        frames_of[node].append((t_us, frame))
    starts_of = [[(s, e) for n, s, e in starts if n == node] for node in range(len(positions))]
    txs = []  # (sender, start, end, frame)
    for node, frames in enumerate(frames_of):
        assert len(starts_of[node]) == len(frames)
        previous_end = 0
        for (queued_us, frame), (start, end) in zip(frames, starts_of[node]):
            t = max(queued_us, previous_end)
            while True:
                busy = [e for n, s, e in starts if sensed(node, t, n, s, e)]
                if not busy:
                    break
                t = max(busy)
            assert (start, end) == (t, t + airtime_us(frame.size_bytes, NO_JITTER)), node
            txs.append((node, start, end, frame))
            previous_end = end
    delivered, lost = [], []
    for sender, start, end, frame in txs:
        receivers = hears_at(start)[sender]
        clean = [r for r in receivers
                 if not any(r in hears_at(s)[n] and s < end and start < e
                            for n, s, e, f in txs if f is not frame)]
        hop = frame.next_hop
        if hop is None:
            if clean:
                delivered.append((end, frame.packet_id, clean))
        elif hop in clean:
            delivered.append((end, frame.packet_id, [hop]))
        else:
            lost.append((end, frame.packet_id, "collision" if hop in receivers else "link"))
    return sorted(delivered), sorted(lost)


# 30 m grid steps: neighbours, diagonal neighbours and two-step hidden
# terminals are all common at a ~55 m range.
_COORDINATE = st.sampled_from([0.0, 30.0, 60.0, 90.0]) | st.floats(0.0, 100.0)
_ENQUEUE = st.tuples(
    st.sampled_from([0, 43, 77, 508]) | st.integers(0, 1000),  # enqueue time, us
    st.integers(0, 7),  # sender, modulo the node count
    st.sampled_from([64, 100, 1460]) | st.integers(1, 1460),  # frame size
    st.none() | st.integers(0, 6),  # unicast hop among the other nodes; None = broadcast
)


@st.composite
def medium_schedules(draw):
    n, count = draw(st.integers(2, 8)), draw(st.integers(1, 12))
    positions = [(x, y, 0.0) for x, y in draw(
        st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=n, max_size=n))]
    schedule = []
    for packet_id, (t_us, node, size, hop) in enumerate(
            draw(st.lists(_ENQUEUE, min_size=count, max_size=count))):
        node %= n
        if hop is None:
            frame = broadcast_frame(node, size)
        else:
            hop %= n - 1
            frame = data_frame(node, hop + (hop >= node), size)
        frame.packet_id = packet_id
        schedule.append((t_us, node, frame))
    return positions, schedule


@given(medium_schedules())
@settings(max_examples=200, deadline=None)
def test_medium_equals_brute_force_reference(case):
    positions, schedule = case
    h = checked_harness(positions, schedule)
    h.run(1.0)
    assert not h.engine._heap
    assert (sorted(h.calls), sorted(h.losses)) == reference_outcomes(
        positions, schedule, h.starts, h.attempts)


@st.composite
def moving_medium_schedules(draw):
    """A medium schedule and one move at a drawn time, mostly while frames are
    on the air: each node keeps its place or lands anywhere, so senders move
    into and out of range of their neighbours."""
    positions, schedule = draw(medium_schedules())
    t_us = draw(st.sampled_from([1, 100, 300, 508, 600]) | st.integers(1, 3000))
    moved = [old if stays else (x, y, 0.0) for old, (stays, x, y) in zip(positions, draw(
        st.lists(st.tuples(st.booleans(), _COORDINATE, _COORDINATE),
                 min_size=len(positions), max_size=len(positions))))]
    return positions, schedule, (t_us, moved)


def numbered_broadcasts(sends):
    """Schedule entries for (t_us, node, size) broadcasts, numbered in order."""
    schedule = []
    for packet_id, (t_us, node, size) in enumerate(sends):
        frame = broadcast_frame(node, size)
        frame.packet_id = packet_id
        schedule.append((t_us, node, frame))
    return schedule


ORIGIN = (0.0, 0.0, 0.0)


@given(moving_medium_schedules())
@settings(max_examples=200, deadline=None)
# Two ties in one microsecond, each left unsensed and then out of range: a
# node's attempt defers on frames it hears while a frame it cannot have
# sensed starts in the same microsecond, after it; the move then leaves the
# node hearing no one when it wakes, so it starts before that frame ends.
# Node 1 defers at 594 us on node 2's frame, not on node 0's, which starts
# later at 594, and starts at 1016.
@example((
    [(0.0, 90.0, 0.0), (0.0, 60.0, 0.0), (0.0, 30.0, 0.0), ORIGIN, ORIGIN, ORIGIN],
    numbered_broadcasts([(0, 1, 193), (0, 1, 64)] + [(0, 0, 1460)] * 9 + [(508, 2, 1460)]),
    (600, [ORIGIN, (0.0, 60.0, 0.0), ORIGIN, ORIGIN, ORIGIN, ORIGIN]),
))
# Node 3 defers at 564 us on node 6's frame, not on node 2's, which starts
# later at 564, and starts at 606.
@example((
    [ORIGIN, ORIGIN, (30.0, 48.0, 0.0), (56.0, 0.0, 0.0), ORIGIN, ORIGIN, (1.0, 0.0, 0.0)],
    numbered_broadcasts([(0, 3, 1460), (0, 6, 64), (0, 2, 103), (0, 2, 64), (0, 3, 64),
                         (0, 6, 100)]),
    (600, [ORIGIN, ORIGIN, ORIGIN, (56.0, 0.0, 0.0), ORIGIN, ORIGIN, ORIGIN]),
))
def test_medium_equals_brute_force_reference_across_a_topology_change(case):
    positions, schedule, move = case
    h = checked_harness(positions, schedule, move)
    h.run(1.0)
    assert not h.engine._heap
    assert (sorted(h.calls), sorted(h.losses)) == reference_outcomes(
        positions, schedule, h.starts, h.attempts, move)


# -- each transmission's clean receivers ---------------------------------------
# Four nodes in a row, 50 m apart: A reaches R, R reaches A and B, B reaches R
# and C, C reaches B. A and B are hidden from each other, as are R and C.
ROW = [(0.0, 0.0, 0.0), (50.0, 0.0, 0.0), (100.0, 0.0, 0.0), (150.0, 0.0, 0.0)]
A, R, B, C = range(4)


@pytest.mark.parametrize("attempt_first", [True, False])
def test_a_start_on_the_microsecond_a_reception_ends_reaches_that_receiver(attempt_first):
    # A's frame reaches R until T_FULL. B defers on C's frame of the same
    # length and starts at T_FULL, the microsecond A's arrival runs at R, with
    # its attempt ordered before or after that arrival by the order in which
    # the three first attempts were queued.
    h = Harness(ROW, config=NO_JITTER)
    frames = {node: broadcast_frame(node, size=1460) for node in (A, B, C)}
    for node in ((C, B, A) if attempt_first else (A, C, B)):
        h.send(node, frames[node])
    at_t_full = []

    def recording(kind, handler):
        def step(payload):
            if h.engine.clock_us == T_FULL:
                at_t_full.append((kind, payload if kind is EventKind.TX_ATTEMPT else payload[0]))
            handler(payload)
        return step

    h.engine._handlers = {kind: recording(kind, handler)
                          for kind, handler in h.engine._handlers.items()}
    h.run()
    attempt, arrival = (EventKind.TX_ATTEMPT, B), (EventKind.PACKET_ARRIVAL, A)
    assert (at_t_full.index(attempt) < at_t_full.index(arrival)) == attempt_first
    assert sorted((id(f), r) for r, f in h.deliveries) == sorted(
        [(id(frames[A]), [R]), (id(frames[C]), [B]), (id(frames[B]), [R, C])])
    assert h.lost == []


def test_an_overlap_deletes_exactly_the_hit_receiver_from_the_earlier_frame():
    # R broadcasts to A and B. C, hidden from R, starts mid-airtime and hits
    # B alone: R's clean receivers lose B and keep A, and C's frame reaches
    # no one cleanly.
    schedule = [(0, R, broadcast_frame(R, size=1460)), (T_FULL // 2, C, broadcast_frame(C))]
    for packet_id, (_, _, frame) in enumerate(schedule):
        frame.packet_id = packet_id
    h = checked_harness(ROW, schedule)
    h.engine.run_until(T_FULL // 2 - 1)
    [(_, _, _, (sender, receivers, clean))] = [
        entry for entry in h.engine._heap if entry[2] is EventKind.PACKET_ARRIVAL]
    assert (sender, receivers, list(clean)) == (R, [A, B], [A, B])
    h.engine.run_until(T_FULL // 2)  # C starts
    assert list(clean) == [A]
    h.run(1.0)
    assert h.calls == [(T_FULL, 0, [A])]
    assert (sorted(h.calls), sorted(h.losses)) == reference_outcomes(
        ROW, schedule, h.starts, h.attempts)
