import copy
import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manetsim import config as config_module
from manetsim.balancer import DropReason, best_forwarder, plain_forward
from manetsim.channel import Frame, max_range_m
from manetsim.config import ScenarioConfig
from manetsim.engine import left_sum
from manetsim.mobility import distance
from manetsim.routing import (
    PROTOCOLS,
    BatmanProtocol,
    BatmobileProtocol,
    ControlKind,
    ControlMessage,
    GeoOlsrProtocol,
    TQWindow,
    _index_sum_sq,
    geo_score,
)
from manetsim.simulation import Simulation

DIAG = math.sqrt(500**2 + 500**2 + 10**2)


# -- reference path scores ---------------------------------------------------
# What a chain of receive() calls must carry to its end; the chain tests below
# compare the flooded ranking scores with them. pathscore_link is also the
# per-copy reference for batmobile's link score.

def tq_path_score(link_qualities: list[float], hop_penalty: float = 0.95) -> float:
    """Product of link qualities with a penalty per hop beyond the first."""
    score = 1.0
    for quality in link_qualities:
        score *= quality
    if len(link_qualities) > 1:
        score *= hop_penalty ** (len(link_qualities) - 1)
    return score


def pathscore_link(
    own_pos,
    own_predicted,
    neighbor_pos,
    neighbor_predicted,
    comm_range_m: float,
    prediction_weight: int = 7,
    weight_scale: int = 8,
) -> float:
    """Single-link score mixing current and predicted normalized distances: the
    per-copy form of what BatmobileProtocol.score_all computes for a frame."""
    d_now = distance(own_pos, neighbor_pos)
    s_now = min(1.0, max(0.0, 1.0 - d_now / comm_range_m))
    d_pred = distance(own_predicted, neighbor_predicted)
    s_pred = min(1.0, max(0.0, 1.0 - d_pred / comm_range_m))
    return (prediction_weight * s_pred + (weight_scale - prediction_weight) * s_now) / weight_scale


def pathscore_path(link_scores: list[float]) -> float:
    """Total path score is the product of its link scores; empty paths score 1."""
    total = 1.0
    for score in link_scores:
        total *= score
    return total


# -- transmission-quality metric ------------------------------------------

def test_tq_window_counts_hits_over_eight_slots():
    window = TQWindow()
    for seq in (0, 1, 2, 4, 5, 7):  # 6 of the last 8 opportunities heard
        window.update(seq)
    assert window.quality == pytest.approx(0.75)


def test_tq_window_slides_out_old_bits():
    window = TQWindow()
    window.update(0)
    assert window.quality == pytest.approx(1 / 8)
    window.update(20)  # long gap clears the previous bit
    assert window.quality == pytest.approx(1 / 8)


# Seqs drawn in any order from a range wider than the window: stale and
# duplicate seqs, and gaps of a whole window or more, are all common.
@given(st.integers(1, 8), st.lists(st.integers(0, 40), max_size=30))
@example(8, [3, 3, 1, 12, 20])  # a duplicate, a stale seq, a gap of 9 and one of exactly 8
@settings(max_examples=200)
def test_stored_quality_is_always_the_share_of_slots_heard(length, seqs):
    window = TQWindow(length)
    assert window.quality == 0.0
    for seq in seqs:
        window.update(seq)
        assert window.quality == window.bits.bit_count() / window.length


def test_tq_single_hop_has_no_penalty():
    assert tq_path_score([0.75]) == pytest.approx(0.75)


def test_tq_two_perfect_links():
    assert tq_path_score([1.0, 1.0]) == pytest.approx(0.95)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
@settings(max_examples=100)
def test_tq_score_bounded(qualities):
    assert 0.0 <= tq_path_score(qualities) <= 1.0


# -- geographic metric -----------------------------------------------------

def test_geo_score_colocated_is_one():
    assert geo_score((10.0, 10.0, 0.0), (10.0, 10.0, 0.0), DIAG) == 1.0


def test_geo_score_at_diagonal_hits_floor():
    assert geo_score((0.0, 0.0, 0.0), (500.0, 500.0, 10.0), DIAG) == pytest.approx(1e-6)


def test_geo_score_strictly_decreasing_in_distance():
    scores = [geo_score((d, 0.0, 0.0), (0.0, 0.0, 0.0), DIAG) for d in (1, 10, 100, 300, 600)]
    assert scores == sorted(scores, reverse=True)
    assert len(set(scores)) == len(scores)


# -- mobility-aware path score ----------------------------------------------

def test_pathscore_link_colocated():
    p = (0.0, 0.0, 0.0)
    assert pathscore_link(p, p, p, p, comm_range_m=55.4) == pytest.approx(1.0)


def test_pathscore_link_reference_arithmetic():
    # now 20 m apart, predicted 60 m apart with range 55.4 m
    own = (0.0, 0.0, 0.0)
    score = pathscore_link(own, own, (20.0, 0.0, 0.0), (60.0, 0.0, 0.0), 55.4)
    s_now = 1 - 20 / 55.4
    assert score == pytest.approx((7 * 0.0 + 1 * s_now) / 8, abs=1e-12)
    assert score == pytest.approx(0.080, abs=1e-3)


def test_pathscore_link_monotone_in_predicted_distance():
    own = (0.0, 0.0, 0.0)
    scores = [
        pathscore_link(own, own, (20.0, 0.0, 0.0), (d, 0.0, 0.0), 55.4)
        for d in (0, 10, 20, 40, 55, 80)
    ]
    assert scores == sorted(scores, reverse=True)


def test_pathscore_path_examples():
    assert pathscore_path([0.9, 0.8]) == pytest.approx(0.72)
    assert pathscore_path([0.9, 0.0, 0.8]) == 0.0
    assert pathscore_path([]) == 1.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
)
@settings(max_examples=100)
def test_pathscore_multiplicative(a, b):
    assert pathscore_path(a + b) == pytest.approx(pathscore_path(a) * pathscore_path(b))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
@settings(max_examples=100)
def test_pathscore_never_exceeds_weakest_link(scores):
    assert pathscore_path(scores) <= min(scores) + 1e-12


# -- score trend clamp -------------------------------------------------------

def trend_protocol():
    """A one-node batmobile protocol with buffer 8, clamp 0.1 and a 3 s expiry."""
    return make("batmobile", [(0.0, 0.0, 0.0)], score_buffer=8, trend_clamp=0.1,
                ranking_expiry_s=3.0)


def test_trend_clamp_bounds_single_update():
    protocol = trend_protocol()
    assert protocol.admit([0], 1, 2, [0.5], 0) == [pytest.approx(0.5)]
    # A raw jump to 1.0 is admitted only 0.1 above the flat trend.
    assert protocol.admit([0], 1, 2, [1.0], 500_000) == [pytest.approx(0.6)]
    # And a crash to 0.0 only 0.1 below the (rising) trend.
    [admitted] = protocol.admit([0], 1, 2, [0.0], 1_000_000)
    assert admitted == pytest.approx(0.6, abs=0.1 + 1e-9)


def test_trend_clamp_resets_after_expiry_gap():
    protocol = trend_protocol()
    protocol.admit([0], 1, 2, [0.9], 0)
    assert protocol.admit([0], 1, 2, [0.1], 10_000_000) == [pytest.approx(0.1)]


def test_index_sum_sq_memo_equals_the_sum():
    # The memo must give the very float the per-admit sum gave, for every
    # buffer length validate() accepts (score_buffer >= 1).
    for n in [*range(1, 65), 10_007]:
        idx_mean = (n - 1) / 2.0
        assert _index_sum_sq(n) == sum((i - idx_mean) ** 2 for i in range(n)), n


# -- neighbor ranking ---------------------------------------------------------

def make_ranking(entries, now_us=0):
    """A one-node batman protocol (3 s expiry) whose node 0 ranks these (dest, neighbor, score)."""
    protocol = make("batman", [(0.0, 0.0, 0.0)], ranking_expiry_s=3.0)
    for dest, neighbor, score in entries:
        protocol.rankings[0].setdefault(dest, {})[neighbor] = (score, now_us)
    return protocol


def test_best_forwarder_argmax():
    assert best_forwarder({1: 0.95, 5: 0.93}) == 1


def test_best_forwarder_tie_breaks_to_lowest_id():
    assert best_forwarder({5: 0.9, 1: 0.9}) == 1


def test_best_forwarder_empty_table():
    live = make_ranking([]).live(0, 9, 0)
    assert live == {}
    packet = Frame(dst=9, size_bytes=1460, ttl=16)
    assert plain_forward(packet, 0, live) == (DropReason.NO_ROUTE, None)


def test_expired_entries_purged_before_max():
    protocol = make_ranking([(9, 1, 0.95)])
    protocol.rankings[0][9][2] = (0.5, 3_500_000)
    # entry for 1 is 3.5 s old; entry for 2 is fresh
    assert protocol.live(0, 9, 3_500_000) == {2: 0.5}
    assert protocol.rankings[0][9] == {2: (0.5, 3_500_000)}  # and 1 is purged
    assert best_forwarder(protocol.live(0, 9, 3_500_000)) == 2


def test_zero_score_update_removes_entry():
    protocol = make("batman", [(0.0, 0.0, 0.0)])
    protocol.receive([0], ogm(9, 0), 9, 0)  # a direct OGM scores 1/8
    assert protocol.live(0, 9, 0) == {9: 1 / 8}
    protocol.receive([0], ogm(9, 1, carried=0.0), 9, 100)
    assert protocol.live(0, 9, 100) == {}


def test_zero_score_update_for_an_unknown_destination_adds_no_key():
    protocol = make("batman", [(0.0, 0.0, 0.0)])
    protocol.receive([0], ogm(9, 0), 9, 0)
    protocol.receive([0], ogm(4, 0, carried=0.0), 4, 100)
    protocol.receive([0], ogm(9, 1, carried=-0.5), 2, 100)  # no window for 2: -0.0
    assert list(protocol.rankings[0]) == [9]
    assert protocol.live(0, 4, 100) == {}


# -- protocols from config ---------------------------------------------------

def test_protocol_table_covers_the_config_names_in_order():
    assert tuple(PROTOCOLS) == config_module.PROTOCOLS


def test_each_protocol_reads_its_own_parameters_from_config():
    # Each metric takes its µs intervals, diagonal, range, buffer, clamp and
    # expiry from this one non-default config.
    config = ScenarioConfig(
        nodes=4, ogm_interval_s=0.7, tq_window=6, hop_penalty=0.9, hello_interval_s=0.3,
        tc_interval_s=1.5, geo_floor=1e-4, area_x=300.0, area_y=200.0, area_z=5.0,
        score_buffer=6, prediction_weight=5, trend_clamp=0.2, ranking_expiry_s=4.0,
        tx_power_dbm=18.0, path_loss_exponent=3.0, fit_samples=4,
    )
    positions = [(float(n), 0.0, 0.0) for n in range(config.nodes)]

    batman = BatmanProtocol(config, positions)
    assert batman.emission_plan == [(ControlKind.OGM, 700_000)]
    assert (batman.tq_window_len, batman.hop_penalty) == (6, 0.9)

    golsr = GeoOlsrProtocol(config, positions)
    assert golsr.emission_plan == [(ControlKind.HELLO, 300_000), (ControlKind.TC, 1_500_000)]
    assert (golsr.diagonal_m, golsr.floor) == (360.58979464205584, 1e-4)
    assert golsr.hop_penalty == 1.0

    batmobile = BatmobileProtocol(config, positions)
    assert batmobile.emission_plan == [(ControlKind.OGM, 700_000)]
    assert batmobile.comm_range_m == 23.140184411076447
    assert (batmobile.prediction_weight, batmobile.buffer_len, batmobile.clamp) == (5, 6, 0.2)
    assert batmobile.expiry_us == 4_000_000
    assert batmobile.trends == [{}] * 4
    assert len({id(trends) for trends in batmobile.trends}) == 4
    assert batmobile.predicted == positions and batmobile.predicted is not positions

    for protocol in (batman, golsr, batmobile):
        assert protocol.positions is positions
    assert batman.predicted is None and golsr.predicted is None

    # The position window holds what one fit reads: fit_samples, not score_buffer.
    sim = Simulation(replace(config, protocol="batmobile"), 1)
    assert sim.history.maxlen == 4


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_protocol_owns_one_ranking_per_node_with_the_config_expiry(name):
    protocol = make(name, [(0.0, 0.0, 0.0)] * 3, ranking_expiry_s=4.0)
    assert protocol.expiry_us == 4_000_000
    assert protocol.rankings == [{}, {}, {}]
    assert len({id(ranking) for ranking in protocol.rankings}) == 3
    assert protocol.forwarded == [{}, {}, {}]


# -- control-plane flooding ---------------------------------------------------

def make(name, positions, **overrides):
    """The named protocol built from the reference config plus overrides."""
    return PROTOCOLS[name](ScenarioConfig(protocol=name, **overrides), positions)


def ogm(originator, seq, sender_pos=(0.0, 0.0, 0.0), carried=1.0):
    return ControlMessage(kind=ControlKind.OGM, originator=originator, seq=seq,
                          sender_position=sender_pos, carried_score=carried)


def test_same_message_via_two_neighbors_updates_both_entries():
    protocol = make("batman", [(0.0, 0.0, 0.0)])
    me, via_b, via_f, origin = 0, 1, 2, 9
    for neighbor in (via_b, via_f):
        window = TQWindow()
        for seq in range(8):
            window.update(seq)
        protocol.tq_windows[me][neighbor] = window
    first = protocol.receive([me], ogm(origin, 0, carried=0.9), via_b, 1000)
    second = protocol.receive([me], ogm(origin, 0, carried=0.9), via_f, 2000)
    assert [node for node, _ in first] == [me]  # rebroadcast on first receipt
    assert second == []  # but not on the duplicate
    assert set(protocol.live(me, origin, 2000)) == {via_b, via_f}


def test_rebroadcast_stamps_score_and_penalty():
    protocol = make("batman", [(5.0, 0.0, 0.0)], hop_penalty=0.95)
    window = TQWindow()
    for seq in range(8):
        window.update(seq)
    protocol.tq_windows[0][1] = window
    [(_, out)] = protocol.receive([0], ogm(9, 0, carried=0.8), 1, 1000)
    assert out.carried_score == pytest.approx(0.8 * 0.95)
    assert out.sender_position == (5.0, 0.0, 0.0)


def test_direct_ogm_feeds_tq_window_and_ranking():
    protocol = make("batman", [(0.0, 0.0, 0.0)])
    for seq in range(4):
        protocol.receive([0], ogm(3, seq), 3, 1000 + seq)
    assert protocol.tq_windows[0][3].quality == pytest.approx(4 / 8)
    assert protocol.live(0, 3, 2000)[3] == pytest.approx(4 / 8)


def test_own_message_echo_is_ignored():
    protocol = make("batman", [(0.0, 0.0, 0.0)])
    msg = protocol.emit(0, ControlKind.OGM, 0)
    echoed = ControlMessage(kind=ControlKind.OGM, originator=0, seq=msg.seq,
                            sender_position=(1.0, 0.0, 0.0), carried_score=0.5)
    assert protocol.receive([0], echoed, 1, 1000) == []
    assert protocol.live(0, 0, 1000) == {}


def test_geo_protocol_scores_forwarder_distance_to_destination():
    protocol = make("golsr", [(0.0, 0.0, 0.0)])
    assert protocol.diagonal_m == DIAG
    msg = ControlMessage(kind=ControlKind.TC, originator=9, seq=0,
                         sender_position=(100.0, 0.0, 0.0),
                         originator_position=(200.0, 0.0, 0.0))
    [(_, out)] = protocol.receive([0], msg, 4, 1000)
    expected = 1 - 100.0 / DIAG
    assert protocol.live(0, 9, 1000)[4] == pytest.approx(expected)
    assert out is not None  # TC floods
    assert out.originator_position == (200.0, 0.0, 0.0)


def test_hello_not_rebroadcast():
    protocol = make("golsr", [(0.0, 0.0, 0.0)])
    msg = ControlMessage(kind=ControlKind.HELLO, originator=4, seq=0,
                         sender_position=(10.0, 0.0, 0.0),
                         originator_position=(10.0, 0.0, 0.0))
    assert protocol.receive([0], msg, 4, 1000) == []
    assert protocol.live(0, 4, 1000)[4] == pytest.approx(1.0)


def test_sequence_numbers_strictly_increase():
    protocol = make("batman", [(0.0, 0.0, 0.0)])
    seqs = [protocol.emit(0, ControlKind.OGM, t).seq for t in range(5)]
    assert seqs == [0, 1, 2, 3, 4]


def test_golsr_hello_and_tc_sequence_numbers_run_independently():
    protocol = make("golsr", [(0.0, 0.0, 0.0), (9.0, 0.0, 0.0)])
    kinds = (ControlKind.HELLO, ControlKind.HELLO, ControlKind.TC)
    assert [protocol.emit(0, kind, t).seq for t, kind in enumerate(kinds)] == [0, 1, 0]
    assert protocol.emit(1, ControlKind.TC, 3).seq == 0  # and each node counts its own


# -- batched receive: one call per transmission -------------------------------

SPOT = [(12.0 * n, 7.0 * (n % 3), 0.0) for n in range(6)]
SPOT_PRED = [(12.0 * n + 4.0, 7.0 * (n % 2), 0.0) for n in range(6)]

# name -> (config overrides, the kinds it floods or hears). golsr gets a 40 m
# diagonal (24 x 32 x 0) and no floor, so distant forwarders score zero.
FLOODERS = {
    "batman": ({}, (ControlKind.OGM,)),
    "golsr": (dict(area_x=24.0, area_y=32.0, area_z=0.0, geo_floor=0.0),
              (ControlKind.HELLO, ControlKind.TC)),
    "batmobile": ({}, (ControlKind.OGM,)),
}

# (originator, seq, prev_hop, receivers, carried score, kind index). Seqs come
# from a small range, so duplicate copies are common; a zero carried score
# gives a zero score, which removes the ranking entry.
transmissions = st.tuples(
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 5),
    st.lists(st.integers(0, 5), unique=True).map(sorted),
    st.sampled_from([0.0, 0.6, 1.0]),
    st.integers(0, 1),
)


def snapshot(protocol, node):
    """A copy of everything receive may change for node."""
    windows = getattr(protocol, "tq_windows", None)
    trends = getattr(protocol, "trends", None)
    return copy.deepcopy((
        protocol.rankings[node],
        None if windows is None else {
            n: (w.bits, w.last_seq, w.quality() if isinstance(w, ReferenceTQWindow) else w.quality)
            for n, w in windows[node].items()},
        protocol.forwarded[node],
        None if trends is None else trends[node],
    ))


@given(st.sampled_from(sorted(FLOODERS)), st.lists(transmissions, min_size=1, max_size=12))
@example("batman", [(2, 0, 1, [0, 2, 3], 1.0, 0)])  # the originator hears its own echo
@example("batmobile", [(1, 0, 1, [0, 2], 1.0, 0), (1, 0, 2, [0, 3], 1.0, 0)])  # duplicate seq
@example("batman", [(1, 0, 1, [0], 1.0, 0), (1, 1, 1, [0], 0.0, 0)])  # zero score
@settings(max_examples=150, deadline=None)
def test_batched_receive_equals_one_receiver_at_a_time(name, steps):
    overrides, kinds = FLOODERS[name]
    # Each side has its own protocol, since every node's state lives there.
    together, apart = make(name, SPOT, **overrides), make(name, SPOT, **overrides)
    for protocol in (together, apart):
        if protocol.predicted is not None:
            protocol.predicted[:] = SPOT_PRED
    pred = together.predicted or [None] * len(SPOT)
    nodes = range(len(SPOT))
    for step, (origin, seq, prev_hop, receivers, carried, kind) in enumerate(steps):
        receivers = [r for r in receivers if r != prev_hop]
        now = 1000 + 100_000 * step
        msg = ControlMessage(kind=kinds[kind % len(kinds)], originator=origin, seq=seq,
                             sender_position=SPOT[prev_hop], carried_score=carried,
                             originator_position=SPOT[origin], sender_predicted=pred[prev_hop])
        echo_before = snapshot(together, origin)
        batched = together.receive(receivers, msg, prev_hop, now)
        one_by_one = [out for r in receivers for out in apart.receive([r], msg, prev_hop, now)]
        assert batched == one_by_one
        assert [snapshot(together, n) for n in nodes] == [snapshot(apart, n) for n in nodes]
        if origin in receivers:  # the originator ignores its own echo
            assert snapshot(together, origin) == echo_before
            assert origin not in [node for node, _ in batched]


# -- receive against the per-copy reference ----------------------------------
# The flooding path as it was when every copy cost three calls: each metric's
# score(node, msg, prev_hop, now_us), TQWindow.quality() and
# NeighborRanking.update, copied verbatim, with each node's ranking and score
# trend in objects of their own. receive must return the same rebroadcasts and
# leave every node's state exactly as this path does, and live must purge and
# read a ranking as NeighborRanking.scores did.

class ReferenceTQWindow:
    __slots__ = ("length", "bits", "last_seq")

    def __init__(self, length: int = 8):
        self.length = length
        self.bits = 0
        self.last_seq = None

    def update(self, seq: int) -> None:
        if self.last_seq is None:
            self.bits = 1
        else:
            shift = seq - self.last_seq
            if shift <= 0:
                return  # stale or duplicate sequence number
            self.bits = ((self.bits << shift) | 1) & ((1 << self.length) - 1)
        self.last_seq = seq

    def quality(self) -> float:
        return self.bits.bit_count() / self.length


class ReferenceRanking:
    def __init__(self, expiry_us):
        self.expiry_us = expiry_us
        self.table = {}  # dest -> {neighbor: (score, last_us)}

    def scores(self, dest, now_us):
        entries = self.table.get(dest)
        live = {}
        if entries:
            expiry_us = self.expiry_us
            for n, (score, last) in list(entries.items()):
                if now_us - last > expiry_us:
                    del entries[n]
                else:
                    live[n] = score
        return live

    def update(self, dest, neighbor, score, now_us):
        entries = self.table.get(dest)
        if score <= 0.0:
            if entries:
                entries.pop(neighbor, None)
        elif entries is None:
            self.table[dest] = {neighbor: (min(1.0, score), now_us)}
        else:
            entries[neighbor] = (min(1.0, score), now_us)


def extrapolate_next(values):
    """Least-squares line through (index, value), evaluated one step past the end."""
    n = len(values)
    if n == 1:
        return values[0]
    idx_mean = (n - 1) / 2.0
    val_mean = left_sum(values) / n
    terms = [(i - idx_mean) * (v - val_mean) for i, v in enumerate(values)]
    return val_mean + left_sum(terms) / left_sum([(i - idx_mean) ** 2 for i in range(n)]) * (
        n - idx_mean)


class ReferenceScoreTrend:
    def __init__(self, buffer_len, clamp, reset_after_us):
        self.buffer_len = buffer_len
        self.clamp = clamp
        self.reset_after_us = reset_after_us
        self._buffers = {}

    def admit(self, dest, neighbor, raw, now_us):
        key = (dest, neighbor)
        entry = self._buffers.get(key)
        if entry is None or now_us - entry[1] > self.reset_after_us:
            values = []
        else:
            values = entry[0]
        if values:
            trend = extrapolate_next(values)
            admitted = min(trend + self.clamp, max(trend - self.clamp, raw))
        else:
            admitted = raw
        admitted = min(1.0, max(0.0, admitted))
        values.append(admitted)
        if len(values) > self.buffer_len:
            del values[0]
        self._buffers[key] = (values, now_us)
        return admitted


class PerCopyFlooding:
    """``rankings[n]`` is ``ranking_objects[n].table``, so snapshot reads both sides alike."""

    def __init__(self, config, positions):
        super().__init__(config, positions)
        self.ranking_objects = [ReferenceRanking(self.expiry_us) for _ in positions]
        self.rankings = [ranking.table for ranking in self.ranking_objects]

    def receive(self, receivers, msg, prev_hop, now_us):
        kind, originator, seq = msg.kind, msg.originator, msg.seq
        key = (kind, originator)
        floods = kind in self.flooded_kinds
        score_fn, rankings, forwarded = self.score, self.ranking_objects, self.forwarded
        rebroadcasts = []
        for node in receivers:
            if node == originator:
                continue
            score = score_fn(node, msg, prev_hop, now_us)
            rankings[node].update(originator, prev_hop, score, now_us)
            if score > 0.0 and floods and forwarded[node].get(key, -1) < seq:
                forwarded[node][key] = seq
                rebroadcasts.append((node, ControlMessage(
                    kind=kind, originator=originator, seq=seq,
                    sender_position=self.positions[node],
                    carried_score=score * self.hop_penalty,
                    originator_position=msg.originator_position,
                    sender_predicted=None if self.predicted is None else self.predicted[node],
                )))
        return rebroadcasts


class PerCopyBatman(PerCopyFlooding, BatmanProtocol):
    def score(self, node, msg, prev_hop, now_us):
        windows = self.tq_windows[node]
        window = windows.get(prev_hop)
        if msg.originator == prev_hop:
            if window is None:
                window = windows[prev_hop] = ReferenceTQWindow(self.tq_window_len)
            window.update(msg.seq)
        return (window.quality() if window is not None else 0.0) * msg.carried_score


class PerCopyGeoOlsr(PerCopyFlooding, GeoOlsrProtocol):
    def score(self, node, msg, prev_hop, now_us):
        return geo_score(msg.sender_position, msg.originator_position, self.diagonal_m, self.floor)


class PerCopyBatmobile(PerCopyFlooding, BatmobileProtocol):
    """``trends[n]`` is ``trend_objects[n]._buffers``, as rankings are for PerCopyFlooding."""

    def __init__(self, config, positions):
        super().__init__(config, positions)
        self.trend_objects = [ReferenceScoreTrend(config.score_buffer, config.trend_clamp,
                                                  self.expiry_us) for _ in positions]
        self.trends = [trend._buffers for trend in self.trend_objects]
        self.weight_scale = config.score_buffer

    def score(self, node, msg, prev_hop, now_us):
        raw = pathscore_link(
            self.positions[node], self.predicted[node], msg.sender_position, msg.sender_predicted,
            self.comm_range_m, self.prediction_weight, self.weight_scale,
        ) * msg.carried_score
        return self.trend_objects[node].admit(msg.originator, prev_hop, raw, now_us)


PER_COPY = {"batman": PerCopyBatman, "golsr": PerCopyGeoOlsr, "batmobile": PerCopyBatmobile}


# As transmissions, plus the time since the previous copy (the ranking expiry
# is 1 s) and whether every ranking is read, and so purged, before this copy.
# Carried scores span negative, zero and above-one scores.
reference_steps = st.tuples(
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 5),
    st.lists(st.integers(0, 5), unique=True).map(sorted),
    st.sampled_from([-0.4, 0.0, 0.3, 1.0, 1.5]),
    st.integers(0, 1),
    st.sampled_from([0, 100_000, 700_000, 1_500_000]),
    st.booleans(),
)


@given(st.sampled_from(sorted(FLOODERS)), st.lists(reference_steps, min_size=1, max_size=16))
@example("batman", [(2, 0, 1, [0, 2, 3], 1.0, 0, 0, False)])  # the originator hears its own echo
@example("batmobile", [(2, 0, 1, [0, 2, 3], 1.0, 0, 0, False)])  # and its trend admits nothing
@example("batmobile", [(1, 0, 1, [0, 2], 1.0, 0, 0, False),
                       (1, 0, 2, [0, 3], 1.0, 0, 0, False)])  # duplicate seq
@example("batman", [(1, 0, 1, [0], 1.0, 0, 0, False), (1, 1, 1, [0], 0.0, 0, 0, False)])  # zero
@example("batman", [(1, 0, 1, [0], 1.0, 0, 0, False), (1, 1, 1, [0], -0.4, 0, 0, False)])  # negative
@example("batmobile", [(1, 0, 1, [0], 1.0, 0, 0, False),
                       (1, 1, 1, [0], -0.4, 0, 0, False)])  # the trend clamps it to zero
@example("batman", [(1, 0, 1, [0], 1.5, 0, 0, False)])  # a score above one is stored as one
@example("batman", [(1, 0, 1, [0, 2], 1.0, 0, 0, False), (3, 0, 1, [0], 1.0, 0, 1_500_000, True),
                    (1, 1, 1, [0], 0.0, 0, 0, False)])  # a zero score after an expiry purge
@settings(max_examples=200, deadline=None)
def test_receive_equals_the_per_copy_reference(name, steps):
    overrides, kinds = FLOODERS[name]
    config = ScenarioConfig(protocol=name, ranking_expiry_s=1.0, **overrides)
    protocol, reference = PROTOCOLS[name](config, SPOT), PER_COPY[name](config, SPOT)
    for side in (protocol, reference):
        if side.predicted is not None:
            side.predicted[:] = SPOT_PRED
    pred = protocol.predicted or [None] * len(SPOT)
    nodes = range(len(SPOT))
    now = 1000
    for origin, seq, prev_hop, receivers, carried, kind, gap, purge in steps:
        now += gap
        if purge:
            for node in nodes:
                for dest in nodes:
                    assert (protocol.live(node, dest, now)
                            == reference.ranking_objects[node].scores(dest, now))
        receivers = [r for r in receivers if r != prev_hop]
        msg = ControlMessage(kind=kinds[kind % len(kinds)], originator=origin, seq=seq,
                             sender_position=SPOT[prev_hop], carried_score=carried,
                             originator_position=SPOT[origin], sender_predicted=pred[prev_hop])
        assert (protocol.receive(receivers, msg, prev_hop, now)
                == reference.receive(receivers, msg, prev_hop, now))
        assert [snapshot(protocol, n) for n in nodes] == [snapshot(reference, n) for n in nodes]


# -- batmobile's one-pass scoring on drawn positions ---------------------------

RANGE_M = max_range_m(ScenarioConfig())
# Coordinates on a grid of the range, so drawn nodes are often co-located,
# exactly the range apart along one axis, or beyond it; or anywhere nearby.
coordinate = st.sampled_from([0.0, RANGE_M, 2 * RANGE_M]) | st.floats(-2 * RANGE_M, 2 * RANGE_M)
points = st.lists(st.tuples(coordinate, coordinate, st.sampled_from([0.0, 10.0])),
                  min_size=6, max_size=6)
# (originator, seq, prev_hop, receivers, carried score, time since the last copy)
batmobile_steps = st.tuples(
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 5),
    st.lists(st.integers(0, 5), unique=True).map(sorted),
    st.sampled_from([-0.4, 0.0, 1.0, 1.5]),
    st.sampled_from([0, 100_000, 1_500_000]),
)


@given(points, points, st.lists(batmobile_steps, min_size=1, max_size=12))
# Node 0 is exactly at range now and predicted, so its link score is 0.0 and a
# negative carried score makes a raw score of -0.0, which admit stores as 0.0.
@example([(RANGE_M, 0.0, 0.0)] + [(0.0, 0.0, 0.0)] * 5,
         [(RANGE_M, 0.0, 0.0)] + [(0.0, 0.0, 0.0)] * 5, [(1, 0, 0, [1, 2], -0.4, 0)])
@settings(max_examples=150, deadline=None)
def test_batmobile_receive_equals_the_per_copy_reference_on_drawn_positions(
        positions, predicted, steps):
    config = ScenarioConfig(protocol="batmobile", ranking_expiry_s=1.0)
    protocol, reference = BatmobileProtocol(config, positions), PerCopyBatmobile(config, positions)
    for side in (protocol, reference):
        side.predicted[:] = predicted
    nodes = range(len(positions))
    now = 1000
    for origin, seq, prev_hop, receivers, carried, gap in steps:
        now += gap
        receivers = [r for r in receivers if r != prev_hop]
        msg = ControlMessage(kind=ControlKind.OGM, originator=origin, seq=seq,
                             sender_position=positions[prev_hop], carried_score=carried,
                             originator_position=positions[origin],
                             sender_predicted=predicted[prev_hop])
        # repr, unlike ==, tells 0.0 from -0.0 in the rebroadcasts and trend buffers.
        assert (repr(protocol.receive(receivers, msg, prev_hop, now))
                == repr(reference.receive(receivers, msg, prev_hop, now)))
        assert (repr([snapshot(protocol, n) for n in nodes])
                == repr([snapshot(reference, n) for n in nodes]))


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 0.5]


@pytest.mark.parametrize("a, b", itertools.product(EDGE_FLOATS, repeat=2))
def test_conditional_clamps_equal_min_and_max(a, b):
    # The forms BatmobileProtocol writes its clamps in, for max(a, b) and min(a, b).
    assert repr(b if b > a else a) == repr(max(a, b))
    assert repr(b if b < a else a) == repr(min(a, b))


# -- multi-hop chains: O -> A -> B -> me ----------------------------------------

ME, A, B, O = 0, 1, 2, 3
CHAIN_POS = [(80.0, 0.0, 0.0), (30.0, 0.0, 0.0), (55.0, 10.0, 0.0), (0.0, 0.0, 0.0)]
CHAIN_PRED = [(90.0, 5.0, 0.0), (35.0, 0.0, 0.0), (50.0, 20.0, 0.0), (5.0, 5.0, 0.0)]


def relay(protocol, msg, path, now_us):
    """Carry msg from path[0] over each hop of path."""
    for prev_hop, node in zip(path, path[1:]):
        out = protocol.receive([node], msg, prev_hop, now_us)
        if node != path[-1]:
            [(_, msg)] = out


def test_batman_chain_score_equals_tq_path_score():
    protocol = make("batman", CHAIN_POS, hop_penalty=0.95)
    heard = {(O, A): {0, 1, 2, 4, 5, 7}, (A, B): {0, 2, 3, 5, 7}, (B, ME): {0, 1, 2, 3, 4, 5, 7}}
    # Each relay's own OGMs build the next hop's TQ window; O's last OGM floods.
    for sender, receiver in ((A, B), (B, ME)):
        for seq in range(8):
            msg = protocol.emit(sender, ControlKind.OGM, seq)
            if seq in heard[(sender, receiver)]:
                relay(protocol, msg, [sender, receiver], 1000)
    for seq in range(8):
        msg = protocol.emit(O, ControlKind.OGM, seq)
        if seq in heard[(O, A)] and seq < 7:
            relay(protocol, msg, [O, A], 1000)
    relay(protocol, msg, [O, A, B, ME], 2000)
    qualities = [len(heard[hop]) / 8 for hop in ((O, A), (A, B), (B, ME))]
    assert protocol.live(ME, O, 2000)[B] == pytest.approx(tq_path_score(qualities, 0.95))


def test_batmobile_chain_score_equals_pathscore_path():
    # Every node's trend sees each (originator, neighbour) key once, so it
    # admits the raw score unchanged.
    protocol = make("batmobile", CHAIN_POS)
    protocol.predicted[:] = CHAIN_PRED
    msg = protocol.emit(O, ControlKind.OGM, 0)
    relay(protocol, msg, [O, A, B, ME], 1000)
    links = [
        pathscore_link(CHAIN_POS[rx], CHAIN_PRED[rx], CHAIN_POS[tx], CHAIN_PRED[tx],
                       protocol.comm_range_m)
        for tx, rx in ((O, A), (A, B), (B, ME))
    ]
    assert all(link > 0 for link in links)
    assert protocol.live(ME, O, 1000)[B] == pytest.approx(pathscore_path(links))


def test_golsr_chain_scores_last_forwarder_against_originator():
    protocol = make("golsr", CHAIN_POS)
    msg = protocol.emit(O, ControlKind.TC, 0)
    relay(protocol, msg, [O, A, B, ME], 1000)
    assert protocol.live(ME, O, 1000)[B] == pytest.approx(
        geo_score(CHAIN_POS[B], CHAIN_POS[O], DIAG))


# -- emission cadence (whole-sim) ---------------------------------------------
# A node's emission count is its own dedup entry for the kind plus one.

def test_batman_emits_twenty_ogms_in_ten_seconds():
    config = ScenarioConfig(sim_time_s=10.0, nodes=5, streams=1, stream_start_s=5.0)
    sim = Simulation(config, seed=1)
    sim.run()
    for node in range(config.nodes):
        assert sim.protocol.forwarded[node][(ControlKind.OGM, node)] + 1 == 20


def test_golsr_emits_hellos_and_tcs_on_their_grids():
    config = ScenarioConfig(sim_time_s=10.0, nodes=5, protocol="golsr", stream_start_s=5.0)
    sim = Simulation(config, seed=1)
    sim.run()
    for node in range(config.nodes):
        assert sim.protocol.forwarded[node][(ControlKind.HELLO, node)] + 1 == 20
        assert sim.protocol.forwarded[node][(ControlKind.TC, node)] + 1 == 10
