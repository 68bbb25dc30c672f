import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pinned_runs import node_tables, production_differences, traced_pair
from seed_oracle import observed

from manetsim import mobility, simulation
from manetsim.balancer import DropReason
from manetsim.channel import Frame
from manetsim.config import PROTOCOLS, ScenarioConfig, validate
from manetsim.engine import CONTROL_EMIT, us_from_s
from manetsim.routing import PROTOCOLS as PROTOCOLS_BY_NAME
from manetsim.routing import ControlKind, ControlMessage
from manetsim.simulation import Simulation, simulate
from manetsim.traffic import StreamSpec

# Radio range with reference channel parameters is ~55.4 m, so 40 m hops are
# comfortably in range and 80 m gaps are comfortably out.
LINE = [(0.0, 0.0, 0.0), (40.0, 0.0, 0.0), (80.0, 0.0, 0.0)]
DIAMOND = [(0.0, 50.0, 0.0), (40.0, 70.0, 0.0), (40.0, 30.0, 0.0), (80.0, 50.0, 0.0)]


def static_config(nodes, **overrides):
    base = dict(
        nodes=nodes,
        speed_mps=0.0,
        sim_time_s=20.0,
        stream_start_s=5.0,
        area_x=200.0,
        area_y=120.0,
        area_z=1.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def first_hops(result, src=0):
    """Next hops chosen for every packet the source forwarded."""
    return [d.choice for d in result.decisions
            if d.node == src and not isinstance(d.choice, DropReason)]


def test_two_hop_relay_chain_delivers():
    config = static_config(3)
    stream = StreamSpec(0, 2, us_from_s(5.0), us_from_s(20.0))
    result = simulate(config, 1, initial_positions=LINE, streams=[stream], trace=True)
    assert result.overall_pdr > 0.9
    assert result.conservation_ok
    # every packet follows the chain 0 -> 1 -> 2 (or dies mid-path to a collision)
    hops = {}
    for d in result.decisions:
        if not isinstance(d.choice, DropReason):
            hops.setdefault(d.packet_id, []).append((d.node, d.choice))
    full_chain = [(0, 1), (1, 2)]
    assert all(path == full_chain[: len(path)] for path in hops.values())
    assert sum(1 for path in hops.values() if path == full_chain) > 0.9 * len(hops)
    # one unique packet id per send
    ids = {d.packet_id for d in result.decisions}
    assert len(ids) == result.sent


def test_round_robin_alternates_equal_relays():
    config = static_config(4, lambda_factor=0.9)
    stream = StreamSpec(0, 3, us_from_s(5.0), us_from_s(20.0))
    result = simulate(config, 1, initial_positions=DIAMOND, streams=[stream], trace=True)
    assert result.overall_pdr > 0.8
    hops = first_hops(result)
    share_1 = hops.count(1) / len(hops)
    # Both relays carry a substantial share. Exact 50/50 is not expected:
    # score wobble from control-frame collisions occasionally shrinks the set
    # to one member, and each membership change resets the rotation cursor.
    assert 0.35 < share_1 < 0.65


def test_plain_routing_sticks_to_tie_break_winner():
    config = static_config(4, balancing=False)
    stream = StreamSpec(0, 3, us_from_s(5.0), us_from_s(20.0))
    result = simulate(config, 1, initial_positions=DIAMOND, streams=[stream], trace=True)
    assert set(first_hops(result)) == {1}  # lowest-id winner of the score tie, every packet


def test_high_likelihood_equals_plain_routing_log():
    config = static_config(4, lambda_factor=1.1)
    stream = StreamSpec(0, 3, us_from_s(5.0), us_from_s(20.0))
    balanced = simulate(config, 3, initial_positions=DIAMOND, streams=[stream], trace=True)
    plain = simulate(replace(config, balancing=False), 3, initial_positions=DIAMOND,
                     streams=[stream], trace=True)
    assert [d[:5] for d in balanced.decisions] == [d[:5] for d in plain.decisions]
    assert balanced.state_hash == plain.state_hash


def test_control_traffic_bypasses_decision_trace():
    config = static_config(3)
    stream = StreamSpec(0, 2, us_from_s(5.0), us_from_s(20.0))
    result = simulate(config, 1, initial_positions=LINE, streams=[stream], trace=True)
    assert result.control_tx > 0
    assert result.decisions
    for d in result.decisions:
        assert d.packet_id is not None  # only stream packets are routed


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_queued_frame_is_a_broadcast_exactly_when_it_has_no_destination(protocol):
    # Dense, with a short TTL: packets are relayed, control copies rebroadcast,
    # and some packets dropped for their TTL before they are queued again.
    config = ScenarioConfig(protocol=protocol, nodes=12, area_x=150.0, area_y=150.0, streams=3,
                            sim_time_s=6.0, stream_start_s=2.0, ttl=3)
    sim = Simulation(config, 1, trace=True)
    queued = []  # (no next hop, no destination) of each frame as it is queued
    enqueue = sim.medium.enqueue

    def recording_enqueue(node, frame):
        queued.append((frame.next_hop is None, frame.dst is None))
        return enqueue(node, frame)

    sim.medium.enqueue = recording_enqueue
    result = sim.run()
    assert result.drops["ttl"] > 0 and result.data_tx > 0
    assert all(broadcast == control for broadcast, control in queued)
    forwarded = [d for d in result.decisions if not isinstance(d.choice, DropReason)]
    assert queued.count((False, False)) == len(forwarded)


def test_flood_depth_limited_by_ttl():
    positions = [(40.0 * k, 0.0, 0.0) for k in range(5)]
    config = static_config(5, ttl=3, area_x=400.0)
    # A run keeps rankings for its streams' destinations only: this one's is 0.
    stream = StreamSpec(1, 0, us_from_s(5.0), us_from_s(6.0))
    sim = Simulation(config, 1, initial_positions=positions, streams=[stream])
    sim.run()
    # originator 0 is known three hops out but not four
    rankings = node_tables(sim.protocol)["rankings"]
    assert 0 in rankings[1]
    assert 0 in rankings[2]
    assert 0 in rankings[3]
    assert 0 not in rankings[4]


def test_ttl_one_copy_still_marks_its_message_forwarded():
    # golsr scores every TC copy above zero, so only the dedup can stop a rebroadcast.
    config = static_config(4, protocol="golsr")
    # A stream to 0, so that the run keeps originator 0's rankings; it never sends.
    stream = StreamSpec(3, 0, us_from_s(5.0), us_from_s(20.0))
    sim = Simulation(config, 1, initial_positions=DIAMOND, streams=[stream])
    msg = ControlMessage(kind=ControlKind.TC, originator=0, seq=0,
                         sender_position=DIAMOND[1], originator_position=DIAMOND[0])

    def copy(ttl):
        return Frame(dst=None, size_bytes=config.control_bytes, prev_hop=1, ttl=ttl, payload=msg)

    sim._on_frame_delivered([3], copy(ttl=1))
    assert 0 in node_tables(sim.protocol)["rankings"][3]  # the last-hop copy is still scored
    sim._on_frame_delivered([2, 3], copy(ttl=5))
    queued = [[f.payload.originator for f in st.queue] for st in sim.medium.states]
    assert queued == [[], [], [0], []]  # 2 heard it first at ttl 5; 3 already had it


def test_replay_determinism_full_stack():
    config = ScenarioConfig(sim_time_s=15.0, nodes=10)
    first = simulate(config, 5, trace=True)
    second = simulate(config, 5, trace=True)
    untraced = simulate(config, 5)
    assert first.state_hash == second.state_hash == untraced.state_hash
    assert first.decisions == second.decisions
    assert first.overall_pdr == second.overall_pdr
    assert untraced.decisions is None


@st.composite
def small_configs(draw):
    nodes = draw(st.integers(2, 6))
    return ScenarioConfig(
        nodes=nodes,
        streams=draw(st.integers(1, nodes // 2)),
        area_x=draw(st.floats(20.0, 300.0)),
        area_y=draw(st.floats(20.0, 300.0)),
        area_z=draw(st.floats(1.0, 10.0)),
        speed_mps=draw(st.floats(0.0, 30.0)),
        sim_time_s=draw(st.floats(0.5, 2.5)),
        stream_start_s=draw(st.floats(0.0, 0.4)),
        protocol=draw(st.sampled_from(PROTOCOLS)),
        balancing=draw(st.booleans()),
        lambda_factor=draw(st.floats(0.0, 1.5)),
        exclude_prev_hop=draw(st.booleans()),
        bitrate_bps=draw(st.sampled_from([1e5, 2e6])),
        ttl=draw(st.integers(1, 16)),
        queue_capacity=draw(st.integers(1, 50)),
    )


@given(small_configs(), st.integers(0, 2**32), st.floats(1.01, 4.0))
@settings(max_examples=30, deadline=None)
def test_random_valid_configs_keep_the_run_invariants(config, seed, high_lambda):
    validate(config)
    traced = simulate(config, seed, trace=True)
    assert traced.conservation_ok
    assert 0.0 <= traced.overall_pdr <= 1.0
    again = simulate(config, seed, trace=True)
    assert (again.state_hash, again.decisions) == (traced.state_hash, traced.decisions)
    assert simulate(config, seed).state_hash == traced.state_hash
    # Above lambda 1 the balancer must repeat the unmodified protocol's choices.
    high = simulate(replace(config, balancing=True, lambda_factor=high_lambda), seed, trace=True)
    plain = simulate(replace(config, balancing=False), seed, trace=True)
    assert [d[:5] for d in high.decisions] == [d[:5] for d in plain.decisions]


@st.composite
def stream_scenarios(draw):
    """A small config over any protocol, plain or balanced, with either 1-4 streams
    drawn from the config or a stream list given outright: empty, or 1-4 streams
    whose destinations may repeat."""
    nodes = draw(st.integers(2, 10))
    config = ScenarioConfig(
        nodes=nodes,
        streams=draw(st.integers(1, min(4, nodes // 2))),
        area_x=draw(st.sampled_from([60.0, 150.0, 300.0])),
        area_y=150.0,
        sim_time_s=draw(st.floats(1.5, 4.0)),
        stream_start_s=draw(st.floats(0.0, 1.0)),
        protocol=draw(st.sampled_from(PROTOCOLS)),
        balancing=draw(st.booleans()),
        lambda_factor=draw(st.sampled_from([0.0, 0.5, 0.9])),
        ttl=draw(st.integers(1, 8)),
    )
    if draw(st.booleans()):
        return config, None
    start, stop = us_from_s(config.stream_start_s), us_from_s(config.sim_time_s)
    pairs = draw(st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1))
                          .filter(lambda pair: pair[0] != pair[1]), max_size=4))
    return config, [StreamSpec(src, dst, start, stop, config.bitrate_bps, config.payload_bytes)
                    for src, dst in pairs]


@given(stream_scenarios(), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_keeping_only_stream_destinations_equals_keeping_every_node(scenario, seed):
    # The run as Simulation builds it, and one widened to keep every node's rankings.
    config, streams = scenario
    validate(config)
    pair = traced_pair(config, seed, streams=streams)
    assert production_differences(config, pair) == []
    sim = pair[0][0]
    assert set(sim.protocol.rankings) <= {spec.dst for spec in sim.streams}


@pytest.mark.parametrize("protocol", ["batman", "golsr", "batmobile"])
@pytest.mark.parametrize("area", [500.0, 150.0])
def test_conservation_identity_across_regimes(protocol, area):
    config = ScenarioConfig(sim_time_s=12.0, nodes=12, protocol=protocol,
                            area_x=area, area_y=area, stream_start_s=2.0)
    result = simulate(config, 9)
    assert result.conservation_ok
    assert result.sent == result.received + sum(result.drops.values()) + result.in_flight
    assert 0.0 <= result.overall_pdr <= 1.0


def test_two_streams_accounted_separately():
    config = ScenarioConfig(sim_time_s=12.0, nodes=12, streams=2,
                            area_x=150.0, area_y=150.0, stream_start_s=2.0)
    result = simulate(config, 2)
    assert len(result.per_stream) == 2
    assert result.sent == sum(st.sent for st in result.per_stream)
    assert all(st.sent > 0 for st in result.per_stream)
    assert result.conservation_ok


@pytest.mark.parametrize("balancing", [True, False])
def test_a_source_without_a_route_drops_each_packet_without_a_frame(monkeypatch, balancing):
    # 190 m apart, far out of range: no control copy arrives, so no route ever forms.
    config = static_config(2, balancing=balancing)
    stream = StreamSpec(0, 1, us_from_s(5.0), us_from_s(20.0))
    sim = Simulation(config, 1, initial_positions=[(0.0, 0.0, 0.0), (190.0, 0.0, 0.0)],
                     streams=[stream], trace=True)
    data_enqueued = []
    enqueue = sim.medium.enqueue

    def recording_enqueue(node, frame):
        if frame.dst is not None:
            data_enqueued.append((node, frame))
        return enqueue(node, frame)

    sim.medium.enqueue = recording_enqueue
    monkeypatch.setattr(simulation, "postrouting_hook", None)  # neither path is called
    monkeypatch.setattr(simulation, "plain_forward", None)
    result = sim.run()
    assert result.sent > 0
    assert result.drops["no_route"] == result.sent
    assert result.data_tx == 0
    assert data_enqueued == []  # the source's queue never holds a data packet
    assert [d.packet_id for d in result.decisions] == list(range(1, result.sent + 1))
    assert all(d[1:] == (0, d.packet_id, 1, DropReason.NO_ROUTE, None)
               for d in result.decisions)
    assert result.conservation_ok


def test_packet_ids_stay_consecutive_across_routed_and_no_route_sends():
    # The streams start before the first OGMs arrive, so early sends find no route.
    config = static_config(3, stream_start_s=0.0)
    streams = [StreamSpec(0, 2, 0, us_from_s(20.0)), StreamSpec(2, 0, 1, us_from_s(20.0))]
    result = simulate(config, 1, initial_positions=LINE, streams=streams, trace=True)
    first_decisions = {}
    for d in result.decisions:
        first_decisions.setdefault(d.packet_id, d)
    assert list(first_decisions) == list(range(1, result.sent + 1))
    source_choices = [d.choice for d in first_decisions.values()]
    assert DropReason.NO_ROUTE in source_choices
    assert any(not isinstance(choice, DropReason) for choice in source_choices)


def test_mobility_feeds_histories_and_predictions(monkeypatch):
    config = ScenarioConfig(sim_time_s=5.0, nodes=4, protocol="batmobile", stream_start_s=1.0)
    sim = Simulation(config, 1)
    fits = []

    def counted_fit(*args):
        fits.append(args)
        return mobility.predict_position(*args)

    monkeypatch.setattr(simulation, "predict_position", counted_fit)
    sim.run()
    # One fit per tick serves every node: 20 ticks of 0.25 s in 5 s.
    assert len(fits) == 20
    # The window holds the fit_samples (5) snapshots one fit reads, so the
    # ring is full after 1 s.
    assert len(sim.history) == config.fit_samples
    # The mobility tick is the only writer: its snapshots are the last
    # fit_samples tick times, one tick apart, the newest at the run's end.
    assert [t for t, _ in sim.history] == [
        sim.end_us - k * sim.tick_us for k in reversed(range(config.fit_samples))]
    assert all(len(snapshot) == config.nodes for _, snapshot in sim.history)
    assert list(sim.history[-1][1]) == sim.positions
    for node in range(config.nodes):
        assert sim.protocol.predicted[node] is not None
        assert sim.protocol.predicted[node] != sim.positions[node]


def test_a_one_slot_score_buffer_still_predicts():
    # score_buffer sizes the score trends, not the position window.
    config = ScenarioConfig(sim_time_s=3.0, nodes=4, protocol="batmobile", stream_start_s=1.0,
                            score_buffer=1, prediction_weight=1)
    validate(config)
    sim = Simulation(config, 1)
    sim.run()
    assert len(sim.history) == config.fit_samples
    for node in range(config.nodes):
        assert sim.protocol.predicted[node] != sim.positions[node]


def test_prediction_fits_fit_samples_whatever_the_score_buffer():
    # Mobility draws from its own RNG stream, so both runs move every node
    # identically; only a window shorter than fit_samples could tell them apart.
    config = ScenarioConfig(sim_time_s=3.0, nodes=4, protocol="batmobile", stream_start_s=1.0,
                            fit_samples=7)
    sims = [Simulation(replace(config, score_buffer=buffer, prediction_weight=3), 1)
            for buffer in (4, 8)]
    for sim in sims:
        validate(sim.config)
        sim.run()
        assert len(sim.history) == 7
    assert sims[0].positions == sims[1].positions
    assert sims[0].protocol.predicted == sims[1].protocol.predicted


@pytest.mark.parametrize("protocol", ["batman", "golsr"])
def test_only_batmobile_records_histories_and_predictions(protocol):
    config = ScenarioConfig(sim_time_s=2.0, nodes=4, protocol=protocol, stream_start_s=1.0)
    sim = Simulation(config, 1)
    sim.run()
    assert sim.history is None
    assert sim.protocol.predicted is None


def test_minimum_two_node_scenario_runs():
    config = ScenarioConfig(nodes=2, sim_time_s=10.0, stream_start_s=2.0,
                            area_x=40.0, area_y=40.0)
    result = simulate(config, 1)
    assert result.conservation_ok
    assert result.overall_pdr > 0.5  # 40 m box keeps the pair in range


@pytest.mark.parametrize("src, dst", [(-1, 2), (0, 9), (9, 2)])
def test_stream_endpoints_outside_the_nodes_rejected(src, dst):
    # -1 used to send as the last node, unheard by carrier sense; dst 9 dropped
    # every packet as no_route; src 9 raised IndexError at the first send.
    stream = StreamSpec(src, dst, us_from_s(1.0), us_from_s(2.0))
    with pytest.raises(ValueError, match="stream endpoints"):
        Simulation(static_config(6), 1, streams=[stream])


def test_emission_counts_survive_queue_pressure():
    # emission counting is independent of whether the frame made it to air
    config = ScenarioConfig(sim_time_s=10.0, nodes=5, stream_start_s=5.0)
    sim = Simulation(config, 1)
    sim.run()
    # Each node's count of its own OGMs is its own dedup entry plus one.
    total = sum(forwarded[(ControlKind.OGM, node)] + 1
                for node, forwarded in enumerate(node_tables(sim.protocol)["forwarded"]))
    assert total == 5 * 20
    assert sim.medium.control_tx > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_finished_simulation_is_freed_without_a_gc_pass(protocol, monkeypatch):
    # The engine and the medium hold a run's bound handlers; run() must break
    # those cycles, or every dead run of a batch waits for the cyclic gc.
    runs = []
    run = Simulation.run

    def remembering(sim):
        runs.append(weakref.ref(sim))
        return run(sim)

    monkeypatch.setattr(Simulation, "run", remembering)
    config = ScenarioConfig(sim_time_s=3.0, nodes=5, protocol=protocol, stream_start_s=1.0)
    gc.disable()
    try:
        result = simulate(config, 1)
        assert runs[0]() is None
    finally:
        gc.enable()
    assert result.conservation_ok and result.sent > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_pushed_events_never_lie_before_the_clock(protocol):
    # crowd50's scenario at 2 s. The medium, the stream sends and the emit
    # heads push their events without Engine.schedule's past check; after
    # every event, the earliest entry must still lie at or after the clock.
    config = ScenarioConfig(area_x=150.0, area_y=150.0, nodes=50, streams=3, sim_time_s=2.0,
                            stream_start_s=1.0, protocol=protocol)
    sim = Simulation(config, 1)
    engine, heap = sim.engine, sim.engine._heap
    checked = []

    def checking(handler):
        def step(payload):
            handler(payload)
            assert not heap or heap[0][0] >= engine.clock_us
            checked.append(1)
        return step

    engine._handlers = {kind: checking(handler) for kind, handler in engine._handlers.items()}
    result = sim.run()
    assert len(checked) == result.events_processed == simulate(config, 1).events_processed


# -- control emits: FIFO heads on the heap against every emit on it -------------

class ScheduledEmits(Simulation):
    """Every control emit on the heap from the moment it is keyed, each
    scheduled through Engine.schedule, as the simulator did before its emits
    waited in one FIFO per emission-plan entry."""

    def _schedule_emits(self, control_rng):
        for node in range(self.config.nodes):
            for kind, interval_us in self.protocol.emission_plan:
                phase = control_rng.randrange(interval_us)
                self.engine.schedule(phase, CONTROL_EMIT, (node, kind, interval_us))

    def _on_control_emit(self, payload):
        node, kind, interval_us = payload
        now = self.engine.clock_us
        self._flood(node, self.protocol.emit(node, kind, now), self.config.ttl)
        next_emit = now + interval_us
        if next_emit <= self.end_us:
            self.engine.schedule(next_emit, CONTROL_EMIT, (node, kind, interval_us))


def dispatch_log(cls, config, seed):
    """Run cls(config, seed); return its (clock_us, kind, payload) per dispatched
    event, its (state_hash, CSV-row sha256), and the most control emits the
    heap held at once."""
    sim = cls(config, seed)
    engine, heap = sim.engine, sim.engine._heap
    log, most = [], [0]

    def logging(kind, handler):
        def step(payload):
            log.append((engine.clock_us, kind, repr(payload)))
            handler(payload)
            most[0] = max(most[0], sum(entry[2] is CONTROL_EMIT for entry in heap))
        return step

    engine._handlers = {kind: logging(kind, handler) for kind, handler in engine._handlers.items()}
    result = sim.run()
    return log, observed(config, result), most[0]


@st.composite
def emit_configs(draw):
    """Small runs whose emission intervals go down to 1 us, so that emits of
    several nodes, golsr's HELLOs and TCs, and the attempts a flood pushes
    often share a microsecond, and the run often ends on an emit."""
    interval = st.sampled_from([1, 2, 3, 5]) | st.integers(1, 400)
    ogm_us, hello_us, tc_us = draw(interval), draw(interval), draw(interval)
    nodes = draw(st.integers(2, 8))
    return ScenarioConfig(
        nodes=nodes,
        streams=draw(st.integers(1, nodes // 2)),
        area_x=draw(st.sampled_from([40.0, 150.0])),
        area_y=60.0,
        protocol=draw(st.sampled_from(PROTOCOLS)),
        ogm_interval_s=ogm_us / 1e6,
        hello_interval_s=hello_us / 1e6,
        tc_interval_s=tc_us / 1e6,
        # About 30 of the longest interval at most, so a run stays small.
        sim_time_s=draw(st.integers(1, 30 * max(ogm_us, hello_us, tc_us))) / 1e6,
        stream_start_s=0.0,
        mobility_update_s=draw(st.sampled_from([0.25, 200e-6])),
        # A jitter as short as an interval puts a flood's first attempt on the
        # microsecond of the node's next emit.
        mac_jitter_us=draw(st.sampled_from([0, 1, 3, 200])),
        ttl=draw(st.integers(1, 4)),
    )


@given(emit_configs(), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_emit_fifos_dispatch_every_event_as_the_heap_alone_does(config, seed):
    validate(config)
    log, observed_row, most = dispatch_log(Simulation, config, seed)
    want_log, want_row, _ = dispatch_log(ScheduledEmits, config, seed)
    assert log == want_log
    assert observed_row == want_row
    assert most <= len(PROTOCOLS_BY_NAME[config.protocol](config, [(0.0, 0.0, 0.0)]).emission_plan)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_emit_fifos_keep_same_microsecond_emits_and_the_last_one(protocol):
    # 1 and 2 us intervals over 6 nodes: every microsecond has emits of several
    # nodes (and golsr's two kinds), and the last one falls on end_us. A 1 us
    # jitter puts attempts on the microsecond of the next emits.
    config = ScenarioConfig(nodes=6, streams=1, area_x=40.0, area_y=40.0, protocol=protocol,
                            ogm_interval_s=1e-6, hello_interval_s=1e-6, tc_interval_s=2e-6,
                            sim_time_s=300e-6, stream_start_s=0.0, ttl=2, mac_jitter_us=1)
    log, observed_row, _ = dispatch_log(Simulation, config, 3)
    assert (log, observed_row) == dispatch_log(ScheduledEmits, config, 3)[:2]
    emit_times = [t_us for t_us, kind, _ in log if kind is CONTROL_EMIT]
    assert emit_times.count(0) > 1 and emit_times[-1] == us_from_s(config.sim_time_s)
