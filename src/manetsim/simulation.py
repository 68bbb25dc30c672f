"""Full simulation run: mobility, control plane, data plane, accounting.

One Simulation owns one Engine and is strictly single-threaded. A run
depends on nothing but its (config, seed), so ``experiment.simulate_all``
deals a batch out between its caller and forked children, one instance per
run, with a serial batch's results. A finished run is freed by refcounting.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .balancer import DropReason, RRState, plain_forward, postrouting_hook
from .channel import Frame, Medium
from .config import ScenarioConfig
from .engine import CONTROL_EMIT, MOBILITY_TICK, STREAM_SEND, Engine, us_from_s
from .mobility import Position, predict_position, random_position, step_waypoint
from .routing import PROTOCOLS, ControlMessage
from .traffic import (
    DROP_CAUSES,
    StreamSpec,
    StreamStats,
    draw_endpoints,
    mean_current_pdr,
    pdr_series,
)

# Reading a member off an Enum class runs Python code before 3.12 (see
# engine.py); every no-route send reads this one.
NO_ROUTE = DropReason.NO_ROUTE


class Decision(NamedTuple):
    """One data-plane forwarding decision: a packet at a node, and where it went."""

    time_us: int
    node: int
    packet_id: int
    dst: int
    choice: int | DropReason  # the next hop, or why the packet was dropped here
    # The schedulable set the balancer chose from; None on the plain path and
    # when the balancer found no route.
    members: tuple[int, ...] | None


@dataclass
class RunResult:
    seed: int
    sent: int
    received: int
    drops: dict[str, int]
    overall_pdr: float
    mean_current_pdr: float
    control_tx: int
    data_tx: int
    events_processed: int
    conservation_ok: bool
    in_flight: int
    pdr_trace: list[tuple[float, int, int, float | None]]
    per_stream: list[StreamStats] = field(repr=False, default_factory=list)
    state_hash: str = ""
    # One Decision per routed data packet per node, in time order; None
    # unless the run was traced.
    decisions: list[Decision] | None = field(repr=False, default=None)


class Simulation:
    def __init__(
        self,
        config: ScenarioConfig,
        seed: int,
        initial_positions: list[Position] | None = None,
        streams: list[StreamSpec] | None = None,
        trace: bool = False,
    ):
        self.config = config
        self.seed = seed
        self.engine = Engine(master_seed=seed)
        self.area = config.area()
        self.end_us = us_from_s(config.sim_time_s)
        self.tick_us = us_from_s(config.mobility_update_s)

        topology_rng = self.engine.rng_stream("topology")
        self.mobility_rng = self.engine.rng_stream("mobility")
        control_rng = self.engine.rng_stream("control")
        traffic_rng = self.engine.rng_stream("traffic")

        if initial_positions is not None and len(initial_positions) != config.nodes:
            raise ValueError("initial_positions must cover every node")
        if any(node not in range(config.nodes) for s in streams or () for node in (s.src, s.dst)):
            raise ValueError("stream endpoints must be nodes")
        # Each node's position and the waypoint it is heading for.
        self.positions: list[Position] = []
        self.waypoints: list[Position] = []
        for node in range(config.nodes):
            pos = (
                initial_positions[node]
                if initial_positions is not None
                else random_position(self.area, topology_rng)
            )
            self.positions.append(pos)
            self.waypoints.append(random_position(self.area, topology_rng))

        self.protocol = PROTOCOLS[config.protocol](config, self.positions)
        # The (t_us, every node's position) snapshots one prediction fits;
        # only a predicting metric keeps them.
        self.history: deque[tuple[int, tuple[Position, ...]]] | None = None
        if self.protocol.predicted is not None:
            self.history = deque([(0, tuple(self.positions))], maxlen=config.fit_samples)
        self.rr = [RRState() for _ in range(config.nodes)]

        self.medium = Medium(
            self.engine,
            self.positions,
            config,
            self._on_frame_delivered,
            self._on_unicast_lost,
        )

        if streams is None:
            start, stop = us_from_s(config.stream_start_s), self.end_us
            streams = [
                StreamSpec(src, dst, start, stop, config.bitrate_bps, config.payload_bytes)
                for src, dst in draw_endpoints(config.nodes, config.streams, traffic_rng)
            ]
        self.streams = streams
        # live is asked only for a stream's destination, so only those rankings are kept.
        self.protocol.destinations = {spec.dst for spec in streams}
        window_us = us_from_s(config.window_s)
        self.stats = [StreamStats(window_us) for _ in streams]

        self._packet_counter = 0
        self.decisions: list[Decision] | None = [] if trace else None

        engine = self.engine
        self._push, self._next_seq = engine.push, engine.next_seq
        engine.on(MOBILITY_TICK, self._on_mobility_tick)
        engine.on(CONTROL_EMIT, self._on_control_emit)
        engine.on(STREAM_SEND, self._on_stream_send)
        engine.schedule(self.tick_us, MOBILITY_TICK)
        self._schedule_emits(control_rng)
        for idx, spec in enumerate(self.streams):
            if spec.start_us < spec.stop_us:
                engine.schedule(spec.start_us, STREAM_SEND, idx)

    def _schedule_emits(self, control_rng) -> None:
        """Key every node's first emit of each emission-plan entry, node by node.

        Each entry's keyed emits wait in one FIFO, ``_emits[kind]`` (a plan
        names a kind once), with only its head on the heap. An emit keys its successor one interval later
        with a newer seq, so a FIFO stays in key order, and the heap gives
        every emit up under the key and in the order it would with all on it.
        """
        fifos = {kind: [] for kind, _ in self.protocol.emission_plan}
        for node in range(self.config.nodes):
            for kind, interval_us in self.protocol.emission_plan:
                phase = control_rng.randrange(interval_us)
                fifos[kind].append((phase, self._next_seq(), CONTROL_EMIT,
                                    (node, kind, interval_us)))
        self._emits = {kind: deque(sorted(entries)) for kind, entries in fifos.items()}
        for fifo in self._emits.values():
            if fifo:  # a phase is at least 0, the clock
                self._push(fifo[0])

    # -- event handlers -------------------------------------------------

    def _on_mobility_tick(self, _payload: None) -> None:
        now = self.engine.clock_us
        config = self.config
        dt = config.mobility_update_s
        positions, waypoints, rng = self.positions, self.waypoints, self.mobility_rng
        for node in range(config.nodes):
            positions[node], waypoints[node] = step_waypoint(
                positions[node], waypoints[node], config.speed_mps, dt, rng, self.area)
        self.medium.refresh_neighbors()
        if self.history is not None:
            self.history.append((now, tuple(positions)))
            self.protocol.predicted[:] = predict_position(self.history, config.prediction_steps, dt)
        next_tick = now + self.tick_us
        if next_tick <= self.end_us:
            self.engine.schedule(next_tick, MOBILITY_TICK)

    def _on_control_emit(self, payload: tuple) -> None:
        node, kind, interval_us = payload
        now = self.engine.clock_us
        self._flood(node, self.protocol.emit(node, kind, now), self.config.ttl)
        fifo = self._emits[kind]
        fifo.popleft()  # this emit, the head the heap just gave up
        next_emit = now + interval_us
        if next_emit <= self.end_us:
            # Its seq is taken after the flood's, where schedule() would take it.
            fifo.append((next_emit, self._next_seq(), CONTROL_EMIT, payload))
        if fifo:  # keyed after this emit, so after the clock
            self._push(fifo[0])

    def _on_stream_send(self, idx: int) -> None:
        spec = self.streams[idx]
        now = self.engine.clock_us
        self._packet_counter += 1
        live = self.protocol.live(spec.src, spec.dst, now)
        if live:
            self.stats[idx].record_sent(now)
            # Positional, in Frame's field order: keywords cost twice the call.
            frame = Frame(spec.dst, spec.payload_bytes, None, None, self._packet_counter,
                          self.config.ttl, None, idx)
            self._route(spec.src, frame, live)
        else:
            # Most sends at a sparse scale end here: the hook and the plain
            # path would both answer NO_ROUTE, so no frame is built for them.
            if self.decisions is not None:
                self.decisions.append(Decision(now, spec.src, self._packet_counter, spec.dst,
                                               NO_ROUTE, None))
            self.stats[idx].record_sent(now, NO_ROUTE._value_)
        # interval_us is at least 1, so the next send lies after the clock.
        next_send = now + spec.interval_us
        if next_send < spec.stop_us:
            self._push((next_send, self._next_seq(), STREAM_SEND, idx))

    def _on_frame_delivered(self, receivers: list[int], frame: Frame) -> None:
        now = self.engine.clock_us
        if frame.next_hop is None:  # a flooded control frame
            rebroadcasts = self.protocol.receive(receivers, frame.payload, frame.prev_hop, now)
            if frame.ttl > 1:
                for receiver, msg in rebroadcasts:
                    self._flood(receiver, msg, frame.ttl - 1)
            return
        (receiver,) = receivers  # data frames are unicast
        if receiver == frame.dst:
            self.stats[frame.stream_idx].record_received(now)
        else:
            self._route(receiver, frame, self.protocol.live(receiver, frame.dst, now))

    def _flood(self, node: int, msg: ControlMessage, ttl: int) -> None:
        """Queue one broadcast copy of msg at node, with ttl hops left."""
        # A broadcast from node: no dst, next hop or packet id (see _on_stream_send).
        frame = Frame(None, self.config.control_bytes, node, None, None, ttl, msg)
        self.medium.enqueue(node, frame)

    def _on_unicast_lost(self, frame: Frame, cause: str) -> None:
        self.stats[frame.stream_idx].record_drop(cause)

    # -- data-plane forwarding (postrouting hook position) ----------------

    def _route(self, node: int, frame: Frame, live: dict[int, float]) -> None:
        """Forward frame from node over ``live``, the node's scores for its destination:
        the ``Route`` that ``protocol.live`` returns, on which the choice is memoised."""
        now = self.engine.clock_us
        config = self.config
        if config.balancing:
            choice, sset = postrouting_hook(frame, node, live, self.rr[node],
                                            config.lambda_factor, config.exclude_prev_hop)
        else:
            choice, sset = plain_forward(frame, node, live)
        if self.decisions is not None:
            self.decisions.append(Decision(now, node, frame.packet_id, frame.dst, choice,
                                           None if sset is None else sset.members))
        if isinstance(choice, DropReason):  # _value_ skips the enum's value property
            self.stats[frame.stream_idx].record_drop(choice._value_)
        elif not self.medium.enqueue(node, frame):
            self.stats[frame.stream_idx].record_drop("queue")

    # -- run & results -----------------------------------------------------

    def run(self) -> RunResult:
        self.engine.run_until(self.end_us)
        result = self._collect()
        # The engine and the medium hold this simulation's bound handlers, and
        # the engine the medium's. Without these cycles a finished run is
        # freed at once, not at a later gc pass, so a batch holds no dead runs.
        self.engine.drop_handlers()
        self.medium.on_deliver = self.medium.on_unicast_lost = None
        return result

    def _collect(self) -> RunResult:
        pending_by_stream: dict[int, int] = {}
        for frame in self.medium.queued_data_frames():
            pending_by_stream[frame.stream_idx] = pending_by_stream.get(frame.stream_idx, 0) + 1
        conservation_ok = all(
            st.sent == st.received + sum(st.drops.values()) + pending_by_stream.get(idx, 0)
            for idx, st in enumerate(self.stats)
        )
        sent = sum(st.sent for st in self.stats)
        received = sum(st.received for st in self.stats)
        series = pdr_series(self.stats, us_from_s(self.config.window_s), self.end_us)
        return RunResult(
            seed=self.seed,
            sent=sent,
            received=received,
            drops={cause: sum(st.drops[cause] for st in self.stats) for cause in DROP_CAUSES},
            overall_pdr=received / sent if sent else 0.0,
            mean_current_pdr=mean_current_pdr(series),
            control_tx=self.medium.control_tx,
            data_tx=self.medium.data_tx,
            events_processed=self.engine.processed,
            conservation_ok=conservation_ok,
            in_flight=sum(pending_by_stream.values()),
            pdr_trace=series,
            per_stream=self.stats,
            state_hash=self._state_hash(),
            decisions=self.decisions,
        )

    def _state_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(repr(self.engine.clock_us).encode())
        digest.update(repr(self.positions).encode())
        for st in self.medium.states:
            digest.update(repr((len(st.queue), st.queue_drops)).encode())
        for st in self.stats:
            digest.update(repr((st.sent, st.received, sorted(st.drops.items()))).encode())
        digest.update(repr((self.medium.control_tx, self.medium.data_tx)).encode())
        digest.update(repr(self.engine.processed).encode())
        return digest.hexdigest()


def simulate(config: ScenarioConfig, seed: int, **kwargs) -> RunResult:
    return Simulation(config, seed, **kwargs).run()
