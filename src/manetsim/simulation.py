"""Full simulation run: mobility, control plane, data plane, accounting.

One Simulation owns one Engine and is strictly single-threaded; experiments
parallelize only by running independent seeds in independent instances.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .balancer import DropReason, RRState, plain_forward, postrouting_hook
from .channel import Frame, FrameKind, Medium, max_range_m
from .config import ScenarioConfig
from .engine import Engine, EventKind, us_from_s
from .mobility import (
    InsufficientHistoryError,
    MobilityHistory,
    MobilityState,
    Position,
    predict_position,
    random_position,
    step_waypoint,
)
from .routing import (
    BatmanProtocol,
    BatmobileProtocol,
    ControlKind,
    GeoOlsrProtocol,
    NeighborRanking,
    RouterState,
    ScoreTrend,
)
from .traffic import StreamSpec, StreamStats, draw_endpoints, mean_current_pdr, pdr_series


def build_protocol(config: ScenarioConfig):
    if config.protocol == "batman":
        return BatmanProtocol(
            ogm_interval_us=us_from_s(config.ogm_interval_s),
            tq_window_len=config.tq_window,
            hop_penalty=config.hop_penalty,
        )
    if config.protocol == "golsr":
        return GeoOlsrProtocol(
            hello_interval_us=us_from_s(config.hello_interval_s),
            tc_interval_us=us_from_s(config.tc_interval_s),
            diagonal_m=config.diagonal_m(),
            floor=config.geo_floor,
        )
    if config.protocol == "batmobile":
        return BatmobileProtocol(
            ogm_interval_us=us_from_s(config.ogm_interval_s),
            comm_range_m=max_range_m(config.channel_params()),
            prediction_weight=config.prediction_weight,
            weight_scale=config.score_buffer,
        )
    raise ValueError(f"unknown protocol {config.protocol!r}")


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
    forwarder_log: list[str] | None = field(repr=False, default=None)
    rr_log: list[tuple[int, int, tuple[int, ...], int]] | None = field(repr=False, default=None)
    control_emissions: dict[tuple[int, ControlKind], int] = field(repr=False, default_factory=dict)
    state_hash: str = ""
    event_log: list[tuple[int, int, str]] | None = field(repr=False, default=None)


class Simulation:
    def __init__(
        self,
        config: ScenarioConfig,
        seed: int,
        initial_positions: list[Position] | None = None,
        streams: list[StreamSpec] | None = None,
        log_forwarders: bool = False,
        log_rr: bool = False,
        record_event_log: bool = False,
    ):
        self.config = config
        self.seed = seed
        self.engine = Engine(master_seed=seed, record_log=record_event_log)
        self.area = config.area()
        self.end_us = us_from_s(config.sim_time_s)
        self.tick_us = us_from_s(config.mobility_update_s)

        topology_rng = self.engine.rng_stream("topology")
        self.mobility_rng = self.engine.rng_stream("mobility")
        control_rng = self.engine.rng_stream("control")
        traffic_rng = self.engine.rng_stream("traffic")

        if initial_positions is not None and len(initial_positions) != config.nodes:
            raise ValueError("initial_positions must cover every node")
        self.positions: list[Position] = []
        self.mobility: list[MobilityState] = []
        self.histories: list[MobilityHistory] = []
        for node in range(config.nodes):
            pos = (
                initial_positions[node]
                if initial_positions is not None
                else random_position(self.area, topology_rng)
            )
            waypoint = random_position(self.area, topology_rng)
            self.positions.append(pos)
            self.mobility.append(MobilityState(pos, waypoint, config.speed_mps))
            history = MobilityHistory(config.score_buffer)
            history.record(0, pos)
            self.histories.append(history)

        self.protocol = build_protocol(config)
        self._is_batmobile = isinstance(self.protocol, BatmobileProtocol)
        self.predicted: list[Position] = list(self.positions)
        expiry_us = us_from_s(config.ranking_expiry_s)
        self.routers = [
            RouterState(
                ranking=NeighborRanking(expiry_us),
                trend=ScoreTrend(config.score_buffer, config.trend_clamp, expiry_us)
                if self._is_batmobile
                else None,
            )
            for _ in range(config.nodes)
        ]
        self.rr = [RRState() for _ in range(config.nodes)]

        self.medium = Medium(
            self.engine,
            self.positions,
            config.channel_params(),
            config.mac_params(),
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
        window_us = us_from_s(config.window_s)
        self.stats = [StreamStats(window_us) for _ in streams]

        self._packet_counter = 0
        self.control_emissions: dict[tuple[int, ControlKind], int] = {}
        self.forwarder_log: list[str] | None = [] if log_forwarders else None
        self.rr_log: list[tuple[int, int, tuple[int, ...], int]] | None = [] if log_rr else None

        engine = self.engine
        engine.on(EventKind.MOBILITY_TICK, self._on_mobility_tick)
        engine.on(EventKind.CONTROL_EMIT, self._on_control_emit)
        engine.on(EventKind.STREAM_SEND, self._on_stream_send)
        engine.schedule(self.tick_us, EventKind.MOBILITY_TICK)
        for node in range(config.nodes):
            for kind, interval_us in self.protocol.emission_plan():
                phase = control_rng.randrange(interval_us)
                engine.schedule(phase, EventKind.CONTROL_EMIT, (node, kind, interval_us))
        for idx, spec in enumerate(self.streams):
            if spec.start_us < spec.stop_us:
                engine.schedule(spec.start_us, EventKind.STREAM_SEND, idx)

    # -- event handlers -------------------------------------------------

    def _on_mobility_tick(self, event) -> None:
        now = self.engine.clock_us
        dt = self.config.mobility_update_s
        for node in range(self.config.nodes):
            state = step_waypoint(self.mobility[node], dt, self.mobility_rng, self.area)
            self.mobility[node] = state
            self.positions[node] = state.position
            self.histories[node].record(now, state.position)
        self.medium.refresh_neighbors()
        if self._is_batmobile:
            for node in range(self.config.nodes):
                try:
                    self.predicted[node] = predict_position(
                        self.histories[node],
                        self.config.fit_samples,
                        self.config.prediction_steps,
                        self.config.mobility_update_s,
                    )
                except InsufficientHistoryError:
                    self.predicted[node] = self.positions[node]
        next_tick = now + self.tick_us
        if next_tick <= self.end_us:
            self.engine.schedule(next_tick, EventKind.MOBILITY_TICK)

    def _own_pred(self, node: int) -> Position | None:
        return self.predicted[node] if self._is_batmobile else None

    def _on_control_emit(self, event) -> None:
        node, kind, interval_us = event.payload
        now = self.engine.clock_us
        msg = self.protocol.emit(
            self.routers[node], node, self.positions[node], self._own_pred(node), kind, now
        )
        key = (node, kind)
        self.control_emissions[key] = self.control_emissions.get(key, 0) + 1
        frame = Frame(
            kind=FrameKind.CONTROL,
            src=node,
            dst=None,
            size_bytes=self.config.control_bytes,
            prev_hop=node,
            next_hop=None,
            ttl=self.config.ttl,
            payload=msg,
        )
        self.medium.enqueue(node, frame)
        next_emit = now + interval_us
        if next_emit <= self.end_us:
            self.engine.schedule(next_emit, EventKind.CONTROL_EMIT, (node, kind, interval_us))

    def _on_stream_send(self, event) -> None:
        idx = event.payload
        spec = self.streams[idx]
        now = self.engine.clock_us
        self.stats[idx].record_sent(now)
        self._packet_counter += 1
        frame = Frame(
            kind=FrameKind.DATA,
            src=spec.src,
            dst=spec.dst,
            size_bytes=spec.payload_bytes,
            prev_hop=None,
            packet_id=self._packet_counter,
            ttl=self.config.ttl,
            stream_idx=idx,
        )
        self._route(spec.src, frame)
        next_send = now + spec.interval_us
        if next_send < spec.stop_us:
            self.engine.schedule(next_send, EventKind.STREAM_SEND, idx)

    def _on_frame_delivered(self, receiver: int, frame: Frame) -> None:
        now = self.engine.clock_us
        if frame.kind is FrameKind.CONTROL:
            state = self.routers[receiver]
            state.ranking.touch_neighbor(frame.prev_hop, now)
            rebroadcast = self.protocol.receive(
                state, receiver, frame.payload, frame.prev_hop,
                self.positions[receiver], self._own_pred(receiver), now,
            )
            if rebroadcast is not None and frame.ttl > 1:
                self.medium.enqueue(receiver, Frame(
                    kind=FrameKind.CONTROL,
                    src=frame.src,
                    dst=None,
                    size_bytes=self.config.control_bytes,
                    prev_hop=receiver,
                    next_hop=None,
                    ttl=frame.ttl - 1,
                    payload=rebroadcast,
                ))
            return
        if receiver == frame.dst:
            self.stats[frame.stream_idx].record_received(now)
        else:
            self._route(receiver, frame)

    def _on_unicast_lost(self, frame: Frame, cause: str) -> None:
        if frame.stream_idx is not None:
            self.stats[frame.stream_idx].record_drop(cause)

    # -- data-plane forwarding (postrouting hook position) ----------------

    def _route(self, node: int, frame: Frame) -> None:
        now = self.engine.clock_us
        ranking = self.routers[node].ranking
        if self.config.balancing:
            decision, sset = postrouting_hook(
                frame, node, ranking, self.rr[node], self.config.lambda_factor,
                now, self.config.exclude_prev_hop,
            )
        else:
            decision, sset = plain_forward(frame, node, ranking, now)
        if isinstance(decision, DropReason):
            self.stats[frame.stream_idx].record_drop(decision.value)
            if self.forwarder_log is not None:
                self.forwarder_log.append(f"{now} {node} {frame.packet_id} drop:{decision.value}")
            return
        if self.forwarder_log is not None:
            self.forwarder_log.append(f"{now} {node} {frame.packet_id} {decision}")
        if self.rr_log is not None and sset is not None:
            self.rr_log.append((node, frame.dst, sset.members, decision))
        if not self.medium.enqueue(node, frame):
            self.stats[frame.stream_idx].record_drop("queue")

    # -- run & results -----------------------------------------------------

    def run(self) -> RunResult:
        self.engine.run_until(self.end_us)
        return self._collect()

    def _collect(self) -> RunResult:
        pending_by_stream: dict[int, int] = {}
        for frame in self.medium.queued_data_frames():
            if frame.stream_idx is not None:
                pending_by_stream[frame.stream_idx] = pending_by_stream.get(frame.stream_idx, 0) + 1
        conservation_ok = all(
            st.sent == st.received + st.total_drops + pending_by_stream.get(idx, 0)
            for idx, st in enumerate(self.stats)
        )
        pooled = StreamStats(us_from_s(self.config.window_s))
        drops: dict[str, int] = {}
        for st in self.stats:
            pooled.sent += st.sent
            pooled.received += st.received
            for idx, count in st.sent_w.items():
                pooled.sent_w[idx] = pooled.sent_w.get(idx, 0) + count
            for idx, count in st.received_w.items():
                pooled.received_w[idx] = pooled.received_w.get(idx, 0) + count
            for cause, count in st.drops.items():
                drops[cause] = drops.get(cause, 0) + count
        pooled.drops = dict(drops)
        return RunResult(
            seed=self.seed,
            sent=pooled.sent,
            received=pooled.received,
            drops=drops,
            overall_pdr=pooled.received / pooled.sent if pooled.sent else 0.0,
            mean_current_pdr=mean_current_pdr(pooled, self.end_us),
            control_tx=self.medium.control_tx,
            data_tx=self.medium.data_tx,
            events_processed=self.engine.processed,
            conservation_ok=conservation_ok,
            in_flight=sum(pending_by_stream.values()),
            pdr_trace=pdr_series(pooled, self.end_us),
            per_stream=self.stats,
            forwarder_log=self.forwarder_log,
            rr_log=self.rr_log,
            control_emissions=self.control_emissions,
            state_hash=self._state_hash(),
            event_log=self.engine.log,
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
