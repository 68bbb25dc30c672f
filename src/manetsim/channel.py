"""Radio link budget, frames, per-node transmit queues, and the shared medium.

The medium implements an abstract CSMA broadcast channel: a transmission
occupies [t, t + airtime] and reaches every node inside the reception range;
two receptions overlapping at a receiver destroy both; a node defers its own
start while it can hear an ongoing transmission, with a small random jitter
drawn from the "mac" RNG stream.
"""

from __future__ import annotations

import logging
import math
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .engine import Engine, EventKind, us_from_s
from .mobility import Position

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 3.0e8  # free-space simplification used throughout the link budget


@dataclass(frozen=True)
class ChannelParams:
    tx_power_dbm: float = 20.0  # 100 mW
    path_loss_exponent: float = 2.75
    frequency_hz: float = 2.4e9
    sensitivity_dbm: float = -83.0


@dataclass(frozen=True)
class MacParams:
    rate_bps: float = 24e6
    overhead_bytes: int = 64
    jitter_us: int = 200
    queue_capacity: int = 50


def path_loss_db(distance_m: float, params: ChannelParams) -> float:
    """Single-slope log-distance loss: 10 * n * log10(4*pi*d*f/c).

    Distances at or below zero are clamped to 0.1 m (co-located radios).
    """
    if distance_m <= 0:
        log.debug("path_loss_db: clamping distance %.6f m to 0.1 m", distance_m)
        distance_m = 0.1
    return (
        10.0
        * params.path_loss_exponent
        * math.log10(4.0 * math.pi * distance_m * params.frequency_hz / SPEED_OF_LIGHT)
    )


def receivable(distance_m: float, params: ChannelParams) -> bool:
    return params.tx_power_dbm - path_loss_db(distance_m, params) >= params.sensitivity_dbm


def max_range_m(params: ChannelParams) -> float:
    """Largest distance still receivable; closed-form inverse of path_loss_db."""
    budget_db = params.tx_power_dbm - params.sensitivity_dbm
    return (
        SPEED_OF_LIGHT
        / (4.0 * math.pi * params.frequency_hz)
        * 10.0 ** (budget_db / (10.0 * params.path_loss_exponent))
    )


def airtime_s(size_bytes: int, mac: MacParams) -> float:
    return (size_bytes + mac.overhead_bytes) * 8.0 / mac.rate_bps


def airtime_us(size_bytes: int, mac: MacParams) -> int:
    return max(1, round(airtime_s(size_bytes, mac) * 1e6))


class FrameKind(Enum):
    CONTROL = "control"
    DATA = "data"


@dataclass(slots=True)
class Frame:
    kind: FrameKind
    src: int
    dst: int | None  # final destination; None for flooded control traffic
    size_bytes: int
    prev_hop: int | None = None
    next_hop: int | None = None  # None = broadcast
    packet_id: int | None = None
    ttl: int = 16
    payload: object = None
    stream_idx: int | None = None
    enqueue_time_us: int = 0
    tx_start_us: int = 0
    tx_end_us: int = 0


class _MacState:
    __slots__ = ("queue", "queue_drops", "transmitting", "attempt_scheduled",
                 "active_recs", "current_frame")

    def __init__(self) -> None:
        self.queue: deque[Frame] = deque()
        self.queue_drops = 0
        self.transmitting = False
        self.attempt_scheduled = False
        # In-the-air receptions at this node: [frame, t_end_us, collided].
        self.active_recs: list[list] = []
        self.current_frame: Frame | None = None


class Medium:
    """Run-local shared channel state; owned by a single engine."""

    def __init__(
        self,
        engine: Engine,
        positions: list[Position],
        channel: ChannelParams,
        mac: MacParams,
        on_deliver: Callable[[int, Frame], None],
        on_unicast_lost: Callable[[Frame, str], None],
    ):
        self.engine = engine
        self.positions = positions  # mutated in place by the mobility handler
        self.channel = channel
        self.mac = mac
        self.on_deliver = on_deliver
        self.on_unicast_lost = on_unicast_lost
        self.rng = engine.rng_stream("mac")
        self.range2 = max_range_m(channel) ** 2
        self.states = [_MacState() for _ in positions]
        # Active transmissions: [sender_id, t_end_us], removed at arrival.
        self.active: list[list] = []
        self.control_tx = 0
        self.data_tx = 0
        self.refresh_neighbors()
        engine.on(EventKind.TX_ATTEMPT, self._on_attempt)
        engine.on(EventKind.PACKET_ARRIVAL, self._on_arrival)

    def refresh_neighbors(self) -> None:
        """Recompute every node's in-range neighbours from the current positions.

        ``neighbors[n]`` lists the ids in range of node n in ascending order,
        and ``neighbor_sets[n]`` holds the same ids. Carrier sense and receiver
        sets read only these, so this must run after every position update.
        The ascending order fixes the order in which receptions are
        registered and delivered.
        """
        positions = self.positions
        range2 = self.range2
        neighbors: list[list[int]] = [[] for _ in positions]
        for a, (ax, ay, az) in enumerate(positions):
            near_a = neighbors[a]
            for b in range(a + 1, len(positions)):
                bx, by, bz = positions[b]
                if (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2 <= range2:
                    near_a.append(b)
                    neighbors[b].append(a)
        self.neighbors = neighbors
        self.neighbor_sets = [set(near) for near in neighbors]

    def _jitter(self) -> int:
        return self.rng.randrange(self.mac.jitter_us + 1)

    def enqueue(self, node_id: int, frame: Frame) -> bool:
        """FIFO admit; drop-tail above capacity with the drop counted."""
        st = self.states[node_id]
        if len(st.queue) >= self.mac.queue_capacity:
            st.queue_drops += 1
            return False
        frame.enqueue_time_us = self.engine.clock_us
        st.queue.append(frame)
        if not st.transmitting and not st.attempt_scheduled:
            st.attempt_scheduled = True
            self.engine.schedule(
                self.engine.clock_us + self._jitter(), EventKind.TX_ATTEMPT, node_id
            )
        return True

    def _on_attempt(self, event) -> None:
        node_id = event.payload
        st = self.states[node_id]
        st.attempt_scheduled = False
        if st.transmitting or not st.queue:
            return
        now = self.engine.clock_us
        # Carrier sense: defer while any receivable transmission is in progress.
        busy_until = now
        audible = self.neighbor_sets[node_id]
        for sender_id, t_end in self.active:
            if t_end > now and sender_id in audible:
                busy_until = max(busy_until, t_end)
        if busy_until > now:
            st.attempt_scheduled = True
            self.engine.schedule(busy_until + self._jitter(), EventKind.TX_ATTEMPT, node_id)
            return
        frame = st.queue.popleft()
        st.transmitting = True
        st.current_frame = frame
        t_end = now + airtime_us(frame.size_bytes, self.mac)
        frame.tx_start_us = now
        frame.tx_end_us = t_end
        if frame.kind is FrameKind.CONTROL:
            self.control_tx += 1
        else:
            self.data_tx += 1
        # Register a reception at every in-range node; overlap destroys both
        # frames at that receiver. The receiver set is fixed at tx start
        # (node displacement within one airtime is sub-millimeter).
        recs: list[tuple[int, list]] = []
        for other in self.neighbors[node_id]:
            rec = [frame, t_end, False]
            other_st = self.states[other]
            for old in other_st.active_recs:
                if old[1] > now:
                    old[2] = True
                    rec[2] = True
            other_st.active_recs.append(rec)
            recs.append((other, rec))
        entry = [node_id, t_end]
        self.active.append(entry)
        self.engine.schedule(t_end, EventKind.PACKET_ARRIVAL, (node_id, frame, recs, entry))

    def _on_arrival(self, event) -> None:
        node_id, frame, recs, entry = event.payload
        self.active.remove(entry)
        st = self.states[node_id]
        st.transmitting = False
        st.current_frame = None
        # Delivery may reroute the frame and rewrite next_hop in place, so the
        # addressed hop must be pinned before the loop runs.
        addressed = frame.next_hop
        reached_next_hop = False
        for receiver, rec in recs:
            self.states[receiver].active_recs.remove(rec)
            if rec[2]:
                continue
            if addressed is None:
                self.on_deliver(receiver, frame)
            elif receiver == addressed:
                reached_next_hop = True
                self.on_deliver(receiver, frame)
        if addressed is not None and not reached_next_hop and frame.kind is FrameKind.DATA:
            in_range = any(receiver == addressed for receiver, _ in recs)
            self.on_unicast_lost(frame, "collision" if in_range else "link")
        if st.queue and not st.attempt_scheduled:
            st.attempt_scheduled = True
            self.engine.schedule(
                self.engine.clock_us + self._jitter(), EventKind.TX_ATTEMPT, node_id
            )

    def queued_data_frames(self) -> list[Frame]:
        """Stream frames still held by the medium (queued or on the air)."""
        pending = []
        for st in self.states:
            pending.extend(f for f in st.queue if f.kind is FrameKind.DATA)
            if st.current_frame is not None and st.current_frame.kind is FrameKind.DATA:
                pending.append(st.current_frame)
        return pending
