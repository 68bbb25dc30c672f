"""Radio link budget, frames, per-node transmit queues, and the shared medium.

The medium implements an abstract CSMA broadcast channel: a transmission
occupies [t, t + airtime] and reaches every node inside the reception range.
Two receptions overlapping at a receiver destroy both, so a node keeps only
its latest reception end and its one clean reception. A node defers its start
while it hears a transmission, plus a random jitter from the "mac" RNG stream.
Each transmission ends in at most one delivery call, clean receivers ascending.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .engine import Engine, EventKind
from .mobility import Position

if TYPE_CHECKING:  # config imports this module to check a run's link budget and airtime
    from .config import ScenarioConfig

SPEED_OF_LIGHT = 3.0e8  # free-space simplification used throughout the link budget

# Reading an Enum member off its class runs Python code before 3.12 (~0.1 us
# on 3.11); the medium schedules one or two events per frame.
_TX_ATTEMPT, _PACKET_ARRIVAL = EventKind.TX_ATTEMPT, EventKind.PACKET_ARRIVAL


def path_loss_db(distance_m: float, params: ScenarioConfig) -> float:
    """Single-slope log-distance loss: 10 * n * log10(4*pi*d*f/c).

    Distances at or below zero are clamped to 0.1 m (co-located radios).
    """
    if distance_m <= 0:
        distance_m = 0.1
    return (
        10.0
        * params.path_loss_exponent
        * math.log10(4.0 * math.pi * distance_m * params.frequency_hz / SPEED_OF_LIGHT)
    )


def receivable(distance_m: float, params: ScenarioConfig) -> bool:
    return params.tx_power_dbm - path_loss_db(distance_m, params) >= params.sensitivity_dbm


def max_range_m(params: ScenarioConfig) -> float:
    """Largest distance still receivable; closed-form inverse of path_loss_db."""
    budget_db = params.tx_power_dbm - params.sensitivity_dbm
    return (
        SPEED_OF_LIGHT
        / (4.0 * math.pi * params.frequency_hz)
        * 10.0 ** (budget_db / (10.0 * params.path_loss_exponent))
    )


def airtime_s(size_bytes: int, config: ScenarioConfig) -> float:
    return (size_bytes + config.mac_overhead_bytes) * 8.0 / config.mac_rate_bps


def airtime_us(size_bytes: int, config: ScenarioConfig) -> int:
    return max(1, round(airtime_s(size_bytes, config) * 1e6))


@dataclass(slots=True)
class Frame:
    dst: int | None  # final destination; None for flooded control traffic
    size_bytes: int
    prev_hop: int | None = None
    # None = a broadcast, which only control frames are. The forwarding path
    # sets it before it queues a data frame, so every queued data frame has one.
    next_hop: int | None = None
    packet_id: int | None = None
    ttl: int = 16
    payload: object = None
    stream_idx: int | None = None


class _MacState:
    __slots__ = ("queue", "queue_drops", "rx_until", "rx_clean")

    def __init__(self) -> None:
        self.queue: deque[Frame] = deque()
        self.queue_drops = 0
        # Latest end of any reception registered at this node. A reception
        # that starts before it overlaps one still in the air here.
        self.rx_until = 0
        # The lost-receiver list of the transmission behind this node's one
        # clean reception; None once that reception is hit. It ends at rx_until.
        self.rx_clean: list[int] | None = None


class Medium:
    """Run-local shared channel state; owned by a single engine."""

    def __init__(
        self,
        engine: Engine,
        positions: list[Position],
        config: ScenarioConfig,
        on_deliver: Callable[[list[int], Frame], None],
        on_unicast_lost: Callable[[Frame, str], None],
    ):
        self.engine = engine
        self.positions = positions  # mutated in place by the mobility handler
        self.config = config
        self.on_deliver = on_deliver
        self.on_unicast_lost = on_unicast_lost
        # The jitter is randrange(mac_jitter_us + 1) on the "mac" stream, drawn
        # as randrange draws it (Random._randbelow): bit_length bits, redrawn
        # while out of range, so the sequence is the same.
        self._getrandbits = engine.rng_stream("mac").getrandbits
        self._jitter_span = config.mac_jitter_us + 1
        self._jitter_bits = self._jitter_span.bit_length()
        self.range2 = max_range_m(config) ** 2
        # A pure function of the frame size here, so computed once per size.
        self.airtime_us = functools.cache(functools.partial(airtime_us, config=config))
        self.states = [_MacState() for _ in positions]
        # Each transmitting node's (t_end_us, frame), removed at arrival.
        self.on_air: dict[int, tuple[int, Frame]] = {}
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

    def _attempt_after(self, node_id: int, t_us: int) -> None:
        """Schedule node_id's next transmit attempt at t_us plus a fresh jitter."""
        # Every caller keeps one invariant: an idle node with a non-empty queue
        # has exactly one attempt pending, and a transmitting node has none.
        jitter = self._getrandbits(self._jitter_bits)
        while jitter >= self._jitter_span:
            jitter = self._getrandbits(self._jitter_bits)
        self.engine.schedule(t_us + jitter, _TX_ATTEMPT, node_id)

    def enqueue(self, node_id: int, frame: Frame) -> bool:
        """FIFO admit; drop-tail above capacity with the drop counted."""
        st = self.states[node_id]
        if len(st.queue) >= self.config.queue_capacity:
            st.queue_drops += 1
            return False
        st.queue.append(frame)
        if len(st.queue) == 1 and node_id not in self.on_air:
            self._attempt_after(node_id, self.engine.clock_us)
        return True

    def _on_attempt(self, node_id: int) -> None:
        now = self.engine.clock_us
        # Carrier sense: defer while any receivable transmission is in progress.
        # One that ends at now is over, though its arrival may not have run yet.
        busy_until = now
        audible = self.neighbor_sets[node_id]
        on_air = self.on_air
        for sender_id in on_air:
            if sender_id in audible:
                t_end = on_air[sender_id][0]
                if t_end > busy_until:
                    busy_until = t_end
        if busy_until > now:
            self._attempt_after(node_id, busy_until)
            return
        states = self.states
        frame = states[node_id].queue.popleft()
        t_end = now + self.airtime_us(frame.size_bytes)
        if frame.next_hop is None:
            self.control_tx += 1
        else:
            self.data_tx += 1
        # Register a reception at every in-range node. Overlap destroys both
        # frames at that receiver: this one and the node's clean reception, if
        # it has one. The receiver set is fixed at tx start (node displacement
        # within one airtime is sub-millimeter): refresh_neighbors replaces the
        # neighbour lists and never changes one in place.
        receivers = self.neighbors[node_id]
        # The receivers that lose this frame. A list, not a set: a set held
        # for each frame's airtime raised crowd50's peak RSS by ~0.2 MB.
        lost: list[int] = []
        for other in receivers:
            other_st = states[other]
            if other_st.rx_until <= now:
                other_st.rx_clean = lost
            else:
                lost.append(other)
                if other_st.rx_clean is not None:
                    other_st.rx_clean.append(other)
                    other_st.rx_clean = None
            # Always true for a clean reception: t_end > now >= rx_until.
            if t_end > other_st.rx_until:
                other_st.rx_until = t_end
        on_air[node_id] = (t_end, frame)
        self.engine.schedule(t_end, _PACKET_ARRIVAL, (node_id, receivers, lost))

    def _on_arrival(self, payload: tuple) -> None:
        node_id, receivers, lost = payload
        _, frame = self.on_air.pop(node_id)
        addressed = frame.next_hop
        if addressed is None:
            # A copy either way: the callback owns the list it is given.
            if lost:
                lost_set = set(lost)
                clean = [r for r in receivers if r not in lost_set]
            else:
                clean = receivers[:]
            if clean:
                self.on_deliver(clean, frame)
        elif addressed not in lost and addressed in receivers:
            self.on_deliver([addressed], frame)
        else:  # only data frames carry a next hop
            self.on_unicast_lost(frame, "collision" if addressed in receivers else "link")
        if self.states[node_id].queue:
            self._attempt_after(node_id, self.engine.clock_us)

    def queued_data_frames(self) -> list[Frame]:
        """Stream frames still held by the medium (queued or on the air)."""
        pending = [f for st in self.states for f in st.queue if f.next_hop is not None]
        pending.extend(f for _, f in self.on_air.values() if f.next_hop is not None)
        return pending
