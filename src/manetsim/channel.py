"""Radio link budget, frames, per-node transmit queues, and the shared medium.

The medium implements an abstract CSMA broadcast channel: a transmission
occupies [t, t + airtime] and reaches every node inside the reception range.
Two receptions overlapping at a receiver destroy both, so a node keeps only
its latest reception end and its one clean reception. A node defers its start
while it hears a transmission, plus a random jitter from the "mac" RNG stream.
Each transmission keeps the receivers that still hear it cleanly, ascending,
and an overlap deletes the one receiver it hits; the transmission ends in at
most one delivery call, to exactly those receivers.

Carrier sense reads the node's latest reception end, since a transmission
registers its end at every node in range as it starts and range is symmetric.
After a topology change, until the frames then on the air end, it looks the
node's current neighbours up in the on-air map.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable

from .engine import PACKET_ARRIVAL, TX_ATTEMPT, Engine
from .mobility import Position

if TYPE_CHECKING:  # config imports this module to check a run's link budget and airtime
    from .config import ScenarioConfig

SPEED_OF_LIGHT = 3.0e8  # free-space simplification used throughout the link budget
# The Verlet skin covers this many mobility ticks of travel, plus a floor
# that lets a node at rest or nearly so keep its lists.
SKIN_TICKS = 4
SKIN_FLOOR_M = 1.0


def max_range_m(params: ScenarioConfig) -> float:
    """Largest distance at which a frame is still received, under the single-slope
    log-distance loss 10 * n * log10(4*pi*d*f/c), in closed form."""
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
    """A node's transmit queue and its drop-tail count."""

    __slots__ = ("queue", "queue_drops")

    def __init__(self) -> None:
        self.queue: deque[Frame] = deque()
        self.queue_drops = 0


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
        self._push, self._next_seq = engine.push, engine.next_seq
        # The jitter is randrange(mac_jitter_us + 1) on the "mac" stream, drawn
        # as randrange draws it (Random._randbelow): bit_length bits, redrawn
        # while out of range, so the sequence is the same. The iterator is lazy
        # and runs in C: each call draws exactly the bits that draw needs.
        span = config.mac_jitter_us + 1
        getrandbits = engine.rng_stream("mac").getrandbits
        self._jitter = filter(span.__gt__, map(getrandbits, repeat(span.bit_length()))).__next__
        range_m = max_range_m(config)
        self.range2 = range_m ** 2
        # Verlet lists: the candidate pairs lie within range plus a skin of
        # SKIN_TICKS ticks of travel and two floors. They stand until some node
        # has moved more than half the travel and a floor's half since their
        # build, so no pair closes more than the travel and a floor meanwhile;
        # the floor left over is far above float rounding.
        travel_m = SKIN_TICKS * config.speed_mps * config.mobility_update_s
        self._reach_m = range_m + travel_m + 2 * SKIN_FLOOR_M
        self._moved_limit_m = (travel_m + SKIN_FLOOR_M) / 2
        # A pure function of the frame size here, so computed once per size.
        self.airtime_us = functools.cache(functools.partial(airtime_us, config=config))
        self.states = [_MacState() for _ in positions]
        # rx_until[n]: the latest end of any reception registered at node n. A
        # reception that starts before it overlaps one still on the air there,
        # and carrier sense defers to it.
        self.rx_until = [0] * len(positions)
        # rx_clean[n]: the clean-receiver dict of the transmission behind node
        # n's one clean reception, which ends at rx_until[n]; None once that
        # reception is hit.
        self.rx_clean: list[dict[int, None] | None] = [None] * len(positions)
        # Each transmitting node's (t_end_us, frame), removed at arrival.
        self.on_air: dict[int, tuple[int, Frame]] = {}
        self.control_tx = 0
        self.data_tx = 0
        self.neighbors: list[list[int]] | None = None
        self._build_candidates()
        self.refresh_neighbors()
        engine.on(TX_ATTEMPT, self._on_attempt)
        engine.on(PACKET_ARRIVAL, self._on_arrival)

    def _build_candidates(self) -> None:
        """Anchor the Verlet lists at the current positions: ``_candidates[a]``
        lists, ascending, each b > a within reach of a."""
        positions, reach_m = self.positions, self._reach_m
        self._anchors = positions[:]
        self._candidates = [
            [b for b, pos_b in enumerate(positions[a + 1:], a + 1)
             if math.dist(pos_a, pos_b) <= reach_m]
            for a, pos_a in enumerate(positions)
        ]

    def refresh_neighbors(self) -> None:
        """Recompute every node's in-range neighbours from the current positions.

        ``neighbors[n]`` lists the ids in range of node n in ascending order.
        Carrier sense and receiver sets read only these lists, so this must
        run after every position update. The ascending order fixes the order
        in which receptions are registered and delivered. When a list changes,
        until every frame now on the air ends, at ``scan_until``, carrier
        sense looks its node's neighbours up in the on-air map: a reception
        clock may count a sender that has moved out of range or miss one moved
        in. When none changes, the lists and ``scan_until`` stay as they are:
        every reception clock then counts the on-air senders the scan would.
        """
        positions, range2 = self.positions, self.range2
        if max(map(math.dist, positions, self._anchors)) > self._moved_limit_m:
            self._build_candidates()
        # Each candidate pair is tested in (a, b) order with the expression a
        # full scan would use, so the lists come out the same and ascending.
        neighbors: list[list[int]] = [[] for _ in positions]
        for a, candidates in enumerate(self._candidates):
            if candidates:
                ax, ay, az = positions[a]
                near_a = neighbors[a]
                for b in candidates:
                    bx, by, bz = positions[b]
                    if (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2 <= range2:
                        near_a.append(b)
                        neighbors[b].append(a)
        if neighbors != self.neighbors:
            self.neighbors = neighbors
            self.scan_until = max([t_end for t_end, _ in self.on_air.values()], default=0)

    def enqueue(self, node_id: int, frame: Frame) -> bool:
        """FIFO admit; drop-tail above capacity with the drop counted."""
        st = self.states[node_id]
        if len(st.queue) >= self.config.queue_capacity:
            st.queue_drops += 1
            return False
        st.queue.append(frame)
        # Every attempt the medium pushes keeps one invariant: an idle node
        # with a non-empty queue has exactly one attempt pending, and a
        # transmitting node has none. This one fires a jitter (>= 0) after the clock.
        if len(st.queue) == 1 and node_id not in self.on_air:
            self._push((self.engine.clock_us + self._jitter(), self._next_seq(), TX_ATTEMPT,
                        node_id))
        return True

    def _on_attempt(self, node_id: int) -> None:
        now = self.engine.clock_us
        # Carrier sense: defer while any transmission in range is in progress.
        # One that ends at now is over, though its arrival may not have run yet.
        # The node's reception clock tells, but for a while after a topology change.
        on_air, rx_until = self.on_air, self.rx_until
        busy_until = rx_until[node_id]
        if now < self.scan_until:
            busy_until = now
            for sender_id in self.neighbors[node_id]:
                if sender_id in on_air:
                    t_end = on_air[sender_id][0]
                    if t_end > busy_until:
                        busy_until = t_end
        if busy_until > now:  # so the deferred attempt lies after the clock
            self._push((busy_until + self._jitter(), self._next_seq(), TX_ATTEMPT, node_id))
            return
        frame = self.states[node_id].queue.popleft()
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
        # The receivers that still hear this frame cleanly, as dict keys: they
        # go in ascending, and a later overlap deletes its one receiver, which
        # leaves the rest in order. A reception that ends at now is over: its
        # frame's arrival, before or after this attempt, delivers from that
        # frame's own dict, which this start leaves alone.
        clean: dict[int, None] = {}
        rx_clean = self.rx_clean
        for other in receivers:
            if rx_until[other] <= now:
                clean[other] = None
                rx_clean[other] = clean
                rx_until[other] = t_end  # t_end > now >= rx_until
            else:
                hit = rx_clean[other]
                if hit is not None:
                    del hit[other]
                    rx_clean[other] = None
                if t_end > rx_until[other]:
                    rx_until[other] = t_end
        on_air[node_id] = (t_end, frame)
        # An airtime is at least 1 us, so the arrival lies after the clock.
        self._push((t_end, self._next_seq(), PACKET_ARRIVAL, (node_id, receivers, clean)))

    def _on_arrival(self, payload: tuple) -> None:
        node_id, receivers, clean = payload
        _, frame = self.on_air.pop(node_id)
        addressed = frame.next_hop
        if addressed is None:
            if clean:  # a fresh list: the callback owns the list it is given
                self.on_deliver(list(clean), frame)
        elif addressed in clean:
            self.on_deliver([addressed], frame)
        else:  # only data frames carry a next hop
            self.on_unicast_lost(frame, "collision" if addressed in receivers else "link")
        if self.states[node_id].queue:  # the next attempt, a jitter (>= 0) after the clock
            self._push((self.engine.clock_us + self._jitter(), self._next_seq(), TX_ATTEMPT,
                        node_id))

    def queued_data_frames(self) -> list[Frame]:
        """Stream frames still held by the medium (queued or on the air)."""
        pending = [f for st in self.states for f in st.queue if f.next_hop is not None]
        pending.extend(f for _, f in self.on_air.values() if f.next_hop is not None)
        return pending
