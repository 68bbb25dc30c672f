"""Deterministic discrete-event engine: fixed-point clock, priority queue, named RNG streams."""

from __future__ import annotations

import hashlib
import heapq
import random
from enum import Enum
from typing import Any, Callable

# Queue keys are integer microseconds so event ordering is exact and
# platform-independent; floats appear only at API edges.
US_PER_S = 1_000_000


def us_from_s(seconds: float) -> int:
    return round(seconds * US_PER_S)


def s_from_us(time_us: int) -> float:
    return time_us / US_PER_S


class EventKind(Enum):
    MOBILITY_TICK = "mobility-tick"
    CONTROL_EMIT = "control-emit"
    STREAM_SEND = "stream-send"
    TX_ATTEMPT = "tx-attempt"
    PACKET_ARRIVAL = "packet-arrival"
    CALLBACK = "callback"

    # Enum.__hash__ is Python code (it hashes the member name) and runs on
    # every dispatched event; members are singletons, so identity hashing in
    # C is equivalent.
    __hash__ = object.__hash__


class Event:
    """Queued event; (fire_time_us, seq) is the strict total order."""

    __slots__ = ("fire_time_us", "seq", "kind", "payload", "cancelled")

    def __init__(self, fire_time_us: int, seq: int, kind: EventKind, payload: Any):
        self.fire_time_us = fire_time_us
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self.cancelled = False


class SchedulingError(Exception):
    """Event scheduled in the past; indicates a logic bug, not a runtime condition."""


def stream_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for a named stream, identical across runs and platforms."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Engine:
    """Single-threaded event loop. Not shareable across threads mid-run; parallel
    experiments use independent Engine instances."""

    def __init__(self, master_seed: int = 0, record_log: bool = False):
        self.master_seed = master_seed
        self.clock_us = 0
        # (fire_time_us, seq, event): seq is unique, so heapq orders entries by
        # comparing two ints in C and never reaches the event itself.
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._handlers: dict[EventKind, Callable[[Event], None]] = {}
        self._streams: dict[str, random.Random] = {}
        self.processed = 0
        # Optional (time, seq, kind) trace used by replay/determinism checks.
        self.log: list[tuple[int, int, str]] | None = [] if record_log else None

    def rng_stream(self, name: str) -> random.Random:
        """Named RNG stream; identical (name, master_seed) yields identical draws.

        Streams are independent per subsystem so adding draws in one cannot
        perturb another.
        """
        if not name:
            raise ValueError("stream name must be nonempty")
        if name not in self._streams:
            self._streams[name] = random.Random(stream_seed(self.master_seed, name))
        return self._streams[name]

    def on(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        self._handlers[kind] = handler

    def schedule(self, fire_time_us: int, kind: EventKind, payload: Any = None) -> Event:
        if fire_time_us < self.clock_us:
            raise SchedulingError(
                f"cannot schedule {kind.value} at {fire_time_us} us; clock is {self.clock_us} us"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(fire_time_us, seq, kind, payload)
        heapq.heappush(self._heap, (fire_time_us, seq, event))
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        # Tombstone; the entry is discarded when it reaches the top of the heap.
        event.cancelled = True

    def run_until(self, t_end_us: int) -> int:
        """Process every uncancelled event with fire_time <= t_end_us, in order.

        Returns the number of events processed; the clock always lands exactly
        on t_end_us even when the queue empties early.
        """
        count = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                continue
            self.clock_us = event.fire_time_us
            if event.kind is EventKind.CALLBACK:
                event.payload()
            else:
                self._handlers[event.kind](event)
            if self.log is not None:
                self.log.append((event.fire_time_us, event.seq, event.kind.value))
            count += 1
        self.clock_us = max(self.clock_us, t_end_us)
        self.processed += count
        return count
