"""Deterministic discrete-event engine: fixed-point clock, priority queue, named
RNG streams, and one float summation order."""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import random
from enum import Enum
from typing import Any, Callable, Iterable

# Queue keys are integer microseconds so event ordering is exact and
# platform-independent; floats appear only at API edges.
US_PER_S = 1_000_000


def us_from_s(seconds: float) -> int:
    return round(seconds * US_PER_S)


def s_from_us(time_us: int) -> float:
    return time_us / US_PER_S


def left_sum(values: Iterable[float]) -> float:
    """Add values left to right, as sum() did before Python 3.12. From 3.12 on,
    sum() compensates float rounding, so every float sum a run makes comes here."""
    total = 0
    for value in values:
        total += value
    return total


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


# Reading a member off an Enum class runs Python code before 3.12: 108 ns on
# 3.11 and 155 ns on 3.10, against 6 ns for a module global. The simulation
# and the medium read a kind for every event they schedule, so they read these.
MOBILITY_TICK = EventKind.MOBILITY_TICK
CONTROL_EMIT = EventKind.CONTROL_EMIT
STREAM_SEND = EventKind.STREAM_SEND
TX_ATTEMPT = EventKind.TX_ATTEMPT
PACKET_ARRIVAL = EventKind.PACKET_ARRIVAL


def _call(fn: Callable[[], None]) -> None:
    fn()


class SchedulingError(Exception):
    """Event scheduled in the past; indicates a logic bug, not a runtime condition."""


def stream_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for a named stream, identical across runs and platforms."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Engine:
    """Single-threaded event loop. Not shareable across threads mid-run; parallel
    experiments use independent Engine instances."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self.clock_us = 0
        # The queue's one entry layout is (fire_time_us, seq, kind, payload),
        # with seq from next_seq: unique, so heapq orders entries by comparing
        # two ints in C and never reaches the kind. push(entry) queues an entry
        # with no Python frame between the caller and heappush. It skips
        # schedule()'s past check, so every caller that uses it states why its
        # fire time cannot lie before clock_us; everything else calls schedule().
        # An entry may wait off the heap with its seq already taken, as the
        # simulation's control emits do, and is pushed when it becomes the
        # earliest of its kind: the heap orders it by the same key.
        self._heap: list[tuple[int, int, EventKind, Any]] = []
        self.push = functools.partial(heapq.heappush, self._heap)
        self.next_seq = itertools.count().__next__
        # A CALLBACK's payload is the zero-argument callable to run. It is set
        # here, not through on(), so that code wrapping on() (perfbench's
        # tracer) sees only the handlers the simulator registers.
        self._handlers: dict[EventKind, Callable[[Any], None]] = {EventKind.CALLBACK: _call}
        self._streams: dict[str, random.Random] = {}
        self.processed = 0

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

    def on(self, kind: EventKind, handler: Callable[[Any], None]) -> None:
        """Run ``handler(payload)`` for every event of ``kind``."""
        self._handlers[kind] = handler

    def drop_handlers(self) -> None:
        """Forget the handlers registered with ``on()``: they are bound methods
        of the engine's owners, so they tie those owners and it into cycles."""
        self._handlers = {EventKind.CALLBACK: _call}

    def schedule(self, fire_time_us: int, kind: EventKind, payload: Any = None) -> None:
        if fire_time_us < self.clock_us:
            raise SchedulingError(
                f"cannot schedule {kind.value} at {fire_time_us} us; clock is {self.clock_us} us"
            )
        self.push((fire_time_us, self.next_seq(), kind, payload))

    def run_until(self, t_end_us: int) -> int:
        """Process every event with fire_time <= t_end_us, in order.

        Returns the number of events processed; the clock always lands exactly
        on t_end_us even when the queue empties early.
        """
        count = 0
        heap, pop = self._heap, heapq.heappop
        handlers = self._handlers
        while heap and heap[0][0] <= t_end_us:
            self.clock_us, _, kind, payload = pop(heap)
            handlers[kind](payload)
            count += 1
        self.clock_us = max(self.clock_us, t_end_us)
        self.processed += count
        return count
