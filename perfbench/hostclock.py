"""Host time in reference seconds.

On a shared VM, other tenants change how fast the benchmark's core runs, in
phases that last tens of seconds. Wall time and CPU time both follow those
phases, and no amount of repetition inside one run averages them out. So
every timed piece of work is bracketed by a fixed calibration kernel of
simulator-like Python. The kernel runs in the same process, unpinned, so the
scheduler treats it as it treats the work. The work's time is divided by the
mean of the kernel times just before and just after it, which gives the
host's speed at that moment.
It is then multiplied by ``REFERENCE_KERNEL_S``, so it reads as seconds on a
host where the kernel takes that long. The kernel is part of the benchmark,
so a change to the simulator cannot make it faster or slower.
"""

from __future__ import annotations

import heapq
import time

# The unit of a reference second: the kernel takes about this long on the
# 2-vCPU Xeon (2.1 GHz) VM the baseline was measured on.
REFERENCE_KERNEL_S = 0.018
KERNEL_EVENTS = 3_000
_NODES = 15


class _Event:
    __slots__ = ("time", "seq", "node")

    def __init__(self, time_us: int, seq: int, node: int):
        self.time = time_us
        self.seq = seq
        self.node = node

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


def kernel_seconds() -> float:
    """Host seconds for one run of the calibration kernel: a small event loop
    with Python-level heap ordering, a range check against every node per
    event and dict-of-dict score updates, the same mix of work the simulator
    does, frozen here so that no change to the simulator moves it."""
    t0 = time.perf_counter()
    positions = [(float(i * 13 % 150), float(i * 29 % 150), 5.0) for i in range(_NODES)]
    scores: dict[int, dict[int, float]] = {i: {} for i in range(_NODES)}
    heap = [_Event(i * 7, i, i) for i in range(_NODES)]
    heapq.heapify(heap)
    seq = _NODES
    for _ in range(KERNEL_EVENTS):
        event = heapq.heappop(heap)
        here = positions[event.node]
        ranking = scores[event.node]
        for other, there in enumerate(positions):
            d2 = (here[0] - there[0]) ** 2 + (here[1] - there[1]) ** 2 + (here[2] - there[2]) ** 2
            if d2 <= 3000.0:
                ranking[other] = ranking.get(other, 0.0) * 0.5 + 1.0
        seq += 1
        heapq.heappush(heap, _Event(event.time + 1 + seq * 7919 % 97, seq, (event.node + seq) % _NODES))
    return time.perf_counter() - t0


def reference_seconds(host_s: float, kernel_s: float) -> float:
    """``host_s`` measured while the kernel took ``kernel_s``, in reference seconds."""
    return host_s * REFERENCE_KERNEL_S / kernel_s


class HostClock:
    def __init__(self) -> None:
        self._before = kernel_seconds()
        self.kernel_s: list[float] = []  # the kernel time behind each timed piece of work

    def time(self, fn):
        """Runs ``fn()``; returns (result, host seconds, reference seconds)."""
        t0 = time.perf_counter()
        result = fn()
        host_s = time.perf_counter() - t0
        after = kernel_seconds()
        kernel_s = (self._before + after) / 2
        self._before = after
        self.kernel_s.append(kernel_s)
        return result, host_s, reference_seconds(host_s, kernel_s)
