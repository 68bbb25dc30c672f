"""Constant-bitrate datagram streams, delivery accounting, PDR metrics.

The windowed "current PDR" divides receptions by transmissions inside each
window, so it legitimately exceeds 1.0 when a queue stall releases packets
sent in earlier windows. The overall PDR can never exceed 1.0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

DROP_CAUSES = ("collision", "queue", "no_route", "ttl", "link")


@dataclass(frozen=True)
class StreamSpec:
    src: int
    dst: int
    start_us: int
    stop_us: int
    bitrate_bps: float = 2e6
    payload_bytes: int = 1460

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("stream endpoints must differ")
        if self.interval_us < 1:
            # A zero interval would resend at one timestamp forever.
            raise ValueError(f"{self.bitrate_bps} bps sends {self.payload_bytes}-byte "
                             "packets less than 1 us apart")

    @property
    def interval_us(self) -> int:
        return send_interval_us(self.payload_bytes, self.bitrate_bps)


def send_interval_us(payload_bytes: int, bitrate_bps: float) -> int:
    """Gap between a constant-bitrate stream's packets, on the engine's µs grid."""
    return round(payload_bytes * 8 / bitrate_bps * 1e6)


def send_times_us(spec: StreamSpec) -> Iterator[int]:
    """Send instants on the stream's fixed grid, half-open on [start, stop)."""
    t = spec.start_us
    step = spec.interval_us
    while t < spec.stop_us:
        yield t
        t += step


def draw_endpoints(node_count: int, stream_count: int, rng: random.Random) -> list[tuple[int, int]]:
    """Endpoint-disjoint (src, dst) pairs drawn from the traffic stream.

    Rejection sampling keeps the draw sequence stable across platforms.
    """
    if 2 * stream_count > node_count:
        raise ValueError(f"{stream_count} streams need {2 * stream_count} distinct nodes")
    used: set[int] = set()
    picks: list[int] = []
    while len(picks) < 2 * stream_count:
        candidate = rng.randrange(node_count)
        if candidate in used:
            continue
        used.add(candidate)
        picks.append(candidate)
    return [(picks[2 * i], picks[2 * i + 1]) for i in range(stream_count)]


class StreamStats:
    """Send/receive counters plus per-window series and drop causes for one stream."""

    def __init__(self, window_us: int):
        self.window_us = window_us
        self.sent = 0
        self.received = 0
        self.sent_w: dict[int, int] = {}
        self.received_w: dict[int, int] = {}
        self.drops: dict[str, int] = {cause: 0 for cause in DROP_CAUSES}

    def record_sent(self, t_us: int) -> None:
        self.sent += 1
        idx = t_us // self.window_us
        self.sent_w[idx] = self.sent_w.get(idx, 0) + 1

    def record_received(self, t_us: int) -> None:
        self.received += 1
        idx = t_us // self.window_us
        self.received_w[idx] = self.received_w.get(idx, 0) + 1

    def record_drop(self, cause: str) -> None:
        self.drops[cause] += 1

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    @property
    def in_flight(self) -> int:
        return self.sent - self.received - self.total_drops


def current_pdr(stats: StreamStats, window_idx: int) -> float | None:
    """Windowed PDR; None (absent sample) when nothing was sent in the window."""
    sent = stats.sent_w.get(window_idx, 0)
    if sent == 0:
        return None
    return stats.received_w.get(window_idx, 0) / sent


def overall_pdr(stats: StreamStats) -> float:
    if stats.sent == 0:
        raise ValueError("overall PDR undefined before anything was sent")
    return stats.received / stats.sent


def pdr_series(stats: StreamStats, horizon_us: int) -> list[tuple[float, int, int, float | None]]:
    """(window_end_s, sent, received, current_pdr) per window over [0, horizon)."""
    n_windows = math.ceil(horizon_us / stats.window_us)
    series = []
    for idx in range(n_windows):
        sent = stats.sent_w.get(idx, 0)
        received = stats.received_w.get(idx, 0)
        series.append((
            (idx + 1) * stats.window_us / 1e6,
            sent,
            received,
            received / sent if sent else None,
        ))
    return series


def mean_current_pdr(stats: StreamStats, horizon_us: int) -> float:
    samples = [pdr for *_, pdr in pdr_series(stats, horizon_us) if pdr is not None]
    if not samples:
        return 0.0
    return sum(samples) / len(samples)


def confidence_interval(samples: list[float], level: float = 0.95) -> tuple[float, float, float]:
    """Student-t interval (mean, lo, hi) over independent run samples.

    Needs scipy (the ``analysis`` extra). It is imported here, not at module
    level, because it costs more than a short simulation run and nothing
    else in the simulator uses it.
    """
    n = len(samples)
    if n < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    from scipy import stats

    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = stats.t.ppf((1 + level) / 2, n - 1) * math.sqrt(variance / n)
    return (mean, mean - half, mean + half)
