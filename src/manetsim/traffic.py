"""Constant-bitrate datagram streams, delivery accounting, PDR metrics.

The windowed "current PDR" divides receptions by transmissions inside each
window, so it legitimately exceeds 1.0 when a queue stall releases packets
sent in earlier windows. The overall PDR can never exceed 1.0.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .engine import left_sum

DROP_CAUSES = ("collision", "queue", "no_route", "ttl", "link")
MTU_BYTES = 1460  # the largest stream payload


@dataclass(frozen=True)
class StreamSpec:
    src: int
    dst: int
    start_us: int
    stop_us: int
    bitrate_bps: float = 2e6
    payload_bytes: int = MTU_BYTES
    interval_us: int = field(init=False, repr=False, compare=False)  # the packets' gap

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("stream endpoints must differ")
        # The bounds config.validate() puts on the same fields, in its words.
        if not 1 <= self.payload_bytes <= MTU_BYTES:
            rule = ">= 1" if self.payload_bytes < 1 else f"<= {MTU_BYTES}"
            raise ValueError(f"payload_bytes must be {rule}, got {self.payload_bytes}")
        if not (math.isfinite(self.bitrate_bps) and self.bitrate_bps > 0):
            rule = "> 0" if math.isfinite(self.bitrate_bps) else "finite"
            raise ValueError(f"bitrate_bps must be {rule}, got {self.bitrate_bps}")
        interval_us = send_interval_us(self.payload_bytes, self.bitrate_bps)  # raises off the µs clock
        object.__setattr__(self, "interval_us", interval_us)


def send_interval_us(payload_bytes: int, bitrate_bps: float) -> int:
    """Gap between a constant-bitrate stream's packets on the engine's µs grid, else ValueError."""
    # The one statement of this rule: StreamSpec and config.validate() both call
    # here, and validate() reports the message as it stands.
    try:
        interval_us = round(payload_bytes * 8 / bitrate_bps * 1e6)
    except OverflowError:
        raise ValueError(f"bitrate_bps {bitrate_bps} sends packets too far apart "
                         "for the us clock") from None
    if interval_us < 1:  # a zero gap would resend at one timestamp forever
        raise ValueError(f"bitrate_bps {bitrate_bps} sends {payload_bytes}-byte packets "
                         "less than 1 us apart")
    return interval_us


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

    def record_sent(self, t_us: int, drop: str | None = None) -> None:
        """Count a send at t_us, and its drop at the source when ``drop`` names a cause."""
        self.sent += 1
        idx = t_us // self.window_us
        self.sent_w[idx] = self.sent_w.get(idx, 0) + 1
        if drop is not None:
            self.drops[drop] += 1

    def record_received(self, t_us: int) -> None:
        self.received += 1
        idx = t_us // self.window_us
        self.received_w[idx] = self.received_w.get(idx, 0) + 1

    def record_drop(self, cause: str) -> None:
        self.drops[cause] += 1


def pdr_series(streams: list[StreamStats], window_us: int,
               horizon_us: int) -> list[tuple[float, int, int, float | None]]:
    """(window_end_s, sent, received, current_pdr) per window over [0, horizon),
    pooled over the streams, whose windows are window_us long."""
    sent_w: Counter[int] = Counter()
    received_w: Counter[int] = Counter()
    for st in streams:
        sent_w.update(st.sent_w)
        received_w.update(st.received_w)
    series = []
    for idx in range(math.ceil(horizon_us / window_us)):
        sent, received = sent_w[idx], received_w[idx]
        series.append(((idx + 1) * window_us / 1e6, sent, received,
                       received / sent if sent else None))
    return series


def mean_current_pdr(series: list[tuple[float, int, int, float | None]]) -> float:
    """Mean of a pdr_series' current PDRs over the windows that sent anything."""
    samples = [pdr for *_, pdr in series if pdr is not None]
    if not samples:
        return 0.0
    return left_sum(samples) / len(samples)
