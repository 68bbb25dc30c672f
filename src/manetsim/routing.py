"""Control plane and path-quality metrics.

Three metrics populate the per-destination neighbor rankings:

* a transmission-quality score built from windowed reception success of a
  neighbor's own originator messages, with a multiplicative per-hop penalty;
* a geographic score ranking a candidate forwarder by its distance to the
  destination, normalized by the mission-area diagonal;
* a mobility-aware path score multiplying per-link scores derived from
  current and predicted inter-node distances.

All three share one flooding process (FloodingProtocol) with per-(kind,
originator) rebroadcast dedup and differ only in how they score a received
copy. Every received copy refreshes the ranking entry for the neighbor it came
through, which is what gives each node more than one candidate forwarder per
destination. One transmission's copies reach ``receive`` together, as one
receiver list, and each metric scores them all in one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from math import sqrt
from operator import mul, sub

from .channel import max_range_m
from .config import ScenarioConfig
from .engine import left_sum, us_from_s
from .mobility import Position, distance


class ControlKind(Enum):
    OGM = "ogm"
    HELLO = "hello"
    TC = "tc"

    # Identity hashing in C; see EventKind. Hashed on every scored copy of a
    # flooded kind, through the FloodingProtocol.forwarded key.
    __hash__ = object.__hash__


@dataclass(slots=True)
class ControlMessage:
    kind: ControlKind
    originator: int
    seq: int
    sender_position: Position
    carried_score: float = 1.0
    originator_position: Position | None = None
    sender_predicted: Position | None = None


class TQWindow:
    """Sliding 8-slot bitmap over a neighbor's originator-message sequence
    numbers; ``quality``, the fraction of slots heard, is stored on update."""

    __slots__ = ("length", "bits", "last_seq", "quality")

    def __init__(self, length: int = 8):
        self.length = length
        self.bits = 0
        self.last_seq: int | None = None
        self.quality = 0.0

    def update(self, seq: int) -> None:
        if self.last_seq is None:
            self.bits = 1
        else:
            shift = seq - self.last_seq
            if shift <= 0:
                return  # stale or duplicate sequence number
            self.bits = ((self.bits << shift) | 1) & ((1 << self.length) - 1)
        self.last_seq = seq
        self.quality = self.bits.bit_count() / self.length


def geo_score(
    forwarder_pos: Position,
    dest_pos: Position,
    diagonal_m: float,
    floor: float = 1e-6,
) -> float:
    """Linear distance-to-score map, clamped to [floor, 1]."""
    score = 1.0 - distance(forwarder_pos, dest_pos) / diagonal_m
    return min(1.0, max(floor, score))


@functools.cache
def _index_deviations(n: int) -> tuple[float, ...]:
    """Each index's deviation from the mean index of a buffer of n values, memoised by n."""
    return tuple([i - (n - 1) / 2.0 for i in range(n)])


@functools.cache
def _index_sum_sq(n: int) -> float:
    """Sum of squared index deviations for a buffer of n values, memoised by n."""
    return left_sum([d ** 2 for d in _index_deviations(n)])


class FloodingProtocol:
    """One flooding process shared by every metric.

    It owns every node's control-plane state: ``rankings[n]``, node n's
    ``dest -> {neighbor: (score, last_us)}`` table, which the balancer reads
    through ``live``; and ``forwarded[n]``, the highest seq node n has flooded
    per (kind, originator). A node's entry for its own messages is also its
    latest sequence number. It runs the rebroadcast dedup, the own-echo check,
    the ranking update and the rebroadcast stamp. A metric reads its own
    parameters from the config, keeps any further per-node state itself, and
    supplies only ``score_all``, one score per receiver of a copy. It may
    override ``emission_plan``, the (kind, interval_us) pairs every node emits
    on (one OGM per interval by default); ``flooded_kinds``, the kinds a
    receiver rebroadcasts (OGMs); and ``hop_penalty``, the factor a forwarder
    applies to a carried score.

    ``positions`` is the run's position list, updated in place by the
    mobility tick. ``predicted`` is None unless the metric predicts; then the
    tick writes each node's predicted position into it.
    """

    flooded_kinds = frozenset({ControlKind.OGM})
    hop_penalty = 1.0
    predicted: list[Position] | None = None

    def __init__(self, config: ScenarioConfig, positions: list[Position]):
        self.positions = positions
        self.emission_plan = [(ControlKind.OGM, us_from_s(config.ogm_interval_s))]
        self.expiry_us = us_from_s(config.ranking_expiry_s)
        self.rankings: list[dict[int, dict[int, tuple[float, int]]]] = [{} for _ in positions]
        self.forwarded: list[dict[tuple[ControlKind, int], int]] = [{} for _ in positions]

    def emit(self, node: int, kind: ControlKind, now_us: int) -> ControlMessage:
        # receive skips a message's originator before its dedup step, so only
        # emit writes this entry: it is the node's latest seq for the kind.
        forwarded = self.forwarded[node]
        seq = forwarded[(kind, node)] = forwarded.get((kind, node), -1) + 1
        own_pos, predicted = self.positions[node], self.predicted
        return ControlMessage(
            kind=kind, originator=node, seq=seq, sender_position=own_pos,
            originator_position=own_pos,
            sender_predicted=None if predicted is None else predicted[node],
        )

    def live(self, node: int, dest: int, now_us: int) -> dict[int, float]:
        """Purge node's entries for dest not refreshed within ``expiry_us``, then return
        {neighbor: score}. This rule alone decides which forwarders are live."""
        entries = self.rankings[node].get(dest)
        live: dict[int, float] = {}
        if entries:
            expiry_us = self.expiry_us
            for n, (score, last) in entries.items():
                if now_us - last <= expiry_us:
                    live[n] = score
            # Deleting after the loop leaves the kept entries in their order.
            if len(live) < len(entries):
                for n in [n for n in entries if n not in live]:
                    del entries[n]
        return live

    def receive(self, receivers: list[int], msg: ControlMessage, prev_hop: int,
                now_us: int) -> list[tuple[int, ControlMessage]]:
        """Hand one copy of msg, heard from prev_hop, to every receiver in order.

        The originator drops its own echo before scoring. Returns (receiver,
        rebroadcast) for each receiver that forwards its first copy of (kind,
        originator, seq), in receiver order.
        """
        kind, originator, seq = msg.kind, msg.originator, msg.seq
        if originator in receivers:
            receivers = [node for node in receivers if node != originator]
        scores = self.score_all(receivers, msg, prev_hop, now_us)
        key = (kind, originator)
        floods = kind in self.flooded_kinds
        rankings, forwarded, predicted = self.rankings, self.forwarded, self.predicted
        rebroadcasts = []
        for node, score in zip(receivers, scores):
            table = rankings[node]
            entries = table.get(originator)
            if score <= 0.0:
                if entries:
                    entries.pop(prev_hop, None)
                continue
            # Scores are at most 1 in any config validate() accepts; the cap
            # guards the table, while forwarders carry the uncapped score.
            capped = score if score < 1.0 else 1.0
            # A store to an existing neighbour keeps its place in the table.
            if entries is None:
                table[originator] = {prev_hop: (capped, now_us)}
            else:
                entries[prev_hop] = (capped, now_us)
            if floods and forwarded[node].get(key, -1) < seq:
                forwarded[node][key] = seq
                # Forwarders stamp their own score; the per-hop penalty is
                # folded in here so every receiver applies the identical rule.
                rebroadcasts.append((node, ControlMessage(
                    kind=kind, originator=originator, seq=seq,
                    sender_position=self.positions[node],
                    carried_score=score * self.hop_penalty,
                    originator_position=msg.originator_position,
                    sender_predicted=None if predicted is None else predicted[node],
                )))
        return rebroadcasts


class BatmanProtocol(FloodingProtocol):
    """Originator-message flooding with windowed link quality and hop penalty."""

    def __init__(self, config: ScenarioConfig, positions: list[Position]):
        super().__init__(config, positions)
        self.tq_window_len = config.tq_window
        self.hop_penalty = config.hop_penalty
        self.tq_windows: list[dict[int, TQWindow]] = [{} for _ in positions]

    def score_all(self, receivers, msg, prev_hop, now_us) -> list[float]:
        """TQ window of the neighbor the copy came through, times the carried score."""
        tq_windows, carried, direct = self.tq_windows, msg.carried_score, msg.originator == prev_hop
        scores = []
        for node in receivers:
            windows = tq_windows[node]
            window = windows.get(prev_hop)
            if direct:  # a neighbor's own OGM first feeds its window
                if window is None:
                    window = windows[prev_hop] = TQWindow(self.tq_window_len)
                window.update(msg.seq)
            scores.append((window.quality if window is not None else 0.0) * carried)
        return scores


class GeoOlsrProtocol(FloodingProtocol):
    """Hello/topology-control flooding scored by forwarder-to-destination distance."""

    flooded_kinds = frozenset({ControlKind.TC})

    def __init__(self, config: ScenarioConfig, positions: list[Position]):
        super().__init__(config, positions)
        self.emission_plan = [(ControlKind.HELLO, us_from_s(config.hello_interval_s)),
                              (ControlKind.TC, us_from_s(config.tc_interval_s))]
        self.diagonal_m = config.diagonal_m()
        self.floor = config.geo_floor

    def score_all(self, receivers, msg, prev_hop, now_us) -> list[float]:
        """Last forwarder's distance to the originator, floored: one score for all receivers."""
        score = geo_score(msg.sender_position, msg.originator_position, self.diagonal_m, self.floor)
        return [score] * len(receivers)


class BatmobileProtocol(FloodingProtocol):
    """Originator-message flooding scored by current plus predicted link distances.

    Each node admits its raw scores through the trend clamp, ``admit``, over
    its own ``trends[n]``: ``(dest, neighbor) -> (values, last_us)``.
    """

    def __init__(self, config: ScenarioConfig, positions: list[Position]):
        super().__init__(config, positions)
        self.comm_range_m = max_range_m(config)
        self.prediction_weight = config.prediction_weight
        # The trend buffer's length, and the link score's weight scale.
        self.buffer_len = config.score_buffer
        self.clamp = config.trend_clamp
        self.predicted = list(positions)
        self.trends: list[dict[tuple[int, int], tuple[list[float], int]]] = [{} for _ in positions]

    def admit(self, nodes: list[int], dest: int, neighbor: int, raws: list[float],
              now_us: int) -> list[float]:
        """Each node's raw score for (dest, neighbor), admitted only within +/- clamp
        of its buffered trend's next value, which damps single-sample jumps either
        way. A buffer resets after a gap longer than ``expiry_us``. Each clamp is the
        conditional CPython's two-argument max or min computes (``max(a, b)`` is ``b if
        b > a else a``), which agrees with it on every float, NaN and signed zeros too."""
        trends, key, expiry_us, clamp = self.trends, (dest, neighbor), self.expiry_us, self.clamp
        admitted_all = []
        for node, raw in zip(nodes, raws):
            node_trends = trends[node]
            entry = node_trends.get(key)
            values = [] if entry is None or now_us - entry[1] > expiry_us else entry[0]
            if values:
                # The least-squares line through (index, value), one step past the end.
                n = len(values)
                trend = values[0]
                if n > 1:
                    val_mean = left_sum(values) / n
                    terms = map(mul, _index_deviations(n), map(sub, values, repeat(val_mean, n)))
                    trend = val_mean + left_sum(terms) / _index_sum_sq(n) * (n - (n - 1) / 2.0)
                low, high = trend - clamp, trend + clamp
                raw = raw if raw > low else low  # max(trend - clamp, raw)
                raw = raw if raw < high else high  # min(trend + clamp, ...)
            admitted = (raw if raw < 1.0 else 1.0) if raw > 0.0 else 0.0  # min(1.0, max(0.0, raw))
            values.append(admitted)
            del values[:-self.buffer_len]  # keep the newest buffer_len
            node_trends[key] = (values, now_us)
            admitted_all.append(admitted)
        return admitted_all

    def score_all(self, receivers, msg, prev_hop, now_us) -> list[float]:
        """Link score times the carried score, admitted through each receiver's trend clamp.
        The link score weighs the current and predicted distances to the sender, each in
        ``mobility.distance``'s expression and clamped as in ``admit``, over buffer_len."""
        sx, sy, sz = msg.sender_position
        px, py, pz = msg.sender_predicted
        positions, predicted, carried = self.positions, self.predicted, msg.carried_score
        comm_range_m, weight, scale = self.comm_range_m, self.prediction_weight, self.buffer_len
        raws = []
        for node in receivers:
            x, y, z = positions[node]
            s_now = 1.0 - sqrt((x - sx) ** 2 + (y - sy) ** 2 + (z - sz) ** 2) / comm_range_m
            s_now = (s_now if s_now < 1.0 else 1.0) if s_now > 0.0 else 0.0
            x, y, z = predicted[node]
            s_pred = 1.0 - sqrt((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2) / comm_range_m
            s_pred = (s_pred if s_pred < 1.0 else 1.0) if s_pred > 0.0 else 0.0
            raws.append((weight * s_pred + (scale - weight) * s_now) / scale * carried)
        return self.admit(receivers, msg.originator, prev_hop, raws, now_us)


PROTOCOLS = {"batman": BatmanProtocol, "golsr": GeoOlsrProtocol, "batmobile": BatmobileProtocol}
