"""Control plane and path-quality metrics.

Three metrics populate the per-destination neighbor rankings:

* a transmission-quality score built from windowed reception success of a
  neighbor's own originator messages, with a multiplicative per-hop penalty;
* a geographic score ranking a candidate forwarder by its distance to the
  destination, normalized by the mission-area diagonal;
* a mobility-aware path score multiplying per-link scores derived from
  current and predicted inter-node distances.

All three flood their messages with per-(originator, seq) rebroadcast dedup;
every received copy refreshes the ranking entry for the neighbor it came
through, which is what gives each node more than one candidate forwarder per
destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .mobility import Position, distance


class ControlKind(Enum):
    OGM = "ogm"
    HELLO = "hello"
    TC = "tc"

    # Identity hashing in C; see EventKind. Hashed on every delivered copy
    # through the RouterState.forwarded key.
    __hash__ = object.__hash__


@dataclass(slots=True)
class ControlMessage:
    kind: ControlKind
    originator: int
    seq: int
    sender_position: Position
    hops: int = 0
    carried_score: float = 1.0
    originator_position: Position | None = None
    sender_predicted: Position | None = None
    neighbors: tuple[int, ...] = ()


class TQWindow:
    """Sliding 8-slot bitmap over a neighbor's originator-message sequence
    numbers; link quality is the fraction of slots heard."""

    __slots__ = ("length", "bits", "last_seq")

    def __init__(self, length: int = 8):
        self.length = length
        self.bits = 0
        self.last_seq: int | None = None

    def update(self, seq: int) -> None:
        if self.last_seq is None:
            self.bits = 1
        else:
            shift = seq - self.last_seq
            if shift <= 0:
                return  # stale or duplicate sequence number
            self.bits = ((self.bits << shift) | 1) & ((1 << self.length) - 1)
        self.last_seq = seq

    def quality(self) -> float:
        return self.bits.bit_count() / self.length


def tq_link_quality(window: TQWindow) -> float:
    return window.quality()


def tq_path_score(link_qualities: list[float], hop_penalty: float = 0.95) -> float:
    """Product of link qualities with a penalty per hop beyond the first."""
    score = 1.0
    for quality in link_qualities:
        score *= quality
    if len(link_qualities) > 1:
        score *= hop_penalty ** (len(link_qualities) - 1)
    return score


def geo_score(
    forwarder_pos: Position,
    dest_pos: Position,
    diagonal_m: float,
    floor: float = 1e-6,
) -> float:
    """Linear distance-to-score map, clamped to [floor, 1]."""
    score = 1.0 - distance(forwarder_pos, dest_pos) / diagonal_m
    return min(1.0, max(floor, score))


def pathscore_link(
    own_pos: Position,
    own_predicted: Position | None,
    neighbor_pos: Position,
    neighbor_predicted: Position | None,
    comm_range_m: float,
    prediction_weight: int = 7,
    weight_scale: int = 8,
) -> float:
    """Single-link score mixing current and predicted normalized distances.

    Missing predictions (either side) fall back to the current-distance score
    alone.
    """
    d_now = distance(own_pos, neighbor_pos)
    s_now = min(1.0, max(0.0, 1.0 - d_now / comm_range_m))
    if own_predicted is None or neighbor_predicted is None:
        return s_now
    d_pred = distance(own_predicted, neighbor_predicted)
    s_pred = min(1.0, max(0.0, 1.0 - d_pred / comm_range_m))
    return (prediction_weight * s_pred + (weight_scale - prediction_weight) * s_now) / weight_scale


def pathscore_path(link_scores: list[float]) -> float:
    """Total path score is the product of its link scores; empty paths score 1."""
    total = 1.0
    for score in link_scores:
        total *= score
    return total


def _extrapolate_next(values: list[float]) -> float:
    """Least-squares line through (index, value), evaluated one step past the end."""
    n = len(values)
    if n == 1:
        return values[0]
    idx_mean = (n - 1) / 2.0
    val_mean = sum(values) / n
    var = sum((i - idx_mean) ** 2 for i in range(n))
    slope = sum((i - idx_mean) * (v - val_mean) for i, v in enumerate(values)) / var
    return val_mean + slope * (n - idx_mean)


class ScoreTrend:
    """Per-(destination, neighbor) score buffers with bounded per-update change.

    A new raw score is admitted only within +/- clamp of the value the buffered
    trend extrapolates to, which damps single-sample jumps in either direction.
    Buffers reset after a gap longer than the ranking expiry.
    """

    def __init__(self, buffer_len: int = 8, clamp: float = 0.1, reset_after_us: int = 3_000_000):
        self.buffer_len = buffer_len
        self.clamp = clamp
        self.reset_after_us = reset_after_us
        self._buffers: dict[tuple[int, int], tuple[list[float], int]] = {}

    def admit(self, dest: int, neighbor: int, raw: float, now_us: int) -> float:
        key = (dest, neighbor)
        entry = self._buffers.get(key)
        if entry is None or now_us - entry[1] > self.reset_after_us:
            values: list[float] = []
        else:
            values = entry[0]
        if values:
            trend = _extrapolate_next(values)
            admitted = min(trend + self.clamp, max(trend - self.clamp, raw))
        else:
            admitted = raw
        admitted = min(1.0, max(0.0, admitted))
        values.append(admitted)
        if len(values) > self.buffer_len:
            del values[0]
        self._buffers[key] = (values, now_us)
        return admitted


class NeighborRanking:
    """Per-destination map of one-hop neighbor to path-quality score.

    Entries expire after `expiry_us` without refresh, and a neighbor that has
    not been heard at all within the expiry drops out of every destination's
    table. Scores are kept in (0, 1]; an update to a non-positive score removes
    the entry (a dead path is no path).
    """

    def __init__(self, expiry_us: int = 3_000_000):
        self.expiry_us = expiry_us
        self.table: dict[int, dict[int, list]] = {}  # dest -> {neighbor: [score, last_us]}
        self.last_heard: dict[int, int] = {}

    def touch_neighbor(self, neighbor: int, now_us: int) -> None:
        self.last_heard[neighbor] = now_us

    def update(self, dest: int, neighbor: int, score: float, now_us: int) -> None:
        entries = self.table.setdefault(dest, {})
        if score <= 0.0:
            entries.pop(neighbor, None)
            return
        entry = entries.get(neighbor)
        if entry is None:
            entries[neighbor] = [min(1.0, score), now_us]
        else:
            entry[0] = min(1.0, score)
            entry[1] = now_us

    def _alive(self, neighbor: int, last_us: int, now_us: int) -> bool:
        if now_us - last_us > self.expiry_us:
            return False
        heard = self.last_heard.get(neighbor)
        return heard is not None and now_us - heard <= self.expiry_us

    def scores(self, dest: int, now_us: int) -> dict[int, float]:
        """Purge expired entries for dest, then return {neighbor: score}."""
        entries = self.table.get(dest)
        if not entries:
            return {}
        stale = [n for n, (_, last) in entries.items() if not self._alive(n, last, now_us)]
        for n in stale:
            del entries[n]
        return {n: entry[0] for n, entry in entries.items()}

    def best_forwarder(self, dest: int, now_us: int) -> int | None:
        """Argmax score for dest; ties break toward the lowest node id."""
        live = self.scores(dest, now_us)
        if not live:
            return None
        return max(live.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def current_neighbors(self, now_us: int) -> list[int]:
        return sorted(n for n, t in self.last_heard.items() if now_us - t <= self.expiry_us)


@dataclass(slots=True)
class RouterState:
    """Per-node control-plane state, owned by that node, engine-dispatched only."""

    ranking: NeighborRanking
    tq_windows: dict[int, TQWindow] = field(default_factory=dict)
    trend: ScoreTrend | None = None
    seq_counters: dict[ControlKind, int] = field(default_factory=dict)
    # Rebroadcast dedup per (kind, originator): highest seq already forwarded.
    forwarded: dict[tuple[ControlKind, int], int] = field(default_factory=dict)

    def next_seq(self, kind: ControlKind) -> int:
        seq = self.seq_counters.get(kind, 0)
        self.seq_counters[kind] = seq + 1
        return seq

    def mark_forwarded(self, kind: ControlKind, originator: int, seq: int) -> bool:
        """True when (kind, originator, seq) has not been forwarded yet."""
        key = (kind, originator)
        seen = self.forwarded.get(key, -1)
        if seq <= seen:
            return False
        self.forwarded[key] = seq
        return True


class BatmanProtocol:
    """Originator-message flooding with windowed link quality and hop penalty."""

    name = "batman"

    def __init__(self, ogm_interval_us: int, tq_window_len: int = 8, hop_penalty: float = 0.95):
        self.ogm_interval_us = ogm_interval_us
        self.tq_window_len = tq_window_len
        self.hop_penalty = hop_penalty

    def emission_plan(self) -> list[tuple[ControlKind, int]]:
        return [(ControlKind.OGM, self.ogm_interval_us)]

    def emit(self, state: RouterState, node_id: int, own_pos: Position,
             own_pred: Position | None, kind: ControlKind, now_us: int) -> ControlMessage:
        seq = state.next_seq(kind)
        state.mark_forwarded(kind, node_id, seq)  # never re-flood an echo of our own message
        return ControlMessage(kind=kind, originator=node_id, seq=seq, sender_position=own_pos)

    def receive(self, state: RouterState, node_id: int, msg: ControlMessage, prev_hop: int,
                own_pos: Position, own_pred: Position | None,
                now_us: int) -> ControlMessage | None:
        if msg.originator == prev_hop:
            window = state.tq_windows.get(prev_hop)
            if window is None:
                window = state.tq_windows[prev_hop] = TQWindow(self.tq_window_len)
            window.update(msg.seq)
        if msg.originator == node_id:
            return None
        window = state.tq_windows.get(prev_hop)
        link = window.quality() if window is not None else 0.0
        score = link * msg.carried_score
        state.ranking.update(msg.originator, prev_hop, score, now_us)
        if score > 0.0 and state.mark_forwarded(msg.kind, msg.originator, msg.seq):
            # Forwarders stamp their own score; the per-hop penalty is folded in
            # here so every receiver applies the identical rule.
            return ControlMessage(
                kind=msg.kind, originator=msg.originator, seq=msg.seq,
                sender_position=own_pos, hops=msg.hops + 1,
                carried_score=score * self.hop_penalty,
            )
        return None


class GeoOlsrProtocol:
    """Hello/topology-control flooding scored by forwarder-to-destination distance."""

    name = "golsr"

    def __init__(self, hello_interval_us: int, tc_interval_us: int,
                 diagonal_m: float, floor: float = 1e-6):
        self.hello_interval_us = hello_interval_us
        self.tc_interval_us = tc_interval_us
        self.diagonal_m = diagonal_m
        self.floor = floor

    def emission_plan(self) -> list[tuple[ControlKind, int]]:
        return [(ControlKind.HELLO, self.hello_interval_us), (ControlKind.TC, self.tc_interval_us)]

    def emit(self, state: RouterState, node_id: int, own_pos: Position,
             own_pred: Position | None, kind: ControlKind, now_us: int) -> ControlMessage:
        seq = state.next_seq(kind)
        state.mark_forwarded(kind, node_id, seq)
        return ControlMessage(
            kind=kind, originator=node_id, seq=seq, sender_position=own_pos,
            originator_position=own_pos,
            neighbors=tuple(state.ranking.current_neighbors(now_us)),
        )

    def receive(self, state: RouterState, node_id: int, msg: ControlMessage, prev_hop: int,
                own_pos: Position, own_pred: Position | None,
                now_us: int) -> ControlMessage | None:
        if msg.originator == node_id:
            return None
        score = geo_score(msg.sender_position, msg.originator_position, self.diagonal_m, self.floor)
        state.ranking.update(msg.originator, prev_hop, score, now_us)
        if msg.kind is ControlKind.TC and state.mark_forwarded(msg.kind, msg.originator, msg.seq):
            return ControlMessage(
                kind=msg.kind, originator=msg.originator, seq=msg.seq,
                sender_position=own_pos, hops=msg.hops + 1,
                originator_position=msg.originator_position,
            )
        return None


class BatmobileProtocol:
    """Originator-message flooding scored by current plus predicted link distances."""

    name = "batmobile"

    def __init__(self, ogm_interval_us: int, comm_range_m: float,
                 prediction_weight: int = 7, weight_scale: int = 8,
                 trend: ScoreTrend | None = None):
        self.ogm_interval_us = ogm_interval_us
        self.comm_range_m = comm_range_m
        self.prediction_weight = prediction_weight
        self.weight_scale = weight_scale
        self.trend = trend

    def emission_plan(self) -> list[tuple[ControlKind, int]]:
        return [(ControlKind.OGM, self.ogm_interval_us)]

    def emit(self, state: RouterState, node_id: int, own_pos: Position,
             own_pred: Position | None, kind: ControlKind, now_us: int) -> ControlMessage:
        seq = state.next_seq(kind)
        state.mark_forwarded(kind, node_id, seq)
        return ControlMessage(
            kind=kind, originator=node_id, seq=seq, sender_position=own_pos,
            sender_predicted=own_pred,
        )

    def receive(self, state: RouterState, node_id: int, msg: ControlMessage, prev_hop: int,
                own_pos: Position, own_pred: Position | None,
                now_us: int) -> ControlMessage | None:
        if msg.originator == node_id:
            return None
        link = pathscore_link(
            own_pos, own_pred, msg.sender_position, msg.sender_predicted,
            self.comm_range_m, self.prediction_weight, self.weight_scale,
        )
        raw = link * msg.carried_score
        if state.trend is not None:
            score = state.trend.admit(msg.originator, prev_hop, raw, now_us)
        else:
            score = raw
        state.ranking.update(msg.originator, prev_hop, score, now_us)
        if score > 0.0 and state.mark_forwarded(msg.kind, msg.originator, msg.seq):
            return ControlMessage(
                kind=msg.kind, originator=msg.originator, seq=msg.seq,
                sender_position=own_pos, hops=msg.hops + 1,
                carried_score=score, sender_predicted=own_pred,
            )
        return None
