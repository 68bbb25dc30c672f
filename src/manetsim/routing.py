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
copy. A received copy whose originator is a kept destination refreshes the
ranking entry for the neighbor it came through, which is what gives each node
more than one candidate forwarder per destination. The balancer reads a
ranking only for a packet's destination, so a run keeps rankings for its
streams' destinations alone. One transmission's copies reach ``receive``
together, as one receiver list. Every copy steps each receiver's metric
state, but it is scored only where a score is read: by a kept ranking, or
by the rebroadcast test at a receiver that has not yet flooded it.
"""

from __future__ import annotations

import functools
from collections.abc import Container
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from math import sqrt
from operator import mul, sub
from typing import TYPE_CHECKING

from .channel import max_range_m
from .engine import left_sum, us_from_s
from .mobility import Position, distance

if TYPE_CHECKING:  # config imports this module for the protocol names
    from .config import ScenarioConfig


class ControlKind(Enum):
    OGM = "ogm"
    HELLO = "hello"
    TC = "tc"

    # Identity hashing in C; see EventKind. Hashed on every emit and every
    # receive call, through the FloodingProtocol.forwarded key.
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


class Route(dict):
    """A node's live ``{neighbor: score}`` map for one destination, with the balancer's
    memoised argmax (``best``) and schedulable sets (``sets``, per excluded previous hop
    and likelihood); ``live`` reuses it until ``deadline_us``, and ``receive`` drops it
    at the next copy for its destination."""

    __slots__ = ("best", "sets", "deadline_us")

    def __init__(self, scores, deadline_us: int = -1):
        super().__init__(scores)
        self.best: int | None = None
        self.sets: dict = {}
        self.deadline_us = deadline_us


class FloodingProtocol:
    """One flooding process shared by every metric.

    It owns every node's control-plane state. Each table is laid out by the
    key one ``receive`` call holds fixed, as a column with one slot per node,
    which ``_new_column`` creates when its key is first stored or emitted:
    ``rankings[dest][n]`` is node n's ``{neighbor: (score, last_us)}`` dict
    for dest, or None, which the balancer reads through ``live``;
    ``forwarded[(kind, originator)][n]`` is the highest seq node n has
    flooded, -1 when none. A node's slot for its own messages is also its
    latest sequence number. ``routes[dest]`` is the ``node -> Route`` cache of
    what ``live`` last returned for dest; ``receive`` drops it at every call
    for dest, so a route outlives no copy for its destination. It runs the
    rebroadcast dedup, the own-echo check, the ranking update and the
    rebroadcast stamp. A metric reads its own parameters from the config,
    keeps any further per-node state itself, and supplies ``score_all``, one
    score per receiver it is given, a pure read. A metric with per-node state
    that every copy steps at every receiver before any score is read
    (batman's TQ windows, batmobile's trend buffers) sets ``advance`` to a
    method that steps it; it is None, and not called, on a metric without
    (golsr). A metric may also override ``emission_plan``, the (kind,
    interval_us) pairs every node emits on (one OGM per interval by default);
    ``flooded_kinds``, the kinds a receiver rebroadcasts (OGMs); and
    ``hop_penalty``, the factor a forwarder applies to a carried score.

    ``destinations`` holds the originators whose rankings and cached routes
    are kept, or is None to keep every originator's. ``Simulation`` narrows
    it to its streams' destinations, the only ones ``live`` is asked for. A
    copy from any other originator stores no ranking entry, so its score is
    read only by the rebroadcast test: it is scored at the receivers that
    have not flooded it yet, and not at all when its kind is not flooded.

    ``positions`` is the run's position list, updated in place by the
    mobility tick. ``predicted`` is None unless the metric predicts; then the
    tick writes each node's predicted position into it.
    """

    flooded_kinds = frozenset({ControlKind.OGM})
    hop_penalty = 1.0
    advance = None
    predicted: list[Position] | None = None

    def __init__(self, config: ScenarioConfig, positions: list[Position]):
        self.positions = positions
        self.emission_plan = [(ControlKind.OGM, us_from_s(config.ogm_interval_s))]
        self.expiry_us = us_from_s(config.ranking_expiry_s)
        self.destinations: Container[int] | None = None
        self.rankings: dict[int, list[dict[int, tuple[float, int]] | None]] = {}
        self.routes: dict[int, dict[int, Route]] = {}
        self.forwarded: dict[tuple[ControlKind, int], list[int]] = {}

    def _new_column(self, table: dict, key, empty=None) -> list:
        """Store and return key's column in table: one slot per node, each ``empty``."""
        column = table[key] = [empty] * len(self.positions)
        return column

    def emit(self, node: int, kind: ControlKind, now_us: int) -> ControlMessage:
        # receive skips a message's originator before its dedup step, so only
        # emit writes this slot: it is the node's latest seq for the kind.
        seen = self.forwarded.get((kind, node))
        if seen is None:
            seen = self._new_column(self.forwarded, (kind, node), -1)
        seq = seen[node] = seen[node] + 1
        own_pos, predicted = self.positions[node], self.predicted
        # Positional, in ControlMessage's field order, here and in receive:
        # each flood builds one, and keywords cost twice the call.
        return ControlMessage(kind, node, seq, own_pos, 1.0, own_pos,
                              None if predicted is None else predicted[node])

    def live(self, node: int, dest: int, now_us: int) -> dict[int, float]:
        """Purge node's entries for dest not refreshed within ``expiry_us``, then return
        {neighbor: score}. This rule alone decides which forwarders are live.

        A nonempty result is a ``Route``, returned again until ``receive`` drops dest's
        routes or ``now_us`` passes its oldest entry's ``last_us + expiry_us``: until
        then the purge would delete nothing and give equal scores in order."""
        column = self.rankings.get(dest)
        entries = None if column is None else column[node]
        if not entries:
            return {}
        # setdefault: a ranking may be stored without a receive, as tests do.
        cached = self.routes.setdefault(dest, {})
        route = cached.get(node)
        # ``<`` would be exact too: at the deadline a rebuild deletes nothing.
        if route is not None and now_us <= route.deadline_us:
            return route
        live: dict[int, float] = {}
        expiry_us = self.expiry_us
        oldest = now_us
        for n, (score, last) in entries.items():
            if now_us - last <= expiry_us:
                live[n] = score
                if last < oldest:
                    oldest = last
        # Deleting after the loop leaves the kept entries in their order.
        if len(live) < len(entries):
            for n in [n for n in entries if n not in live]:
                del entries[n]
            if not live:
                return live
        route = cached[node] = Route(live, oldest + expiry_us)
        return route

    def receive(self, receivers: list[int], msg: ControlMessage, prev_hop: int,
                now_us: int) -> list[tuple[int, ControlMessage]]:
        """Hand one copy of msg, heard from prev_hop, to every receiver in order.

        The originator drops its own echo first. Every other receiver's metric
        state advances; the copy is then scored only where a score is read: at
        every receiver for a kept originator, whose ranking stores it, and
        otherwise, for a flooded kind only, at each receiver that has not yet
        flooded (kind, originator, seq). Returns (receiver, rebroadcast) for
        each receiver that forwards its first copy of it, in receiver order.
        """
        kind, originator, seq = msg.kind, msg.originator, msg.seq
        if originator in receivers:
            receivers = [node for node in receivers if node != originator]
        if self.advance is not None:
            self.advance(receivers, msg, prev_hop, now_us)
        flooded = kind in self.flooded_kinds
        key, forwarded = (kind, originator), self.forwarded
        seen = forwarded.get(key)  # created at the first copy a receiver forwards
        destinations = self.destinations
        if destinations is None or originator in destinations:
            # Any copy may store or pop an entry for originator: every route to it is stale.
            self.routes[originator] = {}
            scores = self.score_all(receivers, msg, prev_hop, now_us)
            rankings = self.rankings
            column = rankings.get(originator)  # created at its first store
            for node, score in zip(receivers, scores):
                if score <= 0.0:
                    if column is not None and column[node]:
                        column[node].pop(prev_hop, None)
                    continue
                # Scores are at most 1 in any config validate() accepts; the cap
                # guards the table, while forwarders carry the uncapped score.
                capped = score if score < 1.0 else 1.0
                if column is None:
                    column = self._new_column(rankings, originator)
                entries = column[node]
                # A store to an existing neighbour keeps its place in the table.
                if entries is None:
                    column[node] = {prev_hop: (capped, now_us)}
                else:
                    entries[prev_hop] = (capped, now_us)
        elif flooded:
            # Only the rebroadcast test reads the score, at a receiver below seq.
            if seen is not None:
                receivers = [node for node in receivers if seen[node] < seq]
                if not receivers:
                    return []
            scores = self.score_all(receivers, msg, prev_hop, now_us)
        if not flooded:
            return []  # only a flooded kind is rebroadcast
        rebroadcasts = []
        predicted = self.predicted
        for node, score in zip(receivers, scores):
            # Not ``score > 0.0``, which would also drop a NaN score.
            if score <= 0.0:
                continue
            if seen is None:
                seen = self._new_column(forwarded, key, -1)
            if seen[node] < seq:
                seen[node] = seq
                # Forwarders stamp their own score; the per-hop penalty is
                # folded in here so every receiver applies the identical rule.
                rebroadcasts.append((node, ControlMessage(
                    kind, originator, seq, self.positions[node], score * self.hop_penalty,
                    msg.originator_position, None if predicted is None else predicted[node])))
        return rebroadcasts


class BatmanProtocol(FloodingProtocol):
    """Originator-message flooding with windowed link quality and hop penalty.

    ``tq_windows[neighbor][n]`` is node n's window over neighbor's own OGMs,
    or None; a neighbor's column is created with its first window.
    """

    def __init__(self, config: ScenarioConfig, positions: list[Position]):
        super().__init__(config, positions)
        self.tq_window_len = config.tq_window
        self.hop_penalty = config.hop_penalty
        self.tq_windows: dict[int, list[TQWindow | None]] = {}

    def advance(self, receivers, msg, prev_hop, now_us) -> None:
        """A neighbor's own OGM feeds each receiver's window over that neighbor."""
        if msg.originator != prev_hop:
            return
        windows = self.tq_windows.get(prev_hop)
        if windows is None:
            windows = self._new_column(self.tq_windows, prev_hop)
        for node in receivers:
            window = windows[node]
            if window is None:
                window = windows[node] = TQWindow(self.tq_window_len)
            window.update(msg.seq)

    def score_all(self, receivers, msg, prev_hop, now_us) -> list[float]:
        """TQ window of the neighbor the copy came through, times the carried score."""
        windows, carried = self.tq_windows.get(prev_hop), msg.carried_score
        if windows is None:
            return [0.0 * carried] * len(receivers)
        return [(window.quality if window is not None else 0.0) * carried
                for window in map(windows.__getitem__, receivers)]


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

    ``advance`` admits each receiver's raw score through the trend clamp, over
    its own slot of ``trends[(dest, neighbor)]``: ``(values, last_us)``, or
    None. A key's column is created with its first buffer.
    """

    def __init__(self, config: ScenarioConfig, positions: list[Position]):
        super().__init__(config, positions)
        self.comm_range_m = max_range_m(config)
        self.prediction_weight = config.prediction_weight
        # The trend buffer's length, and the link score's weight scale.
        self.buffer_len = config.score_buffer
        self.clamp = config.trend_clamp
        self.predicted = list(positions)
        self.trends: dict[tuple[int, int], list[tuple[list[float], int] | None]] = {}

    def advance(self, receivers, msg, prev_hop, now_us) -> None:
        """Buffer each receiver's raw score for (originator, prev_hop), its link score
        times the carried score, admitted only within +/- clamp of its buffered trend's
        next value, which damps single-sample jumps either way. A buffer resets after
        a gap longer than ``expiry_us``. The link score weighs the current and
        predicted distances to the sender, each in ``mobility.distance``'s expression
        and clamped to [0, 1] as the admitted score is, over buffer_len. Each clamp is
        the conditional CPython's two-argument max or min computes (``max(a, b)`` is
        ``b if b > a else a``), which agrees with it on every float, NaN and signed
        zeros too."""
        sx, sy, sz = msg.sender_position
        px, py, pz = msg.sender_predicted
        positions, predicted, carried = self.positions, self.predicted, msg.carried_score
        comm_range_m, weight, scale = self.comm_range_m, self.prediction_weight, self.buffer_len
        key, expiry_us, clamp = (msg.originator, prev_hop), self.expiry_us, self.clamp
        column = self.trends.get(key)
        if column is None and receivers:
            column = self._new_column(self.trends, key)
        for node in receivers:
            x, y, z = positions[node]
            s_now = 1.0 - sqrt((x - sx) ** 2 + (y - sy) ** 2 + (z - sz) ** 2) / comm_range_m
            s_now = (s_now if s_now < 1.0 else 1.0) if s_now > 0.0 else 0.0
            x, y, z = predicted[node]
            s_pred = 1.0 - sqrt((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2) / comm_range_m
            s_pred = (s_pred if s_pred < 1.0 else 1.0) if s_pred > 0.0 else 0.0
            raw = (weight * s_pred + (scale - weight) * s_now) / scale * carried
            entry = column[node]
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
            column[node] = (values, now_us)

    def score_all(self, receivers, msg, prev_hop, now_us) -> list[float]:
        """The score each receiver's trend admitted last, which ``advance`` did for this copy."""
        column = self.trends.get((msg.originator, prev_hop))
        return [column[node][0][-1] for node in receivers]


PROTOCOLS = {"batman": BatmanProtocol, "golsr": GeoOlsrProtocol, "batmobile": BatmobileProtocol}
