"""Passive load balancing over the neighbor ranking.

The schedulable set for a destination is every live neighbor whose score
clears `likelihood * phi_max`; packets rotate round-robin across it. The hook
sits between route lookup and the transmit queue and rewrites the proposed
next hop, at the sender and at every intermediate forwarder alike.

Membership uses >= rather than a strict comparison so that likelihood 1.0
spreads load exactly over score ties, and an empty filtered set (for example
any likelihood above 1) falls back to the single best forwarder, which makes
the scheme degrade to the unmodified protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .channel import Frame
from .routing import NeighborRanking


class DropReason(Enum):
    NO_ROUTE = "no_route"
    TTL = "ttl"


@dataclass(frozen=True)
class SchedulableSet:
    dest: int
    members: tuple[int, ...]  # ascending node id; deterministic rotation order
    fallback: bool = False  # True when the threshold filter came up empty


def schedulable_set(
    ranking: NeighborRanking,
    dest: int,
    likelihood: float,
    now_us: int,
    exclude: int | None = None,
) -> SchedulableSet:
    """Threshold filter over the purged ranking, minus the packet's previous hop.

    phi_max is taken over all live entries, before the exclusion. An empty
    ranking yields an empty set (no route); a nonempty ranking whose filtered
    set is empty falls back to the unconditional best forwarder.
    """
    live = ranking.scores(dest, now_us)
    if not live:
        return SchedulableSet(dest, ())
    phi_max = max(live.values())
    threshold = likelihood * phi_max
    members = tuple(sorted(n for n, s in live.items() if s >= threshold and n != exclude))
    if members:
        return SchedulableSet(dest, members)
    best = ranking.best_forwarder(dest, now_us)
    return SchedulableSet(dest, (best,), fallback=True)


class RRState:
    """Per-destination rotation cursors; reset whenever set membership changes."""

    def __init__(self) -> None:
        self._cursors: dict[int, list] = {}  # dest -> [members, index]

    def take(self, sset: SchedulableSet) -> int | None:
        """Member at the cursor, advancing modulo the member count; None = no route."""
        if not sset.members:
            return None
        cursor = self._cursors.get(sset.dest)
        if cursor is None or cursor[0] != sset.members:
            cursor = [sset.members, 0]
            self._cursors[sset.dest] = cursor
        choice = cursor[0][cursor[1]]
        cursor[1] = (cursor[1] + 1) % len(cursor[0])
        return choice


def postrouting_hook(
    packet: Frame,
    node_id: int,
    ranking: NeighborRanking,
    rr: RRState,
    likelihood: float,
    now_us: int,
    exclude_prev: bool = True,
) -> tuple[int | DropReason, SchedulableSet | None]:
    """Rewrite the packet's next hop to the load-balanced choice.

    Called for locally originated and transiting data frames; control frames
    never pass through here. Returns the chosen forwarder (or a drop reason)
    plus the set the choice was made from, for dispatch logging.
    """
    exclude = packet.prev_hop if exclude_prev else None
    sset = schedulable_set(ranking, packet.dst, likelihood, now_us, exclude)
    choice = _forward(packet, node_id, rr.take(sset))
    return choice, None if choice is DropReason.NO_ROUTE else sset


def plain_forward(
    packet: Frame,
    node_id: int,
    ranking: NeighborRanking,
    now_us: int,
) -> tuple[int | DropReason, None]:
    """Unbalanced reference path: always the single best forwarder."""
    return _forward(packet, node_id, ranking.best_forwarder(packet.dst, now_us)), None


def _forward(packet: Frame, node_id: int, choice: int | None) -> int | DropReason:
    """Hand the packet to choice (None = no route), spending one TTL step."""
    if choice is None:
        return DropReason.NO_ROUTE
    packet.ttl -= 1
    if packet.ttl <= 0:
        return DropReason.TTL
    packet.prev_hop = node_id
    packet.next_hop = choice
    return choice
