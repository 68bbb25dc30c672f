"""Passive load balancing over the neighbor ranking.

The schedulable set for a destination is every live neighbor whose score
clears `likelihood * phi_max`; packets rotate round-robin across it. The hook
sits between route lookup and the transmit queue and rewrites the proposed
next hop, at the sender and at every intermediate forwarder alike.

Membership uses >= rather than a strict comparison so that likelihood 1.0
spreads load exactly over score ties, and an empty filtered set (for example
any likelihood above 1) falls back to the single best forwarder, which makes
the scheme degrade to the unmodified protocol.

A ranking changes far less often than its node forwards, so the hook and the
plain path memoise their choice on the ``routing.Route`` they are given; each
rule is still stated once, in ``best_forwarder`` and ``schedulable_set``.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .channel import Frame


class DropReason(Enum):
    NO_ROUTE = "no_route"
    TTL = "ttl"


class SchedulableSet(NamedTuple):
    dest: int
    members: tuple[int, ...]  # ascending node id; deterministic rotation order
    fallback: bool = False  # True when the threshold filter came up empty


def best_forwarder(live: dict[int, float]) -> int:
    """Argmax of a nonempty {neighbor: score} map; ties break toward the lowest node id."""
    phi_max = max(live.values())
    return min([n for n, s in live.items() if s == phi_max])


def schedulable_set(
    live: dict[int, float],
    dest: int,
    likelihood: float,
    exclude: int | None = None,
) -> SchedulableSet:
    """Threshold filter over the live scores for dest, minus the packet's previous hop.

    ``live`` is the purged ranking, ``FloodingProtocol.live(node, dest, now_us)``,
    never empty: the hook reports no route first. phi_max is taken over all
    live entries, before the exclusion; a filtered set that comes up empty
    falls back to the unconditional best forwarder.
    """
    threshold = likelihood * max(live.values())
    members = tuple(sorted([n for n, s in live.items() if s >= threshold and n != exclude]))
    if members:
        return SchedulableSet(dest, members)
    return SchedulableSet(dest, (best_forwarder(live),), True)


class RRState:
    """Per-destination rotation cursors; reset whenever set membership changes."""

    def __init__(self) -> None:
        self._cursors: dict[int, list] = {}  # dest -> [members, index]

    def take(self, sset: SchedulableSet) -> int:
        """Member at the cursor, advancing modulo the member count."""
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
    live: dict[int, float],
    rr: RRState,
    likelihood: float,
    exclude_prev: bool = True,
) -> tuple[int | DropReason, SchedulableSet | None]:
    """Rewrite the packet's next hop to the load-balanced choice.

    Called for locally originated and transiting data frames, with the node's
    live scores for the packet's destination: any empty mapping, or a
    ``Route``, on which the schedulable set is memoised per excluded hop and
    likelihood. Control frames never pass through here. Returns the chosen
    forwarder (or a drop reason) plus the set the choice was made from, for
    dispatch logging.
    """
    if not live:
        return DropReason.NO_ROUTE, None
    exclude = packet.prev_hop if exclude_prev else None
    sets, key = live.sets, (exclude, likelihood)
    sset = sets.get(key)
    if sset is None:
        sset = sets[key] = schedulable_set(live, packet.dst, likelihood, exclude)
    return _forward(packet, node_id, rr.take(sset)), sset


def plain_forward(
    packet: Frame,
    node_id: int,
    live: dict[int, float],
) -> tuple[int | DropReason, None]:
    """Unbalanced reference path: always the single best forwarder, memoised on
    the ``Route`` that ``live`` is when it is not empty."""
    if not live:
        return DropReason.NO_ROUTE, None
    best = live.best
    if best is None:
        best = live.best = best_forwarder(live)
    return _forward(packet, node_id, best), None


def _forward(packet: Frame, node_id: int, choice: int) -> int | DropReason:
    """Hand the packet to choice, spending one TTL step."""
    packet.ttl -= 1
    if packet.ttl <= 0:
        return DropReason.TTL
    packet.prev_hop = node_id
    packet.next_hop = choice
    return choice
