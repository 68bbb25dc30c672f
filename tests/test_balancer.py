import random
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st
from pinned_runs import node_tables

from manetsim.balancer import (
    DropReason,
    RRState,
    best_forwarder,
    plain_forward,
    postrouting_hook,
    schedulable_set,
)
from manetsim.channel import Frame
from manetsim.config import ScenarioConfig
from manetsim.routing import ControlKind, ControlMessage, FloodingProtocol, Route


def members(scores, likelihood, exclude=None):
    return schedulable_set(scores, 9, likelihood, exclude).members


def test_threshold_filter_keeps_similar_scores():
    # B=1.00, F=0.95, A=0.60 at threshold 0.9 -> {B, F}
    assert members({1: 1.00, 5: 0.95, 7: 0.60}, 0.9) == (1, 5)


def test_likelihood_zero_is_pure_round_robin_set():
    assert members({1: 1.0, 5: 0.4, 7: 0.1}, 0.0) == (1, 5, 7)


def test_likelihood_one_keeps_exact_ties_only():
    assert members({1: 0.9, 5: 0.9, 7: 0.89}, 1.0) == (1, 5)


def test_likelihood_above_one_falls_back_to_best_forwarder():
    sset = schedulable_set({1: 0.7, 5: 0.9}, 9, 1.1)
    assert sset.members == (5,)
    assert sset.fallback


def test_exclusion_removes_previous_hop():
    assert members({1: 0.95, 5: 0.93}, 0.9, exclude=1) == (5,)


def test_exclusion_of_only_candidate_falls_back_unconditionally():
    sset = schedulable_set({1: 0.95}, 9, 0.9, exclude=1)
    assert sset.members == (1,)
    assert sset.fallback


def test_phi_max_computed_before_exclusion():
    # Threshold 0.9 * 1.0 keeps 5 only; a phi_max taken after excluding 1
    # would be 0.95, and its threshold 0.855 would keep 7 as well.
    assert members({1: 1.0, 5: 0.95, 7: 0.88}, 0.9, exclude=1) == (5,)


def brute_force_set(scores, likelihood, exclude):
    """Independent reimplementation of the documented contract for a nonempty map."""
    phi_max = max(scores.values())
    kept = []
    for neighbor in sorted(scores):
        if scores[neighbor] >= likelihood * phi_max and neighbor != exclude:
            kept.append(neighbor)
    if kept:
        return tuple(kept)
    best_score = phi_max
    best = min(n for n, s in scores.items() if s == best_score)
    return (best,)


@given(
    st.dictionaries(st.integers(min_value=0, max_value=30),
                    st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=1.5),
    st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
)
@settings(max_examples=300)
def test_matches_brute_force(scores, likelihood, exclude):
    got = schedulable_set(scores, 9, likelihood, exclude).members
    assert got == brute_force_set(scores, likelihood, exclude)


@given(
    st.dictionaries(st.integers(min_value=0, max_value=30),
                    st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=1.2),
    st.floats(min_value=0.0, max_value=1.2),
)
@settings(max_examples=200)
def test_membership_monotone_in_likelihood(scores, lam1, lam2):
    lo, hi = sorted((lam1, lam2))
    set_lo = schedulable_set(scores, 9, lo)
    set_hi = schedulable_set(scores, 9, hi)
    if not set_hi.fallback:
        assert set(set_hi.members) <= set(set_lo.members)


@given(
    st.dictionaries(st.integers(min_value=0, max_value=30),
                    st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=1.2),
)
@settings(max_examples=200)
def test_best_forwarder_contained_unless_excluded(scores, likelihood):
    live = scores
    best = best_forwarder(live)
    sset = schedulable_set(live, 9, likelihood)
    assert best in sset.members


def test_round_robin_rotation():
    rr = RRState()
    sset = schedulable_set({1: 1.0, 5: 1.0}, 9, 1.0)
    assert [rr.take(sset) for _ in range(4)] == [1, 5, 1, 5]


def test_round_robin_singleton():
    rr = RRState()
    sset = schedulable_set({5: 0.7}, 9, 0.9)
    assert [rr.take(sset) for _ in range(3)] == [5, 5, 5]


def test_round_robin_fairness_bound():
    rr = RRState()
    sset = schedulable_set({1: 1.0, 5: 1.0, 7: 1.0}, 9, 0.9)
    counts = {1: 0, 5: 0, 7: 0}
    for _ in range(100):
        counts[rr.take(sset)] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_cursor_resets_on_membership_change():
    rr = RRState()
    wide = schedulable_set({1: 1.0, 5: 1.0}, 9, 1.0)
    assert rr.take(wide) == 1
    assert rr.take(wide) == 5
    narrow = schedulable_set({1: 1.0, 5: 0.5}, 9, 1.0)
    assert rr.take(narrow) == 1
    wide2 = schedulable_set({1: 1.0, 5: 1.0}, 9, 1.0)
    assert rr.take(wide2) == 1  # reset, not resumed


@given(st.lists(st.sampled_from(["ab", "abc", "a", "bc"]), min_size=1, max_size=40))
@settings(max_examples=100)
def test_fairness_holds_piecewise_under_membership_churn(pattern):
    name_to_id = {"a": 1, "b": 2, "c": 3}
    rr = RRState()
    dispatch = []
    for token in pattern:
        scores = {name_to_id[ch]: 1.0 for ch in token}
        sset = schedulable_set(scores, 9, 1.0)
        dispatch.append((sset.members, rr.take(sset)))
    # audit per maximal interval of constant membership
    idx = 0
    while idx < len(dispatch):
        end = idx
        while end < len(dispatch) and dispatch[end][0] == dispatch[idx][0]:
            end += 1
        counts = {m: 0 for m in dispatch[idx][0]}
        for _, chosen in dispatch[idx:end]:
            counts[chosen] += 1
        assert max(counts.values()) - min(counts.values()) <= 1
        idx = end


# -- postrouting hook ----------------------------------------------------------

def data_frame(dst=9, prev_hop=None, ttl=16):
    return Frame(dst=dst, size_bytes=1460, prev_hop=prev_hop, ttl=ttl, packet_id=1)


def test_hook_excludes_previous_hop():
    packet = data_frame(prev_hop=1)
    decision, sset = postrouting_hook(packet, 3, Route({1: 0.95, 5: 0.93}), RRState(), 0.9)
    assert decision == 5
    assert packet.next_hop == 5
    assert packet.prev_hop == 3
    assert packet.ttl == 15


def test_hook_drops_on_ttl_expiry():
    packet = data_frame(ttl=1)
    decision, _ = postrouting_hook(packet, 3, Route({1: 0.95}), RRState(), 0.9)
    assert decision is DropReason.TTL


def test_hook_drops_without_route():
    packet = data_frame()
    decision, sset = postrouting_hook(packet, 3, {}, RRState(), 0.9)
    assert decision is DropReason.NO_ROUTE
    assert sset is None


def test_hook_with_high_likelihood_matches_plain_forwarding():
    rng = random.Random(4)
    for _ in range(200):
        scores = {n: rng.uniform(0.01, 1.0) for n in rng.sample(range(12), rng.randint(1, 6))}
        prev = rng.choice([None] + list(scores))
        balanced = data_frame(prev_hop=prev)
        plain = data_frame(prev_hop=prev)
        got_balanced, _ = postrouting_hook(balanced, 3, Route(scores), RRState(), 1.1)
        got_plain, _ = plain_forward(plain, 3, Route(scores))
        assert got_balanced == got_plain
        assert balanced.next_hop == plain.next_hop
        assert balanced.ttl == plain.ttl


def test_exclusion_toggle_allows_bounce_back():
    packet = data_frame(prev_hop=1)
    decision, sset = postrouting_hook(packet, 3, Route({1: 0.95, 5: 0.93}), RRState(), 0.9,
                                      exclude_prev=False)
    assert sset.members == (1, 5)  # previous hop stays eligible
    assert decision == 1


def test_control_frames_never_enter_hook_by_contract():
    # A frame with no next hop is a broadcast, and only control frames are
    # broadcasts. The hook gives every frame it forwards a next hop, so what it
    # passes on is never one; the simulation never hands it a control frame,
    # checked end-to-end in test_simulation.
    packet = data_frame()
    assert packet.next_hop is None
    decision, _ = postrouting_hook(packet, 3, Route({1: 0.95, 5: 0.93}), RRState(), 0.9)
    assert packet.next_hop == decision == 1


# -- the decision path against its per-call reference ---------------------------
#
# The reference reads the ranking the way the decision path once did: the hook
# and the plain path each purged and read it themselves, the threshold
# filter's fallback read it a second time through the ranking's own argmax,
# and an empty ranking surfaced as a None forwarder from the cursor. The new
# side is FloodingProtocol.live, the one purge rule, over node ME's table, and
# the choices memoised on the Route it returns. Entries change through
# receive, which is what tells live that its cached route is stale.

ME = 20


class CarriedScoreFlooding(FloodingProtocol):
    """Scores every receiver of a copy by the copy's carried score."""

    def score_all(self, receivers, msg, prev_hop, now_us):
        return [msg.carried_score] * len(receivers)


def copy_of(dest, score):
    """A copy of dest's originator message carrying score."""
    return ControlMessage(kind=ControlKind.OGM, originator=dest, seq=0,
                          sender_position=(0.0, 0.0, 0.0), carried_score=score)


class ReferenceRanking:
    def __init__(self, expiry_us):
        self.expiry_us = expiry_us
        self.table = {}  # dest -> {neighbor: (score, last_us)}

    def scores(self, dest, now_us):
        entries = self.table.get(dest)
        if not entries:
            return {}
        stale = [n for n, (_, last) in entries.items() if now_us - last > self.expiry_us]
        for n in stale:
            del entries[n]
        return {n: entry[0] for n, entry in entries.items()}

    def best_forwarder(self, dest, now_us):
        live = self.scores(dest, now_us)
        if not live:
            return None
        return max(live.items(), key=lambda kv: (kv[1], -kv[0]))[0]


@dataclass(frozen=True)
class ReferenceSet:
    dest: int
    members: tuple
    fallback: bool = False


def reference_set(ranking, dest, likelihood, now_us, exclude=None):
    live = ranking.scores(dest, now_us)
    if not live:
        return ReferenceSet(dest, ())
    phi_max = max(live.values())
    threshold = likelihood * phi_max
    kept = tuple(sorted(n for n, s in live.items() if s >= threshold and n != exclude))
    if kept:
        return ReferenceSet(dest, kept)
    return ReferenceSet(dest, (ranking.best_forwarder(dest, now_us),), fallback=True)


def reference_forward(packet, node_id, choice):
    if choice is None:
        return DropReason.NO_ROUTE
    packet.ttl -= 1
    if packet.ttl <= 0:
        return DropReason.TTL
    packet.prev_hop = node_id
    packet.next_hop = choice
    return choice


def reference_decide(packet, node_id, ranking, rr, likelihood, now_us, exclude_prev, balancing):
    if not balancing:
        return reference_forward(packet, node_id, ranking.best_forwarder(packet.dst, now_us)), None
    exclude = packet.prev_hop if exclude_prev else None
    sset = reference_set(ranking, packet.dst, likelihood, now_us, exclude)
    choice = reference_forward(packet, node_id, rr.take(sset) if sset.members else None)
    return choice, None if choice is DropReason.NO_ROUTE else sset


def decide(packet, node_id, protocol, rr, likelihood, now_us, exclude_prev, balancing):
    """What Simulation._route does before its accounting."""
    live = protocol.live(node_id, packet.dst, now_us)
    if balancing:
        return postrouting_hook(packet, node_id, live, rr, likelihood, exclude_prev)
    return plain_forward(packet, node_id, live)


# Exact ties come from the few sampled scores. The ranking expiry is 1 s and
# the first decision is at 2 s, so an entry last heard at 1 s sits exactly on
# the expiry edge.
path_scores = st.one_of(st.sampled_from([0.3, 0.6, 1.0]), st.floats(min_value=0.001, max_value=1.0))
path_heard = st.one_of(st.sampled_from([999_999, 1_000_000, 1_000_001]), st.integers(0, 2_000_000))
path_tables = st.dictionaries(
    st.integers(0, 3),
    st.dictionaries(st.integers(0, 6), st.tuples(path_scores, path_heard), max_size=5),
    max_size=4,
)
# lambda = 1 keeps exact ties only; above 1 the filter always falls back.
path_likelihoods = st.one_of(st.sampled_from([0.0, 1.0, 1.5]),
                             st.floats(min_value=0.0, max_value=2.0))
# One decision: destination, previous hop, TTL left, time since the last
# decision, and an entry refreshed just before it (or none).
path_steps = st.tuples(
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 6)),
    st.integers(1, 3),
    st.sampled_from([0, 1, 400_000, 1_200_000]),
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 6), path_scores)),
)


@given(path_tables, st.lists(path_steps, min_size=1, max_size=12), path_likelihoods,
       st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_decision_path_equals_the_per_call_reference(table, steps, likelihood, exclude_prev,
                                                     balancing):
    new = CarriedScoreFlooding(ScenarioConfig(ranking_expiry_s=1.0), [(0.0, 0.0, 0.0)] * (ME + 1))
    old = ReferenceRanking(1_000_000)
    for dest, entries in table.items():
        new.rankings.setdefault(dest, [None] * (ME + 1))[ME] = dict(entries)
        old.table[dest] = dict(entries)
    new_rr, old_rr = RRState(), RRState()
    now = 2_000_000
    for dest, prev_hop, ttl, gap, refresh in steps:
        now += gap
        if refresh is not None:
            refresh_dest, neighbor, score = refresh
            new.receive([ME], copy_of(refresh_dest, score), neighbor, now)
            old.table.setdefault(refresh_dest, {})[neighbor] = (score, now)
        new_packet, old_packet = (data_frame(dst=dest, prev_hop=prev_hop, ttl=ttl) for _ in "ab")
        got = decide(new_packet, ME, new, new_rr, likelihood, now, exclude_prev, balancing)
        want = reference_decide(old_packet, ME, old, old_rr, likelihood, now, exclude_prev,
                                balancing)
        assert got[0] == want[0]
        assert (got[1] is None) == (want[1] is None)
        if got[1] is not None:
            assert (got[1].dest, got[1].members, got[1].fallback) == (
                want[1].dest, want[1].members, want[1].fallback)
        assert ((new_packet.ttl, new_packet.prev_hop, new_packet.next_hop)
                == (old_packet.ttl, old_packet.prev_hop, old_packet.next_hop))
        assert new_rr._cursors == old_rr._cursors
        assert node_tables(new)["rankings"][ME] == old.table


# -- the route cache against the uncached reference -----------------------------
#
# A step is a copy of dest's message heard from a neighbour by ME, by another
# node or by no node, then ME's live scores, tables and both decisions checked
# at that time. A score at or below zero pops the entry, one above one is
# stored as one. The time lands 1 us before, at or 1 us past the oldest or the
# newest of ME's entries for dest plus the expiry, or a gap past the last step.

OTHER = ME + 1
EXPIRY_US = 1_000_000
cache_steps = st.tuples(
    st.sampled_from(["me", "other", None]),
    st.integers(0, 2),
    st.integers(0, 4),
    st.sampled_from([-0.5, 0.0, 0.3, 0.6, 1.0, 1.5]),
    st.one_of(st.tuples(st.just("gap"), st.sampled_from([0, 1, 250_000, 600_000])),
              st.tuples(st.sampled_from(["oldest", "newest"]), st.sampled_from([-1, 0, 1]))),
    st.one_of(st.none(), st.integers(0, 4)),
)


def reference_receive(table, dest, neighbor, score, now_us):
    entries = table.get(dest)
    if score <= 0.0:
        if entries:
            entries.pop(neighbor, None)
    else:
        table.setdefault(dest, {})[neighbor] = (min(score, 1.0), now_us)


# Each example kills one cache mutant: a copy that only pops must make the route
# stale; the deadline is the oldest entry's, to the microsecond; a schedulable
# set is kept per excluded previous hop.
@example([("me", 0, 1, 1.0, ("gap", 0), None), ("me", 0, 2, 0.6, ("gap", 0), None),
          ("me", 0, 1, 0.0, ("gap", 0), None)], 0.9)
@example([("me", 0, 1, 1.0, ("gap", 0), None), ("me", 0, 2, 0.6, ("gap", 250_000), None),
          (None, 0, 0, 0.0, ("oldest", 1), None)], 0.9)
@example([("me", 0, 1, 1.0, ("gap", 0), None), ("me", 0, 2, 1.0, ("gap", 0), 1),
          (None, 0, 0, 0.0, ("gap", 0), 2)], 0.9)
@given(st.lists(cache_steps, min_size=1, max_size=20), path_likelihoods)
@settings(max_examples=300, deadline=None)
def test_cached_routes_equal_the_uncached_reference(steps, likelihood):
    new = CarriedScoreFlooding(ScenarioConfig(ranking_expiry_s=1.0),
                               [(0.0, 0.0, 0.0)] * (OTHER + 1))
    old = {ME: ReferenceRanking(EXPIRY_US), OTHER: ReferenceRanking(EXPIRY_US)}
    new_rr, old_rr = RRState(), RRState()
    now = 2_000_000
    for who, dest, neighbor, score, (anchor, offset), prev_hop in steps:
        lasts = [last for _, last in old[ME].table.get(dest, {}).values()]
        if anchor == "gap" or not lasts:
            now += offset
        else:
            now = max(now, (min(lasts) if anchor == "oldest" else max(lasts)) + EXPIRY_US + offset)
        if who is not None:
            node = ME if who == "me" else OTHER
            new.receive([node], copy_of(dest, score), neighbor, now)
            reference_receive(old[node].table, dest, neighbor, score, now)
        assert list(new.live(ME, dest, now).items()) == list(old[ME].scores(dest, now).items())
        for balancing in (True, False):
            new_packet, old_packet = (data_frame(dst=dest, prev_hop=prev_hop) for _ in "ab")
            got = decide(new_packet, ME, new, new_rr, likelihood, now, True, balancing)
            want = reference_decide(old_packet, ME, old[ME], old_rr, likelihood, now, True,
                                    balancing)
            assert got[0] == want[0]
            assert (None if got[1] is None else (got[1].members, got[1].fallback)) == (
                None if want[1] is None else (want[1].members, want[1].fallback))
            assert new_rr._cursors == old_rr._cursors
        rankings = node_tables(new)["rankings"]
        assert [rankings[ME], rankings[OTHER]] == [old[ME].table, old[OTHER].table]
