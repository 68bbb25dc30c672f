import random

from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim.balancer import (
    DropReason,
    RRState,
    plain_forward,
    postrouting_hook,
    schedulable_set,
)
from manetsim.channel import Frame, FrameKind
from manetsim.routing import NeighborRanking


def make_ranking(scores, now_us=0):
    ranking = NeighborRanking()
    ranking.table[9] = {neighbor: [score, now_us] for neighbor, score in scores.items()}
    return ranking


def members(scores, likelihood, exclude=None):
    return schedulable_set(make_ranking(scores), 9, likelihood, 0, exclude).members


def test_threshold_filter_keeps_similar_scores():
    # B=1.00, F=0.95, A=0.60 at threshold 0.9 -> {B, F}
    assert members({1: 1.00, 5: 0.95, 7: 0.60}, 0.9) == (1, 5)


def test_likelihood_zero_is_pure_round_robin_set():
    assert members({1: 1.0, 5: 0.4, 7: 0.1}, 0.0) == (1, 5, 7)


def test_likelihood_one_keeps_exact_ties_only():
    assert members({1: 0.9, 5: 0.9, 7: 0.89}, 1.0) == (1, 5)


def test_likelihood_above_one_falls_back_to_best_forwarder():
    sset = schedulable_set(make_ranking({1: 0.7, 5: 0.9}), 9, 1.1, 0)
    assert sset.members == (5,)
    assert sset.fallback


def test_exclusion_removes_previous_hop():
    assert members({1: 0.95, 5: 0.93}, 0.9, exclude=1) == (5,)


def test_exclusion_of_only_candidate_falls_back_unconditionally():
    sset = schedulable_set(make_ranking({1: 0.95}), 9, 0.9, 0, exclude=1)
    assert sset.members == (1,)
    assert sset.fallback


def test_empty_ranking_signals_no_route():
    sset = schedulable_set(NeighborRanking(), 9, 0.9, 0)
    assert sset.members == ()
    assert RRState().take(sset) is None


def test_phi_max_computed_before_exclusion():
    # Threshold 0.9 * 1.0 keeps 5 only; a phi_max taken after excluding 1
    # would be 0.95, and its threshold 0.855 would keep 7 as well.
    assert members({1: 1.0, 5: 0.95, 7: 0.88}, 0.9, exclude=1) == (5,)


def brute_force_set(scores, likelihood, exclude):
    """Independent reimplementation of the documented contract."""
    if not scores:
        return ()
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
                    st.floats(min_value=0.001, max_value=1.0), max_size=10),
    st.floats(min_value=0.0, max_value=1.5),
    st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
)
@settings(max_examples=300)
def test_matches_brute_force(scores, likelihood, exclude):
    got = schedulable_set(make_ranking(scores), 9, likelihood, 0, exclude).members
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
    set_lo = schedulable_set(make_ranking(scores), 9, lo, 0)
    set_hi = schedulable_set(make_ranking(scores), 9, hi, 0)
    if not set_hi.fallback:
        assert set(set_hi.members) <= set(set_lo.members)


@given(
    st.dictionaries(st.integers(min_value=0, max_value=30),
                    st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=1.2),
)
@settings(max_examples=200)
def test_best_forwarder_contained_unless_excluded(scores, likelihood):
    ranking = make_ranking(scores)
    best = ranking.best_forwarder(9, 0)
    sset = schedulable_set(ranking, 9, likelihood, 0)
    assert best in sset.members


def test_round_robin_rotation():
    rr = RRState()
    sset = schedulable_set(make_ranking({1: 1.0, 5: 1.0}), 9, 1.0, 0)
    assert [rr.take(sset) for _ in range(4)] == [1, 5, 1, 5]


def test_round_robin_singleton():
    rr = RRState()
    sset = schedulable_set(make_ranking({5: 0.7}), 9, 0.9, 0)
    assert [rr.take(sset) for _ in range(3)] == [5, 5, 5]


def test_round_robin_fairness_bound():
    rr = RRState()
    sset = schedulable_set(make_ranking({1: 1.0, 5: 1.0, 7: 1.0}), 9, 0.9, 0)
    counts = {1: 0, 5: 0, 7: 0}
    for _ in range(100):
        counts[rr.take(sset)] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_cursor_resets_on_membership_change():
    rr = RRState()
    wide = schedulable_set(make_ranking({1: 1.0, 5: 1.0}), 9, 1.0, 0)
    assert rr.take(wide) == 1
    assert rr.take(wide) == 5
    narrow = schedulable_set(make_ranking({1: 1.0, 5: 0.5}), 9, 1.0, 0)
    assert rr.take(narrow) == 1
    wide2 = schedulable_set(make_ranking({1: 1.0, 5: 1.0}), 9, 1.0, 0)
    assert rr.take(wide2) == 1  # reset, not resumed


@given(st.lists(st.sampled_from(["ab", "abc", "a", "bc"]), min_size=1, max_size=40))
@settings(max_examples=100)
def test_fairness_holds_piecewise_under_membership_churn(pattern):
    name_to_id = {"a": 1, "b": 2, "c": 3}
    rr = RRState()
    dispatch = []
    for token in pattern:
        scores = {name_to_id[ch]: 1.0 for ch in token}
        sset = schedulable_set(make_ranking(scores), 9, 1.0, 0)
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
    return Frame(kind=FrameKind.DATA, dst=dst, size_bytes=1460,
                 prev_hop=prev_hop, ttl=ttl, packet_id=1)


def test_hook_excludes_previous_hop():
    ranking = make_ranking({1: 0.95, 5: 0.93})
    packet = data_frame(prev_hop=1)
    decision, sset = postrouting_hook(packet, 3, ranking, RRState(), 0.9, 0)
    assert decision == 5
    assert packet.next_hop == 5
    assert packet.prev_hop == 3
    assert packet.ttl == 15


def test_hook_drops_on_ttl_expiry():
    ranking = make_ranking({1: 0.95})
    packet = data_frame(ttl=1)
    decision, _ = postrouting_hook(packet, 3, ranking, RRState(), 0.9, 0)
    assert decision is DropReason.TTL


def test_hook_drops_without_route():
    packet = data_frame()
    decision, sset = postrouting_hook(packet, 3, NeighborRanking(), RRState(), 0.9, 0)
    assert decision is DropReason.NO_ROUTE
    assert sset is None


def test_hook_with_high_likelihood_matches_plain_forwarding():
    rng = random.Random(4)
    for _ in range(200):
        scores = {n: rng.uniform(0.01, 1.0) for n in rng.sample(range(12), rng.randint(1, 6))}
        prev = rng.choice([None] + list(scores))
        ranking_a = make_ranking(scores)
        ranking_b = make_ranking(scores)
        balanced = data_frame(prev_hop=prev)
        plain = data_frame(prev_hop=prev)
        got_balanced, _ = postrouting_hook(balanced, 3, ranking_a, RRState(), 1.1, 0)
        got_plain, _ = plain_forward(plain, 3, ranking_b, 0)
        assert got_balanced == got_plain
        assert balanced.next_hop == plain.next_hop
        assert balanced.ttl == plain.ttl


def test_exclusion_toggle_allows_bounce_back():
    ranking = make_ranking({1: 0.95, 5: 0.93})
    packet = data_frame(prev_hop=1)
    decision, sset = postrouting_hook(packet, 3, ranking, RRState(), 0.9, 0,
                                      exclude_prev=False)
    assert sset.members == (1, 5)  # previous hop stays eligible
    assert decision == 1


def test_control_frames_never_enter_hook_by_contract():
    # the hook is only defined for data frames; the simulation enforces the
    # bypass, checked end-to-end in test_simulation
    packet = data_frame()
    assert packet.kind is FrameKind.DATA
