"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 1-5, 9 and 10 are exact property checks. Criteria 6-8 are
directional trend reproductions at the reference desk scale; they run
faithfully as stated and are allowed to fail loudly when the simulated
physics does not produce the trend (see the verdict line each one prints).
"""

import math
import random
import time
from dataclasses import replace

import pytest
from linkbudget import receivable

from manetsim.balancer import (
    DropReason,
    RRState,
    best_forwarder,
    postrouting_hook,
    schedulable_set,
)
from manetsim.channel import Frame, max_range_m
from manetsim.config import ScenarioConfig
from manetsim.engine import EventKind, us_from_s
from manetsim.experiment import rows_to_csv_text, run_experiment, simulate_all
from manetsim.routing import ControlKind, ControlMessage
from manetsim.simulation import Simulation, simulate
from manetsim.traffic import StreamSpec

SEEDS = list(range(1, 11))

_RUN_CACHE: dict = {}
ALL_RESULTS: list = []


# The reference batches criteria 6-8 read, as reference_runs arguments. The
# first cache miss runs all of them as one fanned-out batch, so that no
# worker idles at the tail of each ten-seed batch (~2.5 s of tier-1).
CRITERIA_6_TO_8_BATCHES = [
    *({"protocol": protocol, "balancing": balancing}
      for protocol in ("batman", "golsr", "batmobile") for balancing in (False, True)),
    {"lam": 0.3}, {"lam": 1.1}, {"nodes": 5, "balancing": False}, {"nodes": 5},
]


def reference_key(protocol="batman", nodes=15, balancing=True, lam=0.9,
                  sim_time_s=100.0, seeds=tuple(SEEDS)):
    return (protocol, nodes, balancing, lam, sim_time_s, seeds)


def reference_runs(*args, **kwargs):
    """Reference-scenario batch (500 x 500 m), cached across criteria."""
    key = reference_key(*args, **kwargs)
    if key not in _RUN_CACHE:
        wanted = [key, *(reference_key(**batch) for batch in CRITERIA_6_TO_8_BATCHES)]
        missing = [k for k in dict.fromkeys(wanted) if k not in _RUN_CACHE]
        results = simulate_all([
            (ScenarioConfig(nodes=nodes, sim_time_s=sim_time_s, protocol=protocol,
                            balancing=balancing, lambda_factor=lam), seed)
            for protocol, nodes, balancing, lam, sim_time_s, seeds in missing
            for seed in seeds])
        ALL_RESULTS.extend(results)
        start = 0
        for k in missing:
            _RUN_CACHE[k] = results[start:start + len(k[-1])]
            start += len(k[-1])
    return _RUN_CACHE[key]


def mean(values):
    return sum(values) / len(values)


def verdict(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- criterion 1: threshold-set equivalence against a brute-force oracle -----

def brute_force(scores, likelihood, exclude):
    if not scores:
        return ()
    phi_max = max(scores.values())
    kept = tuple(sorted(n for n, s in scores.items()
                        if s >= likelihood * phi_max and n != exclude))
    if kept:
        return kept
    return (min(n for n, s in scores.items() if s == phi_max),)


def test_criterion_01_schedulable_set_oracle_equivalence():
    rng = random.Random(20260808)
    started = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        scores = {n: rng.uniform(0.001, 1.0)
                  for n in rng.sample(range(40), rng.randint(0, 12))}
        likelihood = rng.choice([0.0, 0.5, 0.9, 1.0, 1.1, rng.uniform(0, 1.5)])
        exclude = rng.choice([None] + list(scores) + [99])
        if scores:
            got = schedulable_set(scores, 9, likelihood, exclude).members
        else:  # an empty map never reaches the filter: the hook reports no route
            packet = Frame(dst=9, size_bytes=1460, prev_hop=exclude, ttl=16)
            assert postrouting_hook(packet, 3, scores, RRState(), likelihood) == (
                DropReason.NO_ROUTE, None)
            got = ()
        assert got == brute_force(scores, likelihood, exclude), (scores, likelihood, exclude)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = verdict(1, "set-oracle-equivalence", checked == 10_000 and elapsed < 5.0,
                 f"{checked} randomized cases exact in {elapsed:.2f} s")
    assert ok


# -- criterion 2: likelihood regimes -----------------------------------------

def test_criterion_02_likelihood_regimes():
    scores = {1: 1.0, 5: 0.4, 7: 0.1, 8: 0.9}
    rr_all = schedulable_set(scores, 9, 0.0, exclude=5).members
    ties = schedulable_set({1: 0.9, 5: 0.9, 7: 0.8}, 9, 1.0).members
    above = schedulable_set(scores, 9, 1.1)
    ok = (rr_all == (1, 7, 8)
          and ties == (1, 5)
          and above.members == (1,) and above.fallback
          and above.members[0] == best_forwarder(scores))
    assert verdict(2, "likelihood-regimes", ok,
                   f"lambda=0 -> {rr_all}, lambda=1 ties -> {ties}, "
                   f"lambda=1.1 fallback -> {above.members}")


# -- criterion 3: likelihood above one equals the unmodified protocol ---------

def test_criterion_03_plain_protocol_equivalence():
    config = ScenarioConfig(nodes=15, sim_time_s=60.0)
    high = simulate(replace(config, balancing=True, lambda_factor=1.1), 3, trace=True)
    plain = simulate(replace(config, balancing=False), 3, trace=True)
    ALL_RESULTS.extend([high, plain])
    # Everything but the schedulable set, which only the balanced path has.
    high_choices = [d[:5] for d in high.decisions]
    plain_choices = [d[:5] for d in plain.decisions]
    ok = high_choices == plain_choices and len(high_choices) > 1000
    assert verdict(3, "plain-protocol-equivalence", ok,
                   f"{len(high_choices)} per-packet decisions identical")


# -- criterion 4: round-robin fairness over constant-membership intervals ----

def audit_rr_fairness(decisions):
    """Max dispatch-count spread over every maximal constant-membership
    interval, grouped per (node, destination), over the packets forwarded
    from a schedulable set."""
    by_pair: dict = {}
    for d in decisions:
        if d.members is not None and not isinstance(d.choice, DropReason):
            by_pair.setdefault((d.node, d.dst), []).append((d.members, d.choice))
    worst = 0
    intervals = 0
    for entries in by_pair.values():
        idx = 0
        while idx < len(entries):
            end = idx
            while end < len(entries) and entries[end][0] == entries[idx][0]:
                end += 1
            counts = {m: 0 for m in entries[idx][0]}
            for _, chosen in entries[idx:end]:
                counts[chosen] += 1
            worst = max(worst, max(counts.values()) - min(counts.values()))
            intervals += 1
            idx = end
    return worst, intervals


def test_criterion_04_round_robin_fairness():
    diamond = [(0.0, 50.0, 0.0), (40.0, 70.0, 0.0), (40.0, 30.0, 0.0), (80.0, 50.0, 0.0)]
    fixture = ScenarioConfig(nodes=4, speed_mps=0.0, sim_time_s=20.0, stream_start_s=5.0,
                             area_x=200.0, area_y=120.0, area_z=1.0)
    run_a = simulate(fixture, 1, initial_positions=diamond,
                     streams=[StreamSpec(0, 3, us_from_s(5.0), us_from_s(20.0))],
                     trace=True)
    dense = ScenarioConfig(nodes=12, sim_time_s=30.0, area_x=150.0, area_y=150.0,
                           stream_start_s=3.0)
    run_b = simulate(dense, 5, trace=True)
    ALL_RESULTS.extend([run_a, run_b])
    worst_a, intervals_a = audit_rr_fairness(run_a.decisions)
    worst_b, intervals_b = audit_rr_fairness(run_b.decisions)
    ok = worst_a <= 1 and worst_b <= 1 and intervals_a > 10 and intervals_b > 10
    assert verdict(4, "round-robin-fairness", ok,
                   f"max spread {max(worst_a, worst_b)} over "
                   f"{intervals_a + intervals_b} constant-membership intervals")


# -- criterion 5: channel oracle ----------------------------------------------

def test_criterion_05_channel_range_oracle():
    params = ScenarioConfig()

    def margin(d):
        loss = 10 * params.path_loss_exponent * math.log10(
            4 * math.pi * d * params.frequency_hz / 3e8)
        return params.tx_power_dbm - loss - params.sensitivity_dbm

    lo, hi = 0.1, 10_000.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if margin(mid) >= 0:
            lo = mid
        else:
            hi = mid
    implemented = max_range_m(params)
    ok = (abs(lo - 55.4) <= 0.5
          and abs(implemented - lo) < 1e-6
          and receivable(10.0, params) is True
          and receivable(100.0, params) is False)
    assert verdict(5, "channel-range-oracle", ok,
                   f"root-finder {lo:.3f} m vs implemented {implemented:.3f} m; "
                   f"receivable(10)=True receivable(100)=False")


# -- criteria 6-8: directional trend reproduction at desk scale ---------------
# These run the stated scenarios verbatim. The underlying physics pins the
# radio range at ~55.4 m (criterion 5) inside a 500 x 500 m area, so the
# reference network is far below the connectivity threshold; the trends the
# original evaluation saw in a connected, congested network may not survive
# this abstraction. The tests stay faithful and report whatever happens.

def test_criterion_06_balancing_gain_trend():
    started = time.perf_counter()
    details = []
    ok = True
    for protocol in ("batman", "golsr"):
        plain = [r.overall_pdr for r in reference_runs(protocol, balancing=False)]
        balanced = [r.overall_pdr for r in reference_runs(protocol, balancing=True, lam=0.9)]
        wins = sum(1 for p, b in zip(plain, balanced) if b > p)
        proto_ok = mean(balanced) >= mean(plain) and wins >= 7
        ok = ok and proto_ok
        details.append(f"{protocol}: plain {mean(plain):.4f} vs balanced {mean(balanced):.4f}, "
                       f"improved {wins}/10")
    plain = [r.overall_pdr for r in reference_runs("batmobile", balancing=False)]
    balanced = [r.overall_pdr for r in reference_runs("batmobile", balancing=True, lam=0.9)]
    mobile_ok = mean(balanced) >= mean(plain) - 0.02
    ok = ok and mobile_ok
    details.append(f"batmobile non-degradation: {mean(balanced) - mean(plain):+.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 600.0
    assert verdict(6, "balancing-gain-trend", ok, "; ".join(details) + f"; {elapsed:.0f} s")


def test_criterion_07_three_likelihood_regime_shape():
    by_lam = {lam: mean([r.overall_pdr for r in reference_runs("batman", lam=lam)])
              for lam in (0.3, 0.9, 1.1)}
    ok = by_lam[0.9] >= by_lam[0.3] and by_lam[0.9] >= by_lam[1.1]
    assert verdict(7, "three-likelihood-regime-shape", ok,
                   f"mean PDR 0.3 -> {by_lam[0.3]:.4f}, 0.9 -> {by_lam[0.9]:.4f}, "
                   f"1.1 -> {by_lam[1.1]:.4f}")


def test_criterion_08_scalability_direction():
    gains = {}
    for nodes in (5, 15):
        plain = [r.overall_pdr for r in reference_runs("batman", nodes=nodes, balancing=False)]
        balanced = [r.overall_pdr for r in reference_runs("batman", nodes=nodes)]
        gains[nodes] = mean(balanced) - mean(plain)
    ok = gains[15] >= gains[5]
    assert verdict(8, "scalability-direction", ok,
                   f"gain at 15 nodes {gains[15]:+.5f} vs 5 nodes {gains[5]:+.5f}")


# -- criterion 9: conservation and determinism --------------------------------

def test_criterion_09_conservation_and_determinism():
    config = ScenarioConfig(nodes=12, sim_time_s=30.0, area_x=150.0, area_y=150.0,
                            stream_start_s=3.0)
    first = rows_to_csv_text(run_experiment(config, [4, 5])).encode()
    second = rows_to_csv_text(run_experiment(config, [4, 5])).encode()
    # dedicated runs across protocols and regimes, plus every run other
    # criteria performed earlier in this session
    extra = [simulate(config, 4), simulate(replace(config, protocol="golsr"), 4),
             simulate(replace(config, protocol="batmobile"), 4),
             simulate(ScenarioConfig(sim_time_s=30.0), 4)]
    checked = ALL_RESULTS + extra
    conserved = all(r.conservation_ok for r in checked)
    ok = conserved and first == second
    assert verdict(9, "conservation-and-determinism", ok,
                   f"conservation identity held in {len(checked)} runs; "
                   f"repeated (config, seed) CSV byte-identical")


# -- criterion 10: windowed PDR above one under a queue stall ------------------

def test_criterion_10_windowed_pdr_exceeds_one_after_stall():
    positions = [(60.0, 0.0, 0.0), (110.0, 0.0, 0.0), (10.0, 0.0, 0.0)]
    config = ScenarioConfig(nodes=3, speed_mps=0.0, sim_time_s=12.0, stream_start_s=1.0,
                            area_x=200.0, area_y=50.0, area_z=1.0)
    sim = Simulation(config, 1, initial_positions=positions,
                     streams=[StreamSpec(0, 1, us_from_s(1.0), us_from_s(12.0))])

    def inject_jam():
        # One 2-second frame from a node only the sender can hear: carrier
        # sensing stalls the sender, its queue fills, then drains on release.
        payload = ControlMessage(kind=ControlKind.OGM, originator=2, seq=10_000,
                                 sender_position=positions[2])
        jumbo = Frame(dst=None, size_bytes=5_999_936, prev_hop=2, payload=payload)
        sim.medium.enqueue(2, jumbo)

    sim.engine.schedule(us_from_s(3.0), EventKind.CALLBACK, inject_jam)
    result = sim.run()
    ALL_RESULTS.append(result)
    stats = result.per_stream[0]
    pdrs = [pdr for *_, pdr in result.pdr_trace]
    spikes = [p for p in pdrs if p is not None and p > 1.0]
    stalled = [p for p in pdrs if p == 0.0]
    ok = (bool(spikes) and bool(stalled) and result.overall_pdr <= 1.0
          and stats.drops["queue"] > 0 and result.conservation_ok)
    assert verdict(10, "windowed-pdr-above-one", ok,
                   f"stall windows at 0.0, release window at {max(spikes or [0]):.3f}, "
                   f"overall {result.overall_pdr:.3f}")
