"""The behaviour pins: fixed runs and the hashes they must reproduce.

A run's contract is that the same (config, seed) gives the same
``RunResult.state_hash`` and the same CSV bytes. These pins were recorded
from the simulator before any hot-path optimisation; a change that moves one
changes behaviour and must say so and record them again. The state hash
counts packets but not where they went, so each run is also pinned by a
digest of its decision trace: every forwarding choice, in order. Neither sees
a score, so each run is pinned by a digest of its protocol's float state too.

A run keeps rankings only for its streams' destinations, so each pin is read
from a widened run, whose protocol keeps every node's as one built directly
does. The run as ``Simulation`` builds it must agree with the widened run on
all the rest (``production_differences``).

The medium's jitter draw is pinned too: it must equal ``randrange`` on the
same stream. Both ``tests/test_pins.py`` and ``scripts/check_portable.py``
read this module, so it imports nothing beyond the standard library, ``manetsim``
and ``seed_oracle``, which shares its CSV-row digest.
"""

import hashlib
import random
from operator import itemgetter

from seed_oracle import observed

from manetsim.channel import Frame, Medium
from manetsim.config import ScenarioConfig
from manetsim.engine import Engine, stream_seed
from manetsim.simulation import Simulation

DENSE = dict(area_x=150.0, area_y=150.0, streams=3, sim_time_s=8.0, stream_start_s=2.0)

SCENARIOS = {
    "reference-batman": ScenarioConfig(sim_time_s=30.0, protocol="batman"),
    "reference-golsr": ScenarioConfig(sim_time_s=30.0, protocol="golsr"),
    "reference-batmobile": ScenarioConfig(sim_time_s=30.0, protocol="batmobile"),
    "dense-batman-balanced": ScenarioConfig(protocol="batman", balancing=True, **DENSE),
    "dense-batmobile-plain": ScenarioConfig(protocol="batmobile", balancing=False, **DENSE),
    # golsr floods only TC messages; at 500 m few copies travel more than one
    # hop, so the multi-hop TC path is pinned in the dense area.
    "dense-golsr-balanced": ScenarioConfig(protocol="golsr", balancing=True, **DENSE),
    "crowd50-batman": ScenarioConfig(
        area_x=150.0, area_y=150.0, nodes=50, streams=3, sim_time_s=3.0, stream_start_s=1.0),
}

SEED = 1

# name -> (state_hash, sha256 of the CSV data line, sha256 of the decision trace,
#          sha256 of the protocol's float state)
PINS = {
    "crowd50-batman": (
        "22c2541a5c99ead1e2c1f4c1b8d77b40244c30ae5434a84f6edb40ac6191d668",
        "35484c047a27b9775423217bafce75aa6a90e5a462755dcbc68ede2ea78c0138",
        "e2f99c8a43b80095d50c7d6f5f17e99803e01a97e3a2115cd35d2ab3011de64c",
        "8f48f48e1272d5ae42d20417cc9ceb968bf7a4f593db9b3b1bde6e5da950b217",
    ),
    "dense-batman-balanced": (
        "f7c04ea7b46ecfa16616f8527145aeac96e1e45f6d3bee7f4cb03f2fdbf3cf1c",
        "c93e742cbcbfa7e8aaa3392a1e004d2993a6469c4f1d6479238dfb0b83be7b8e",
        "e31e635c8a7587732e686c9c76919aca8b4f1515b227886fdbfe587ede873916",
        "060d9cb476b025e52cd8efd46c15c0e8dac71e9dd7e97205f95e6c10981738f8",
    ),
    "dense-batmobile-plain": (
        "021ea734b9482079a47478c7d78e078babe78f7a3c20b03b304d99d319fd5b28",
        "8e4688c1bce96b5475f8e64ff19a502caaf4cd595f51a06bd1fe962926963aea",
        "04ab2c40063a64359c4b83104a29a33fe073cb73d73e7093d49edfb747e0cbd3",
        "eeb664796e69d9322ac1da1b7f68ce2ff640fd83cbc48c2d0153c68eb7d0e834",
    ),
    "dense-golsr-balanced": (
        "99dcb7ee6675f8fd62ce06256b2c47d43acd9da79e6972ec9c4bb4c12465ee93",
        "5ad6e0ee90057c9532ca07ef1a25202c4834e4d952f97bbe74eeb6320a3ce438",
        "96138e4ea728dbcfc3da35d36b90f8a054deabb54f704079da09cfb2c083d25d",
        "4b24a29230423dea20daf153ff2c1f0d44570617158ea5af47a0305c42dec816",
    ),
    "reference-batman": (
        "20138da4f2b7f6eaa48e1a70ca9ef1480e58f540ee78ec679b699fedbdc7a9c5",
        "46a7fd7f81713dc36137fac8629883d6770924f694f03454363f9658bb83cecb",
        "625e947a0d0349e382948b219b47cab5d3677e284b01a3bb66b3c980a52cb13c",
        "2b3a8ee12ef67cfd3b031ccca72addabb7f7ea2045b2a90cb5e11c3891aca96d",
    ),
    "reference-batmobile": (
        "879659c2c7dd46abdc5a10239f24d53494e8bb4347f67d1be0e679d238482559",
        "6487396e40e364225c6fc9ab3fbb8ac587194b61cba9c3e93e1977591c6bafaa",
        "f189a2735735c4428a525ff969262514a5d5b526128c73cba1ad42c9dd4f383e",
        "0bedbdadac3a255afafb6cd68e942b41452f96c3f4b922cb164d4592cc13b459",
    ),
    "reference-golsr": (
        "af0e3b58aeecd6622632f5d6cb88b88c118616c7f1252baa145b835aa62877af",
        "22a7c6393aa77f0042a9135359c66cc1162ef133c4c223216ee6dc6875356ce7",
        "e8badda3e8d9cc567d34aba073d4e873ce5e25737d945fab0add5d003e843b3f",
        "f3eab6607a5d77c37e3449b95964e246709271053acd5783c1b91ed43324a98b",
    ),
}

# Runs through the command line on one scenario file: for each subcommand,
# its extra arguments and the sha256 of the CSV file it writes. The compare
# pin has an odd seed count, so its plain and balanced halves split unevenly
# over two processes, and its balanced rows go through the memoised hook.
CLI_SCENARIO = """[scenario]
nodes = 12
area_x = 150
area_y = 150
sim_time_s = 10
stream_start_s = 2
protocol = batmobile
"""
CLI_PINS = {
    "run": (["--seeds", "1,2"],
            "b8593ca24adf3f3186f02f217c379cfff6375bba3d1750109388574ccc4cf25e"),
    "compare": (["--protocol", "batman", "--seeds", "1,2,3"],
                "9d2026fa30b42dd0ba0cfc558a1f49b6db625d2527a99b23fdef5720914fe76e"),
}


def decisions_digest(decisions) -> str:
    """sha256 of a decision trace, one line per decision; a drop is written as
    its reason's value, so the digest does not depend on the enum's repr."""
    digest = hashlib.sha256()
    for d in decisions:
        choice = d.choice if isinstance(d.choice, int) else d.choice.value
        digest.update(f"{d.time_us} {d.node} {d.packet_id} {d.dst} {choice} {d.members}\n".encode())
    return digest.hexdigest()


def node_tables(protocol) -> dict[str, list[dict]]:
    """Each of the protocol's column tables as one dict per node, as a node would
    hold it: ``rankings`` {dest: entries}, ``forwarded`` {(kind, originator): seq},
    and, where the metric keeps them, ``tq_windows`` {neighbor: window} and
    ``trends`` {(dest, neighbor): (values, last_us)}. An empty slot, None or -1
    for ``forwarded``, is no key. The values are the protocol's own objects."""
    empty_slot = {"rankings": None, "forwarded": -1, "tq_windows": None, "trends": None}
    nodes = range(len(protocol.positions))
    return {
        name: [{key: column[node] for key, column in getattr(protocol, name).items()
                if column[node] != empty} for node in nodes]
        for name, empty in empty_slot.items() if hasattr(protocol, name)
    }


def kept_rankings(protocol, dests) -> list[dict]:
    """``node_tables(protocol)["rankings"]``, each node's restricted to dests."""
    return [{dest: entries for dest, entries in table.items() if dest in dests}
            for table in node_tables(protocol)["rankings"]]


def float_state_digest(protocol, dests=None) -> str:
    """sha256 of a protocol's float state, one line per entry in sorted order,
    every float as its repr: each ranking entry (for dests only, if given),
    batman's windows, batmobile's trend buffers, then the predicted positions."""
    tables = node_tables(protocol)
    lines = []
    for node, table in enumerate(tables["rankings"] if dests is None
                                 else kept_rankings(protocol, dests)):
        for dest, entries in sorted(table.items()):
            for neighbor, (score, last_us) in sorted(entries.items()):
                lines.append(f"rank {node} {dest} {neighbor} {score!r} {last_us}")
    for node, windows in enumerate(tables.get("tq_windows", ())):
        for neighbor, w in sorted(windows.items()):
            lines.append(f"tq {node} {neighbor} {w.bits} {w.last_seq} {w.quality!r}")
    for node, buffers in enumerate(tables.get("trends", ())):
        for (dest, neighbor), (values, last_us) in sorted(buffers.items()):
            lines.append(f"trend {node} {dest} {neighbor} {values!r} {last_us}")
    lines.append(f"predicted {protocol.predicted!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def traced_pair(config: ScenarioConfig, seed: int = SEED, **kwargs) -> list[tuple]:
    """Two traced runs of (config, seed), each as (simulation, result): first as
    ``Simulation`` builds it, then widened, its protocol keeping every node's
    rankings. kwargs go to ``Simulation``."""
    pair = []
    for widen in (False, True):
        sim = Simulation(config, seed, trace=True, **kwargs)
        if widen:
            sim.protocol.destinations = range(config.nodes)
        pair.append((sim, sim.run()))
    return pair


def production_differences(config: ScenarioConfig, pair: list[tuple]) -> list[str]:
    """What the first run of a ``traced_pair`` does not reproduce of the widened
    one: its state hash and CSV row, its decisions, its rankings (the widened
    run's for the streams' destinations), or the rest of its float state."""
    (sim, result), (wide, wide_result) = pair
    dests = {spec.dst for spec in sim.streams}
    checks = {
        "state hash or CSV row": (observed(config, result), observed(config, wide_result)),
        "decisions": (result.decisions, wide_result.decisions),
        "rankings": (node_tables(sim.protocol)["rankings"], kept_rankings(wide.protocol, dests)),
        "float state": (float_state_digest(sim.protocol), float_state_digest(wide.protocol, dests)),
    }
    return [what for what, (got, want) in checks.items() if got != want]


def observe(name: str) -> tuple[str, str, str, str]:
    """The (state_hash, CSV-row sha256, trace sha256, float-state sha256) that
    pinned run `name` gives now, read from its widened run. If the run as
    ``Simulation`` builds it differs, the last field names what differs, and
    so equals no pin. Tracing leaves the state hash and the CSV row as they are."""
    config = SCENARIOS[name]
    pair = traced_pair(config)
    (wide, result), differs = pair[1], production_differences(config, pair)
    return (*observed(config, result), decisions_digest(result.decisions),
            f"production run differs: {', '.join(differs)}" if differs
            else float_state_digest(wide.protocol))


# The jitter spans (mac_jitter_us + 1) whose draws are checked: 1 still
# consumes bits, and a power of two and one past it bracket each bit length.
JITTER_SPANS = (1, 2, 3, 16, 17, 1001)


def jitter_draws(span: int, count: int = 300) -> tuple[list[int], list[int]]:
    """The medium's first `count` jitter draws for a jitter of `span` values,
    and `randrange(span)` on a fresh copy of the same "mac" stream.

    Each draw is the fire time of the attempt an idle node's first queued
    frame pushes at clock 0, read from the engine's queue in push order."""
    engine = Engine(master_seed=SEED)
    medium = Medium(engine, [(0.0, 0.0, 0.0)], ScenarioConfig(mac_jitter_us=span - 1),
                    on_deliver=lambda receivers, frame: None,
                    on_unicast_lost=lambda frame, cause: None)
    for _ in range(count):
        medium.enqueue(0, Frame(None, 64))
        medium.states[0].queue.clear()
    drawn = [t_us for t_us, _seq, _kind, _node in sorted(engine._heap, key=itemgetter(1))]
    reference = random.Random(stream_seed(SEED, "mac"))
    return drawn, [reference.randrange(span) for _ in range(count)]
