"""The benchmark's workloads: scenario texts, batch calls and seed lists.

A workload is a fixed list of batch calls into ``manetsim.experiment``. Each
call is a scenario file text plus the public batch function that runs it.
The workload seed chooses only the simulation seeds each call receives; the
simulator sees nothing but the parsed configs and those seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The workload seed whose runs are pinned in pins.json.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Call:
    """One batch call: ``run_experiment`` or ``compare`` on one scenario text."""

    batch: str  # "run_experiment" | "compare"
    text: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]
    seeds_per_call: int


def _reference(extra: str) -> str:
    # Scenario files leave every other key at the reference default.
    return "[scenario]\n" + extra.strip() + "\n"


SPARSE_REF = Workload(
    name="sparse_ref",
    why="reference 500 m scenario below the connectivity threshold, all three "
        "protocols: source no-route exits, batmobile prediction, light medium",
    calls=tuple(
        Call("run_experiment", _reference(f"sim_time_s = 60\nprotocol = {protocol}"))
        for _ in range(3)
        for protocol in ("batman", "golsr", "batmobile")
    ),
    seeds_per_call=2,
)

DENSE_MIX = Workload(
    name="dense_mix",
    why="connected, congested 150 m area, plain and balanced batman on the same "
        "seeds: carrier sense, collisions, both forwarding paths",
    calls=(Call("compare", _reference(
        "area_x = 150\narea_y = 150\nstreams = 3\nsim_time_s = 15")),) * 2,
    seeds_per_call=2,
)

CROWD50 = Workload(
    name="crowd50",
    why="50 nodes in 150 m, one seed: O(N^2) receiver sets and carrier sense, "
        "heavy control flooding, nothing for seed fan-out to split",
    calls=(Call("run_experiment", _reference(
        "area_x = 150\narea_y = 150\nnodes = 50\nstreams = 3\nsim_time_s = 8\nstream_start_s = 2")),),
    seeds_per_call=1,
)

WORKLOADS = {w.name: w for w in (SPARSE_REF, DENSE_MIX, CROWD50)}


def sim_seeds(workload: Workload, workload_seed: int) -> list[list[int]]:
    """The simulation seeds of each call of the workload.

    Calls get disjoint seeds: how much traffic a seed routes varies with its
    topology, so independent topologies average that lottery out faster than
    rerunning one topology under each protocol would. (``compare`` still runs
    its plain and balanced halves on the same seeds.)
    """
    rng = random.Random(f"{workload.name}:{workload_seed}")
    return [[rng.randrange(1, 2**31) for _ in range(workload.seeds_per_call)]
            for _ in workload.calls]
