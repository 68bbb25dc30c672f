"""Count the Python calls one pass of a benchmark workload makes.

    python3 scripts/call_counts.py sparse_ref|dense_mix|crowd50 [--seed N]

Standard library only. The workload is read from ``perfbench/workloads.py``
and the simulator is imported from ``src/`` next to this directory. Every
batch call of the workload runs once, with its CSV, serially in this process
and under cProfile; scenario texts are parsed before profiling starts. The
script prints the total number of calls, then the calls made in each module
of ``src/manetsim`` and the rest (standard library and builtins) as
``other``. The counts depend on the code and the workload only, not on the
host, so a fresh interpreter repeats them exactly.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "manetsim"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

from manetsim import experiment, simulation  # noqa: E402
from manetsim.config import parse_scenario_text  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, Workload, sim_seeds  # noqa: E402


def count_calls(workload: Workload, workload_seed: int) -> Counter[str]:
    """Calls per module file name over one pass; ``other`` outside the package."""
    batches = [
        (getattr(experiment, call.batch), parse_scenario_text(call.text, f"{workload.name}[{i}]"),
         seeds)
        for i, (call, seeds) in enumerate(zip(workload.calls, sim_seeds(workload, workload_seed)))
    ]
    # A replaced ``simulate`` keeps every batch in this process (see simulate_all).
    experiment.simulate = lambda config, seed: simulation.simulate(config, seed)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        for batch, config, seeds in batches:
            experiment.rows_to_csv_text(batch(config, seeds))
    finally:
        profiler.disable()
        experiment.simulate = simulation.simulate
    counts: Counter[str] = Counter()
    for (filename, _, _), (_, calls, *_) in pstats.Stats(profiler).stats.items():
        path = Path(filename)
        counts[path.name if path.parent == PACKAGE else "other"] += calls
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    args = parser.parse_args(argv)
    counts = count_calls(WORKLOADS[args.workload], args.seed)
    print(f"{sum(counts.values()):10d}  total")
    for name, calls in sorted(counts.items()):
        print(f"{calls:10d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
