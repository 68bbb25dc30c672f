"""Count the Python calls one pass of a benchmark workload or scenario file makes.

    python3 scripts/call_counts.py sparse_ref|dense_mix|crowd50 [--seed N]
    python3 scripts/call_counts.py --scenario FILE [--seeds 1,2]

Standard library only. A workload is read from ``perfbench/workloads.py``
and the simulator is imported from ``src/`` next to this directory. Every
batch call of the workload runs once, with its CSV, serially in this process
and under cProfile; scenario texts are parsed before profiling starts. A
scenario file is one ``run_experiment`` call on the given simulation seeds
(default 1). The script prints the total number of calls, then the calls
made in each module of ``src/manetsim`` and the rest (standard library and
builtins) as ``other``. The counts depend on the code, the workload and the
Python version, not on the host, so a fresh interpreter of the same version
repeats them exactly. Versions differ: 3.10 and 3.11 count one call per list
comprehension, which 3.12 inlines (PEP 709), so crowd50 reads 1,107,604 calls
on 3.12.1 where it reads 1,161,486 on 3.11.7 at the same tree (the one
measured in BENCH_35.json, whose control emits wait in FIFOs). Take both
halves of a before/after pair with one interpreter. It prints no time: one
pass's CPU seconds swing too much between interpreters to compare two trees;
perfbench measures time. A reader that closes early (``| head -1``) ends the
script quietly, with exit status 1.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "manetsim"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

from manetsim import experiment, simulation  # noqa: E402
from manetsim.config import load_scenario, parse_scenario_text  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, Workload, sim_seeds  # noqa: E402


def workload_batches(workload: Workload, workload_seed: int) -> list[tuple]:
    """(batch function, parsed config, seeds) for each call of the workload."""
    return [
        (getattr(experiment, call.batch), parse_scenario_text(call.text, f"{workload.name}[{i}]"),
         seeds)
        for i, (call, seeds) in enumerate(zip(workload.calls, sim_seeds(workload, workload_seed)))
    ]


def one_pass(batches: list[tuple]) -> None:
    """Run every batch and its CSV serially in this process."""
    # A replaced ``simulate`` keeps every batch in this process (see simulate_all).
    experiment.simulate = lambda config, seed: simulation.simulate(config, seed)
    try:
        for batch, config, seeds in batches:
            experiment.rows_to_csv_text(batch(config, seeds))
    finally:
        experiment.simulate = simulation.simulate


def count_batch_calls(batches: list[tuple]) -> Counter[str]:
    """Calls per module file name over one pass; ``other`` outside the package."""
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        one_pass(batches)
    finally:
        profiler.disable()
    counts: Counter[str] = Counter()
    for (filename, _, _), (_, calls, *_) in pstats.Stats(profiler).stats.items():
        path = Path(filename)
        counts[path.name if path.parent == PACKAGE else "other"] += calls
    return counts


def count_calls(workload: Workload, workload_seed: int) -> Counter[str]:
    """Calls per module file name over one pass of the workload."""
    return count_batch_calls(workload_batches(workload, workload_seed))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--scenario", metavar="FILE", help="count a scenario file instead")
    parser.add_argument("--seeds", default="1", help="simulation seeds of --scenario")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.scenario is None):
        parser.error("give a workload or --scenario FILE, not both")
    if args.scenario is not None:
        seeds = [int(part) for part in args.seeds.split(",")]
        batches = [(experiment.run_experiment, load_scenario(args.scenario), seeds)]
    else:
        batches = workload_batches(WORKLOADS[args.workload], args.seed)
    counts = count_batch_calls(batches)
    try:
        print(f"{sum(counts.values()):10d}  total")
        for name, calls in sorted(counts.items()):
            print(f"{calls:10d}  {name}")
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit raises no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
