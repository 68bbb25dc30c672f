#!/usr/bin/env python3
"""Trend experiments: balancing gain, likelihood sweep, node-count sweep.

Runs the paired plain-vs-balanced comparison for all three protocols plus the
likelihood and node-count sweeps, at the reference scenario and optionally at
a denser, connected variant, and writes one CSV per experiment. Summaries with
0.95 confidence intervals go to stdout.

The reference scenario's radio range (~55 m in a 500 x 500 m area) leaves the
network far below the connectivity threshold, so expect low absolute PDR and
balancing deltas near zero there; the dense variant shows the protocols in a
connected, loaded regime.

The confidence intervals need scipy: install the ``analysis`` extra.
"""

import argparse
import math
import os
from dataclasses import replace

from manetsim.config import ScenarioConfig
from manetsim.experiment import run_experiment, sweep, write_csv


def confidence_interval(samples: list[float], level: float = 0.95) -> tuple[float, float, float]:
    """Student-t interval (mean, lo, hi) over independent run samples.

    scipy is imported here, not at module level, so that ``--help`` and a
    rejected argument do not pay for it.
    """
    n = len(samples)
    if n < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    from scipy import stats

    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = stats.t.ppf((1 + level) / 2, n - 1) * math.sqrt(variance / n)
    return (mean, mean - half, mean + half)


def seed_count(text: str) -> int:
    """--seeds: each interval needs at least two samples."""
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 seeds for an interval, got {count}")
    return count


def summarize(label, rows):
    groups: dict = {}
    for row in rows:
        key = (row.protocol, row.balanced, row.lambda_factor, row.nodes, row.streams)
        groups.setdefault(key, []).append(row.overall_pdr)
    print(f"\n== {label} ==")
    for key in sorted(groups):
        protocol, balanced, lam, nodes, streams = key
        samples = groups[key]
        mean, lo, hi = confidence_interval(samples)
        print(f"  {protocol:10s} balanced={str(balanced):5s} lambda={lam:<4g} "
              f"nodes={nodes:<3d} streams={streams} "
              f"PDR {mean:.4f} [{lo:.4f}, {hi:.4f}] over {len(samples)} seeds")


def paired_comparison(config, seeds, out_dir, tag):
    rows = []
    for protocol in ("batman", "golsr", "batmobile"):
        base = replace(config, protocol=protocol)
        rows += run_experiment(replace(base, balancing=False), seeds)
        rows += run_experiment(replace(base, balancing=True, lambda_factor=0.9), seeds)
    write_csv(rows, os.path.join(out_dir, f"balancing_gain_{tag}.csv"))
    summarize(f"balancing gain ({tag})", rows)
    for protocol in ("batman", "golsr", "batmobile"):
        plain = {r.seed: r.overall_pdr for r in rows
                 if r.protocol == protocol and not r.balanced}
        balanced = {r.seed: r.overall_pdr for r in rows
                    if r.protocol == protocol and r.balanced}
        wins = sum(1 for s in plain if balanced[s] > plain[s])
        print(f"  {protocol}: balanced improved {wins}/{len(plain)} paired seeds")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seeds", type=seed_count, default=10,
                        help="seeds per configuration, at least 2")
    parser.add_argument("--sim-time", type=float, default=100.0)
    parser.add_argument("--dense", action="store_true",
                        help="also run the dense 150 x 150 m, 3-stream variant")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    seeds = list(range(1, args.seeds + 1))

    reference = ScenarioConfig(sim_time_s=args.sim_time)
    paired_comparison(reference, seeds, args.out, "reference")

    lam_rows = sweep(reference, "lambda", [0.0, 0.3, 0.6, 0.9, 1.0, 1.1], seeds)
    write_csv(lam_rows, os.path.join(args.out, "likelihood_sweep_reference.csv"))
    summarize("likelihood sweep (reference)", lam_rows)

    node_rows = sweep(reference, "nodes", [5, 10, 15, 20, 25], seeds)
    write_csv(node_rows, os.path.join(args.out, "node_sweep_reference.csv"))
    summarize("node-count sweep (reference)", node_rows)

    if args.dense:
        dense = replace(reference, area_x=150.0, area_y=150.0, streams=3)
        paired_comparison(dense, seeds, args.out, "dense")
        stream_rows = sweep(dense, "streams", [1, 2, 3], seeds)
        write_csv(stream_rows, os.path.join(args.out, "stream_sweep_dense.csv"))
        summarize("stream-count sweep (dense)", stream_rows)


if __name__ == "__main__":
    main()
