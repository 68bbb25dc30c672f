"""Command-line experiment runner.

Exit codes: 0 success, 1 configuration error or unwritable output, 2 run failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace

from .config import PROTOCOLS, ConfigError, ScenarioConfig, load_scenario
from .engine import left_sum
from .experiment import (
    compare,
    default_seeds,
    run_experiment,
    rows_to_csv_text,
    sweep,
    write_csv,
)

DEFAULT_SWEEP_VALUES = {"lambda": "0,0.3,0.6,0.9,1.0,1.1", "nodes": "5,10,15,20,25",
                        "streams": "1,2,3"}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="scenario file; defaults apply when omitted")
    sub.add_argument("--seeds", help="comma-separated master seeds (default: config seed, runs)")
    sub.add_argument("--out", default="-", help="output CSV path; '-' writes to stdout")
    sub.add_argument("--protocol", choices=PROTOCOLS)
    sub.add_argument("--balancing", choices=("on", "off"))
    sub.add_argument("--trace-pdr", metavar="DIR",
                     help="also write one windowed-PDR trace CSV per run into DIR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manetsim",
        description="Deterministic MANET simulator with passive load balancing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "simulate one scenario over a seed batch"),
        ("sweep-lambda", "sweep the path-quality likelihood factor"),
        ("sweep-nodes", "sweep the node count"),
        ("sweep-streams", "sweep the parallel stream count"),
        ("compare", "plain vs balanced on identical seeds"),
    ):
        cmd = sub.add_parser(name, help=doc)
        _add_common(cmd)
        if name.startswith("sweep-"):
            cmd.add_argument("--values", default=DEFAULT_SWEEP_VALUES[name.removeprefix("sweep-")],
                             help="comma-separated sweep values (default: %(default)s)")
    return parser


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    config = load_scenario(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.protocol:
        overrides["protocol"] = args.protocol
    if args.balancing:
        overrides["balancing"] = args.balancing == "on"
    return replace(config, **overrides)


def _resolve_seeds(args: argparse.Namespace, config: ScenarioConfig) -> list[int]:
    if args.seeds is not None:
        text = args.seeds.strip()
        seeds = [int(part) for part in text.split(",") if part.strip()] if text else []
        # A repeated seed only repeats an identical run, and compare's summary
        # counts seeds, not runs.
        if repeated := [seed for i, seed in enumerate(seeds) if seed in seeds[:i]]:
            raise ValueError(f"--seeds repeats seed {repeated[0]}")
        return seeds
    return default_seeds(config)


def _parse_values(args: argparse.Namespace) -> list[float]:
    values = [float(part) for part in args.values.split(",") if part.strip()]
    # Compared as floats, so 5 and 5.0 repeat: one value gives one config.
    if repeated := [value for i, value in enumerate(values) if value in values[:i]]:
        raise ValueError(f"--values repeats {repeated[0]}")
    return values


def _emit(rows, args: argparse.Namespace) -> None:
    if args.out == "-":
        sys.stdout.write(rows_to_csv_text(rows))
    else:
        write_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        seeds = _resolve_seeds(args, config)
        values = _parse_values(args) if args.command.startswith("sweep-") else None
    except (ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            rows = run_experiment(config, seeds, args.trace_pdr)
        elif values is not None:
            rows = sweep(config, args.command.removeprefix("sweep-"), values, seeds, args.trace_pdr)
        else:
            rows = compare(config, seeds, args.trace_pdr)
            _print_compare_summary(rows)
        _emit(rows, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Only writing --out or a --trace-pdr file fails with a file name.
        if isinstance(exc, OSError) and exc.filename is not None:
            print(f"output error: {exc}", file=sys.stderr)
            return 1
        traceback.print_exc()
        return 2
    return 0


def _print_compare_summary(rows) -> None:
    plain = {row.seed: row.overall_pdr for row in rows if not row.balanced}
    balanced = {row.seed: row.overall_pdr for row in rows if row.balanced}
    if not plain:
        return
    seeds = sorted(plain)
    mean_plain = left_sum(plain.values()) / len(plain)
    mean_balanced = left_sum(balanced.values()) / len(balanced)
    wins = sum(1 for s in seeds if balanced[s] > plain[s])
    print(
        f"plain mean PDR {mean_plain:.4f} | balanced mean PDR {mean_balanced:.4f} | "
        f"balanced better in {wins}/{len(seeds)} seeds",
        file=sys.stderr,
    )


if __name__ == "__main__":
    raise SystemExit(main())
