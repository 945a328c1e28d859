"""Command line front end: run a preset or a config file, write a CSV."""

from __future__ import annotations

import argparse
import os
import sys

from .baselines import WMMSE_MAX_ITERS
from .harness import (
    PRESET_NAMES,
    load_config_file,
    preset,
    run_experiment,
    summarize,
    write_csv,
)

FULL_SCALE_TRIALS = 1000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circle-mimo",
        description="Monte Carlo link simulator for CSIT-free downlink precoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment and write a CSV")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES, help="named scenario preset")
    src.add_argument("--config", help="path to a key = value config file")
    run.add_argument("--full", action="store_true",
                     help=f"full scale: {FULL_SCALE_TRIALS} trials per sweep point")
    run.add_argument("--seed", type=int, help="override the experiment seed")
    run.add_argument("--out", default="results.csv", help="output CSV path")
    run.add_argument("--trials", type=int, help="override the trial count")
    run.add_argument("--timing", action="store_true",
                     help="write measured wall times (breaks byte-level determinism)")
    run.add_argument("--quiet", action="store_true", help="suppress the summary table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config_file(args.config)
        else:
            config = preset(args.preset)
        if args.full:
            config.n_trials = FULL_SCALE_TRIALS
        if args.trials is not None:
            config.n_trials = args.trials
        # precedence: --seed flag, then CIRCLE_SEED, then the config value
        env_seed = os.environ.get("CIRCLE_SEED")
        if env_seed is not None:
            try:
                config.seed = int(env_seed)
            except ValueError:
                raise ValueError(f"CIRCLE_SEED must be an integer, got {env_seed!r}") from None
        if args.seed is not None:
            config.seed = args.seed
        # validate, then write the header: a bad --out fails before any trial
        config.validate()
        write_csv([], args.out)
        results = list(run_experiment(config))
        write_csv(results, args.out, timing=args.timing)
        if not args.quiet:
            _print_summary(results)
        _report_wmmse(results)
        print(f"wrote {len(results)} rows to {args.out}")
        return 0
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _print_summary(results) -> None:
    rows = summarize(results)
    rows.sort(key=lambda r: (r["sweep_value"] is not None, r["sweep_value"], r["method"]))
    print(f"{'method':<12} {'sweep':>10} {'trials':>7} {'mean sum-SE':>14} {'stderr':>10}")
    for row in rows:
        sweep = "" if row["sweep_value"] is None else f"{row['sweep_value']:g}"
        print(
            f"{row['method']:<12} {sweep:>10} {row['n_trials']:>7} "
            f"{row['mean_sum_se']:>14.4f} {row['stderr_sum_se']:>10.4f}"
        )


def _report_wmmse(results) -> None:
    """One stderr line per sweep point, in sweep order, counting capped wmmse solves."""
    points: dict = {}
    for res in (r for r in results if r.method == "wmmse"):
        points.setdefault((res.sweep_param, res.sweep_value), []).extend(res.converged)
    for (param, value), converged in points.items():
        where = "" if param is None else f"{param}={value:g}: "
        print(
            f"wmmse: {where}{converged.count(False)} of {len(converged)} solves stopped at the "
            f"{WMMSE_MAX_ITERS}-iteration cap (baselines.WMMSE_MAX_ITERS) without converging",
            file=sys.stderr,
        )


if __name__ == "__main__":
    sys.exit(main())
