"""Command-line front end: run experiments, write tables, gate on passes."""

import argparse
import sys

from ..errors import ConfigError, InvariantViolation, NotConverged
from .config import EXPERIMENTS, build_config
from .experiments import all_configs, run, write_report


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mlda",
        description=(
            "Run the multilabel discriminant analysis verification "
            "experiments and write <experiment>.csv plus "
            "<experiment>.summary.json into the output directory."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all",),
        help="which experiment to run ('all' runs every one at its defaults)",
    )
    parser.add_argument("--config", help="JSON config file overriding the defaults")
    parser.add_argument("--seed", type=int, help="base seed for all random streams")
    parser.add_argument("--out", help="output directory (default: results)")
    parser.add_argument(
        "--trials",
        type=int,
        help="override the experiment's trial/draw count (smoke runs)",
    )
    return parser


def _print_report(report, csv_path):
    print(f"== {report.experiment} ({report.wall_time_s:.1f}s) -> {csv_path}")
    for row in report.rows:
        cells = ", ".join(f"{k}={v}" for k, v in row.items())
        print(f"   {cells}")
    for name, ok in report.passes.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not report.all_passed:
        for line in report.summary.get("failures", []):
            print(f"   offending: {line}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    all_ok = True
    try:
        config = build_config(
            args.experiment,
            config_path=args.config,
            seed=args.seed,
            out_dir=args.out,
            trials=args.trials,
        )
        # each report is written as soon as its experiment finishes, so a
        # later failure cannot discard the reports of the ones before it
        for sub in all_configs(config) if args.experiment == "all" else [config]:
            report = run(sub)
            csv_path, _ = write_report(report, sub.out_dir)
            _print_report(report, csv_path)
            all_ok = all_ok and report.all_passed
    except ConfigError as exc:
        print(f"mlda: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, NotConverged) as exc:
        # a numerical fault inside the library, not a failed criterion
        message = " ".join(str(exc).split())
        print(f"mlda: internal check failed ({type(exc).__name__}): {message}", file=sys.stderr)
        return 3
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
