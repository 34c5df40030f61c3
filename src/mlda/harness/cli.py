"""Command-line front end: run experiments, write tables, gate on passes."""

import argparse
import os
import sys

from ..errors import ConfigError, InvariantViolation, MldaError, NotConverged
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


def _cannot_write(out_dir, exc):
    """Report an output directory that cannot be made or written: a usage
    error, like a bad flag."""
    reason = exc.strerror or str(exc)
    print(f"mlda: cannot write reports to {out_dir!r}: {reason}", file=sys.stderr)
    return 2


def main(argv=None):
    args = _build_parser().parse_args(argv)
    all_ok = True
    try:
        config = build_config(
            args.experiment,
            config_path=args.config,
            seed=args.seed,
            out_dir=args.out,
        )
        # the output directory is made before any experiment runs, and each
        # report is written as soon as its experiment finishes, so a later
        # failure cannot discard the reports of the ones before it
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as exc:
            return _cannot_write(config.out_dir, exc)
        for sub in all_configs(config) if args.experiment == "all" else [config]:
            report = run(sub)
            try:
                csv_path, _ = write_report(report, sub.out_dir)
            except OSError as exc:
                return _cannot_write(sub.out_dir, exc)
            _print_report(report, csv_path)
            all_ok = all_ok and report.all_passed
    except (InvariantViolation, NotConverged) as exc:
        # a numerical fault inside the library, not a failed criterion
        message = " ".join(str(exc).split())
        print(f"mlda: internal check failed ({type(exc).__name__}): {message}", file=sys.stderr)
        return 3
    except MldaError as exc:
        # a usage error: the config, or input the library rejects mid-run
        message = " ".join(str(exc).split())
        if not isinstance(exc, ConfigError):
            message = f"input rejected ({type(exc).__name__}): {message}"
        print(f"mlda: {message}", file=sys.stderr)
        return 2
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
