"""Command-line driver: runs one experiment, writes report.json and
summary.csv, and encodes pass/fail in the exit code (0 all-pass, 1 any
failure, 2 usage error)."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import DRIVERS, EXPERIMENTS, ExperimentConfig


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wcl",
        description="Stochastic local-time and chaos-expansion experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, driver in DRIVERS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file, an object with any of the "
                       f"keys {', '.join(driver.keys())}; flags override it")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", dest="out_dir", help="output directory")
        if "n_samples" in driver.reads:
            p.add_argument("--samples", dest="n_samples", type=int,
                           help="Monte Carlo sample count")
        if "n_steps" in driver.reads:
            p.add_argument("--steps", dest="n_steps", type=int, help="time grid steps")
        if "eps_grid" in driver.reads:
            p.add_argument("--eps-grid", help="comma-separated eps values in [1e-12, 1e12]")
        p.add_argument("--quiet", action="store_true", help="suppress row printout")
    return parser


def build_config(args) -> ExperimentConfig:
    """One validated config: the config file, overridden by the flags; a
    key the driver reads that neither sets is the driver's default."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
    flags = {k: getattr(args, k, None) for k in ("seed", "out_dir", "n_samples", "n_steps")}
    if getattr(args, "eps_grid", None) is not None:
        try:
            flags["eps_grid"] = [float(v) for v in args.eps_grid.split(",")]
        except ValueError:
            raise ValueError(f"--eps-grid {args.eps_grid!r} is not a comma-separated "
                             "list of numbers") from None
    data.update({k: v for k, v in flags.items() if v is not None})
    if data.setdefault("experiment", args.experiment) != args.experiment:
        raise ValueError(f"{args.config} is for {data['experiment']!r}, not {args.experiment}")
    return ExperimentConfig.from_dict(data)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        config = build_config(args)
        # an --out the reports cannot go to is a usage error, caught before any run
        os.makedirs(config.out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"wcl {args.experiment}: error: {exc}", file=sys.stderr)
        return 2
    report = EXPERIMENTS[args.experiment](config)
    report.write()
    report.print_summary(quiet=args.quiet)
    return 0 if report.all_passed else 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
