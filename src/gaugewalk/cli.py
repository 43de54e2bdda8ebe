"""Command line entry point.

Exit codes: 0 success, 1 config error or bad flag, 2 invariant violation, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dirac import NumericalAbort
from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, InvariantViolation
from .unitary import UnitarityError

# config field -> (flag, add_argument keywords) of the option that sets it
OPTIONS = {
    "epsilons": ("--epsilon", dict(type=float, action="append", help="lattice step; repeat for a sweep")),
    "e_ym": ("--e-ym", dict(type=float, help="SU(2) electric field strength")),
    "mass": ("--mass", dict(type=float, help="fermion mass")),
    "sigma": ("--sigma", dict(type=float, help="packet width in wavenumber")),
    "k0": ("--k0", dict(type=float, help="packet center wavenumber")),
    "dim": ("--dim", dict(type=int, help="internal dimension N")),
    "x_max": ("--x-max", dict(type=float, help="domain half-width")),
    "t_max": ("--t-max", dict(type=float, help="final physical time")),
    "seed": ("--seed", dict(type=int, help="seed for randomized checks")),
    "output_dir": ("--out", dict(help="output directory")),
}


class Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are a ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The --config file's fields, overridden by every flag given: each
    option's dest is the config field it sets."""
    flags = {k: v for k, v in vars(args).items() if k not in ("experiment", "config") and v is not None}
    return ExperimentConfig.from_json(args.config or None, experiment=args.experiment, **flags)


def make_parser() -> Parser:
    """One subcommand per experiment, with a flag for each config field it
    reads, plus --config."""
    parser = Parser(prog="gaugewalk", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, reads) in EXPERIMENTS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="JSON config file; flags override its fields")
        for field in reads:
            sub.add_argument(OPTIONS[field][0], dest=field, **OPTIONS[field][1])
    return parser


def report_failures(run) -> int:
    """Call run(); return 0, or print its failure as one line on stderr and
    return the exit code of its cause."""
    try:
        run()
    # before ValueError: a slice that fails its unitarity check is a
    # UnitarityError, which is a ValueError too
    except (InvariantViolation, UnitarityError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv

    def run():
        try:
            cfg = build_config(make_parser().parse_args(argv))
        except ConfigError:
            # a flag before the experiment is unknown, and argparse takes its value for the experiment
            head = argv[:next((i for i, a in enumerate(argv) if a in EXPERIMENTS), len(argv))]
            if any(a.startswith("-") for a in head):
                raise ConfigError(f"unrecognized arguments: {' '.join(head)}") from None
            raise
        result = EXPERIMENTS[cfg.experiment][0](cfg)
        summary = {k: v for k, v in result.items() if not isinstance(v, (list, dict))}
        print(json.dumps({"experiment": cfg.experiment, "output_dir": cfg.output_dir, **summary}))

    return report_failures(run)


if __name__ == "__main__":
    sys.exit(main())
