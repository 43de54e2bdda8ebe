"""Command line entry point.

Exit codes: 0 success, 1 config error, 2 invariant violation, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dirac import NumericalAbort
from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, InvariantViolation
from .unitary import UnitarityError


def _add_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--epsilon", type=float, action="append", dest="epsilons",
                     help="lattice step; repeat for a sweep")
    sub.add_argument("--e-ym", type=float, dest="e_ym", help="SU(2) electric field strength")
    sub.add_argument("--mass", type=float, help="fermion mass")
    sub.add_argument("--sigma", type=float, help="packet width in wavenumber")
    sub.add_argument("--k0", type=float, help="packet center wavenumber")
    sub.add_argument("--theta", type=float, help="raw coin angle override")
    sub.add_argument("--dim", type=int, help="internal dimension N")
    sub.add_argument("--x-max", type=float, dest="x_max", help="domain half-width")
    sub.add_argument("--t-max", type=float, dest="t_max", help="final physical time")
    sub.add_argument("--seed", type=int, help="seed for randomized checks")
    sub.add_argument("--out", dest="output_dir", help="output directory")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The --config file's fields, overridden by every flag given: each
    option's dest is the config field it sets."""
    flags = {k: v for k, v in vars(args).items() if k not in ("experiment", "config") and v is not None}
    return ExperimentConfig.from_json(args.config or None, experiment=args.experiment, **flags)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaugewalk", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        _add_overrides(subs.add_parser(name))
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
    args = make_parser().parse_args(argv)

    def run():
        cfg = build_config(args)
        result = EXPERIMENTS[cfg.experiment](cfg)
        summary = {k: v for k, v in result.items() if not isinstance(v, (list, dict))}
        print(json.dumps({"experiment": cfg.experiment, "output_dir": cfg.output_dir, **summary}))

    return report_failures(run)


if __name__ == "__main__":
    sys.exit(main())
