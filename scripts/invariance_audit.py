#!/usr/bin/env python3
"""Run the two verification experiments back to back: the gauge-invariance
check (commuting square, curvature covariance, curvature factorization,
probability conservation on random draws) and the curvature check (remainder
halving table, field-strength extraction, Abelian cross-check)."""

import json
import sys

from gaugewalk.cli import Parser, report_failures
from gaugewalk.experiments import ExperimentConfig, run_curvature_check, run_gauge_check


def main(argv=None) -> int:
    """Exit codes as for gaugewalk: 0 success, 1 config error, 2 invariant
    violation, 3 numerical abort."""
    ap = Parser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/audit")

    def run():
        args = ap.parse_args(argv)
        # both configs are checked before either experiment runs
        gauge_cfg = ExperimentConfig(experiment="gauge-check", dim=args.dim, seed=args.seed,
                                     output_dir=f"{args.out}/gauge")
        curv_cfg = ExperimentConfig(experiment="curvature-check", seed=args.seed,
                                    output_dir=f"{args.out}/curvature")
        gauge = run_gauge_check(gauge_cfg)
        print("gauge-check residuals:", json.dumps(gauge["residuals"], indent=2))
        curv = run_curvature_check(curv_cfg)
        print(f"curvature remainder orders (generic field): "
              f"{[round(o, 2) for o in curv['generic']['orders']]}")
        print(f"abelian pipeline residual: {curv['abelian_pipeline_residual']:.2e}")

    return report_failures(run)


if __name__ == "__main__":
    sys.exit(main())
