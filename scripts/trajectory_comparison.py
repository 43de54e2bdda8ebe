#!/usr/bin/env python3
"""Mean walk position versus the classical colored-particle closed form on
the uniform SU(2) electric field, for one or more field strengths.  Each run
writes trajectory.csv (t, xbar_walk, x_classical, E_ym) into its own
subdirectory of --out."""

import sys

import numpy as np

from gaugewalk.cli import Parser, report_failures
from gaugewalk.experiments import ExperimentConfig, run_trajectory


def main(argv=None) -> int:
    """Exit codes as for gaugewalk: 0 success, 1 config error, 2 invariant
    violation, 3 numerical abort."""
    ap = Parser(description=__doc__)
    ap.add_argument("--e-ym", type=float, action="append", dest="e_yms",
                    help="field strength; repeat for several runs")
    ap.add_argument("--k0", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=0.5)
    ap.add_argument("--mass", type=float, default=0.1)
    ap.add_argument("--epsilon", type=float, default=0.1)
    ap.add_argument("--t-max", type=float, default=20.0)
    ap.add_argument("--x-max", type=float, default=35.0)
    ap.add_argument("--out", default="out/trajectory")

    def run():
        args = ap.parse_args(argv)
        # every run's config is checked before the first run starts
        configs = [ExperimentConfig(
            experiment="trajectory", mass=args.mass, e_ym=e_ym, epsilons=(args.epsilon,),
            sigma=args.sigma, k0=args.k0, x_max=args.x_max, t_max=args.t_max,
            output_dir=f"{args.out}/e{e_ym:g}") for e_ym in args.e_yms or (0.0, 0.02, 0.05)]
        for cfg in configs:
            res = run_trajectory(cfg)
            dev = np.max(np.abs(np.array(res["xbar_walk"]) - np.array(res["x_classical"])))
            traversed = abs(res["final_x_classical"] - res["x_classical"][0])
            pct = 100.0 * dev / traversed if traversed else float("nan")
            print(f"E_ym={cfg.e_ym:g}: final xbar {res['final_xbar']:+.3f}, "
                  f"classical {res['final_x_classical']:+.3f}, "
                  f"max deviation {dev:.3f} ({pct:.1f}% of traversed)")

    return report_failures(run)


if __name__ == "__main__":
    sys.exit(main())
