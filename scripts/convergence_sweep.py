#!/usr/bin/env python3
"""Continuum-limit sweep: evolve the same Gaussian packet through the walk
and through the Dirac reference solver on the uniform SU(2) electric field,
one leg per lattice step, and fit the log-log slope of the mean relative
difference.  The full-size run takes about 12 s on 2 cores; pass --quick
for a desk-check at a third of the domain (about 2.5 s)."""

import json
import sys

from gaugewalk.cli import Parser, report_failures
from gaugewalk.experiments import ExperimentConfig, run_convergence


def main(argv=None) -> int:
    """Exit codes as for gaugewalk: 0 success, 1 config error, 2 invariant
    violation, 3 numerical abort."""
    ap = Parser(description=__doc__)
    ap.add_argument("--e-ym", type=float, default=0.08)
    ap.add_argument("--mass", type=float, default=0.1)
    ap.add_argument("--sigma", type=float, default=0.5)
    ap.add_argument("--k0", type=float, default=0.0)
    ap.add_argument("--epsilon", type=float, action="append", dest="epsilons")
    ap.add_argument("--out", default="out/convergence")
    ap.add_argument("--quick", action="store_true",
                    help="smaller domain and horizon (~2.5 s instead of ~12 s)")

    def run():
        args = ap.parse_args(argv)
        x_max, t_max = (30.0, 10.0) if args.quick else (100.0, 50.0)
        cfg = ExperimentConfig(
            experiment="convergence", mass=args.mass, e_ym=args.e_ym, sigma=args.sigma, k0=args.k0,
            epsilons=tuple(args.epsilons or (0.4, 0.2, 0.1, 0.05)),
            x_max=x_max, t_max=t_max, output_dir=args.out)
        res = run_convergence(cfg)
        print(json.dumps({k: res[k] for k in
                          ("slope_re", "slope_im", "r2_re", "r2_im")}, indent=2))
        print(f"artifacts written to {args.out}/")

    return report_failures(run)


if __name__ == "__main__":
    sys.exit(main())
