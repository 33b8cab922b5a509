#!/usr/bin/env python3
"""Condition-number sweep of the sign-perturbed DFT family.

Writes one CSV row (n, kappa, ...) per odd size.  The default grid stops at
2001; pass --n-max to push further.  Sizes up to --crossover get a dense SVD;
past it the sweep runs one Lanczos run on the matrix-free Toeplitz Gram,
one rfft/irfft pair per product and O(n) memory (about 0.4 s at n = 32001
and 8.5 s at n = 1,024,001 on a 2-vCPU machine).
"""

import argparse

from fourstab.experiments import SweepConfig, figure1_sweep
from fourstab.spectral import CROSSOVER_DIM


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-min", type=int, default=101)
    ap.add_argument("--n-max", type=int, default=2001)
    ap.add_argument("--step", type=int, default=100)
    ap.add_argument("--crossover", type=int, default=CROSSOVER_DIM)
    ap.add_argument("--out", default="figure1.csv")
    args = ap.parse_args()

    sizes = [n for n in range(args.n_min, args.n_max + 1, args.step) if n % 2 == 1]
    cfg = SweepConfig(crossover=args.crossover, output_path=args.out)
    records = figure1_sweep(sizes, cfg)
    for rec in records:
        print(f"n={rec.params['n']:6d}  kappa={rec.measured['kappa']:.6f}  ({rec.params['method']})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
