#!/usr/bin/env python3
"""Run the Monte-Carlo check of the local recovery bound.

Defaults to the full 510-trial sweep on the 64x128 identity-plus-orthobasis
matrix (about 20 seconds); use --quick for a small smoke run. Exits 3 if any
converged trial violates the bound or any trial fails to converge.
"""

import argparse
import sys

from priorcs.cli import main as priorcs_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--quick", action="store_true", help="16x32 matrix, 2 trials per combo")
    args = parser.parse_args()
    argv = ["verify"]
    if args.out_dir:
        argv += ["--out-dir", args.out_dir]
    if args.config:
        argv += ["--config", args.config]
    if args.quick:
        argv += ["-o", "m=16", "-o", "n=32", "-o", "trials=2"]
    return priorcs_main(argv)


if __name__ == "__main__":
    sys.exit(main())
