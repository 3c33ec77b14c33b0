"""Do the set-up every ``priorcs`` command of a workload pays, then exit.

Usage: python3 bench/setup_probe.py COMMANDS_JSON

COMMANDS_JSON is a list of [subcommand, overrides]. The probe imports
priorcs, loads each command's config and, for verify, builds the sensing
matrix and its coherence. The caller times the whole process from outside.
"""

import json
import sys

import priorcs  # noqa: F401  (importing the package is part of the set-up)
from priorcs.experiments import load_config
from priorcs.matrices import generate_matrix

from workloads import EXPERIMENT_KIND


def main() -> int:
    for sub, overrides in json.loads(sys.argv[1]):
        cfg = load_config(EXPERIMENT_KIND[sub], overrides=overrides)
        if sub == "verify":
            generate_matrix(cfg.matrix_kind, cfg.m, cfg.n, cfg.seed).mu
    return 0


if __name__ == "__main__":
    sys.exit(main())
