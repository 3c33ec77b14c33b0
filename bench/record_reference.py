#!/usr/bin/env python3
"""Write bench/reference.json from the priorcs sources in this checkout.

Usage: python3 bench/record_reference.py

Runs every workload command once, at both sizes and for every input variant
a seed can select, and stores the fingerprint of its outputs (see
workloads.fingerprint). The reference pins the outputs of the code it was
recorded from; a change that alters any CSV byte must not re-record it.
"""

import json
import os
import shutil
import sys
import tempfile

import workloads
from run import PRIORCS_MAIN, REFERENCE_FILE, TMP_ROOT, run_process


def main() -> int:
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            seeds = [0] if workloads.is_verify(workload) else range(workloads.SWEEP_VARIANTS)
            for size in ("full", "smoke"):
                for seed in seeds:
                    variant = workloads.variant_of(workload, seed)
                    prints = []
                    for i, cmd in enumerate(workloads.commands(workload, size, seed)):
                        out = os.path.join(tmp, f"{workload}-{size}-{variant}-{i}")
                        args = [sys.executable, "-c", PRIORCS_MAIN] + workloads.argv(cmd, out)
                        _, code, _ = run_process(args, os.path.join(tmp, "stderr"))
                        if code != 0:
                            raise SystemExit(f"{workload} {size} {variant}: {cmd[0]} exited {code}")
                        prints.append(workloads.fingerprint(cmd, out))
                        problems, _ = workloads.check_outputs(cmd, out, prints[-1])
                        if problems:
                            raise SystemExit(f"{workload} {size} {variant}: {problems}")
                        shutil.rmtree(out)
                    reference.setdefault(workload, {}).setdefault(size, {})[variant] = prints
                    print(f"recorded {workload} {size} {variant}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
