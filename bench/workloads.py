"""Workload definitions and output checks for the priorcs benchmark.

A workload is a fixed list of ``priorcs`` commands, each written as its
subcommand and the ``-o key=value`` overrides it takes. ``commands`` builds
the list for a size ("full" for measurement, "smoke" for the quick
self-check) and a benchmark seed. ``fingerprint`` reduces a command's output
directory to the data the reference file pins, and ``check_outputs``
compares it with that reference.
"""

from __future__ import annotations

import csv
import hashlib
import os

# Experiment kind behind each subcommand, as load_config names them.
EXPERIMENT_KIND = {
    "fig1": "fig1-coeffs",
    "fig2": "fig2-error-terms",
    "fig3": "fig3-kratio",
    "fig4": "fig4-comparison",
    "verify": "verify-local",
}

# verify.csv columns whose values do not depend on how accurately the solver
# converges; they must match the reference byte for byte.
VERIFY_FIXED_COLUMNS = (
    "trial", "rho", "alpha", "w", "T", "premise_k", "premise_d",
    "k_max", "c0", "c1", "e_local", "rhs",
)

# |lhs - reference lhs| bound. The seed's solves (opt_tol 1e-8) sit within
# 1.4e-9 of solves run to opt_tol 1e-12; 1e-6 is the verify config's own
# violation_tol.
LHS_ATOL = 1e-6

# Bound on the first-order optimality residual of every traced solve. The
# seed's solves reach at most 1e-9 (kkt_check) and 1.6e-8 (dual certificate).
KKT_TOL = 1e-6

SWEEP_VARIANTS = 16
FIG2_BASE_SEED = 20240901


def sweep_variant(seed: int) -> int:
    return seed % SWEEP_VARIANTS


def sweep_mu(variant: int) -> str:
    """Coherence for one sweep variant: 0.08 to 0.1175 in steps of 0.0025."""
    return f"{0.08 + 0.0025 * variant:.4f}"


_SMOKE_VERIFY = {"trials": "1", "rho_list": "1", "w_grid": "0.5"}
_GAUSS = {"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0"}
VERIFY_OVERRIDES = {
    "verify-noisy": {"full": {"trials": "2"}, "smoke": _SMOKE_VERIFY},
    "verify-noiseless-gauss": {
        "full": dict(_GAUSS, trials="20"),
        "smoke": dict(_GAUSS, **_SMOKE_VERIFY),
    },
}

SWEEP_GRIDS = {
    "full": {
        "fig1": {"k": "8", "rho_list": "0.5,1,1.5,2", "w_step": "0.001"},
        "fig2": {"n": "64", "k": "8", "w_step": "0.001"},
        "fig3": {"w_step": "0.01"},
        "fig4": {"w_step": "0.0001"},
    },
    "smoke": {"fig1": {}, "fig2": {}, "fig3": {}, "fig4": {}},
}

WORKLOADS = ("verify-noisy", "verify-noiseless-gauss", "sweeps")


def is_verify(workload: str) -> bool:
    return workload.startswith("verify")


def variant_of(workload: str, seed: int) -> str:
    """Reference key of the inputs a seed selects.

    The verify workloads always run the paper's Monte-Carlo instance (config
    seed 20240901): their work is a handful of heavy-tailed solves, and other
    draws change the total iteration count by up to 60%, which would hide any
    solver change. The sweeps do the same work for every coherence, so the
    seed picks mu and fig2's signal.
    """
    return "fixed" if is_verify(workload) else f"mu{sweep_mu(sweep_variant(seed))}"


def commands(workload: str, size: str, seed: int) -> list:
    """The workload's commands as (subcommand, overrides) pairs."""
    if workload in VERIFY_OVERRIDES:
        return [("verify", dict(VERIFY_OVERRIDES[workload][size]))]
    if workload == "sweeps":
        variant = sweep_variant(seed)
        out = []
        for sub, grid in SWEEP_GRIDS[size].items():
            overrides = dict(grid, mu=sweep_mu(variant))
            if sub == "fig2":
                overrides["seed"] = str(FIG2_BASE_SEED + variant)
            out.append((sub, overrides))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def argv(command, out_dir: str) -> list:
    sub, overrides = command
    args = [sub]
    for key, value in overrides.items():
        args += ["-o", f"{key}={value}"]
    return args + ["--out-dir", out_dir]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path: str) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _verify_fingerprint(header: list, rows: list) -> dict:
    idx = [header.index(c) for c in VERIFY_FIXED_COLUMNS]
    digest = hashlib.sha256()
    for row in rows:
        digest.update(("\x1f".join(row[i] for i in idx) + "\n").encode())
    lhs = header.index("lhs")
    return {"fixed_columns_sha256": digest.hexdigest(), "lhs": [row[lhs] for row in rows]}


def fingerprint(command, out_dir: str) -> dict:
    """The reference data of one command's outputs.

    verify: a digest of the solver-independent columns and the lhs cells.
    sweeps: a digest of each CSV written.
    """
    if command[0] == "verify":
        return _verify_fingerprint(*_read_csv(os.path.join(out_dir, "verify.csv")))
    names = sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))
    return {name: _sha256(os.path.join(out_dir, name)) for name in names}


def check_outputs(command, out_dir: str, reference: dict) -> tuple:
    """Compare one command's outputs with its reference.

    Returns (problems, facts). facts holds "rows" (CSV data rows written)
    and, for verify, "iterations" (the per-trial column) and "nonconverged".
    """
    problems = []
    sub = command[0]
    if sub != "verify":
        got = fingerprint(command, out_dir)
        rows = sum(len(_read_csv(os.path.join(out_dir, name))[1]) for name in got)
        if got != reference:
            changed = sorted(k for k in set(got) | set(reference) if got.get(k) != reference.get(k))
            problems.append(f"{sub}: CSV differs from reference: {', '.join(changed)}")
        return problems, {"rows": rows}

    header, rows = _read_csv(os.path.join(out_dir, "verify.csv"))
    got = _verify_fingerprint(header, rows)
    facts = {"rows": len(rows), "iterations": [int(r[header.index("iterations")]) for r in rows]}
    s_header, s_rows = _read_csv(os.path.join(out_dir, "verify_summary.csv"))
    summary = dict(zip(s_header, s_rows[0]))
    facts["nonconverged"] = int(summary["nonconverged"])
    for key in ("violations", "nonconverged"):
        if int(summary[key]) != 0:
            problems.append(f"verify: {key}={summary[key]}, expected 0")
    if got["fixed_columns_sha256"] != reference["fixed_columns_sha256"]:
        problems.append("verify: solver-independent columns of verify.csv differ from reference")
    if len(got["lhs"]) != len(reference["lhs"]):
        problems.append(f"verify: {len(got['lhs'])} trials, reference has {len(reference['lhs'])}")
    else:
        worst = max(
            (abs(float(a) - float(b)), i)
            for i, (a, b) in enumerate(zip(got["lhs"], reference["lhs"]))
        )
        if not worst[0] <= LHS_ATOL:
            problems.append(
                f"verify: lhs of trial {worst[1]} is {worst[0]:.3g} from reference (tolerance {LHS_ATOL:g})"
            )
    return problems, facts
