"""Run one ``priorcs`` command with its layer boundaries traced.

Usage: python3 bench/traced_cli.py RESULT_JSON -- <priorcs arguments>

Each public function a layer offers is replaced, at the name its caller
resolves, by a wrapper that times the call. Self time of a span is its
duration minus the time of the spans it opened; spans are folded into
per-layer totals as they close, so a sweep with 100k bound evaluations
stays cheap to trace. After the command returns, the optimality residual of
every captured solve is checked, and the totals go to RESULT_JSON together
with ``post_s``, the time spent after the command, which the caller
subtracts from this process's lifetime.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

from workloads import KKT_TOL


class Tracer:
    """Per-layer call counts and self times, and per-span inclusive times."""

    def __init__(self):
        self.stack = []      # [layer, seconds spent in child spans] per open span
        self.layers = {}     # layer -> [calls entering the layer, self seconds]
        self.spans = {}      # span name -> inclusive seconds

    def wrap(self, layer: str, name: str, fn, after=None):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                totals = self.layers.setdefault(layer, [0, 0.0])
                totals[0] += outer != layer
                totals[1] += took - frame[1]
                self.spans[name] = self.spans.get(name, 0.0) + took
            if after is not None:
                after(args, result, took)
            return result

        return traced


def dual_residual(problem, x, dual) -> float:
    """Optimality residual of x certified by the solver's own multiplier.

    For eps = 0 every multiplier is admissible, so x is optimal when it is
    feasible and -A^T dual lies in the weighted l1 subdifferential at x.
    kkt_check instead reconstructs the minimal-norm multiplier, which need
    not be a valid certificate when the support is smaller than m.
    """
    import numpy as np  # loaded by priorcs already; kept out of the timed import

    a = problem.matrix.entries
    w = problem.weights
    cert = -(a.T @ dual)
    active = np.abs(x) > 1e-7 * max(1.0, float(np.abs(x).max(initial=0.0)))
    on = np.abs(cert - w * np.sign(x))[active].max(initial=0.0)
    off = np.maximum(np.abs(cert) - w, 0.0)[~active].max(initial=0.0)
    return max(problem.feasibility_residual(x), float(on), float(off))


def install(tracer: Tracer, solves: list, outputs: list) -> None:
    import priorcs.bounds as bounds
    import priorcs.cli as cli
    import priorcs.experiments as experiments
    import priorcs.matrices as matrices
    import priorcs.solver as solver

    def patch(module, attr, layer, after=None):
        setattr(module, attr, tracer.wrap(layer, f"{layer}.{attr}", getattr(module, attr), after))

    def record_solve(args, report, took):
        solves.append((args[0], report, took))

    def record_output(kind):
        return lambda args, _result, _took: outputs.append((kind, args[1], len(args[0].rows)))

    for attr in ("load_config", "run_experiment", "emit_experiment_outputs",
                 "summarize_verify", "check_fig3"):
        patch(cli, attr, "experiments")
    patch(experiments, "summarize_verify", "experiments")
    patch(experiments, "generate_matrix", "matrices")
    patch(matrices, "coherence", "matrices")
    patch(experiments, "solve_weighted_l1", "solver", record_solve)
    patch(solver, "operator_norm", "solver")
    for attr in ("prior_support_for", "support_model", "error_terms", "format_index_set"):
        patch(experiments, attr, "supports")
    for attr, fn in list(vars(bounds).items()):
        if inspect.isfunction(fn) and fn.__module__ == bounds.__name__ and not attr.startswith("_"):
            patch(bounds, attr, "bounds")
    patch(experiments, "emit_csv", "tables", record_output("csv"))
    patch(experiments, "emit_svg", "tables", record_output("svg"))


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    result_path, args = sys.argv[1], sys.argv[3:]

    start = perf_counter()
    import priorcs.cli
    import_s = perf_counter() - start
    from priorcs.solver import kkt_check

    tracer, solves, outputs = Tracer(), [], []
    install(tracer, solves, outputs)
    run = tracer.wrap("cli", "cli.main", priorcs.cli.main)
    code = run(args)
    done = perf_counter()

    kkt_raw, kkt_worst, kkt_certified = [], 0.0, 0
    for problem, report, _ in solves:
        raw = kkt_check(problem, report.x_star)
        residual = raw
        if raw > KKT_TOL and problem.epsilon == 0.0:
            residual = dual_residual(problem, report.x_star, report.dual)
            kkt_certified += residual <= KKT_TOL
        kkt_raw.append(raw)
        kkt_worst = max(kkt_worst, residual)
    result = {
        "exit": code,
        "import_s": import_s,
        "layers": tracer.layers,
        "spans": tracer.spans,
        "solves": [[took, r.iterations, r.converged] for _, r, took in solves],
        "kkt_max": max(kkt_raw, default=0.0),
        "kkt_worst": kkt_worst,
        "kkt_certified": kkt_certified,
        "outputs": [[kind, os.path.getsize(path), rows] for kind, path, rows in outputs],
    }
    result["post_s"] = perf_counter() - done
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
