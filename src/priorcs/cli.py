"""Command-line front end.

Subcommands: gen-matrix, analyze, solve, bounds, fig1, fig2, fig3, fig4,
verify. Exit codes: 0 success, 2 configuration/usage error, 3 assertion
failure (fig3 ratio hook, verify violations or non-converged trials), for CI
use. The output directory resolves as --out-dir flag, then the
PRIORCS_OUT_DIR environment variable, then the config value. verify prints
one line of solve statistics (iteration spread, exit reasons, polish tries,
phase times) on stderr, and fig1-fig4 one line of row count and evaluation,
CSV and SVG times; stdout and the CSVs never carry timings.

main registers gc.freeze as an exit callback, once per process, so the
interpreter's finalization skips collecting the heap that numpy and priorcs
built (about 20k tracked objects, 15-20 ms a command). It is safe: every file
priorcs writes is closed by a `with` block before main returns, and the
interpreter flushes stdout and stderr before finalization. Importing the
package registers nothing, and an in-process call freezes the heap only when
its process exits.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys

from . import bounds as bounds_mod
from .errors import ConfigError, InvalidInputError, PriorCSError
from .experiments import (
    EXPERIMENT_KINDS,
    check_fig3,
    emit_experiment_outputs,
    load_config,
    run_experiment,
    summarize_verify,
)
from .matrices import (
    MATRIX_KINDS,
    format_real,
    generate_matrix,
    isometry_report,
    read_matrix_file,
    write_matrix_file,
)
from .solver import SolveTolerances, read_problem_file, solve_weighted_l1
from .tables import SweepTable, to_csv_text

OUT_DIR_ENV = "PRIORCS_OUT_DIR"

# subcommand -> experiment kind: fig1 -> fig1-coeffs, ..., verify -> verify-local
_FIG_KINDS = {kind.split("-")[0]: kind for kind in EXPERIMENT_KINDS}

THEOREMS = tuple(bounds_mod.THEOREMS)

# isometry constants any theorem takes, each a --flag of the bounds command
_CONSTANTS = [c for _, own in bounds_mod.THEOREMS.values() for c in own]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priorcs",
        description="Weighted l1 sparse recovery with prior support: solvers, "
                    "guarantee calculators, and comparison experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-matrix", help="generate a sensing matrix file")
    gen.add_argument("--kind", choices=MATRIX_KINDS, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--in", dest="source", help="matrix file to pass through (explicit kind)")
    gen.add_argument("--out", required=True)

    ana = sub.add_parser("analyze", help="coherence and isometry data for a matrix file")
    ana.add_argument("--matrix", required=True)
    ana.add_argument("--k", type=int, default=None)
    ana.add_argument("--no-exact", action="store_true",
                     help="skip the exhaustive RIC/ROC even when within budget")

    sol = sub.add_parser("solve", help="solve a weighted l1 problem file")
    sol.add_argument("--problem", required=True)
    defaults = SolveTolerances._field_defaults
    sol.add_argument("--opt-tol", type=float, default=defaults["opt_tol"])
    sol.add_argument("--feas-tol", type=float, default=defaults["feas_tol"])
    sol.add_argument("--max-iter", type=int, default=defaults["max_iter"])

    bnd = sub.add_parser("bounds", help="evaluate recovery guarantees at one parameter point")
    bnd.add_argument("--theorem", choices=THEOREMS + ("all",), default="all")
    bnd.add_argument("--mu", type=float, required=True)
    bnd.add_argument("--k", type=int, required=True)
    bnd.add_argument("--rho", type=float, default=0.0)
    bnd.add_argument("--alpha", type=float, default=0.0)
    bnd.add_argument("--w", type=float, default=1.0)
    bnd.add_argument("--a", type=float, default=None)
    bnd.add_argument("--b", type=float, default=None)
    bnd.add_argument("--t", type=float, default=None)
    for name in _CONSTANTS:
        bnd.add_argument("--" + name.replace("_", "-"), type=float, default=None)

    for name in _FIG_KINDS:
        fig = sub.add_parser(name, help=f"run the {name} experiment")
        fig.add_argument("--config", default=None)
        fig.add_argument("-o", "--override", action="append", default=[],
                         metavar="KEY=VALUE", help="override one config entry")
        fig.add_argument("--out-dir", default=None)
    return parser


def _cmd_gen_matrix(args) -> int:
    entries = None if args.source is None else read_matrix_file(args.source).entries
    matrix = generate_matrix(args.kind, args.m, args.n, args.seed, entries=entries)
    coherence = format_real(matrix.mu)  # before writing, so a failed command leaves no file
    write_matrix_file(matrix, args.out)
    print(f"wrote {args.out}")
    print(f"coherence={coherence}")
    return 0


def _cmd_analyze(args) -> int:
    matrix = read_matrix_file(args.matrix)
    print(f"m={matrix.m}")
    print(f"n={matrix.n}")
    print(f"coherence={format_real(matrix.mu)}")
    if args.k is not None:
        report = isometry_report(matrix, args.k, exact=not args.no_exact)
        print(f"k={report.k}")
        print(f"delta_coherence_bound={format_real(report.delta_coherence_bound)}")
        if report.delta_exact is not None:
            print(f"delta_exact={format_real(report.delta_exact)}")
        if report.theta_exact is not None:
            print(f"theta_exact={format_real(report.theta_exact)}")
    return 0


def _cmd_solve(args) -> int:
    problem = read_problem_file(args.problem)
    report = solve_weighted_l1(
        problem,
        SolveTolerances(opt_tol=args.opt_tol, feas_tol=args.feas_tol, max_iter=args.max_iter),
    )
    print("x_star=" + ",".join(format_real(v) for v in report.x_star))
    print(f"objective={format_real(report.objective)}")
    print(f"feasibility_residual={format_real(report.feasibility_residual)}")
    print(f"iterations={report.iterations}")
    print(f"converged={'true' if report.converged else 'false'}")
    print(f"exit={report.exit}")
    print(f"opt_residual={format_real(report.opt_residual)}")
    return 0


def _cmd_bounds(args) -> int:
    columns = list(bounds_mod.GuaranteeResult._fields)  # one row per theorem
    print(",".join(columns))
    p = bounds_mod.GuaranteeParams(
        mu=args.mu, k=args.k, rho=args.rho, alpha=args.alpha, w=args.w,
        a=args.a, b=args.b, t=args.t,
    )
    constants = {name: getattr(args, name) for name in _CONSTANTS}
    wanted = THEOREMS if args.theorem == "all" else (args.theorem,)
    # every row is evaluated before any is printed, so an error leaves no partial table
    rows = [bounds_mod.evaluate(name, p, **constants) for name in wanted]
    table = SweepTable(columns=columns, data=list(zip(*rows)))
    print(to_csv_text(table).split("\n", 1)[1], end="")
    return 0


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _nearest_rank(ordered: list, q: float):
    """The q-quantile of sorted values by the nearest-rank rule."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _cmd_experiment(args) -> int:
    kind = _FIG_KINDS[args.command]
    cfg = load_config(kind, path=args.config, overrides=_parse_overrides(args.override))
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or cfg.out_dir
    timings = {}
    table = run_experiment(cfg, timings)
    written = emit_experiment_outputs(cfg, table, out_dir, timings)
    for path in written:
        print(f"wrote {path}")
    if kind != "verify-local":
        print(f"{args.command}: {len(table)} rows, evaluate {timings['evaluate_s']:.3f} s, "
              f"csv {timings['csv_s']:.3f} s, svg {timings['svg_s']:.3f} s", file=sys.stderr)
    if kind == "fig3-kratio":
        problems = check_fig3(table)
        if problems:
            for msg in problems:
                print(f"assertion failed: {msg}", file=sys.stderr)
            return 3
        print(f"all {len(table)} k-ratios > 1")
    if kind == "verify-local":
        iterations = sorted(table.column("iterations"))
        exits = " ".join(f"{name}={count}" for name, count in timings["exits"].items())
        # the batch loop runs as many iterations as its longest solve
        print(
            f"verify: {len(iterations)} solves in one batch, iterations "
            f"p50={_nearest_rank(iterations, 0.5)} p90={_nearest_rank(iterations, 0.9)} "
            f"max={iterations[-1]}, exits {exits}, polish tries {timings['polish_tries']}, "
            f"draw {timings['draw_s']:.3f} s, solve {timings['solve_s']:.3f} s "
            f"(polish {timings['polish_s']:.3f} s, "
            f"{(timings['solve_s'] - timings['polish_s']) / iterations[-1] * 1e6:.1f} us "
            f"per loop iteration), tabulate {timings['tabulate_s']:.3f} s",
            file=sys.stderr,
        )
        summary = summarize_verify(table)
        data = dict(zip(summary.columns, summary.rows[0]))
        print(
            "trials={trials} converged={converged} nonconverged={nonconverged} "
            "violations={violations}".format(**data)
        )
        if data["violations"] > 0:
            print("assertion failed: local bound violated on converged trials", file=sys.stderr)
        if data["nonconverged"] > 0:
            print(f"assertion failed: {data['nonconverged']} trial(s) did not converge",
                  file=sys.stderr)
        if data["violations"] > 0 or data["nonconverged"] > 0:
            return 3
    return 0


# every other subcommand is an experiment
_COMMANDS = {
    "gen-matrix": _cmd_gen_matrix,
    "analyze": _cmd_analyze,
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    # unregister first: repeated in-process calls keep one callback
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS.get(args.command, _cmd_experiment)(args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PriorCSError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
