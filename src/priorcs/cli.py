"""Command-line front end.

Subcommands: gen-matrix, analyze, solve, bounds, fig1, fig2, fig3, fig4,
verify. Exit codes: 0 success, 2 configuration/usage error, 3 assertion
failure (fig3 ratio hook, verify violations or non-converged trials), for CI
use. The output directory resolves as --out-dir flag, then the
PRIORCS_OUT_DIR environment variable, then the config value. verify prints
one line of solve statistics (iteration spread, exit reasons, polish tries
and their correction steps, the largest lhs/rhs and its trial, phase times)
on stderr, and fig1-fig4 one line of row count and evaluation, CSV and SVG
times; stdout and the CSVs never carry timings.

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

from . import MATRIX_KINDS, bounds as bounds_mod
from .errors import ConfigError, InvalidInputError, PriorCSError
from .experiments import (
    EXPERIMENT_KINDS,
    check_fig3,
    emit_experiment_outputs,
    load_config,
    run_experiment,
    summarize_verify,
)
from .tables import SweepTable, to_csv_text

OUT_DIR_ENV = "PRIORCS_OUT_DIR"

# subcommand -> experiment kind: fig1 -> fig1-coeffs, ..., verify -> verify-local
_FIG_KINDS = {kind.split("-")[0]: kind for kind in EXPERIMENT_KINDS}

THEOREMS = tuple(bounds_mod.THEOREMS)

# isometry constants any theorem takes, each a --flag of the bounds command
_CONSTANTS = [c for _, own in bounds_mod.THEOREMS.values() for c in own]


def _gen_matrix_arguments(gen) -> None:
    gen.add_argument("--kind", choices=MATRIX_KINDS, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--in", dest="source", help="matrix file to pass through (explicit kind)")
    gen.add_argument("--out", required=True)


def _analyze_arguments(ana) -> None:
    ana.add_argument("--matrix", required=True)
    ana.add_argument("--k", type=int, default=None)
    ana.add_argument("--no-exact", action="store_true",
                     help="skip the exhaustive RIC/ROC even when within budget")


def _solve_arguments(sol) -> None:
    from .solver import SolveTolerances

    sol.add_argument("--problem", required=True)
    defaults = SolveTolerances._field_defaults
    sol.add_argument("--opt-tol", type=float, default=defaults["opt_tol"])
    sol.add_argument("--feas-tol", type=float, default=defaults["feas_tol"])
    sol.add_argument("--max-iter", type=int, default=defaults["max_iter"])


def _bounds_arguments(bnd) -> None:
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


def _experiment_arguments(fig) -> None:
    fig.add_argument("--config", default=None)
    fig.add_argument("-o", "--override", action="append", default=[],
                     metavar="KEY=VALUE", help="override one config entry")
    fig.add_argument("--out-dir", default=None)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser with only the subparser that argv[0] names, which saves
    1-2 ms a process; with all nine when it names none, so that the help and
    the errors about the command list them all."""
    parser = argparse.ArgumentParser(
        prog="priorcs",
        description="Weighted l1 sparse recovery with prior support: solvers, "
                    "guarantee calculators, and comparison experiments.",
    )
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else list(_SUBCOMMANDS)
    # argparse spells the usage from the subparsers built; with one built, the
    # metavar spells the same text. With all built, none is set, because an
    # error naming the command argument would print the metavar for its name.
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, _ = _SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _cmd_gen_matrix(args) -> int:
    from .matrices import format_real, generate_matrix, read_matrix_file, write_matrix_file

    entries = None if args.source is None else read_matrix_file(args.source).entries
    matrix = generate_matrix(args.kind, args.m, args.n, args.seed, entries=entries)
    coherence = format_real(matrix.mu)  # before writing, so a failed command leaves no file
    write_matrix_file(matrix, args.out)
    print(f"wrote {args.out}")
    print(f"coherence={coherence}")
    return 0


def _cmd_analyze(args) -> int:
    from .matrices import format_real, isometry_report, read_matrix_file

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
    from .matrices import format_real
    from .solver import SolveTolerances, kkt_check, read_problem_file, solve_weighted_l1

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
    print(f"kkt_residual={format_real(kkt_check(problem, report.x_star, report.dual))}")
    return 0


def _cmd_bounds(args) -> int:
    columns = list(bounds_mod.GuaranteeResult._fields)  # one row per theorem
    p = bounds_mod.GuaranteeParams(
        mu=args.mu, k=args.k, rho=args.rho, alpha=args.alpha, w=args.w,
        a=args.a, b=args.b, t=args.t,
    )
    constants = {name: getattr(args, name) for name in _CONSTANTS}
    wanted = THEOREMS if args.theorem == "all" else (args.theorem,)
    # every row is evaluated before the table is printed, so an error leaves no partial table
    rows = [bounds_mod.evaluate(name, p, **constants) for name in wanted]
    print(to_csv_text(SweepTable(columns=columns, data=list(zip(*rows)))), end="")
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


def _name_trials(table, mask, detail: str, shown=5) -> str:
    """The first verify trials where mask holds, each with its (rho, alpha, w)
    and detail, a format string over the table's columns; the rest counted."""
    picked = mask.nonzero()[0]
    values = (table.column(c)[picked[:shown]].tolist() for c in table.columns)
    names = [("trial {trial} (rho={rho:g}, alpha={alpha:g}, w={w:g}, " + detail + ")").format(
        **dict(zip(table.columns, row))) for row in zip(*values)]
    if picked.size > shown:
        names.append(f"and {picked.size - shown} more")
    return ", ".join(names)


def _worst_ratio(table) -> str:
    """The largest lhs/rhs of a verify table and its trial, over the converged
    trials whose premises hold and whose rhs is positive; n/a if none."""
    judged = (table.column("converged") & table.column("premise_k") & table.column("premise_d")
              & (table.column("rhs") > 0.0))
    ratios = (table.column("lhs")[judged] / table.column("rhs")[judged]).tolist()
    if not ratios:
        return "n/a"
    # the first largest, by a list max: numpy's argmax here, after the CSVs
    # are written, raised a 30-trial run's peak RSS by 0.17 MB
    worst = max(range(len(ratios)), key=ratios.__getitem__)
    return f"{ratios[worst]:.6g} at trial {table.column('trial')[judged][worst]}"


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
        print(
            f"verify: {len(iterations)} solves in one batch, iterations "
            f"p50={_nearest_rank(iterations, 0.5)} p90={_nearest_rank(iterations, 0.9)} "
            f"max={iterations[-1]}, exits {exits}, polish tries {timings['polish_tries']} "
            f"({timings['polish_steps']} steps), "
            f"max lhs/rhs {_worst_ratio(table)}, draw {timings['draw_s']:.3f} s, solve {timings['solve_s']:.3f} s "
            f"(polish {timings['polish_s']:.3f} s, "
            f"{(timings['solve_s'] - timings['polish_s']) / timings['loop_iterations'] * 1e6:.1f} us "
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
            # 9 digits tell lhs from rhs at the VIOLATION_TOL of 1e-6 up to 100
            named = _name_trials(table, table.column("violation"), "lhs={lhs:.9g}, rhs={rhs:.9g}")
            print(f"assertion failed: local bound violated on converged trials: {named}",
                  file=sys.stderr)
        if data["nonconverged"] > 0:
            print(f"assertion failed: {data['nonconverged']} trial(s) did not converge: "
                  f"{_name_trials(table, ~table.column('converged'), '{iterations} iterations')}",
                  file=sys.stderr)
        if data["violations"] > 0 or data["nonconverged"] > 0:
            return 3
    return 0


# subcommand -> (help line, function adding its arguments, function running it)
_SUBCOMMANDS = {
    "gen-matrix": ("generate a sensing matrix file", _gen_matrix_arguments, _cmd_gen_matrix),
    "analyze": ("coherence and isometry data for a matrix file", _analyze_arguments,
                _cmd_analyze),
    "solve": ("solve a weighted l1 problem file", _solve_arguments, _cmd_solve),
    "bounds": ("evaluate recovery guarantees at one parameter point", _bounds_arguments,
               _cmd_bounds),
    **{name: (f"run the {name} experiment", _experiment_arguments, _cmd_experiment)
       for name in _FIG_KINDS},
}


def main(argv=None) -> int:
    # unregister first: repeated in-process calls keep one callback
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][2](args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PriorCSError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
