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

The fig and verify commands run from this module and ``experiments``. The
arguments and handlers of the four tool commands (gen-matrix, analyze,
solve, bounds) are in ``tools``, which only those commands and the usage and
help texts load, so that verify and the sweeps do not compile them.

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

from .errors import ConfigError, InvalidInputError, PriorCSError
from .experiments import (
    EXPERIMENT_KINDS,
    emit_experiment_outputs,
    load_config,
    run_experiment,
    summarize_verify,
)

OUT_DIR_ENV = "PRIORCS_OUT_DIR"

# subcommand -> experiment kind: fig1 -> fig1-coeffs, ..., verify -> verify-local
_FIG_KINDS = {kind.split("-")[0]: kind for kind in EXPERIMENT_KINDS}


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
        _command(name)[0](sub.add_parser(name, help=_SUBCOMMANDS[name]))
    return parser


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


def check_fig3(table) -> list:
    """sweeps.check_fig3: messages for any fig3 grid point whose ratio is not
    strictly above 1. It is looked up here, where bench/traced_cli.py wraps
    it, and imported on call, so that only fig3 loads it."""
    from .sweeps import check_fig3

    return check_fig3(table)


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


# subcommand -> its help line
_SUBCOMMANDS = {
    "gen-matrix": "generate a sensing matrix file",
    "analyze": "coherence and isometry data for a matrix file",
    "solve": "solve a weighted l1 problem file",
    "bounds": "evaluate recovery guarantees at one parameter point",
    **{name: f"run the {name} experiment" for name in _FIG_KINDS},
}


def _command(name: str) -> tuple:
    """The functions adding a subcommand's arguments and running it; only a
    tool command loads the tools module, which holds its pair."""
    if name in _FIG_KINDS:
        return _experiment_arguments, _cmd_experiment
    from .tools import COMMANDS

    return COMMANDS[name]


def main(argv=None) -> int:
    # unregister first: repeated in-process calls keep one callback
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return _command(args.command)[1](args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PriorCSError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
