"""The tool commands gen-matrix, analyze, solve and bounds, and the file
formats and exact isometry constants that only they use.

Matrix and problem files are plain text (see README), every real written as
the shortest decimal that round-trips the double. The restricted isometry
and restricted orthogonality constants are NP-hard in general, so they are
only computed by exhaustive support enumeration at tiny scale; their role is
to serve as oracles for the coherence-based upper bounds used everywhere
else. The cli builds a tool command's parser and runs it from COMMANDS; the
solver is loaded only by the code that solves or reads a problem.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import MATRIX_KINDS
from .baselines import THEOREMS, evaluate
from .bounds import GuaranteeParams, GuaranteeResult
from .errors import BudgetExceededError, InvalidInputError
from .matrices import SensingMatrix, generate_matrix
from .tables import SweepTable, to_csv_text

# Exhaustive-enumeration budgets. C(16,6) supports with 6x6 eigenproblems
# stay well under a second; anything larger is refused rather than ground out.
RIC_MAX_N = 16
RIC_MAX_K = 6


def ric_exact(matrix: SensingMatrix, k: int) -> float:
    """Exact k-th restricted isometry constant by support enumeration.

    Returns max over all supports S of size k of
    max(lambda_max(G_S) - 1, 1 - lambda_min(G_S)) with G_S the Gram matrix of
    the columns in S. Tiny scale only.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    if n > RIC_MAX_N or k > RIC_MAX_K:
        raise BudgetExceededError(
            f"exact RIC budget is n <= {RIC_MAX_N}, k <= {RIC_MAX_K}; got n={n}, k={k}"
        )
    gram = matrix.entries.T @ matrix.entries
    worst = 0.0
    for support in itertools.combinations(range(n), k):
        idx = np.asarray(support)
        eigs = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        worst = max(worst, eigs[-1] - 1.0, 1.0 - eigs[0])
    return worst


def roc_exact(matrix: SensingMatrix, s: int, s_tilde: int) -> float:
    """Exact restricted orthogonality constant theta_{s, s~}.

    Max over disjoint index sets T, T~ of sizes s, s~ of the largest singular
    value of A_T^T A_T~. Sizes at most s suffice because the largest singular
    value is monotone under adding columns, so only exact sizes are visited.
    """
    n = matrix.n
    if s < 1 or s_tilde < 1:
        raise InvalidInputError("set sizes must be >= 1")
    if s + s_tilde > n:
        raise InvalidInputError(f"s + s_tilde must be <= n, got {s}+{s_tilde} > {n}")
    if n > RIC_MAX_N:
        raise BudgetExceededError(f"exact ROC budget is n <= {RIC_MAX_N}, got n={n}")
    gram = matrix.entries.T @ matrix.entries
    worst = 0.0
    symmetric = s == s_tilde
    for left in itertools.combinations(range(n), s):
        rest = [j for j in range(n) if j not in left]
        lidx = np.asarray(left)
        for right in itertools.combinations(rest, s_tilde):
            if symmetric and right < left:
                continue  # sigma_max(M) == sigma_max(M^T): visit each pair once
            block = gram[np.ix_(lidx, np.asarray(right))]
            worst = max(worst, float(np.linalg.svd(block, compute_uv=False)[0]))
    return worst


class IsometryReport(NamedTuple):
    """Exact and coherence-bound isometry data for one sparsity level."""

    k: int
    delta_coherence_bound: float
    delta_exact: float | None = None
    theta_exact: float | None = None


def isometry_report(matrix: SensingMatrix, k: int, exact: bool = True) -> IsometryReport:
    """Assemble delta_k data: the (k-1)*mu bound plus exact values in budget."""
    if not 1 <= k <= matrix.n:
        raise InvalidInputError(f"k must be in [1, {matrix.n}], got {k}")
    bound = (k - 1) * matrix.mu
    delta = None
    theta = None
    if exact and matrix.n <= RIC_MAX_N and k <= RIC_MAX_K:
        delta = ric_exact(matrix, k)
        if 2 * k <= matrix.n:
            theta = roc_exact(matrix, k, k)
    return IsometryReport(
        k=k, delta_coherence_bound=bound, delta_exact=delta, theta_exact=theta
    )


def format_real(v: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(v))


def write_matrix_text(matrix: SensingMatrix) -> str:
    lines = [f"{matrix.m} {matrix.n}"]
    for row in matrix.entries:
        lines.append(" ".join(format_real(v) for v in row))
    return "\n".join(lines) + "\n"


def write_matrix_file(matrix: SensingMatrix, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(write_matrix_text(matrix))


def read_matrix_text(text: str) -> SensingMatrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise InvalidInputError("matrix text must start with 'm n'")
    try:
        m, n = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise InvalidInputError(f"bad matrix header: {tokens[:2]}") from exc
    if m < 1 or n < 1:
        raise InvalidInputError(f"bad matrix header: {tokens[:2]} (sizes must be >= 1)")
    values = tokens[2:]
    if len(values) != m * n:
        raise InvalidInputError(f"expected {m * n} entries, found {len(values)}")
    try:
        arr = np.array([float(v) for v in values]).reshape(m, n)
    except ValueError as exc:
        raise InvalidInputError("non-numeric matrix entry") from exc
    return SensingMatrix.from_array(arr)


def read_matrix_file(path) -> SensingMatrix:
    with open(path) as fh:
        return read_matrix_text(fh.read())


def read_problem_text(text: str):
    """The solver.RecoveryProblem that a problem text describes."""
    from .solver import RecoveryProblem

    sections = {}
    current = None
    for token in text.split():
        if token in ("MATRIX", "VECTOR", "EPSILON", "WEIGHTS"):
            current = token
            sections[current] = []
        elif current is None:
            raise InvalidInputError(f"unexpected token {token!r} before any section header")
        else:
            sections[current].append(token)
    for name in ("MATRIX", "VECTOR", "EPSILON", "WEIGHTS"):
        if name not in sections:
            raise InvalidInputError(f"problem text is missing the {name} section")
    matrix = read_matrix_text(" ".join(sections["MATRIX"]))
    try:
        y = np.array([float(v) for v in sections["VECTOR"]])
        weights = np.array([float(v) for v in sections["WEIGHTS"]])
        (epsilon,) = [float(v) for v in sections["EPSILON"]]
    except ValueError as exc:
        raise InvalidInputError("malformed numeric section in problem text") from exc
    return RecoveryProblem.create(matrix, y, epsilon, weights)


def read_problem_file(path):
    with open(path) as fh:
        return read_problem_text(fh.read())


# isometry constants any theorem takes, each a --flag of the bounds command
_CONSTANTS = [c for _, own in THEOREMS.values() for c in own]


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
    bnd.add_argument("--theorem", choices=[*THEOREMS, "all"], default="all")
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
    from .solver import SolveTolerances, kkt_check, solve_weighted_l1

    problem = read_problem_file(args.problem)
    report = solve_weighted_l1(
        problem,
        SolveTolerances(opt_tol=args.opt_tol, feas_tol=args.feas_tol, max_iter=args.max_iter),
    )
    print("x_star=" + ",".join(format_real(v) for v in report.x_star))
    print(f"objective={format_real(np.sum(problem.weights * np.abs(report.x_star)))}")
    print(f"feasibility_residual={format_real(problem.feasibility_residual(report.x_star))}")
    print(f"iterations={report.iterations}")
    print(f"converged={'true' if report.converged else 'false'}")
    print(f"exit={report.exit}")
    print(f"opt_residual={format_real(report.opt_residual)}")
    print(f"kkt_residual={format_real(kkt_check(problem, report.x_star, report.dual))}")
    return 0


def _cmd_bounds(args) -> int:
    columns = list(GuaranteeResult._fields)  # one row per theorem
    p = GuaranteeParams(
        mu=args.mu, k=args.k, rho=args.rho, alpha=args.alpha, w=args.w,
        a=args.a, b=args.b, t=args.t,
    )
    constants = {name: getattr(args, name) for name in _CONSTANTS}
    wanted = THEOREMS if args.theorem == "all" else (args.theorem,)
    # every row is evaluated before the table is printed, so an error leaves no partial table
    rows = [evaluate(name, p, **constants) for name in wanted]
    print(to_csv_text(SweepTable(columns=columns, data=list(zip(*rows)))), end="")
    return 0


# tool subcommand -> (function adding its arguments, function running it)
COMMANDS = {
    "gen-matrix": (_gen_matrix_arguments, _cmd_gen_matrix),
    "analyze": (_analyze_arguments, _cmd_analyze),
    "solve": (_solve_arguments, _cmd_solve),
    "bounds": (_bounds_arguments, _cmd_bounds),
}
