"""Weighted l1 recovery solvers.

The convex solver is a first-order primal-dual splitting on the saddle form

    min_x max_lam  sum_i w_i |x_i| + <A x - y, lam> - eps*||lam||_2

of ``min sum_i w_i |x_i|  s.t.  ||A x - y||_2 <= eps``: the dual step is a
shrink against the noise-ball support function, the primal step a weighted
soft threshold. eps = 0 (equality constraint) falls out of the same prox
formulas. The step sizes satisfy tau*sigma*||A||^2 = 0.99^2 with the exact
operator norm, and their ratio sigma/tau = (||w|| / ||y||)^2 follows the
problem's scale (the initial primal weight of PDLP, arXiv:2105.12715):
scaling y and eps by c scales every primal iterate by c and leaves the
multiplier unchanged. The stop test reads unscaled first-order residuals, so
it means the same thing at any step ratio.

The exhaustive l0 oracle and the first-order optimality check exist to keep
the convex solver honest on tiny instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    InfeasibleProblemError,
    InvalidInputError,
    NoSparseSolutionError,
)
from .matrices import SensingMatrix, read_matrix_text, write_matrix_text, format_real

L0_MAX_N = 14
L0_MAX_K = 5


@dataclass(eq=False)
class RecoveryProblem:
    """One weighted l1 recovery instance: min ||x||_{1,w} s.t. ||Ax - y|| <= eps."""

    matrix: SensingMatrix
    y: np.ndarray
    epsilon: float
    weights: np.ndarray

    @classmethod
    def create(cls, matrix: SensingMatrix, y, epsilon: float, weights) -> "RecoveryProblem":
        y = np.asarray(y, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if y.shape != (matrix.m,):
            raise InvalidInputError(f"y has shape {y.shape}, expected ({matrix.m},)")
        if weights.shape != (matrix.n,):
            raise InvalidInputError(f"weights have shape {weights.shape}, expected ({matrix.n},)")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(weights)):
            raise InvalidInputError("y and weights must be finite")
        if np.any(weights < 0.0):
            raise InvalidInputError("weights must be nonnegative")
        if not epsilon >= 0.0:
            raise InvalidInputError(f"epsilon must be >= 0, got {epsilon}")
        return cls(matrix=matrix, y=y, epsilon=float(epsilon), weights=weights)

    @classmethod
    def with_prior_support(cls, matrix: SensingMatrix, y, epsilon: float, T, w: float) -> "RecoveryProblem":
        """Weights w on the prior support T and 1 elsewhere."""
        if not 0.0 <= w <= 1.0:
            raise InvalidInputError(f"w must be in [0, 1], got {w}")
        weights = np.ones(matrix.n)
        t = list(T)
        if t:
            idx = np.asarray(t, dtype=int)
            if idx.min() < 0 or idx.max() >= matrix.n:
                raise InvalidInputError("T out of range")
            weights[idx] = w
        return cls.create(matrix, y, epsilon, weights)

    def objective(self, x) -> float:
        return float(np.sum(self.weights * np.abs(x)))

    def feasibility_residual(self, x) -> float:
        return max(float(np.linalg.norm(self.matrix.entries @ x - self.y)) - self.epsilon, 0.0)


@dataclass
class SolveTolerances:
    """Stopping control for the primal-dual solver.

    opt_tol bounds the first-order residuals of the returned pair (x, lam),
    neither of them multiplied by a step size, so it means the same at any
    step ratio: the primal residual (an element of the weighted l1
    subdifferential plus A^T lam, in units of the weights) and the dual
    residual (relative to max(1, ||y||)). feas_tol is an absolute slack on
    the noise-ball constraint.
    """

    opt_tol: float = 1e-8
    feas_tol: float = 1e-9
    max_iter: int = 200_000


@dataclass(eq=False)
class SolveReport:
    x_star: np.ndarray
    objective: float
    feasibility_residual: float
    iterations: int
    converged: bool
    opt_residual: float
    dual: np.ndarray


def operator_norm(entries: np.ndarray) -> float:
    """Largest singular value of the matrix."""
    return float(np.linalg.norm(entries, 2))


def _soft_threshold(v, thresholds):
    return v - np.maximum(np.minimum(v, thresholds), -thresholds)


def solve_weighted_l1(problem: RecoveryProblem, tolerances: SolveTolerances | None = None) -> SolveReport:
    """Solve min ||x||_{1,w} s.t. ||Ax - y||_2 <= eps by primal-dual splitting.

    Deterministic for fixed inputs. Non-convergence within the iteration cap
    is reported (converged=False), not raised; an eps = 0 system with y
    outside the range of A raises InfeasibleProblemError.
    """
    tol = tolerances or SolveTolerances()
    a = problem.matrix.entries
    y = problem.y
    eps = problem.epsilon
    weights = problem.weights

    norm_y = math.sqrt(y @ y)
    ls_solution, *_ = np.linalg.lstsq(a, y, rcond=None)
    min_residual = float(np.linalg.norm(a @ ls_solution - y))
    if min_residual > eps + max(tol.feas_tol, 1e-8 * max(1.0, norm_y)):
        raise InfeasibleProblemError(
            f"no x satisfies ||Ax - y|| <= {eps} (best achievable {min_residual:.3e})"
        )

    norm_a = operator_norm(a)
    step = 0.99 / norm_a if norm_a > 0.0 else 1.0
    norm_w = math.sqrt(weights @ weights)
    omega = norm_w / norm_y if norm_w > 0.0 and norm_y > 0.0 else 1.0
    tau, sigma = step / omega, step * omega

    n = a.shape[1]
    x = np.zeros(n)
    ax = np.zeros(a.shape[0])
    lam = np.zeros(a.shape[0])
    ax_prev = ax.copy()
    tau_w = tau * weights
    sigma_y = sigma * y
    sigma_eps = sigma * eps
    dual_scale = max(1.0, norm_y)

    iterations = 0
    converged = False
    opt_residual = math.inf
    for iterations in range(1, tol.max_iter + 1):
        ax_bar = 2.0 * ax - ax_prev
        shift = lam + sigma * ax_bar - sigma_y
        shift_norm = math.sqrt(shift @ shift)
        scale = max(0.0, 1.0 - sigma_eps / shift_norm) if shift_norm > 0.0 else 0.0
        lam_new = shift * scale
        x_new = _soft_threshold(x - tau * (a.T @ lam_new), tau_w)
        ax_new = a @ x_new

        # Both residuals belong to the pair (x_new, lam_new) that is returned:
        # primal lies in the subdifferential of ||.||_{1,w} at x_new plus
        # A^T lam_new, dual in the subdifferential of the noise-ball support
        # function at lam_new minus A x_new.
        primal = (x - x_new) / tau
        dual = (lam - lam_new) / sigma + (ax_bar - ax_new)
        residual = ax_new - y
        opt_residual = max(math.sqrt(primal @ primal), math.sqrt(dual @ dual) / dual_scale)
        feas = max(math.sqrt(residual @ residual) - eps, 0.0)

        x, ax_prev, ax, lam = x_new, ax, ax_new, lam_new
        if opt_residual <= tol.opt_tol and feas <= tol.feas_tol:
            converged = True
            break

    return SolveReport(
        x_star=x,
        objective=problem.objective(x),
        feasibility_residual=problem.feasibility_residual(x),
        iterations=iterations,
        converged=converged,
        opt_residual=float(opt_residual),
        dual=lam,
    )


def _min_norm_lstsq(block: np.ndarray, y: np.ndarray):
    """Least squares with the minimal-norm solution when rank-deficient."""
    x, *_ = np.linalg.lstsq(block, y, rcond=None)
    return x, float(np.linalg.norm(block @ x - y))


def solve_l0_oracle(problem: RecoveryProblem, k_max: int, feas_tol: float = 1e-8):
    """Sparsest feasible x by exhausting all supports of size 0..k_max.

    Per support, the coefficients come from least squares; a support is
    feasible when its residual is within eps (plus feas_tol slack). Among
    supports of the smallest feasible size the one with the smallest residual
    wins, ties going to the lexicographically first support. Returns (x0, k0).
    """
    a = problem.matrix.entries
    n = a.shape[1]
    if k_max < 0:
        raise InvalidInputError(f"k_max must be >= 0, got {k_max}")
    if n > L0_MAX_N or k_max > L0_MAX_K:
        raise BudgetExceededError(
            f"l0 oracle budget is n <= {L0_MAX_N}, k_max <= {L0_MAX_K}; got n={n}, k_max={k_max}"
        )
    limit = problem.epsilon + feas_tol
    for size in range(0, k_max + 1):
        best = None
        for support in itertools.combinations(range(n), size):
            idx = np.asarray(support, dtype=int)
            coeffs, residual = _min_norm_lstsq(a[:, idx], problem.y)
            if residual <= limit and (best is None or residual < best[0]):
                best = (residual, support, coeffs)
        if best is not None:
            _, support, coeffs = best
            x0 = np.zeros(n)
            x0[list(support)] = coeffs
            return x0, len(support)
    raise NoSparseSolutionError(f"no support of size <= {k_max} fits within eps = {problem.epsilon}")


def kkt_check(problem: RecoveryProblem, x, support_tol: float = 1e-7, boundary_tol: float = 1e-9) -> float:
    """First-order optimality residual of x for the weighted l1 program.

    Returns a nonnegative scalar: 0 (up to rounding) iff some subgradient of
    the weighted l1 norm lies in the normal cone of the constraint at x. The
    multiplier is reconstructed from x alone: a least-squares dual certificate
    for the equality-constrained case, a single nonnegative scalar along the
    residual direction when the noise ball is active, and the zero multiplier
    when it is slack.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.matrix.n,):
        raise InvalidInputError(f"x has shape {x.shape}, expected ({problem.matrix.n},)")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x must be finite")
    a = problem.matrix.entries
    weights = problem.weights
    residual_vec = a @ x - problem.y
    res_norm = float(np.linalg.norm(residual_vec))
    feas = max(res_norm - problem.epsilon, 0.0)

    active = np.abs(x) > support_tol * max(1.0, float(np.abs(x).max(initial=0.0)))
    signs = np.sign(x)
    target = weights * signs * active  # required value of (A^T lam)_i on the support

    if problem.epsilon == 0.0:
        # Equality-constrained: find lam with A^T lam matching the subgradient
        # on the support and wherever the weight vanishes, check box elsewhere.
        rows = active | (weights == 0.0)
        if not rows.any():
            return feas
        lam, *_ = np.linalg.lstsq(a[:, rows].T, target[rows], rcond=None)
        certificate = a.T @ lam
    elif res_norm >= problem.epsilon - boundary_tol:
        # Active ball: the normal cone is the ray along A^T residual.
        direction = a.T @ (residual_vec / res_norm)
        rows = active | (weights == 0.0)
        denom = float(direction[rows] @ direction[rows])
        nu = max(0.0, -float(direction[rows] @ target[rows]) / denom) if denom > 0.0 else 0.0
        certificate = -nu * direction
    else:
        # Ball slack: optimality needs 0 in the subdifferential.
        certificate = np.zeros_like(x)

    on_support = float(np.abs(certificate - target)[active | (weights == 0.0)].max(initial=0.0))
    off_support = float(np.maximum(np.abs(certificate) - weights, 0.0)[~active].max(initial=0.0))
    return max(feas, on_support, off_support)


def write_problem_text(problem: RecoveryProblem) -> str:
    parts = ["MATRIX", write_matrix_text(problem.matrix).rstrip("\n")]
    parts.append("VECTOR")
    parts.append(" ".join(format_real(v) for v in problem.y))
    parts.append("EPSILON")
    parts.append(format_real(problem.epsilon))
    parts.append("WEIGHTS")
    parts.append(" ".join(format_real(v) for v in problem.weights))
    return "\n".join(parts) + "\n"


def write_problem_file(problem: RecoveryProblem, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(write_problem_text(problem))


def read_problem_text(text: str) -> RecoveryProblem:
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


def read_problem_file(path) -> RecoveryProblem:
    with open(path) as fh:
        return read_problem_text(fh.read())
