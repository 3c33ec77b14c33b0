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

Problems that share A and eps are solved as one batch, and a single problem
is the batch of one, so there is one iteration loop. The batch contract: a
row's report does not depend on the batch it ran in, bit for bit. Rows are
(B, k, 1) stacks, so ``A @ X`` runs one gemv per row and each norm one ddot
per row, the very calls a lone solve makes; a 2-D gemm over an n x B block
would round a column differently at each batch width. Elementwise steps
round the same either way, and a row leaves the batch when it converges.

The loop allocates no full-size stack: each step writes into a preallocated
(B, k, 1) buffer with out=, in the order of its formula, the state swaps
between two buffers, and the step sizes are expanded once to full stacks.
Buffers are re-sliced only when rows retire. One min() per iteration screens
the stop test, so the done mask and the feasibility norm are built only once
some row is optimal.

The first-order optimality check rebuilds a multiplier from x alone, so it
judges a solution independently of the solver that produced it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError, InvalidInputError
from .matrices import SensingMatrix, read_matrix_text

# kkt_check: |x_i| above _SUPPORT_TOL * max(1, max |x|) counts as on the
# support, and ||Ax - y|| within _BOUNDARY_TOL of eps as on the noise ball
_SUPPORT_TOL = 1e-7
_BOUNDARY_TOL = 1e-9


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
    the noise-ball constraint. max_iter = 0 returns the unconverged start.
    """

    opt_tol: float = 1e-8
    feas_tol: float = 1e-9
    max_iter: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.opt_tol < math.inf:
            raise InvalidInputError(f"opt_tol must be finite and > 0, got {self.opt_tol}")
        if not 0.0 <= self.feas_tol < math.inf:
            raise InvalidInputError(f"feas_tol must be finite and >= 0, got {self.feas_tol}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise InvalidInputError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise InvalidInputError(f"max_iter must be >= 0, got {self.max_iter}")


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


def _norms(v):
    """2-norm of each row of a (B, k, 1) stack, as a (B, 1, 1) stack.

    vecdot runs one ddot per row, the same bits as sqrt(v_i @ v_i) and as the
    stacked matmul v^T v; einsum and (v*v).sum round differently.
    """
    return np.sqrt(np.vecdot(v, v, axis=1, keepdims=True))


def solve_weighted_l1(problem: RecoveryProblem, tolerances: SolveTolerances | None = None) -> SolveReport:
    """Solve min ||x||_{1,w} s.t. ||Ax - y||_2 <= eps by primal-dual splitting.

    Deterministic for fixed inputs. Non-convergence within the iteration cap
    is reported (converged=False), not raised; an eps = 0 system with y
    outside the range of A raises InfeasibleProblemError. This is the batch
    of one.
    """
    return solve_weighted_l1_batch([problem], tolerances)[0]


def solve_weighted_l1_batch(problems, tolerances: SolveTolerances | None = None) -> list[SolveReport]:
    """Solve problems that share A and eps; one report per problem, in order.

    Each report is bit for bit the one the problem gets when solved alone:
    rows are stacked gemv and ddot calls, and a row leaves the batch as soon
    as it converges. An empty list, or problems with different matrices or
    eps, raise InvalidInputError; a row that no x can satisfy raises
    InfeasibleProblemError naming its index.
    """
    problems = list(problems)
    if not problems:
        raise InvalidInputError("no problems to solve")
    tol = tolerances or SolveTolerances()
    matrix = problems[0].matrix
    a = matrix.entries
    eps = problems[0].epsilon
    for p in problems:
        if p.matrix is not matrix and not np.array_equal(p.matrix.entries, a):
            raise InvalidInputError("a batch must share one sensing matrix")
        if p.epsilon != eps:
            raise InvalidInputError(f"a batch must share one eps, got {eps} and {p.epsilon}")

    ys = np.array([p.y for p in problems])
    y = ys[:, :, None]
    norm_y = _norms(y)
    dual_scale = np.maximum(1.0, norm_y)
    ls_solution, *_ = np.linalg.lstsq(a, ys.T, rcond=None)
    min_residual = _norms(a @ ls_solution.T[:, :, None] - y)[:, 0, 0]
    bad = np.flatnonzero(min_residual > eps + np.maximum(tol.feas_tol, 1e-8 * dual_scale[:, 0, 0]))
    if bad.size:
        i = int(bad[0])
        where = f"problem {i}: " if len(problems) > 1 else ""
        raise InfeasibleProblemError(
            f"{where}no x satisfies ||Ax - y|| <= {eps} (best achievable {min_residual[i]:.3e})"
        )

    m, n = a.shape
    a_t = a.T
    norm_a = operator_norm(a)
    step = 0.99 / norm_a if norm_a > 0.0 else 1.0
    weights = np.array([p.weights for p in problems])[:, :, None]
    batch = len(problems)
    x = np.zeros((batch, n, 1))
    ax, ax_prev, lam = (np.zeros((batch, m, 1)) for _ in range(3))
    # work stacks, overwritten every iteration
    x_new, x_half = np.empty_like(x), np.empty_like(x)
    ax_new, ax_bar, lam_new, shift = (np.empty_like(ax) for _ in range(4))
    rows = np.arange(batch)  # index in `problems` of each live row
    reports = [None] * batch
    iterations = 0
    opt_residual = np.full((batch, 1, 1), math.inf)

    def retire(done, converged):
        for i in np.flatnonzero(done):
            problem, x_i = problems[rows[i]], x[i, :, 0].copy()
            reports[rows[i]] = SolveReport(
                x_star=x_i,
                objective=problem.objective(x_i),
                feasibility_residual=problem.feasibility_residual(x_i),
                iterations=iterations,
                converged=converged,
                opt_residual=float(opt_residual[i, 0, 0]),
                dual=lam[i, :, 0].copy(),
            )

    # y = 0 or w = 0 leaves 0/0 in omega, which np.where drops; shift = 0
    # leaves sigma_eps/0, which fmax maps to a zero multiplier
    with np.errstate(divide="ignore", invalid="ignore"):
        norm_w = _norms(weights)
        omega = np.where((norm_w > 0.0) & (norm_y > 0.0), norm_w / norm_y, 1.0)
        tau, sigma = step / omega, step * omega
        tau_w = tau * weights
        neg_tau_w = -tau_w
        sigma_y = sigma * y
        sigma_eps = sigma * eps
        # the step sizes as full stacks: a same-shape multiply costs about
        # half of one that broadcasts a (B, 1, 1) stack
        tau, sigma = np.repeat(tau, n, axis=1), np.repeat(sigma, m, axis=1)

        for iterations in range(1, tol.max_iter + 1):
            # Each step writes into a preallocated stack, in the order of
            #   ax_bar = 2 ax - ax_prev
            #   shift = lam + sigma ax_bar - sigma y
            #   lam_new = shift fmax(0, 1 - sigma eps / ||shift||)
            #   x_half = x - tau A^T lam_new
            #   x_new = x_half - max(min(x_half, tau w), -tau w)  (soft threshold)
            # so every element rounds as in those formulas. Per-row (B, 1, 1)
            # values are left to numpy's small-array cache, which is cheaper
            # than out= at that size.
            np.add(ax, ax, out=ax_bar)  # 2 ax, exactly
            np.subtract(ax_bar, ax_prev, out=ax_bar)
            np.multiply(sigma, ax_bar, out=shift)
            np.add(lam, shift, out=shift)
            np.subtract(shift, sigma_y, out=shift)
            np.multiply(shift, np.fmax(0.0, 1.0 - sigma_eps / _norms(shift)), out=lam_new)
            np.matmul(a_t, lam_new, out=x_half)
            np.multiply(tau, x_half, out=x_half)
            np.subtract(x, x_half, out=x_half)
            np.minimum(x_half, tau_w, out=x_new)
            np.maximum(x_new, neg_tau_w, out=x_new)
            np.subtract(x_half, x_new, out=x_new)
            np.matmul(a, x_new, out=ax_new)

            # Both residuals belong to the pair (x_new, lam_new) that is
            # returned: primal = (x - x_new) / tau lies in the
            # subdifferential of ||.||_{1,w} at x_new plus A^T lam_new, dual
            # = (lam - lam_new) / sigma + (ax_bar - ax_new) in the
            # subdifferential of the noise-ball support function at lam_new
            # minus A x_new. They reuse the buffers of x_half and shift.
            primal, dual = x_half, shift
            np.subtract(x, x_new, out=primal)
            np.divide(primal, tau, out=primal)
            np.subtract(lam, lam_new, out=dual)
            np.divide(dual, sigma, out=dual)
            np.subtract(ax_bar, ax_new, out=ax_bar)
            np.add(dual, ax_bar, out=dual)
            opt_residual = np.maximum(_norms(primal), _norms(dual) / dual_scale)

            x, x_new = x_new, x
            ax_prev, ax, ax_new = ax, ax_new, ax_prev
            lam, lam_new = lam_new, lam
            # One reduction screens the iteration (a NaN row passes the
            # screen and fails the mask); the feasibility norm is needed
            # only once some row is optimal.
            if opt_residual.min() > tol.opt_tol:
                continue
            done = opt_residual <= tol.opt_tol
            done &= _norms(ax - y) - eps <= tol.feas_tol
            if not done.any():
                continue
            retire(done, True)
            keep = ~done[:, 0, 0]
            if not keep.any():
                return reports
            # the work stacks shrink with the state; their contents are scratch
            (rows, x, ax, ax_prev, lam, opt_residual,
             y, tau, sigma, tau_w, neg_tau_w, sigma_y, sigma_eps, dual_scale,
             x_new, x_half, ax_new, ax_bar, lam_new, shift) = (
                arr[keep] for arr in (rows, x, ax, ax_prev, lam, opt_residual,
                                      y, tau, sigma, tau_w, neg_tau_w, sigma_y, sigma_eps,
                                      dual_scale, x_new, x_half, ax_new, ax_bar, lam_new, shift)
            )
    retire(np.ones(len(rows), dtype=bool), False)
    return reports


def kkt_check(problem: RecoveryProblem, x) -> float:
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

    active = np.abs(x) > _SUPPORT_TOL * max(1.0, float(np.abs(x).max(initial=0.0)))
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
    elif res_norm >= problem.epsilon - _BOUNDARY_TOL:
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
