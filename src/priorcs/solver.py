"""Weighted l1 recovery solvers.

The convex solver is a first-order primal-dual splitting on the saddle form

    min_x max_lam  sum_i w_i |x_i| + <A x - y, lam> - eps*||lam||_2

of ``min sum_i w_i |x_i|  s.t.  ||A x - y||_2 <= eps``: the dual step is a
shrink against the noise-ball support function, the primal step a weighted
soft threshold. eps = 0 (equality constraint) falls out of the same prox
formulas. The step sizes satisfy tau*sigma*||A||^2 = 0.99^2 with the exact
operator norm, and their ratio sigma/tau = omega^2 follows the problem's
scale: omega = ||w|| / (||y|| - eps) when ||y|| > eps, the scale of A x* on
the ball, and ||w|| / ||y|| otherwise (the initial primal weight of PDLP,
arXiv:2105.12715, is ||w|| / ||y||; with ||y|| used when y is mostly noise,
the iterate stalls at x = 0). Scaling y and eps by c scales every primal
iterate by c and leaves the multiplier unchanged. The stop test reads
unscaled first-order residuals, so it means the same thing at any step
ratio.

Problems that share A and eps are solved as one batch, and a single problem
is the batch of one, so there is one iteration loop. The batch contract: a
row's report does not depend on the batch it ran in, bit for bit. Rows are
(B, k, 1) stacks, so ``A @ X`` runs one gemv per row and each norm one ddot
per row, the very calls a lone solve makes; a 2-D gemm over an n x B block
would round a column differently at each batch width. Elementwise steps
round the same either way, and a row leaves the batch when it stops.

The loop allocates no full-size stack: each step writes into a preallocated
(B, k, 1) buffer with out=, in the order of its formula, the state swaps
between two buffers, and the step sizes are expanded once to full stacks.
Buffers are re-sliced only when rows retire. A row can stop only at a check,
every POLISH_EVERY iterations, or at the last iteration (PDLP too evaluates
its termination criteria periodically, arXiv:2105.12715), so the other
iterations build no residual.

At a check, the stop test runs first. Then a row whose iterate is 0
wherever w > 0, feasible, and unchanged since the previous check retires
"certified": its objective is 0, so it is optimal, with the zero multiplier
and a pair residual of 0. That is the case of a zero-cost minimizer that is
not unique (w = 0 on the support), where the iterate comes to rest long
before its multiplier decays to 0; waiting for the rest returns the very
point the loop would stop at. Then a live row whose sign pattern (on the
coordinates with w > 0) matches the one at the previous check tries to
polish (OSQP's solution polishing, arXiv:1711.08013; proximal methods fix
the active set after finitely many steps, arXiv:1712.03577). With the free
set F = {x_i != 0} | {w_i = 0} and the costs c = w_F sign(x_F) held, the
program is min c^T z s.t. ||A_F z - y|| <= eps, whose minimizer is closed
form: z_ls - t G^-1 c with G = A_F^T A_F, z_ls the least-squares fit,
residual r and t = sqrt(eps^2 - r^2) / sqrt(c^T G^-1 c), multiplier
(A_F z - y) / t; at eps = 0 it is z_ls, and the multiplier is the row's lam
projected onto A_F^T lam = -c. The point is accepted only if it keeps the
signs, is feasible, and certifies itself: the pair residual
max(||A_F^T lam + c||_inf, max_{j not in F} (|A_j^T lam| - w_j)_+) is at
most opt_tol. A polished row retires at once. At eps > 0 the try depends on
the pattern alone, so a rejected pattern is not tried again; rows with
c = 0 (all of F at zero weight) never polish and are left to the stop test
and the certificate. The rows that try at one check are grouped by |F|,
and each group is one stacked gram, Cholesky, solve and gemv per product,
whose items are the calls of a lone try, bit for bit, so the batch
contract holds; a row whose gram does not factor fails alone.

kkt_check reads the first-order residual of a given pair (x, lam), such as
a report's (x_star, dual), which is thus its own certificate.
"""

from __future__ import annotations

import math
import numbers
from time import perf_counter
from typing import NamedTuple

import numpy as np

from . import MAX_ITER
from .errors import InfeasibleProblemError, InvalidInputError
from .matrices import SensingMatrix, read_matrix_text
from .supports import index_sets

# iterations between two sign-pattern checks of the polish step
POLISH_EVERY = 10

# how a solve can stop, as SolveReport.exit names it
EXITS = ("polished", "certified", "converged", "max_iter")


class RecoveryProblem:
    """One weighted l1 recovery instance: min ||x||_{1,w} s.t. ||Ax - y|| <= eps."""

    __slots__ = ("matrix", "y", "epsilon", "weights")

    def __init__(self, matrix: SensingMatrix, y: np.ndarray, epsilon: float, weights: np.ndarray):
        self.matrix = matrix
        self.y = y
        self.epsilon = epsilon
        self.weights = weights

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
        weights[index_sets(T, 1, matrix.n)[0]] = w
        return cls.create(matrix, y, epsilon, weights)

    def objective(self, x) -> float:
        return float(np.sum(self.weights * np.abs(x)))

    def feasibility_residual(self, x) -> float:
        return max(float(np.linalg.norm(self.matrix.entries @ x - self.y)) - self.epsilon, 0.0)


class _SolveTolerances(NamedTuple):
    opt_tol: float = 1e-8
    feas_tol: float = 1e-9
    max_iter: int = MAX_ITER


class SolveTolerances(_SolveTolerances):
    """Stopping control for the primal-dual solver.

    opt_tol bounds the first-order residuals of the returned pair (x, lam),
    neither of them multiplied by a step size, so it means the same at any
    step ratio: the primal residual (an element of the weighted l1
    subdifferential plus A^T lam, in units of the weights) and the dual
    residual (relative to max(1, ||y||)). feas_tol is an absolute slack on
    the noise-ball constraint. max_iter = 0 returns the unconverged start.
    The defaults are SolveTolerances._field_defaults; every way to build
    one, _make and _replace included, checks the values.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.opt_tol < math.inf:
            raise InvalidInputError(f"opt_tol must be finite and > 0, got {self.opt_tol}")
        if not 0.0 <= self.feas_tol < math.inf:
            raise InvalidInputError(f"feas_tol must be finite and >= 0, got {self.feas_tol}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise InvalidInputError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise InvalidInputError(f"max_iter must be >= 0, got {self.max_iter}")
        return self

    @classmethod
    def _make(cls, iterable):
        # the NamedTuple _make, which _replace calls, bypasses __new__
        return cls(*iterable)


class SolveReport:
    """The pair (x_star, dual) a solve returns and how it stopped.

    exit is one of EXITS: "polished" (the closed-form minimizer of a settled
    sign pattern), "certified" (a zero-cost iterate at rest, with dual = 0),
    "converged" (the loop's stop test) or "max_iter" (converged is False).
    opt_residual is the pair's first-order residual, 0 when certified.
    """

    __slots__ = ("x_star", "objective", "feasibility_residual", "iterations", "converged",
                 "opt_residual", "dual", "exit", "polish_tries")

    def __init__(self, x_star: np.ndarray, objective: float, feasibility_residual: float,
                 iterations: int, converged: bool, opt_residual: float, dual: np.ndarray,
                 exit: str, polish_tries: int):
        self.x_star = x_star
        self.objective = objective
        self.feasibility_residual = feasibility_residual
        self.iterations = iterations
        self.converged = converged
        self.opt_residual = opt_residual
        self.dual = dual
        self.exit = exit
        self.polish_tries = polish_tries


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


def solve_weighted_l1_batch(problems, tolerances: SolveTolerances | None = None,
                            timings: dict | None = None) -> list[SolveReport]:
    """Solve problems that share A and eps; one report per problem, in order.

    Each report is bit for bit the one the problem gets when solved alone:
    rows are stacked gemv and ddot calls, each polish try is one item of
    stacked calls, and a row leaves the batch at the first check where it
    stops. An empty list, or problems with different matrices or eps,
    raise InvalidInputError; a row that no x can satisfy raises
    InfeasibleProblemError naming its index. If timings is a dict, the wall
    seconds of the polish tries go to its polish_s.
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
    clock = {} if timings is None else timings
    clock["polish_s"] = 0.0
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
    # polish state: each live row's sign pattern on w > 0 at the last check
    # (2 before the first), and per problem the tries made and the patterns
    # rejected; at eps = 0 a try also reads lam, so a pattern may be retried
    positive = (weights > 0.0).astype(np.int8)
    pattern = np.full((batch, n, 1), 2, dtype=np.int8)
    tries = [0] * batch
    rejected = [set() for _ in range(batch)]
    still = {}  # per problem, its zero-cost iterate at the last check

    def retire(live, x_rows, lam_rows, residuals, exit):
        if not live.size:
            return
        # reports for the live rows `live` at the (G, n) points x_rows; the
        # objective is one pairwise sum and the feasibility one gemv and
        # ddot per row, the bits of RecoveryProblem.objective and
        # feasibility_residual
        objective = (weights[live, :, 0] * np.abs(x_rows)).sum(axis=1).tolist()
        feasibility = np.maximum(_norms(a @ x_rows[:, :, None] - y[live])[:, 0, 0] - eps, 0.0).tolist()
        residuals = residuals.tolist()
        for j, i in enumerate(rows[live].tolist()):
            reports[i] = SolveReport(
                x_star=x_rows[j],
                objective=objective[j],
                feasibility_residual=feasibility[j],
                iterations=iterations,
                converged=exit != "max_iter",
                opt_residual=residuals[j],
                dual=lam_rows[j],
                exit=exit,
                polish_tries=tries[i],
            )

    def retire_iterate(live, exit):
        retire(live, x[live, :, 0], lam[live, :, 0], opt_residual[live, 0, 0], exit)

    # y = 0 or w = 0 leaves 0/0 in omega, which np.where drops; shift = 0
    # leaves sigma_eps/0, which fmax maps to a zero multiplier
    with np.errstate(divide="ignore", invalid="ignore"):
        norm_w = _norms(weights)
        scale_y = np.where(norm_y > eps, norm_y - eps, norm_y)
        omega = np.where((norm_w > 0.0) & (scale_y > 0.0), norm_w / scale_y, 1.0)
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

            # The stop test runs at each check and at the final iteration.
            # Both residuals belong to the pair (x_new, lam_new) that is
            # returned: primal = (x - x_new) / tau lies in the
            # subdifferential of ||.||_{1,w} at x_new plus A^T lam_new, dual
            # = (lam - lam_new) / sigma + (ax_bar - ax_new) in the
            # subdifferential of the noise-ball support function at lam_new
            # minus A x_new. They reuse the buffers of x_half and shift.
            check = iterations % POLISH_EVERY == 0
            stop = check or iterations == tol.max_iter
            if stop:
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
            if not stop:
                continue
            feasible = (_norms(ax - y) - eps <= tol.feas_tol)[:, 0, 0]
            done = (opt_residual[:, 0, 0] <= tol.opt_tol) & feasible
            retire_iterate(np.flatnonzero(done), "converged")
            if check:
                latest = np.sign(x).astype(np.int8)
                latest *= positive
                # a feasible zero-cost iterate that has not moved since the
                # previous check retires with the zero multiplier
                zero_cost = ~latest.any(axis=(1, 2)) & ~done
                resting = zero_cost & feasible
                for i in np.flatnonzero(resting).tolist():
                    resting[i] = np.array_equal(x[i, :, 0], still.get(rows[i]))
                live = np.flatnonzero(resting)
                retire(live, x[live, :, 0], np.zeros((live.size, m)), np.zeros(live.size), "certified")
                done |= resting
                still = {rows[i]: x[i, :, 0].copy()
                         for i in np.flatnonzero(zero_cost & ~resting).tolist()}
                settled = (latest == pattern).all(axis=(1, 2)) & ~done
                pattern = latest
                trying, keys = [], []
                for i in np.flatnonzero(settled).tolist():
                    key = latest[i].tobytes()
                    if eps > 0.0 and key in rejected[rows[i]]:
                        continue
                    tries[rows[i]] += 1
                    trying.append(i)
                    keys.append(key)
                if trying:
                    started = perf_counter()
                    polished = _polish(a, y[trying, :, 0], eps, weights[trying, :, 0],
                                       x[trying, :, 0], lam[trying, :, 0], tol)
                    clock["polish_s"] += perf_counter() - started
                    accepted, *point = polished
                    live = np.array(trying)[accepted]
                    done[live] = True
                    retire(live, *(part[accepted] for part in point), "polished")
                    for i, key, ok in zip(trying, keys, accepted.tolist()):
                        if not ok:
                            rejected[rows[i]].add(key)
            if not done.any():
                continue
            keep = ~done
            if not keep.any():
                return reports
            # the work stacks shrink with the state; their contents are scratch
            (rows, x, ax, ax_prev, lam, opt_residual, weights, positive, pattern,
             y, tau, sigma, tau_w, neg_tau_w, sigma_y, sigma_eps, dual_scale,
             x_new, x_half, ax_new, ax_bar, lam_new, shift) = (
                arr[keep] for arr in (rows, x, ax, ax_prev, lam, opt_residual, weights, positive,
                                      pattern, y, tau, sigma, tau_w, neg_tau_w, sigma_y, sigma_eps,
                                      dual_scale, x_new, x_half, ax_new, ax_bar, lam_new, shift)
            )
    retire_iterate(np.arange(len(rows)), "max_iter")
    return reports


def _polish(a, y, eps, w, x, lam, tol):
    """Polish tries of some rows at one check, as (accepted, z, lam, residual)
    with one entry per row: the minimizer of the program restricted to the
    row's sign pattern, its multiplier and its pair residual (see the module
    docstring); where a row is not accepted its other entries are scratch.
    y, w, x and lam are (G, k) stacks of the trying rows.

    Rows are grouped by |F|, and a group makes one stacked call per step.
    Its A_F^T items are gathered rows of A^T, so their transposes are
    F-ordered like a[:, F], and the gram, A_F^T y, A_F z and the solve run
    the BLAS and LAPACK calls of a try on 1-D vectors, with the same bits
    (C-ordered A_F items would run gemv_n where the 1-D try runs gemv_t).
    """
    count, n = x.shape
    accepted = np.zeros(count, dtype=bool)
    z, lam_out, pair = np.zeros((count, n)), np.empty_like(lam), np.empty(count)
    free = (x != 0.0) | (w == 0.0)
    sizes = np.count_nonzero(free, axis=1)
    # a row with |F| > m is not tried
    for size in np.flatnonzero(np.bincount(sizes)[: a.shape[0] + 1]).tolist():
        rows = np.flatnonzero(sizes == size)
        fr = free[rows]
        a_ft = a.T[np.nonzero(fr)[1].reshape(rows.size, size)]  # (G, |F|, m), C-ordered
        gram = a_ft @ a_ft.transpose(0, 2, 1)
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            # the stacked call fails as a whole: keep the rows that factor
            keep = np.array([_factors(item) for item in gram])
            rows, fr, a_ft, gram = rows[keep], fr[keep], a_ft[keep], gram[keep]
            if not rows.size:
                continue
        a_f = a_ft.transpose(0, 2, 1)
        w_g, y_g, lam_g = w[rows], y[rows][:, :, None], lam[rows][:, :, None]
        w_f = w_g[fr].reshape(rows.size, size)
        c = w_f * np.sign(x[rows][fr].reshape(rows.size, size))
        # at eps = 0 the second column solves for the projection of lam
        second = c[:, :, None] if eps > 0.0 else c[:, :, None] + a_ft @ lam_g
        solution = np.linalg.solve(gram, np.concatenate((a_ft @ y_g, second), axis=2))
        z_f, g = solution[:, :, 0], solution[:, :, 1:]
        ok = True
        if eps > 0.0:
            fit = a_f @ solution[:, :, :1] - y_g
            q = np.vecdot(c, g[:, :, 0])
            r2 = np.vecdot(fit, fit, axis=1)[:, 0]
            ok = (q > 0.0) & (r2 < eps * eps)
            t = np.sqrt(eps * eps - r2) / np.sqrt(q)
            z_f = z_f - t[:, None] * g[:, :, 0]
        ok = ok & (w_f * np.sign(z_f) == c).all(axis=1)
        z_g = np.zeros((rows.size, n))
        z_g[fr] = z_f.reshape(-1)
        residual = a @ z_g[:, :, None] - y_g
        lam_g = residual / t[:, None, None] if eps > 0.0 else lam_g - a_f @ g
        v = (a.T @ lam_g)[:, :, 0]
        # the pair residual: |v + c| on F, |v| - w off it
        excess = np.abs(v)
        excess -= w_g
        excess[fr] = np.abs(v[fr] + c.reshape(-1))
        pair_g = excess.max(axis=1, initial=0.0)
        # written so that a NaN fails
        ok &= (_norms(residual)[:, 0, 0] - eps <= tol.feas_tol) & (pair_g <= tol.opt_tol)
        accepted[rows], z[rows], lam_out[rows], pair[rows] = ok, z_g, lam_g[:, :, 0], pair_g
    return accepted, z, lam_out, pair


def _factors(gram) -> bool:
    """Whether the Cholesky factorization of one matrix succeeds."""
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def kkt_check(problem: RecoveryProblem, x, lam) -> float:
    """First-order optimality residual of the pair (x, lam), 0 iff x is
    optimal with multiplier lam. It is the largest of:

    - stationarity: |A^T lam + w sign(x)| on the free set
      {x_i != 0} | {w_i = 0}, and (|A^T lam| - w)_+ off it;
    - infeasibility: (||Ax - y|| - eps)_+;
    - for lam != 0, the distance ||(Ax - y) - eps lam / ||lam|| || of the
      residual from the normal cone, relative to max(1, ||y||) as in the
      stop test.

    The check reads the pair it is given, such as a report's (x_star, dual),
    so it judges a solution independently of the solver that produced it.
    """
    x, lam = np.asarray(x, dtype=float), np.asarray(lam, dtype=float)
    for name, v, size in (("x", x, problem.matrix.n), ("lam", lam, problem.matrix.m)):
        if v.shape != (size,):
            raise InvalidInputError(f"{name} has shape {v.shape}, expected ({size},)")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError(f"{name} must be finite")
    a, w, eps = problem.matrix.entries, problem.weights, problem.epsilon
    residual = a @ x - problem.y
    v = a.T @ lam
    free = (x != 0.0) | (w == 0.0)
    terms = [float(np.where(free, np.abs(v + w * np.sign(x)), np.abs(v) - w).max()),
             float(np.linalg.norm(residual)) - eps]
    norm_lam = float(np.linalg.norm(lam))
    if norm_lam > 0.0:
        normal = float(np.linalg.norm(residual - eps / norm_lam * lam))
        terms.append(normal / max(1.0, float(np.linalg.norm(problem.y))))
    return max(0.0, *terms)


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
