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

An iteration is the stacked formulas

    ax_bar = 2 ax - ax_prev,  shift = lam + sigma ax_bar - sigma y   (ax = A x)
    lam+ = shift max(0, 1 - sigma eps / ||shift||),  x_half = x - tau A^T lam+
    x+ = x_half - max(min(x_half, tau w), -tau w)   (soft threshold)

with each row's tau and sigma a (B, 1, 1) stack. Retiring rows leave every
stack by arr[keep], which stays C-contiguous and so runs the same BLAS
calls; reports copy their rows out. The feasibility test's (n, B)
least-squares fit is dropped before the loop.

At most LIVE_ROWS rows are live (continuous batching, as in Orca, OSDI
2022). The step sizes, dual_scale and the feasibility test are computed once
for every problem; the first LIVE_ROWS problems start, and at each check the
next ones in problem order join the end of the stacks (np.concatenate),
each starting as a lone solve does. A row admitted at iteration s reports
its iterations from s and stops at s + max_iter; admissions fall on checks,
so every row's checks stay aligned.

A row can stop only at a check, every POLISH_EVERY iterations, or at its
last iteration (PDLP too evaluates its termination criteria periodically,
arXiv:2105.12715), so the other iterations build no residual; at a last
iteration that is no check, the stop test judges only the rows it ends.

At a check, the stop test runs first. Then a row whose iterate is 0
wherever w > 0, feasible, and unchanged since the previous check retires
"certified": its objective is 0, so it is optimal, with the zero multiplier
and a pair residual of 0. That is the case of a zero-cost minimizer that is
not unique (w = 0 on the support), where the iterate comes to rest long
before its multiplier decays to 0; waiting for the rest returns the very
point the loop would stop at. Then every other live row tries to polish
(OSQP's solution polishing, arXiv:1711.08013), starting from its iterate's
sign pattern. With the free set F = {x_i != 0} | {w_i = 0} and the costs
c = w_F sign(x_F) held, the program is min c^T z s.t. ||A_F z - y|| <= eps,
whose minimizer is closed form: z_ls - t G^-1 c with G = A_F^T A_F, z_ls the
least-squares fit, residual r and t = sqrt(eps^2 - r^2) / sqrt(c^T G^-1 c),
multiplier (A_F z - y) / t; at eps = 0 it is z_ls, and the multiplier is
the row's lam projected onto A_F^T lam = -c. The point is accepted only if
it keeps the signs, is feasible, and certifies itself: the pair residual
max(||A_F^T lam + c||_inf, max_{j not in F} (|A_j^T lam| - w_j)_+) is at
most opt_tol. Otherwise the try corrects its pattern and solves again, up to
polish.STEPS times, the active-set method of Osborne, Presnell & Turlach
(IMA J. Numer. Anal. 2000) warm-started from the iterate: a point that
flips signs drops those coordinates from F, and a point that keeps them but
fails the off-F test adds the most violated j, with the sign -sign(A_j^T
lam), while |F| < m. A correction back to the pattern solved one step
before the last ends the try, which would cycle. A polished row retires at
once, so most rows stop at their first check. At eps > 0 a try depends on
its starting pattern alone, so a rejected pattern is not tried again; a
free set larger than m, whose gram is singular, is not tried at all; rows
with c = 0 (all of F at zero weight) never polish and are left to the stop
test and the certificate. The rows that try at one check (polish.try_polish) run
in rounds, and a round groups its rows by |F|: each group is one stacked
gram, LU solve and gemv per product, whose items are the calls of a lone
try, bit for bit, so the batch contract holds. The solve alone tests
singularity: a row whose gram it finds singular gets a NaN point and fails
alone.

kkt_check reads the first-order residual of a given pair (x, lam), such as
a report's (x_star, dual), which is thus its own certificate. It is defined
in ``tools`` and resolves here on first access (PEP 562).
"""

from __future__ import annotations

import itertools
import math
import numbers
from time import perf_counter
from typing import NamedTuple

import numpy as np

from . import MAX_ITER
from .errors import InfeasibleProblemError, InvalidInputError
from .matrices import SensingMatrix
from .polish import try_polish

# iterations between two checks (the stop test, certificate and polish tries)
POLISH_EVERY = 10

# rows the batch loop holds at once; the other problems wait for a check
LIVE_ROWS = 128

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

    exit is one of EXITS: "polished" (the closed-form minimizer of a sign
    pattern, the iterate's as corrected), "certified" (a zero-cost iterate at
    rest, with dual = 0), "converged" (the loop's stop test) or "max_iter"
    (converged is False).
    opt_residual is the pair's first-order residual, 0 when certified.
    A report holds only what the solve knows; x_star's objective and
    feasibility residual are the problem's to score.
    """

    __slots__ = ("x_star", "iterations", "converged", "opt_residual", "dual", "exit",
                 "polish_tries")

    def __init__(self, x_star: np.ndarray, iterations: int, converged: bool, opt_residual: float,
                 dual: np.ndarray, exit: str, polish_tries: int):
        self.x_star = x_star
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
    stacked calls, a row leaves the batch at the first check where it
    stops, and at most LIVE_ROWS rows are live, the others waiting for a
    freed slot at a check. An empty list, or problems with different
    matrices or eps, raise InvalidInputError; a row that no x can satisfy
    raises InfeasibleProblemError naming its index. If timings is a dict, the wall
    seconds of the polish tries go to its polish_s, their correction steps to
    its polish_steps, and the iterations the loop ran to its loop_iterations.
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

    # every problem's data, under names the loop never rebinds: the loop's
    # stacks of its live rows take the singular names (y, w, tau, ...)
    ys = np.array([p.y for p in problems])
    all_y = ys[:, :, None]
    norm_y = _norms(all_y)
    all_dual_scale = np.maximum(1.0, norm_y)
    # the (n, B) least-squares fit is dropped as soon as its residuals are read
    min_residual = _norms(a @ np.linalg.lstsq(a, ys.T, rcond=None)[0].T[:, :, None] - all_y)[:, 0, 0]
    bad = np.flatnonzero(min_residual > eps + np.maximum(tol.feas_tol, 1e-8 * all_dual_scale[:, 0, 0]))
    if bad.size:
        i = int(bad[0])
        where = f"problem {i}: " if len(problems) > 1 else ""
        raise InfeasibleProblemError(
            f"{where}no x satisfies ||Ax - y|| <= {eps} (best achievable {min_residual[i]:.3e})"
        )

    m, n = a.shape
    clock = {} if timings is None else timings
    clock.update(polish_s=0.0, polish_steps=0)
    norm_a = operator_norm(a)
    step = 0.99 / norm_a if norm_a > 0.0 else 1.0
    all_w = np.array([p.weights for p in problems])[:, :, None]
    batch = len(problems)
    # max_iter = 0 runs no iteration, so every row is live at once
    slots = batch if batch <= LIVE_ROWS or not tol.max_iter else LIVE_ROWS
    start = np.zeros(batch, dtype=np.intp)  # per problem, the iteration it was admitted at
    reports = [None] * batch
    iterations = 0
    # polish state, per problem: the tries made and the starting patterns
    # rejected; at eps = 0 a try also reads lam, so a pattern may be retried
    tries = np.zeros(batch, dtype=np.intp)
    rejected = [set() for _ in range(batch)]
    still = {}  # per problem, its zero-cost iterate at the last check

    def admit(first, count):
        """The state stacks of problems first.. first + count - 1, as a lone solve starts."""
        span = slice(first, first + count)
        start[span] = iterations
        w, y, tau, sigma = all_w[span], all_y[span], all_tau[span], all_sigma[span]
        return [np.arange(first, first + count), np.zeros((count, n, 1)),
                *(np.zeros((count, m, 1)) for _ in range(3)),
                w, y, tau, sigma, tau * w, sigma * y, sigma * eps, all_dual_scale[span]]

    def retire(live, x_rows, lam_rows, residuals, exit):
        # reports for the live rows `live` at the (G, n) points x_rows
        residuals = residuals.tolist()
        finished = rows[live]
        steps = (iterations - start[finished]).tolist()
        made = tries[finished].tolist()
        for j, i in enumerate(finished.tolist()):
            reports[i] = SolveReport(
                x_star=x_rows[j],
                iterations=steps[j],
                converged=exit != "max_iter",
                opt_residual=residuals[j],
                dual=lam_rows[j],
                exit=exit,
                polish_tries=made[j],
            )

    def retire_iterate(live, exit):
        retire(live, x[live, :, 0], lam[live, :, 0], opt_residual[live, 0, 0], exit)

    # y = 0 or w = 0 leaves 0/0 in omega, which np.where drops; shift = 0
    # leaves sigma_eps/0, which fmax maps to a zero multiplier
    with np.errstate(divide="ignore", invalid="ignore"):
        norm_w = _norms(all_w)
        scale_y = np.where(norm_y > eps, norm_y - eps, norm_y)
        omega = np.where((norm_w > 0.0) & (scale_y > 0.0), norm_w / scale_y, 1.0)
        all_tau, all_sigma = step / omega, step * omega

        rows, x, ax, ax_prev, lam, w, y, tau, sigma, tau_w, sigma_y, sigma_eps, dual_scale = admit(0, slots)
        admitted = slots  # problems admitted so far, in order
        if not tol.max_iter:  # the unconverged start
            opt_residual = np.full((slots, 1, 1), math.inf)
            retire_iterate(rows, "max_iter")
            clock["loop_iterations"] = 0
            return reports
        last = tol.max_iter  # the earliest iteration that is some live row's last

        for iterations in itertools.count(1):
            ax_bar = 2.0 * ax - ax_prev
            shift = lam + sigma * ax_bar - sigma_y
            lam_new = shift * np.fmax(0.0, 1.0 - sigma_eps / _norms(shift))
            x_half = x - tau * (a.T @ lam_new)
            x_new = x_half - np.maximum(np.minimum(x_half, tau_w), -tau_w)  # soft threshold
            ax_new = a @ x_new

            # The stop test runs at each check and at a live row's last
            # iteration, on the pair (x_new, lam_new) that is returned:
            # (x - x_new) / tau lies in the subdifferential of ||.||_{1,w} at
            # x_new plus A^T lam_new, and (lam - lam_new) / sigma + (ax_bar -
            # ax_new) in that of the noise-ball support function at lam_new
            # minus A x_new.
            check = iterations % POLISH_EVERY == 0
            stop = check or iterations == last
            if stop:
                opt_residual = np.maximum(_norms((x - x_new) / tau),
                                          _norms((lam - lam_new) / sigma + (ax_bar - ax_new)) / dual_scale)
            x, ax_prev, ax, lam = x_new, ax, ax_new, lam_new
            if not stop:
                continue
            feasible = (_norms(ax - y) - eps <= tol.feas_tol)[:, 0, 0]
            done = (opt_residual[:, 0, 0] <= tol.opt_tol) & feasible
            if iterations == last:
                ending = start[rows] == iterations - tol.max_iter
                if not check:
                    done &= ending
            retire_iterate(np.flatnonzero(done), "converged")
            if check:
                positive = w > 0.0
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
                # a free set larger than m has a singular gram, so it is not
                # tried; |F| is the nonzero signs in latest plus the w = 0
                free = n + np.count_nonzero(latest, axis=(1, 2))
                free -= np.count_nonzero(positive, axis=(1, 2))
                trying = np.flatnonzero((free <= m) & ~done)
                if eps > 0.0:
                    keys = [latest[i].tobytes() for i in trying.tolist()]
                    fresh = [key not in rejected[i] for key, i in zip(keys, rows[trying].tolist())]
                    trying, keys = trying[fresh], list(itertools.compress(keys, fresh))
                tries[rows[trying]] += 1
                if trying.size:
                    started = perf_counter()
                    accepted, *point, steps = try_polish(a, y[:, :, 0], eps, w[:, :, 0], trying,
                                                         x[:, :, 0], lam[:, :, 0], tol)
                    clock["polish_s"] += perf_counter() - started
                    clock["polish_steps"] += steps
                    live = np.flatnonzero(accepted)
                    done |= accepted
                    retire(live, *(part[live] for part in point), "polished")
                    if eps > 0.0:
                        failed = ~accepted[trying]
                        for i, key in zip(rows[trying[failed]].tolist(), itertools.compress(keys, failed)):
                            rejected[i].add(key)
            if iterations == last:
                ending &= ~done
                retire_iterate(np.flatnonzero(ending), "max_iter")
                done |= ending
            # retired rows leave every stack; at a check, waiting problems
            # join the end, so the rows stay in problem order
            state = [rows, x, ax, ax_prev, lam, w, y, tau, sigma, tau_w, sigma_y, sigma_eps, dual_scale]
            if done.any():
                if done.all() and admitted == batch:
                    clock["loop_iterations"] = iterations
                    return reports
                keep = np.flatnonzero(~done)
                state = [arr[keep] for arr in state]
            new = min(batch - admitted, slots - len(state[0])) if check else 0
            if new:
                state = [np.concatenate(pair) for pair in zip(state, admit(admitted, new))]
                admitted += new
            rows, x, ax, ax_prev, lam, w, y, tau, sigma, tau_w, sigma_y, sigma_eps, dual_scale = state
            if rows.size:
                last = int(start[rows[0]]) + tol.max_iter


def __getattr__(name):
    # kkt_check is defined in tools, which verify does not load; this keeps
    # solver.kkt_check and "from priorcs.solver import kkt_check" working
    if name == "kkt_check":
        from .tools import kkt_check

        return kkt_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
