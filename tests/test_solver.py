import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorcs import (
    InfeasibleProblemError,
    InvalidInputError,
    RecoveryProblem,
    SensingMatrix,
    SolveTolerances,
    cai_bound,
    GuaranteeParams,
    generate_matrix,
    kkt_check,
    solve_weighted_l1,
    solve_weighted_l1_batch,
)
import priorcs.polish as polish
import priorcs.solver as solver
from priorcs.experiments import load_config, run_verify_local
from priorcs.solver import POLISH_EVERY, operator_norm
from priorcs.tools import format_real, read_problem_text, write_matrix_text

from oracles import (
    min_weighted_l1_by_vertex_enumeration,
    polish_one,
    primal_dual_one_at_a_time,
    solve_l0_oracle,
)

SQRT2 = math.sqrt(2.0)


def tri_problem(weights, epsilon=0.0):
    s = 1.0 / SQRT2
    matrix = SensingMatrix.from_array(np.array([[1.0, 0.0, s], [0.0, 1.0, s]]))
    y = np.array([s, s])  # equals the third column
    return RecoveryProblem.create(matrix, y, epsilon, np.asarray(weights, dtype=float))


def report_bits(report):
    """Every field a solve decides, as exact bits."""
    return (report.x_star.tobytes(), report.dual.tobytes(), report.iterations,
            report.converged, struct.pack("<d", report.opt_residual), report.exit,
            report.polish_tries)


def objective(problem, report) -> float:
    """The weighted l1 norm of the report's x_star."""
    return float(np.sum(problem.weights * np.abs(report.x_star)))


def small_noiseless_problems(rng, count=20, m=4, n=8):
    """eps = 0 problems with random weights whose y is A times a 2-sparse x."""
    for _ in range(count):
        matrix = SensingMatrix.from_array(rng.standard_normal((m, n)))
        x = np.zeros(n)
        x[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
        yield RecoveryProblem.create(matrix, matrix.entries @ x, 0.0, rng.uniform(0.1, 1.0, size=n))


class TestOperatorNorm:
    def test_matches_svd(self):
        # the largest singular value is the root of the largest eigenvalue of A A^T
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((6, 11))
            expected = math.sqrt(np.linalg.eigvalsh(a @ a.T).max())
            assert operator_norm(a) == pytest.approx(expected, rel=1e-9)

    def test_planted_singular_values(self):
        rng = np.random.default_rng(1)
        for top in (0.5, 3.0, 40.0):
            q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            q2, _ = np.linalg.qr(rng.standard_normal((11, 6)))
            s = top * np.array([1.0, 0.9, 0.5, 0.1, 0.01, 0.0])
            assert operator_norm(q1 @ np.diag(s) @ q2.T) == pytest.approx(top, rel=1e-12)

    def test_identity_plus_orthobasis_is_sqrt2(self):
        a = generate_matrix("identity-plus-orthobasis", 32, 64, 0)
        assert operator_norm(a.entries) == pytest.approx(SQRT2, rel=1e-9)


class TestSolveWeightedL1:
    def test_identity_system(self, identity4):
        problem = RecoveryProblem.create(identity4, np.array([0.0, 2.0, 0.0, 0.0]), 0.0, np.ones(4))
        report = solve_weighted_l1(problem)
        assert report.converged
        assert np.allclose(report.x_star, [0.0, 2.0, 0.0, 0.0], atol=1e-8)
        assert problem.feasibility_residual(report.x_star) <= 1e-9

    def test_single_spike_beats_two_spike_vertex(self):
        problem = tri_problem(np.ones(3))
        report = solve_weighted_l1(problem)
        assert report.converged
        assert np.allclose(report.x_star, [0.0, 0.0, 1.0], atol=1e-7)
        assert objective(problem, report) == pytest.approx(1.0, abs=1e-7)

    def test_heavy_weight_flips_the_vertex(self):
        problem = tri_problem([1.0, 1.0, 10.0])
        report = solve_weighted_l1(problem)
        assert report.converged
        assert np.allclose(report.x_star, [1.0 / SQRT2, 1.0 / SQRT2, 0.0], atol=1e-7)
        assert objective(problem, report) == pytest.approx(SQRT2, abs=1e-7)

    def test_matches_vertex_enumeration_oracle(self):
        for problem in small_noiseless_problems(np.random.default_rng(12)):
            report = solve_weighted_l1(problem)
            assert report.converged
            best_value, _ = min_weighted_l1_by_vertex_enumeration(
                problem.matrix.entries, problem.y, problem.weights)
            assert objective(problem, report) == pytest.approx(best_value, rel=1e-7, abs=1e-9)

    def test_zero_instance(self, identity4):
        problem = RecoveryProblem.create(identity4, np.zeros(4), 0.0, np.ones(4))
        report = solve_weighted_l1(problem)
        assert report.converged
        assert np.array_equal(report.x_star, np.zeros(4))

    def test_infeasible_equality_raises(self):
        # both columns equal e1: nothing can reach y = e2
        rank_deficient = SensingMatrix.from_array(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InfeasibleProblemError):
            solve_weighted_l1(RecoveryProblem.create(rank_deficient, np.array([0.0, 1.0]), 0.0, np.ones(2)))

    def test_non_convergence_reported_not_raised(self):
        problem = tri_problem(np.ones(3))
        report = solve_weighted_l1(problem, SolveTolerances(max_iter=3))
        assert not report.converged
        assert report.iterations == 3
        assert report.exit == "max_iter"

    def test_the_last_iteration_runs_the_stop_test(self, identity4):
        # rows stop only at checks, except at max_iter: a zero instance is
        # optimal from iteration 1, and an unfinished row reports the
        # residual of its last iteration
        tol = SolveTolerances(max_iter=3)
        zero = RecoveryProblem.create(identity4, np.zeros(4), 0.0, np.ones(4))
        assert solve_weighted_l1(zero).iterations == POLISH_EVERY
        capped = solve_weighted_l1(zero, tol)
        assert (capped.iterations, capped.exit) == (3, "converged")
        for problem in (zero, tri_problem(np.ones(3))):
            report = solve_weighted_l1(problem, tol)
            x, lam, iterations, converged, opt_residual, exit, tries = primal_dual_one_at_a_time(
                problem.matrix.entries, problem.y, problem.epsilon, problem.weights, max_iter=3
            )
            assert report_bits(report) == (x.tobytes(), lam.tobytes(), iterations, converged,
                                           struct.pack("<d", opt_residual), exit, tries)
            assert math.isfinite(report.opt_residual)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3", None])
    def test_non_integer_max_iter_rejected(self, max_iter):
        with pytest.raises(InvalidInputError, match="max_iter must be an integer"):
            SolveTolerances(max_iter=max_iter)

    def test_replace_and_make_check_too(self):
        with pytest.raises(InvalidInputError, match="max_iter must be >= 0"):
            SolveTolerances()._replace(max_iter=-1)
        with pytest.raises(InvalidInputError, match="opt_tol must be finite"):
            SolveTolerances._make([0.0, 1e-9, 10])
        assert SolveTolerances()._replace(max_iter=5) == (1e-8, 1e-9, 5)

    def test_numpy_integer_max_iter_accepted(self):
        report = solve_weighted_l1(tri_problem(np.ones(3)), SolveTolerances(max_iter=np.int64(3)))
        assert report.iterations == 3

    def test_noise_ball_constraint_respected(self):
        rng = np.random.default_rng(5)
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        x = np.zeros(32)
        x[[4, 20]] = [1.0, -0.5]
        eps = 0.05
        noise = rng.standard_normal(16)
        noise *= eps / np.linalg.norm(noise)
        y = matrix.entries @ x + noise
        problem = RecoveryProblem.create(matrix, y, eps, np.ones(32))
        report = solve_weighted_l1(problem)
        assert report.converged
        assert problem.feasibility_residual(report.x_star) <= 1e-9
        assert np.linalg.norm(report.x_star - x) <= 0.5  # sane reconstruction

    def test_objective_nondecreasing_in_w(self):
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        rng = np.random.default_rng(8)
        x = np.zeros(32)
        x[[1, 9]] = rng.standard_normal(2)
        y = matrix.entries @ x
        values = []
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            weights = np.ones(32)
            weights[[1, 9, 15]] = w
            problem = RecoveryProblem.create(matrix, y, 0.0, weights)
            values.append(objective(problem, solve_weighted_l1(problem)))
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_scaling_equivariance(self):
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        rng = np.random.default_rng(13)
        x = np.zeros(32)
        x[[2, 17]] = rng.standard_normal(2)
        noise = rng.standard_normal(16)
        eps = 0.02
        noise *= eps / np.linalg.norm(noise)
        y = matrix.entries @ x + noise
        base = solve_weighted_l1(RecoveryProblem.create(matrix, y, eps, np.ones(32)))
        c = 3.7
        scaled = solve_weighted_l1(RecoveryProblem.create(matrix, c * y, c * eps, np.ones(32)))
        assert np.allclose(scaled.x_star, c * base.x_star, atol=1e-6)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("eps", [0.0, 0.02])
    def test_converged_means_kkt_small_at_any_scale(self, c, eps):
        # scaling y and eps by c moves the step ratio (||w|| / ||y||)^2 by 1/c^2,
        # six decades over this grid; the stop test must not depend on it
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        rng = np.random.default_rng(13)
        x = np.zeros(32)
        x[[2, 17]] = rng.standard_normal(2)
        noise = rng.standard_normal(16)
        noise *= eps / np.linalg.norm(noise)
        y = c * (matrix.entries @ x + noise)
        weights = np.ones(32)
        weights[[2, 5]] = 0.5
        problem = RecoveryProblem.create(matrix, y, c * eps, weights)
        report = solve_weighted_l1(problem)
        assert report.converged
        assert kkt_check(problem, report.x_star, report.dual) <= 1e-6

    def test_dual_certifies_the_returned_point(self):
        # the stop test reads residuals of the returned pair (x_star, dual), so
        # -A^T dual lies within opt_tol of the weighted l1 subdifferential
        rng = np.random.default_rng(4)
        matrix = generate_matrix("gaussian-normalized", 8, 16, 2)
        for _ in range(5):
            x = np.zeros(16)
            x[rng.choice(16, 2, replace=False)] = rng.standard_normal(2)
            weights = rng.uniform(0.1, 1.0, size=16)
            problem = RecoveryProblem.create(matrix, matrix.entries @ x, 0.0, weights)
            report = solve_weighted_l1(problem)
            assert report.converged
            assert kkt_check(problem, report.x_star, report.dual) <= 1e-8 + 1e-12  # opt_tol plus rounding

    def test_zero_weights_on_prior_support_solves_modified_problem(self, identity4):
        # min |x_{T^c}|_1 s.t. x = y: optimum keeps y inside T at zero cost
        y = np.array([1.0, -2.0, 0.0, 0.5])
        problem = RecoveryProblem.create(identity4, y, 0.0, np.array([0.0, 0.0, 1.0, 0.0]))
        report = solve_weighted_l1(problem)
        assert report.converged
        assert objective(problem, report) == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(report.x_star, y, atol=1e-8)

    def test_exact_recovery_in_guarantee_regime(self):
        # coherence 0.25 admits k < 2.5: plant k = 2 and recover exactly
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        assert cai_bound(GuaranteeParams(mu=matrix.mu, k=2)).valid
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = np.zeros(32)
            support = rng.choice(32, 2, replace=False)
            x[support] = rng.standard_normal(2)
            y = matrix.entries @ x
            report = solve_weighted_l1(RecoveryProblem.create(matrix, y, 0.0, np.ones(32)))
            assert report.converged
            assert np.allclose(report.x_star, x, atol=1e-6)

    def test_determinism(self):
        problem = tri_problem(np.ones(3))
        a = solve_weighted_l1(problem)
        b = solve_weighted_l1(problem)
        assert np.array_equal(a.x_star, b.x_star)
        assert a.iterations == b.iterations


class TestPolish:
    def test_single_spike_polishes_to_the_shrunk_spike_exactly(self, identity4):
        # min |x|_1 s.t. ||x - 2 e_2|| <= 0.5 is 1.5 e_2 with multiplier -e_2;
        # the loop's stop test cannot pass at opt_tol 1e-16 by the first
        # check, where the closed form lands with a zero pair residual
        problem = RecoveryProblem.create(identity4, np.array([0.0, 2.0, 0.0, 0.0]), 0.5, np.ones(4))
        report = solve_weighted_l1(problem, SolveTolerances(opt_tol=1e-16))
        assert (report.exit, report.iterations, report.polish_tries) == ("polished", POLISH_EVERY, 1)
        assert report.converged
        assert np.array_equal(report.x_star, [0.0, 1.5, 0.0, 0.0])
        assert np.array_equal(report.dual, [0.0, -1.0, 0.0, 0.0])
        assert report.opt_residual == 0.0

    def test_noiseless_zero_weight_prior_support_polishes(self):
        # w = 0 on T = supp(x): T must be free although its cost is zero
        matrix = generate_matrix("gaussian-normalized", 32, 64, 7)
        x = np.zeros(64)
        x[[3, 40]] = [1.2, -0.7]
        weights = np.ones(64)
        weights[[3, 40]] = 0.0
        problem = RecoveryProblem.create(matrix, matrix.entries @ x, 0.0, weights)
        report = solve_weighted_l1(problem)
        assert report.exit == "polished"
        assert np.abs(report.x_star - x).max() <= 1e-12
        cert = -(matrix.entries.T @ report.dual)
        assert np.abs(cert[[3, 40]]).max() <= 1e-8
        assert np.all(np.abs(cert) <= problem.weights + 1e-8)

    def test_zero_cost_pattern_is_left_to_the_loop(self):
        # eps > 0 and w = 0 on T = supp(x): c = 0, so the minimizer is not
        # unique and has no closed form; the settled pattern is tried once,
        # rejected, and never tried again
        rng = np.random.default_rng(5)
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        x = np.zeros(32)
        x[[4, 20]] = [1.0, -0.5]
        noise = rng.standard_normal(16)
        noise *= 0.05 / np.linalg.norm(noise)
        y = matrix.entries @ x + noise
        weights = np.ones(32)
        weights[[4, 20]] = 0.0
        report = solve_weighted_l1(RecoveryProblem.create(matrix, y, 0.05, weights))
        assert report.exit == "converged"
        assert report.iterations > 3 * POLISH_EVERY
        assert report.polish_tries == 1

    @staticmethod
    def noisy_polished_row():
        """A 32x64 Gaussian eps = 0.05 problem whose solve polishes onto the
        6 coordinates of its sign pattern, and the polish try's arguments for
        a given iterate."""
        matrix = generate_matrix("gaussian-normalized", 32, 64, 4)
        rng = np.random.default_rng(4)
        x, support = np.zeros(64), rng.choice(64, 3, replace=False)
        x[support] = rng.standard_normal(3) + np.sign(rng.standard_normal(3))
        noise = rng.standard_normal(32)
        noise *= 0.05 / np.linalg.norm(noise)
        y, weights = matrix.entries @ x + noise, np.ones(64)
        report = solve_weighted_l1(RecoveryProblem.create(matrix, y, 0.05, weights))
        assert report.exit == "polished"

        def args(iterate):
            return (matrix.entries, y[None], 0.05, weights[None], np.arange(1), iterate[None],
                    np.zeros((1, 32)), SolveTolerances())

        return np.sign(report.x_star), args

    @pytest.mark.parametrize("case", ["flipped", "missing"])
    def test_one_correction_reaches_the_right_pattern(self, case):
        # an iterate with one coordinate too many, which the closed form
        # flips, or one too few, which the off-F test adds back: one
        # correction step reaches the pattern of the solution, and the try
        # is accepted with the bits of a try from that pattern
        right, args = self.noisy_polished_row()
        iterate = right.copy()
        support = np.flatnonzero(right)
        if case == "flipped":
            iterate[np.flatnonzero(right == 0.0)[0]] = 1.0
        else:
            iterate[support[0]] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            *expected, steps = polish.try_polish(*args(right))
            *polished, corrections = polish.try_polish(*args(iterate))
        assert expected[0].all() and steps == 0
        assert corrections == 1
        assert [part.tobytes() for part in polished] == [part.tobytes() for part in expected]
        a, y, eps, w, _, x, lam, tol = args(iterate)
        point, made = polish_one(a, y[0], eps, w[0], x[0], lam[0], tol.opt_tol, tol.feas_tol)
        assert made == 1 and point[0].tobytes() == expected[1][0].tobytes()

    @pytest.mark.parametrize("overrides", [
        {"trials": "2"},
        {"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0", "trials": "20"},
        {"trials": "2", "m": "16", "n": "32", "k": "6"},
    ], ids=["default-eps0.05", "gauss32x64-eps0", "ipo16x32-k6"])
    def test_stacked_tries_match_the_one_row_oracle(self, monkeypatch, overrides):
        # every polish call of a verify run, row by row against polish_one:
        # the same verdict, the same bits where accepted, and the same count
        # of correction steps in all
        calls = []
        polish_call = solver.try_polish

        def spy(*args):
            # the stacks may be views of the loop's state, which moves on
            args = [np.array(arg) if isinstance(arg, np.ndarray) else arg for arg in args]
            result = polish_call(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(solver, "try_polish", spy)
        run_verify_local(load_config("verify-local", overrides=overrides))
        assert any(result[4] for _, result in calls)  # some try corrected its pattern
        for (a, y, eps, w, rows, x, lam, tol), (accepted, z, dual, pair, steps) in calls:
            outside = np.ones(len(x), dtype=bool)
            outside[rows] = False
            assert not accepted[outside].any()  # a live row that does not try is not accepted
            made = 0
            for i in rows.tolist():
                point, corrections = polish_one(a, y[i], eps, w[i], x[i], lam[i], tol.opt_tol,
                                                tol.feas_tol)
                made += corrections
                assert accepted[i] == (point is not None)
                if point is not None:
                    assert [part.tobytes() for part in (z[i], dual[i], pair[i])] == [
                        np.asarray(part).tobytes() for part in point]
            assert steps == made

    def test_free_sets_larger_than_m_are_not_tried(self, monkeypatch):
        # eps = 0 and dense signals: most rows free more than m coordinates,
        # whose gram is singular. They are screened before a try is counted,
        # so every try reaches the solve; counting them made 10,920 tries
        # here (when only settled patterns tried), of which 10,893 were
        # over-size.
        sizes = []
        polish = solver.try_polish

        def spy(a, y, eps, w, rows, x, lam, tol):
            sizes.extend(np.count_nonzero((x[rows] != 0.0) | (w[rows] == 0.0), axis=1).tolist())
            return polish(a, y, eps, w, rows, x, lam, tol)

        monkeypatch.setattr(solver, "try_polish", spy)
        timings = {}
        overrides = {"m": "32", "n": "64", "k": "4", "signal": "gaussian", "epsilon": "0", "trials": "1"}
        run_verify_local(load_config("verify-local", overrides=overrides), timings)
        assert max(sizes) <= 32
        assert timings["polish_tries"] == len(sizes) == 46

    def test_one_check_polishes_each_free_set_size_and_a_singular_row_fails_alone(self, monkeypatch):
        # column 21 of A duplicates column 7; the last two rows put zero
        # weight on both, so their free set always holds the pair and its
        # gram is singular. The other rows' signals have 3 or 2 nonzeros, so
        # a check tries free sets of both sizes, and a singular row can
        # share its size with rows that polish.
        a = generate_matrix("gaussian-normalized", 16, 32, 4).entries.copy()
        a[:, 21] = a[:, 7]
        matrix = SensingMatrix.from_array(a)
        rng = np.random.default_rng(8)
        pool = [i for i in range(32) if i not in (7, 21)]
        problems = []
        for size, singular in [(3, False)] * 3 + [(2, False)] * 3 + [(1, True)] * 2:
            x = np.zeros(32)
            x[rng.choice(pool, size, replace=False)] = rng.standard_normal(size)
            weights = np.ones(32)
            if singular:
                weights[[7, 21]] = 0.0
            problems.append(RecoveryProblem.create(matrix, a @ x, 0.0, weights))
        checks = []  # per polish call: each trying row's |F|, whether its gram is singular, accepted
        polish = solver.try_polish

        def spy(a, y, eps, w, rows, x, lam, tol):
            result = polish(a, y, eps, w, rows, x, lam, tol)
            free = (x[rows] != 0.0) | (w[rows] == 0.0)
            checks.append((free.sum(axis=1), free[:, 7] & free[:, 21], result[0][rows]))
            return result

        monkeypatch.setattr(solver, "try_polish", spy)
        tol = SolveTolerances(max_iter=300)
        reports = solve_weighted_l1_batch(problems, tol)
        assert any(
            len(set(sizes.tolist())) > 1
            and any(accepted[~singular & (sizes == size)].any() for size in sizes[singular])
            for sizes, singular, accepted in checks
        )
        assert [report.exit for report in reports] == ["polished"] * 6 + ["converged"] * 2
        for problem, report in zip(problems, reports):
            x, lam, iterations, converged, opt_residual, exit, tries = primal_dual_one_at_a_time(
                problem.matrix.entries, problem.y, problem.epsilon, problem.weights, max_iter=300
            )
            assert report_bits(report) == (x.tobytes(), lam.tobytes(), iterations, converged,
                                           struct.pack("<d", opt_residual), exit, tries)


class TestCertificate:
    def test_certified_reports_are_optimal_with_the_zero_multiplier(self):
        # w = 0 on T and y = A_T z + e with ||e|| < eps: every point of T
        # inside the noise ball costs 0. Noise just inside the ball leaves
        # the multiplier decaying slowly while x rests, which is what the
        # certificate ends; the rest of the draws stop on the stop test.
        certified = []

        @settings(max_examples=40, deadline=None)
        @given(st.integers(0, 2**32 - 1), st.integers(3, 8))
        def check(seed, m):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(m + 1, 2 * m + 1))
            matrix = generate_matrix("gaussian-normalized", m, n, seed)
            eps = float(rng.uniform(0.01, 1.0))
            problems = []
            for _ in range(8):
                t = rng.choice(n, int(rng.integers(1, max(2, m // 2))), replace=False)
                e = rng.standard_normal(m)
                e *= (1.0 - 10.0 ** -rng.uniform(1.0, 12.0)) * eps / np.linalg.norm(e)
                y = matrix.entries[:, t] @ rng.standard_normal(t.size) + e
                weights = np.ones(n)
                weights[t] = 0.0
                problems.append(RecoveryProblem.create(matrix, y, eps, weights))
            for problem, report in zip(problems, solve_weighted_l1_batch(problems)):
                assert report.converged
                if report.exit != "certified":
                    continue
                certified.append(report.iterations)
                assert report.iterations % POLISH_EVERY == 0
                assert (objective(problem, report), problem.feasibility_residual(report.x_star),
                        report.opt_residual) == (0.0, 0.0, 0.0)
                assert not report.dual.any()
                assert kkt_check(problem, report.x_star, report.dual) <= 1e-12

        check()
        assert len(certified) >= 10

    def test_an_infeasible_resting_iterate_is_not_certified(self):
        # the fit on T = {1} misses the noise ball: x_T comes to rest at a
        # zero-cost point while the multiplier grows, until it pushes a
        # weighted coordinate off 0
        matrix = generate_matrix("gaussian-normalized", 3, 6, 1)
        noise = np.random.default_rng(1).standard_normal(3)
        noise *= 0.15 / np.linalg.norm(noise)
        problem = RecoveryProblem.create(matrix, matrix.entries[:, 1] + noise, 0.1,
                                         np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]))
        report = solve_weighted_l1(problem)
        assert report.exit == "polished"
        assert objective(problem, report) > 1e-3
        assert kkt_check(problem, report.x_star, report.dual) <= 1e-9

    def test_noisy_benchmark_stragglers_rest_at_the_loop_limit(self, batch_solves):
        # the benchmark's verify-noisy config: trials 24 and 25 (rho = 1,
        # alpha = 1, w = 0) have zero-cost minimizers that are not unique.
        # Their iterates rest long before the multiplier decays, and the
        # resting point is, to one ulp, the one the loop returns when run to
        # convergence.
        run_verify_local(load_config("verify-local", overrides={"trials": "2"}))
        ((problems, reports),) = batch_solves
        for i in (24, 25):
            problem, report = problems[i], reports[i]
            assert report.exit == "certified"
            assert report.iterations <= 90
            args = (problem.matrix.entries, problem.y, problem.epsilon, problem.weights)
            x, lam, iterations, converged, opt_residual, exit, tries = primal_dual_one_at_a_time(*args)
            assert report_bits(report) == (x.tobytes(), lam.tobytes(), iterations, converged,
                                           struct.pack("<d", opt_residual), exit, tries)
            x, _, iterations, _, _, exit, _ = primal_dual_one_at_a_time(*args, certify=False)
            assert (exit, iterations > report.iterations) == ("converged", True)
            np.testing.assert_array_max_ulp(report.x_star, x, maxulp=1)


class TestBatch:
    @pytest.mark.parametrize("overrides, singular", [
        ({"trials": "2"}, False),
        ({"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0", "trials": "2"},
         False),
        # [I | H/4] has spark 8, so a polish try's free set can be dependent
        ({"trials": "2", "m": "16", "n": "32", "k": "6"}, True),
        # 300 rows: the ones past LIVE_ROWS are admitted at later checks
        ({"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0", "trials": "20"},
         False),
    ], ids=["default-eps0.05", "gauss32x64-eps0", "ipo16x32-k6", "gauss32x64-eps0-300"])
    def test_rows_do_not_depend_on_the_batch(self, batch_solves, monkeypatch, overrides, singular):
        run_verify_local(load_config("verify-local", overrides=overrides))
        ((problems, reports),) = batch_solves
        if len(problems) > solver.LIVE_ROWS:
            # the checked rows were admitted after the first wave
            problems, reports = problems[solver.LIVE_ROWS::5], reports[solver.LIVE_ROWS::5]
        else:
            problems, reports = problems[::5], reports[::5]  # spread over the (rho, alpha, w) grid
        solve, items = np.linalg.solve, []

        def spy(gram, rhs):
            # a 2-D call solves one item after the stacked polish solve raised
            items.append(np.ndim(gram) == 2)
            return solve(gram, rhs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", spy)
            alone = [report_bits(solve_weighted_l1(p)) for p in problems]
        assert any(items) == singular  # some checked row took the item-by-item solve
        assert len({bits[2] for bits in alone}) > 1  # rows retire at different iterations
        for problem, bits in zip(problems, alone):
            x, lam, iterations, converged, opt_residual, exit, tries = primal_dual_one_at_a_time(
                problem.matrix.entries, problem.y, problem.epsilon, problem.weights
            )
            assert bits == (x.tobytes(), lam.tobytes(), iterations, converged,
                            struct.pack("<d", opt_residual), exit, tries)
        assert [report_bits(r) for r in reports] == alone
        batch = solve_weighted_l1_batch(problems)
        assert [report_bits(r) for r in batch] == alone
        reversed_sub = problems[4:0:-1]
        assert [report_bits(r) for r in solve_weighted_l1_batch(reversed_sub)] == alone[4:0:-1]

    @staticmethod
    def traced_peak(monkeypatch, overrides):
        """(rows, n + m, traced peak above the memory at entry) of the batch
        solve a verify run makes."""
        peaks = []
        solve = solve_weighted_l1_batch

        def traced(problems, tolerances=None, timings=None):
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            try:
                return solve(problems, tolerances, timings)
            finally:
                peaks.append((len(problems), tracemalloc.get_traced_memory()[1] - entry))
                if not tracing:
                    tracemalloc.stop()

        with monkeypatch.context() as patch:
            patch.setattr("priorcs.experiments.solve_weighted_l1_batch", traced)
            cfg = load_config("verify-local", overrides=overrides)
            run_verify_local(cfg)
        [(batch, peak)] = peaks
        return batch, cfg.n + cfg.m, peak

    def test_default_verify_batch_holds_each_stack_once(self, monkeypatch):
        # The traced peak, in units of one double per row and coordinate of
        # x and y: at most 16 for each of the LIVE_ROWS rows the loop holds
        # (its stacks, each held once, and the polish tries read 14.7), and 4
        # for each problem (its input rows, its report's x and dual, and the
        # feasibility fit). The default batch reads 21.2 LIVE_ROWS units, or
        # 5.3 per problem; with every row in the loop at once it read 14.7
        # per problem.
        batch, width, peak = self.traced_peak(monkeypatch, {})
        assert batch == 510
        assert peak <= (16 * solver.LIVE_ROWS + 4 * batch) * width * 8

    def test_doubling_the_trials_adds_no_loop_stacks(self, monkeypatch):
        # 34 -> 68 trials adds 510 problems. The peak grows by their input
        # rows, reports and feasibility fit (2.8 units per added problem),
        # not by loop stacks, which would add 14.7 per problem.
        batch, width, peak = self.traced_peak(monkeypatch, {"trials": "34"})
        doubled, _, doubled_peak = self.traced_peak(monkeypatch, {"trials": "68"})
        assert doubled == 2 * batch > solver.LIVE_ROWS
        assert doubled_peak - peak <= 4 * batch * width * 8

    def test_iteration_cap_stops_exactly_the_unfinished_rows(self):
        # 4-sparse rows: most polish at the first check, one runs to 170
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        rng = np.random.default_rng(21)
        problems = [RecoveryProblem.create(matrix, np.zeros(16), 0.0, np.ones(32))]
        for _ in range(6):
            x = np.zeros(32)
            x[rng.choice(32, 4, replace=False)] = rng.standard_normal(4)
            problems.append(RecoveryProblem.create(matrix, matrix.entries @ x, 0.0, np.ones(32)))
        uncapped = [solve_weighted_l1(p).iterations for p in problems]
        cap = max(uncapped) - 1  # the zero row stops at once, the others later
        tol = SolveTolerances(max_iter=cap)
        reports = solve_weighted_l1_batch(problems, tol)
        unfinished = [it > cap for it in uncapped]
        assert 0 < sum(unfinished) < len(problems)
        for problem, report, late in zip(problems, reports, unfinished):
            assert report.converged is not late
            if late:
                assert report.iterations == cap
            assert report_bits(report) == report_bits(solve_weighted_l1(problem, tol))

    def test_rows_admitted_late_stop_at_their_own_iteration_cap(self):
        # twenty copies of a zero row and six sparse ones: the zero rows stop
        # at the first check, and the rows past LIVE_ROWS take their slots
        # there, so they run to the cap 10 iterations after the first wave
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        rng = np.random.default_rng(21)
        base = [RecoveryProblem.create(matrix, np.zeros(16), 0.0, np.ones(32))]
        for _ in range(6):
            x = np.zeros(32)
            x[rng.choice(32, 2, replace=False)] = rng.standard_normal(2)
            base.append(RecoveryProblem.create(matrix, matrix.entries @ x, 0.0, np.ones(32)))
        cap = max(solve_weighted_l1(p).iterations for p in base) - 1
        cap -= cap % POLISH_EVERY == 0  # the cap is not a check
        tol = SolveTolerances(max_iter=cap)
        alone = [report_bits(solve_weighted_l1(p, tol)) for p in base]
        problems = base * 20
        reports = solve_weighted_l1_batch(problems, tol)
        late = reports[solver.LIVE_ROWS:]
        assert {r.exit for r in late} >= {"max_iter", "converged"}
        assert [report_bits(r) for r in reports] == alone * 20

    def test_equal_matrices_may_be_distinct_objects(self):
        problems = [tri_problem(np.ones(3)), tri_problem([1.0, 1.0, 10.0])]
        assert problems[0].matrix is not problems[1].matrix
        reports = solve_weighted_l1_batch(problems)
        assert [report_bits(r) for r in reports] == [
            report_bits(solve_weighted_l1(p)) for p in problems
        ]

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_weighted_l1_batch([])

    def test_mixed_matrix_or_eps_rejected(self, identity4):
        base = RecoveryProblem.create(identity4, np.ones(4), 0.0, np.ones(4))
        flipped = SensingMatrix.from_array(np.eye(4)[::-1])
        with pytest.raises(InvalidInputError):
            solve_weighted_l1_batch([base, RecoveryProblem.create(flipped, np.ones(4), 0.0, np.ones(4))])
        with pytest.raises(InvalidInputError):
            solve_weighted_l1_batch([base, RecoveryProblem.create(identity4, np.ones(4), 0.1, np.ones(4))])

    def test_infeasible_row_is_named(self):
        # both columns equal e1: y = e2 is out of reach
        rank_deficient = SensingMatrix.from_array(np.array([[1.0, 1.0], [0.0, 0.0]]))
        problems = [
            RecoveryProblem.create(rank_deficient, np.array(y), 0.0, np.ones(2))
            for y in ([1.0, 0.0], [2.0, 0.0], [0.0, 1.0])
        ]
        with pytest.raises(InfeasibleProblemError, match="problem 2"):
            solve_weighted_l1_batch(problems)


class TestRecoveryProblemValidation:
    def test_shape_checks(self, identity4):
        with pytest.raises(InvalidInputError):
            RecoveryProblem.create(identity4, np.ones(3), 0.0, np.ones(4))
        with pytest.raises(InvalidInputError):
            RecoveryProblem.create(identity4, np.ones(4), 0.0, np.ones(5))
        with pytest.raises(InvalidInputError):
            RecoveryProblem.create(identity4, np.ones(4), -0.1, np.ones(4))
        with pytest.raises(InvalidInputError):
            RecoveryProblem.create(identity4, np.ones(4), 0.0, -np.ones(4))
        with pytest.raises(InvalidInputError, match="y and weights must be finite"):
            RecoveryProblem.create(identity4, np.array([1.0, np.nan, 0.0, 0.0]), 0.0, np.ones(4))


class TestL0Oracle:
    def test_zero_right_hand_side(self):
        x0, k0 = solve_l0_oracle(np.eye(4), np.zeros(4), 0.0, 2)
        assert k0 == 0
        assert np.array_equal(x0, np.zeros(4))

    def test_identity_single_spike(self):
        x0, k0 = solve_l0_oracle(np.eye(4), np.array([0.0, 2.0, 0.0, 0.0]), 0.0, 3)
        assert k0 == 1
        assert np.array_equal(x0, [0.0, 2.0, 0.0, 0.0])

    def test_tri_matrix_prefers_single_support(self):
        problem = tri_problem(np.ones(3))
        x0, k0 = solve_l0_oracle(problem.matrix.entries, problem.y, 0.0, 2)
        assert k0 == 1
        assert np.allclose(x0, [0.0, 0.0, 1.0], atol=1e-12)

    def test_lexicographic_tie_break(self):
        # duplicate columns: supports {0} and {1} fit equally well
        x0, k0 = solve_l0_oracle(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([3.0, 0.0]), 0.0, 2)
        assert k0 == 1
        assert x0[0] == pytest.approx(3.0)
        assert x0[1] == 0.0

    def test_rank_deficient_support_minimal_norm(self):
        x0, k0 = solve_l0_oracle(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([2.0, 0.0]), 0.0, 2)
        assert k0 == 1  # a single column already fits exactly

    def test_no_solution(self):
        wide = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
        assert solve_l0_oracle(wide, np.array([1.0, 1.0]), 0.0, 0) is None


class TestKktCheck:
    def test_converged_solution_passes(self):
        problem = tri_problem(np.ones(3))
        report = solve_weighted_l1(problem)
        assert kkt_check(problem, report.x_star, report.dual) <= 1e-8

    def test_perturbed_point_fails(self):
        # feasible ascent direction from the optimal vertex: the objective
        # grows, and the optimal multiplier no longer certifies the point
        problem = tri_problem(np.ones(3))
        report = solve_weighted_l1(problem)
        direction = np.array([-1.0 / SQRT2, -1.0 / SQRT2, 1.0])
        perturbed = np.array([0.0, 0.0, 1.0]) + 1e-2 * direction
        assert np.linalg.norm(problem.matrix.entries @ perturbed - problem.y) <= 1e-12
        assert kkt_check(problem, perturbed, report.dual) > 1e-4

    def test_reports_certify_and_a_nudged_multiplier_fails(self):
        # soundness: each report's pair certifies a point of minimum
        # objective; power: the same multiplier moved by 1e-3 does not
        rng = np.random.default_rng(31)
        for problem in small_noiseless_problems(rng):
            report = solve_weighted_l1(problem)
            assert kkt_check(problem, report.x_star, report.dual) <= 1e-9
            best_value, _ = min_weighted_l1_by_vertex_enumeration(
                problem.matrix.entries, problem.y, problem.weights)
            assert objective(problem, report) == pytest.approx(best_value, abs=1e-8)
            nudge = rng.standard_normal(problem.matrix.m)
            nudge *= 1e-3 / np.linalg.norm(nudge)
            assert kkt_check(problem, report.x_star, report.dual + nudge) > 1e-5

    def test_unconstrained_feasible_optimum(self, identity4):
        # A = I: lam = -sign(y) on the support, and |lam_i| <= 1 off it
        y = np.array([1.0, -2.0, 0.0, 0.5])
        problem = RecoveryProblem.create(identity4, y, 0.0, np.ones(4))
        assert kkt_check(problem, y, np.array([-1.0, 1.0, 0.0, -1.0])) == 0.0
        assert kkt_check(problem, y, np.array([-1.0, 1.0, 0.0, 0.0])) == 1.0  # x_4 unbalanced
        assert kkt_check(problem, y, np.array([-1.0, 1.0, 1.5, -1.0])) == 0.5  # |lam_3| > w_3

    def test_slack_ball_requires_zero_subgradient(self, identity4):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        problem = RecoveryProblem.create(identity4, y, 2.0, np.ones(4))
        assert kkt_check(problem, np.zeros(4), np.zeros(4)) == 0.0  # x = 0 feasible and optimal
        # staying at y is not optimal: the zero multiplier leaves its
        # subgradient unbalanced, and the multiplier that balances it needs
        # A y - y = 0 on the ball's boundary, at distance eps = 2
        assert kkt_check(problem, y, np.zeros(4)) == 1.0
        assert kkt_check(problem, y, np.array([-1.0, 0.0, 0.0, 0.0])) == 2.0

    def test_active_ball_shrunk_point_passes(self, identity4):
        y = np.array([2.0, 0.0, 0.0, 0.0])
        problem = RecoveryProblem.create(identity4, y, 0.5, np.ones(4))
        report = solve_weighted_l1(problem)
        assert report.converged
        assert np.allclose(report.x_star, [1.5, 0.0, 0.0, 0.0], atol=1e-8)
        assert kkt_check(problem, report.x_star, report.dual) <= 1e-8
        # by hand: A x - y = (-0.5, 0, 0, 0) lies along lam = (-1, 0, 0, 0)
        lam = np.array([-1.0, 0.0, 0.0, 0.0])
        assert kkt_check(problem, np.array([1.5, 0.0, 0.0, 0.0]), lam) == 0.0
        # half that multiplier balances half the subgradient
        assert kkt_check(problem, np.array([1.5, 0.0, 0.0, 0.0]), lam / 2.0) == 0.5
        # outside the ball, by 0.5
        assert kkt_check(problem, np.array([1.0, 0.0, 0.0, 0.0]), lam) == 0.5
        # inside it, a nonzero multiplier misses the normal cone by 0.25,
        # read relative to ||y|| = 2
        assert kkt_check(problem, np.array([1.75, 0.0, 0.0, 0.0]), lam) == 0.125

    def test_input_validation(self):
        problem = tri_problem(np.ones(3))  # x has 3 entries and lam 2
        for x, lam in [(np.zeros(2), np.zeros(2)), (np.zeros(3), np.zeros(3)),
                       (np.zeros(3), np.zeros((2, 1))), (np.array([np.nan, 0.0, 0.0]), np.zeros(2)),
                       (np.zeros(3), np.array([np.inf, 0.0]))]:
            with pytest.raises(InvalidInputError):
                kkt_check(problem, x, lam)


def write_problem_text(problem):
    """The problem in the text format read_problem_text reads."""
    return "\n".join([
        "MATRIX", write_matrix_text(problem.matrix).rstrip("\n"),
        "VECTOR", " ".join(format_real(v) for v in problem.y),
        "EPSILON", format_real(problem.epsilon),
        "WEIGHTS", " ".join(format_real(v) for v in problem.weights),
    ]) + "\n"


class TestProblemFiles:
    def test_round_trip(self):
        problem = tri_problem([1.0, 0.5, 0.25], epsilon=0.125)
        again = read_problem_text(write_problem_text(problem))
        assert np.array_equal(problem.matrix.entries, again.matrix.entries)
        assert np.array_equal(problem.y, again.y)
        assert np.array_equal(problem.weights, again.weights)
        assert problem.epsilon == again.epsilon

    def test_missing_section(self):
        with pytest.raises(InvalidInputError):
            read_problem_text("MATRIX\n1 1\n1.0\nVECTOR\n1.0\nEPSILON\n0.0\n")
        with pytest.raises(InvalidInputError, match="malformed numeric section in problem text"):
            read_problem_text("MATRIX\n1 1\n1.0\nVECTOR\none\nEPSILON\n0.0\nWEIGHTS\n1.0\n")

    def test_sections_in_any_order(self):
        text = write_problem_text(tri_problem(np.ones(3)))
        lines = text.strip().split("\n")
        eps_at = lines.index("EPSILON")
        reordered = "\n".join(lines[eps_at:eps_at + 2] + lines[:eps_at] + lines[eps_at + 2:])
        problem = read_problem_text(reordered)
        assert problem.epsilon == 0.0
