import math
import struct

import numpy as np
import pytest

from priorcs import (
    BudgetExceededError,
    InfeasibleProblemError,
    InvalidInputError,
    NoSparseSolutionError,
    RecoveryProblem,
    SensingMatrix,
    SolveTolerances,
    cai_bound,
    GuaranteeParams,
    generate_matrix,
    kkt_check,
    solve_l0_oracle,
    solve_weighted_l1,
    solve_weighted_l1_batch,
)
from priorcs.experiments import load_config, run_verify_local
from priorcs.solver import operator_norm, read_problem_text, write_problem_text

from oracles import min_weighted_l1_by_vertex_enumeration, primal_dual_one_at_a_time

SQRT2 = math.sqrt(2.0)


def tri_problem(weights, epsilon=0.0):
    s = 1.0 / SQRT2
    matrix = SensingMatrix.from_array(np.array([[1.0, 0.0, s], [0.0, 1.0, s]]))
    y = np.array([s, s])  # equals the third column
    return RecoveryProblem.create(matrix, y, epsilon, np.asarray(weights, dtype=float))


def report_bits(report):
    """Every field a solve decides, as exact bits."""
    return (report.x_star.tobytes(), report.dual.tobytes(), report.iterations,
            report.converged, struct.pack("<d", report.opt_residual))


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
        assert report.feasibility_residual <= 1e-9

    def test_single_spike_beats_two_spike_vertex(self):
        report = solve_weighted_l1(tri_problem(np.ones(3)))
        assert report.converged
        assert np.allclose(report.x_star, [0.0, 0.0, 1.0], atol=1e-7)
        assert report.objective == pytest.approx(1.0, abs=1e-7)

    def test_heavy_weight_flips_the_vertex(self):
        report = solve_weighted_l1(tri_problem([1.0, 1.0, 10.0]))
        assert report.converged
        assert np.allclose(report.x_star, [1.0 / SQRT2, 1.0 / SQRT2, 0.0], atol=1e-7)
        assert report.objective == pytest.approx(SQRT2, abs=1e-7)

    def test_matches_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            m, n = 4, 8
            matrix = SensingMatrix.from_array(rng.standard_normal((m, n)))
            x = np.zeros(n)
            support = rng.choice(n, 2, replace=False)
            x[support] = rng.standard_normal(2)
            y = matrix.entries @ x
            weights = rng.uniform(0.1, 1.0, size=n)
            problem = RecoveryProblem.create(matrix, y, 0.0, weights)
            report = solve_weighted_l1(problem)
            assert report.converged
            best_value, _ = min_weighted_l1_by_vertex_enumeration(matrix.entries, y, weights)
            assert report.objective == pytest.approx(best_value, rel=1e-7, abs=1e-9)

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
        assert report.feasibility_residual <= 1e-9
        assert np.linalg.norm(report.x_star - x) <= 0.5  # sane reconstruction

    def test_objective_nondecreasing_in_w(self):
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        rng = np.random.default_rng(8)
        x = np.zeros(32)
        x[[1, 9]] = rng.standard_normal(2)
        y = matrix.entries @ x
        t = (1, 9, 15)
        values = []
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            problem = RecoveryProblem.with_prior_support(matrix, y, 0.0, t, w)
            values.append(solve_weighted_l1(problem).objective)
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
        problem = RecoveryProblem.with_prior_support(matrix, y, c * eps, (2, 5), 0.5)
        report = solve_weighted_l1(problem)
        assert report.converged
        assert kkt_check(problem, report.x_star) <= 1e-6

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
            cert = -(matrix.entries.T @ report.dual)
            active = report.x_star != 0.0
            bound = 1e-8 + 1e-12  # opt_tol plus rounding
            assert np.all(np.abs(cert - weights * np.sign(report.x_star))[active] <= bound)
            assert np.all(np.abs(cert[~active]) <= weights[~active] + bound)

    def test_w1_identical_for_any_prior_support(self):
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        x = np.zeros(32)
        x[[3, 30]] = [0.7, -0.2]
        y = matrix.entries @ x
        a = solve_weighted_l1(RecoveryProblem.with_prior_support(matrix, y, 0.0, (0, 1), 1.0))
        b = solve_weighted_l1(RecoveryProblem.with_prior_support(matrix, y, 0.0, (5, 9, 12), 1.0))
        assert np.array_equal(a.x_star, b.x_star)  # identical program, identical run

    def test_zero_weights_on_prior_support_solves_modified_problem(self, identity4):
        # min |x_{T^c}|_1 s.t. x = y: optimum keeps y inside T at zero cost
        y = np.array([1.0, -2.0, 0.0, 0.5])
        problem = RecoveryProblem.with_prior_support(identity4, y, 0.0, (0, 1, 3), 0.0)
        report = solve_weighted_l1(problem)
        assert report.converged
        assert report.objective == pytest.approx(0.0, abs=1e-10)
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


class TestBatch:
    @pytest.mark.parametrize("overrides", [
        {"trials": "2"},
        {"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0", "trials": "2"},
    ], ids=["default-eps0.05", "gauss32x64-eps0"])
    def test_rows_do_not_depend_on_the_batch(self, batch_solves, overrides):
        run_verify_local(load_config("verify-local", overrides=overrides))
        problems = batch_solves[-1][0][::5]  # six rows spread over the (rho, alpha, w) grid
        alone = [report_bits(solve_weighted_l1(p)) for p in problems]
        assert len({bits[2] for bits in alone}) > 1  # rows retire at different iterations
        for problem, bits in zip(problems, alone):
            x, lam, iterations, converged, opt_residual = primal_dual_one_at_a_time(
                problem.matrix.entries, problem.y, problem.epsilon, problem.weights
            )
            assert bits == (x.tobytes(), lam.tobytes(), iterations, converged,
                            struct.pack("<d", opt_residual))
        assert [report_bits(r) for r in solve_weighted_l1_batch(problems)] == alone
        reversed_sub = problems[4:0:-1]
        assert [report_bits(r) for r in solve_weighted_l1_batch(reversed_sub)] == alone[4:0:-1]

    def test_iteration_cap_stops_exactly_the_unfinished_rows(self):
        matrix = generate_matrix("identity-plus-orthobasis", 16, 32, 3)
        rng = np.random.default_rng(21)
        problems = [RecoveryProblem.create(matrix, np.zeros(16), 0.0, np.ones(32))]
        for _ in range(6):
            x = np.zeros(32)
            x[rng.choice(32, 2, replace=False)] = rng.standard_normal(2)
            problems.append(RecoveryProblem.create(matrix, matrix.entries @ x, 0.0, np.ones(32)))
        uncapped = [solve_weighted_l1(p).iterations for p in problems]
        cap = sorted(uncapped)[3]
        tol = SolveTolerances(max_iter=cap)
        reports = solve_weighted_l1_batch(problems, tol)
        unfinished = [it > cap for it in uncapped]
        assert 0 < sum(unfinished) < len(problems)
        for problem, report, late in zip(problems, reports, unfinished):
            assert report.converged is not late
            if late:
                assert report.iterations == cap
            assert report_bits(report) == report_bits(solve_weighted_l1(problem, tol))

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

    def test_prior_support_weights(self, identity4):
        problem = RecoveryProblem.with_prior_support(identity4, np.zeros(4), 0.0, (1, 3), 0.25)
        assert np.array_equal(problem.weights, [1.0, 0.25, 1.0, 0.25])
        with pytest.raises(InvalidInputError):
            RecoveryProblem.with_prior_support(identity4, np.zeros(4), 0.0, (1,), 1.5)
        with pytest.raises(InvalidInputError):
            RecoveryProblem.with_prior_support(identity4, np.zeros(4), 0.0, (9,), 0.5)


class TestL0Oracle:
    def test_zero_right_hand_side(self, identity4):
        problem = RecoveryProblem.create(identity4, np.zeros(4), 0.0, np.ones(4))
        x0, k0 = solve_l0_oracle(problem, 2)
        assert k0 == 0
        assert np.array_equal(x0, np.zeros(4))

    def test_identity_single_spike(self, identity4):
        problem = RecoveryProblem.create(identity4, np.array([0.0, 2.0, 0.0, 0.0]), 0.0, np.ones(4))
        x0, k0 = solve_l0_oracle(problem, 3)
        assert k0 == 1
        assert np.array_equal(x0, [0.0, 2.0, 0.0, 0.0])

    def test_tri_matrix_prefers_single_support(self):
        x0, k0 = solve_l0_oracle(tri_problem(np.ones(3)), 2)
        assert k0 == 1
        assert np.allclose(x0, [0.0, 0.0, 1.0], atol=1e-12)

    def test_lexicographic_tie_break(self):
        # duplicate columns: supports {0} and {1} fit equally well
        matrix = SensingMatrix.from_array(np.array([[1.0, 1.0], [0.0, 0.0]]))
        problem = RecoveryProblem.create(matrix, np.array([3.0, 0.0]), 0.0, np.ones(2))
        x0, k0 = solve_l0_oracle(problem, 2)
        assert k0 == 1
        assert x0[0] == pytest.approx(3.0)
        assert x0[1] == 0.0

    def test_rank_deficient_support_minimal_norm(self):
        matrix = SensingMatrix.from_array(np.array([[1.0, 1.0], [0.0, 0.0]]))
        problem = RecoveryProblem.create(matrix, np.array([2.0, 0.0]), 0.0, np.ones(2))
        x0, k0 = solve_l0_oracle(problem, 2)
        assert k0 == 1  # a single column already fits exactly

    def test_no_solution(self):
        wide = SensingMatrix.from_array(np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]]))
        problem = RecoveryProblem.create(wide, np.array([1.0, 1.0]), 0.0, np.ones(2))
        with pytest.raises(NoSparseSolutionError):
            solve_l0_oracle(problem, 0)

    def test_budget(self):
        matrix = generate_matrix("gaussian-normalized", 8, 15, 0)
        problem = RecoveryProblem.create(matrix, np.zeros(8), 0.0, np.ones(15))
        with pytest.raises(BudgetExceededError):
            solve_l0_oracle(problem, 2)
        small = generate_matrix("gaussian-normalized", 8, 14, 0)
        with pytest.raises(BudgetExceededError):
            solve_l0_oracle(RecoveryProblem.create(small, np.zeros(8), 0.0, np.ones(14)), 6)


class TestKktCheck:
    def test_converged_solution_passes(self):
        problem = tri_problem(np.ones(3))
        report = solve_weighted_l1(problem)
        assert kkt_check(problem, report.x_star) <= 1e-8

    def test_perturbed_point_fails(self):
        # feasible ascent direction from the optimal vertex: objective grows,
        # and the certificate cannot be completed
        problem = tri_problem(np.ones(3))
        direction = np.array([-1.0 / SQRT2, -1.0 / SQRT2, 1.0])
        perturbed = np.array([0.0, 0.0, 1.0]) + 1e-2 * direction
        assert np.linalg.norm(problem.matrix.entries @ perturbed - problem.y) <= 1e-12
        assert kkt_check(problem, perturbed) > 1e-4

    def test_unconstrained_feasible_optimum(self, identity4):
        y = np.array([1.0, -2.0, 0.0, 0.5])
        problem = RecoveryProblem.create(identity4, y, 0.0, np.ones(4))
        assert kkt_check(problem, y) <= 1e-12

    def test_slack_ball_requires_zero_subgradient(self, identity4):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        problem = RecoveryProblem.create(identity4, y, 2.0, np.ones(4))
        assert kkt_check(problem, np.zeros(4)) == 0.0  # x = 0 feasible and optimal
        assert kkt_check(problem, y) > 0.5  # staying at y is not optimal

    def test_active_ball_shrunk_point_passes(self, identity4):
        y = np.array([2.0, 0.0, 0.0, 0.0])
        problem = RecoveryProblem.create(identity4, y, 0.5, np.ones(4))
        report = solve_weighted_l1(problem)
        assert report.converged
        assert np.allclose(report.x_star, [1.5, 0.0, 0.0, 0.0], atol=1e-8)
        assert kkt_check(problem, report.x_star) <= 1e-8

    def test_input_validation(self, identity4):
        problem = RecoveryProblem.create(identity4, np.zeros(4), 0.0, np.ones(4))
        with pytest.raises(InvalidInputError):
            kkt_check(problem, np.zeros(3))
        with pytest.raises(InvalidInputError):
            kkt_check(problem, np.array([np.nan, 0.0, 0.0, 0.0]))


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

    def test_sections_in_any_order(self):
        text = write_problem_text(tri_problem(np.ones(3)))
        lines = text.strip().split("\n")
        eps_at = lines.index("EPSILON")
        reordered = "\n".join(lines[eps_at:eps_at + 2] + lines[:eps_at] + lines[eps_at + 2:])
        problem = read_problem_text(reordered)
        assert problem.epsilon == 0.0
