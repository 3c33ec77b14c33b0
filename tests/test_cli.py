import csv
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import priorcs
from priorcs import generate_matrix
from priorcs.cli import main
from priorcs.experiments import SIGNAL_KINDS
from priorcs.tools import format_real, read_matrix_file, write_matrix_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenMatrixAndAnalyze:
    def test_gen_and_analyze(self, tmp_path, capsys):
        path = tmp_path / "a.mat"
        code, out, _ = run_cli(capsys, "gen-matrix", "--kind", "identity-plus-orthobasis",
                               "--m", "16", "--n", "32", "--seed", "0", "--out", str(path))
        assert code == 0
        assert "coherence=0.25" in out
        code, out, _ = run_cli(capsys, "analyze", "--matrix", str(path), "--k", "2")
        assert code == 0
        assert "m=16" in out and "n=32" in out
        assert "coherence=0.25" in out
        assert "delta_coherence_bound=0.25" in out
        assert "delta_exact=" not in out  # n = 32 is beyond the exact budget

    def test_analyze_exact_within_budget(self, tmp_path, capsys):
        path = tmp_path / "b.mat"
        run_cli(capsys, "gen-matrix", "--kind", "gaussian-normalized",
                "--m", "6", "--n", "10", "--seed", "1", "--out", str(path))
        code, out, _ = run_cli(capsys, "analyze", "--matrix", str(path), "--k", "2")
        assert code == 0
        assert "delta_exact=" in out
        assert "theta_exact=" in out

    def test_explicit_pass_through(self, tmp_path, capsys):
        src = tmp_path / "src.mat"
        src.write_text("2 3\n3.0 0.0 1.0\n0.0 2.0 1.0\n")
        out_path = tmp_path / "normalized.mat"
        code, _, _ = run_cli(capsys, "gen-matrix", "--kind", "explicit", "--m", "2", "--n", "3",
                             "--in", str(src), "--out", str(out_path))
        assert code == 0
        matrix = read_matrix_file(out_path)
        assert np.allclose(np.linalg.norm(matrix.entries, axis=0), 1.0)

    def test_entries_for_a_generated_kind_exit_2(self, tmp_path, capsys):
        src = tmp_path / "src.mat"
        src.write_text("2 4\n1.0 0.0 1.0 1.0\n0.0 1.0 1.0 -1.0\n")
        out_path = tmp_path / "out.mat"
        code, out, err = run_cli(capsys, "gen-matrix", "--kind", "gaussian-normalized",
                                 "--m", "2", "--n", "4", "--in", str(src), "--out", str(out_path))
        assert code == 2
        assert err == "error: gaussian-normalized matrices are generated; " \
                      "only the explicit kind takes entries\n"
        assert out == "" and not out_path.exists()

    def test_failed_coherence_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "src.mat"
        src.write_text("1 1\n2.0\n")
        out_path = tmp_path / "out.mat"
        code, out, err = run_cli(capsys, "gen-matrix", "--kind", "explicit", "--m", "1", "--n", "1",
                                 "--in", str(src), "--out", str(out_path))
        assert code == 2
        assert err == "error: coherence needs at least 2 columns\n"
        assert out == "" and not out_path.exists()

    def test_bad_kind_combination_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen-matrix", "--kind", "identity-plus-orthobasis",
                               "--m", "12", "--n", "24", "--out", str(tmp_path / "x.mat"))
        assert code == 2
        assert "power of two" in err


def write_problem_file(path, matrix, y, epsilon, weights):
    path.write_text("MATRIX\n" + write_matrix_text(matrix)
                    + "VECTOR\n" + " ".join(format_real(v) for v in y)
                    + f"\nEPSILON\n{format_real(epsilon)}\nWEIGHTS\n"
                    + " ".join(format_real(v) for v in weights) + "\n")
    return path


def write_noisy_problem(tmp_path):
    """An 8x16 eps = 0.05 problem with a 3-sparse signal and two half weights."""
    matrix = generate_matrix("gaussian-normalized", 8, 16, 3)
    x = np.zeros(16)
    x[[1, 9, 12]] = [1.0, -0.5, 0.25]
    noise = np.random.default_rng(3).standard_normal(8)
    noise *= 0.05 / np.linalg.norm(noise)
    weights = np.ones(16)
    weights[[1, 4]] = 0.5
    return write_problem_file(tmp_path / "noisy.txt", matrix, matrix.entries @ x + noise, 0.05, weights)


def write_small_problem(tmp_path):
    """A 2x3 noiseless problem whose weighted l1 minimizer is (0, 0, 1)."""
    s = 1.0 / math.sqrt(2.0)
    problem = tmp_path / "p.txt"
    problem.write_text(
        "MATRIX\n2 3\n"
        f"1.0 0.0 {s!r}\n0.0 1.0 {s!r}\n"
        f"VECTOR\n{s!r} {s!r}\n"
        "EPSILON\n0.0\n"
        "WEIGHTS\n1.0 1.0 1.0\n"
    )
    return problem


class TestSolveCommand:
    def test_solve_problem_file(self, tmp_path, capsys):
        problem = write_small_problem(tmp_path)
        code, out, _ = run_cli(capsys, "solve", "--problem", str(problem))
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["converged"] == "true"
        assert lines["exit"] in ("polished", "converged")
        x = [float(v) for v in lines["x_star"].split(",")]
        assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-6)
        assert float(lines["objective"]) == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= float(lines["kkt_residual"]) <= 1e-8

    @pytest.mark.parametrize("flag, message", [
        ("--opt-tol=nan", "opt_tol must be finite and > 0, got nan"),
        ("--opt-tol=-1", "opt_tol must be finite and > 0, got -1.0"),
        ("--opt-tol=0", "opt_tol must be finite and > 0, got 0.0"),
        ("--opt-tol=inf", "opt_tol must be finite and > 0, got inf"),
        ("--feas-tol=nan", "feas_tol must be finite and >= 0, got nan"),
        ("--feas-tol=-1e-9", "feas_tol must be finite and >= 0, got -1e-09"),
        ("--max-iter=-3", "max_iter must be >= 0, got -3"),
    ], ids=["opt-nan", "opt-negative", "opt-zero", "opt-inf", "feas-nan", "feas-negative",
            "max-iter-negative"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, flag, message):
        code, out, err = run_cli(capsys, "solve", "--problem", str(write_small_problem(tmp_path)), flag)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_zero_cost_resting_point_is_certified(self, tmp_path, capsys):
        # w = 0 on T = {2, 7} and noise just inside the ball: the iterate
        # rests at a zero-cost point while the multiplier is still decaying
        matrix = generate_matrix("gaussian-normalized", 6, 12, 0)
        noise = np.random.default_rng(0).standard_normal(6)
        noise *= 0.099 / np.linalg.norm(noise)
        y = matrix.entries[:, [2, 7]] @ np.array([1.0, -0.5]) + noise
        weights = np.ones(12)
        weights[[2, 7]] = 0.0
        problem = write_problem_file(tmp_path / "p.txt", matrix, y, 0.1, weights)
        code, out, _ = run_cli(capsys, "solve", "--problem", str(problem))
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert (lines["exit"], lines["converged"], lines["objective"], lines["feasibility_residual"],
                lines["opt_residual"], lines["kkt_residual"]) == (
            "certified", "true", "0.0", "0.0", "0.0", "0.0")
        x = np.array([float(v) for v in lines["x_star"].split(",")])
        assert np.count_nonzero(x) == 2 and x[2] != 0.0 and x[7] != 0.0

    def test_zero_iterations_report_the_unconverged_start(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem", str(write_small_problem(tmp_path)),
                               "--max-iter", "0")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert (lines["x_star"], lines["iterations"], lines["converged"], lines["exit"],
                lines["opt_residual"]) == ("0.0,0.0,0.0", "0", "false", "max_iter", "inf")
        # the zero pair is optimal but for its infeasibility, ||y|| - eps
        problem = priorcs.read_problem_file(write_small_problem(tmp_path))
        assert float(lines["kkt_residual"]) == np.linalg.norm(problem.y) - problem.epsilon

    # sha256 of the whole stdout, every x_star entry and score to the bit
    @pytest.mark.parametrize("write, flags, digest", [
        (write_noisy_problem, (), "3aa8a0162e24a41514845bbcfb4c2e59e9bf32d665a1326ebb7d9ce866fc386c"),
        (write_small_problem, (), "22fe6936d7b525ad3daac8e723a9b98c101f2fd08ae917bf121987165a6ef625"),
        (write_small_problem, ("--max-iter", "0"),
         "06fc424b00444d46383cc7a9b6a4216e39d9c3fc7b7e5ca37f86780aedd0a771"),
    ], ids=["polished-eps0.05", "eps0", "max-iter-0"])
    def test_stdout_is_pinned(self, tmp_path, capsys, write, flags, digest):
        code, out, err = run_cli(capsys, "solve", "--problem", str(write(tmp_path)), *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_missing_section_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("MATRIX\n1 1\n1.0\n")
        code, _, err = run_cli(capsys, "solve", "--problem", str(bad))
        assert code == 2
        assert "missing" in err


class TestBoundsCommand:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "4",
                               "--rho", "0.5", "--w", "0", "--theorem", "local")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theorem,c0,c1,k_max,valid,reason"
        cells = lines[1].split(",")
        assert cells[0] == "local"
        assert float(cells[1]) == pytest.approx(2.3306863292670034, abs=1e-9)
        assert float(cells[2]) == pytest.approx(0.31426968052735446, abs=1e-9)
        assert float(cells[3]) == 22.0
        assert cells[4] == "true"

    def test_all_theorems(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "2",
                               "--rho", "1", "--alpha", "1", "--w", "1", "--theorem", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["local", "cai", "haixiao", "friedlander", "chen", "ge"]
        fr = lines[4].split(",")
        assert fr[4] == "false"  # w = 1 sits in the invalid friedlander region

    def test_explicit_isometry_constants(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "2", "--rho", "1",
                               "--alpha", "1", "--w", "1", "--t", "2",
                               "--delta-tk", "0", "--theorem", "ge")
        assert code == 0
        c0 = float(out.strip().splitlines()[1].split(",")[1])
        assert c0 == pytest.approx(2 * math.sqrt(2.0), abs=1e-9)

    def test_constants_of_one_theorem_leave_the_others_on_the_coherence_scale(self, capsys):
        base = ("bounds", "--mu", "0.1", "--k", "2", "--rho", "1", "--alpha", "1", "--w", "0.5")
        _, plain, _ = run_cli(capsys, *base)
        code, out, _ = run_cli(capsys, *base, "--t", "2", "--delta-tk", "0")
        assert code == 0
        assert out.splitlines()[:6] == plain.splitlines()[:6]
        ge = out.splitlines()[6].split(",")
        assert ge[0] == "ge" and float(ge[1]) == pytest.approx(2 * math.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("theorem, flags", [
        ("chen", ("--delta-a", "0.9")),
        ("friedlander", ("--a", "2", "--delta-a1k", "0.2")),
        ("all", ("--delta-ak", "0.1")),
        ("friedlander", ("--delta-ak", "0.1")),
    ])
    def test_partial_constant_set_exits_2_before_any_row(self, capsys, theorem, flags):
        code, out, err = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "2", "--rho", "1",
                                 "--alpha", "1", "--w", "0.5", "--theorem", theorem, *flags)
        assert code == 2
        assert out == ""  # no header without its rows
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "missing" in line

    @pytest.mark.parametrize("flags, message", [
        (("--theorem", "chen", "--b", "inf"), "b must be finite"),
        (("--theorem", "chen", "--b", "nan"), "b must be finite"),
        (("--theorem", "friedlander", "--a", "inf", "--delta-ak", "0.1", "--delta-a1k", "0.2"),
         "a must be finite"),
        (("--theorem", "friedlander", "--a", "0"), "a must be > 1"),
        (("--theorem", "all", "--a", "0"), "a must be > 1"),
        (("--theorem", "ge", "--t", "nan"), "t must be finite"),
    ], ids=["chen-b-inf", "chen-b-nan", "friedlander-a-inf", "friedlander-a-0", "all-a-0",
            "ge-t-nan"])
    def test_bad_free_constant_exits_2(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "2", *flags)
        assert code == 2
        assert out == ""  # no header without its rows
        (line,) = err.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("flags", [
        ("--delta-a", "nan", "--theta-ab", "0.1"),
        ("--delta-a", "0.1", "--theta-ab", "inf"),
        ("--delta-a=-inf", "--theta-ab", "0.1"),
        ("--delta-a", "0.1", "--theta-ab=-inf"),
    ], ids=["delta-nan", "theta-inf", "delta-minus-inf", "theta-minus-inf"])
    def test_non_finite_chen_constant_exits_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "2", "--theorem", "chen",
                                 "--a", "1", "--b", "1", *flags)
        assert code == 2
        assert out == ""  # no header without its rows
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "must be finite and >= 0" in line

    def test_chen_constant_of_one_or_more_is_an_invalid_row(self, capsys):
        # the coherence substitution reaches delta_a >= 1 at larger k*mu, so
        # an explicit delta_a >= 1 is a failed premise, not an input error
        code, out, _ = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "2", "--theorem", "chen",
                               "--a", "1", "--b", "1", "--delta-a", "1.5", "--theta-ab", "0.1")
        assert code == 0
        assert out.splitlines()[1].startswith("chen,") and ",false,premise fails" in out


    def test_overlap_just_above_one_gives_the_rows_of_overlap_one(self, capsys):
        # alpha*rho may exceed 1 by 1e-9; the spread 1 + rho - 2*alpha*rho then
        # rounds below 0 and is clamped, so the globals that read it match rho = 1
        base = ("bounds", "--mu", "0.1", "--k", "2", "--alpha", "1", "--w", "0.5")
        _, at_one, _ = run_cli(capsys, *base, "--rho", "1")
        code, above, err = run_cli(capsys, *base, "--rho", "1.0000000005")
        assert code == 0 and err == ""
        expected = at_one.splitlines()[3:]
        assert [line.split(",")[0] for line in expected] == ["haixiao", "friedlander", "chen", "ge"]
        assert above.splitlines()[3:] == expected
        for line in expected:
            _, c0, c1, _, valid, _ = line.split(",")
            assert math.isfinite(float(c0)) and math.isfinite(float(c1)) and valid == "true"


def test_main_leaves_numpy_error_state_alone(tmp_path, capsys):
    with np.errstate(all="warn"):
        before = np.geterr()
        assert main(["bounds", "--mu", "0.1", "--k", "2"]) == 0
        assert main(["fig4", "-o", "w_grid=0,1", "--out-dir", str(tmp_path)]) == 0
        assert np.geterr() == before


class TestExperimentCommands:
    def test_fig1_writes_outputs(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "fig1", "--out-dir", str(tmp_path),
                               "-o", "w_grid=0,0.5,1", "-o", "rho_list=0.5")
        assert code == 0
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1_c0_rho0.5.svg").exists()

    def test_fig3_assertion_hook_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "fig3", "--out-dir", str(tmp_path),
                               "-o", "w_grid=0,0.5,1", "-o", "alpha_list=0,0.5,1")
        assert code == 0
        assert "k-ratios > 1" in out

    def test_fig3_ratio_at_or_below_one_exits_3(self, tmp_path, capsys):
        # a prior support of size 4k puts the local cap below cai's
        code, out, err = run_cli(capsys, "fig3", "--out-dir", str(tmp_path), "-o", "rho_list=4",
                                 "-o", "alpha_list=0", "-o", "w_grid=1")
        assert code == 3
        assert err.splitlines()[1:] == [
            f"assertion failed: {label} ratio 0.675186 <= 1 at rho=4.0 alpha=0.0 w=1.0"
            for label in ("standard", "weighted")]
        assert "k-ratios" not in out
        assert (tmp_path / "fig3.csv").exists()

    def test_verify_fails_a_bound_just_below_its_own_worst_ratio(self, tmp_path, capsys,
                                                                   monkeypatch):
        """The gate trips once c0 and c1 shrink below the run's largest
        lhs/rhs, and passes just above it; the failure names the violating
        trials."""
        argv = ("verify", "--out-dir", str(tmp_path), "-o", "trials=1", "-o", "rho_list=1",
                "-o", "w_grid=0.5")
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        with open(tmp_path / "verify.csv", newline="") as fh:
            ratios = [float(row["lhs"]) / float(row["rhs"]) for row in csv.DictReader(fh)
                      if row["converged"] == row["premise_k"] == row["premise_d"] == "true"]
        worst = max(ratios)
        assert len(ratios) == 3 and worst > 0.0
        local_bound = priorcs.bounds.local_bound
        for factor, expected in ((0.99, 3), (1.01, 0)):
            def scaled(p, s=factor * worst):
                res = local_bound(p)
                return res._replace(c0=res.c0 * s, c1=res.c1 * s)

            monkeypatch.setattr(priorcs.bounds, "local_bound", scaled)
            code, out, err = run_cli(capsys, *argv)
            assert code == expected
            violated = "assertion failed: local bound violated on converged trials: "
            lines = [line for line in err.splitlines() if line.startswith(violated)]
            assert len(lines) == (expected == 3)
            assert ("violations=0" in out) == (expected == 0)
            if expected == 3:
                with open(tmp_path / "verify.csv", newline="") as fh:
                    rows = [row for row in csv.DictReader(fh) if row["violation"] == "true"]
                named = re.findall(r"trial (\d+) \(rho=(\S+), alpha=(\S+), w=(\S+), "
                                   r"lhs=(\S+), rhs=(\S+)\)", lines[0])
                assert rows and len(named) == len(rows) <= 5
                for (trial, *values), row in zip(named, rows):
                    assert trial == row["trial"]
                    expect = [float(row[c]) for c in ("rho", "alpha", "w", "lhs", "rhs")]
                    assert [float(v) for v in values] == pytest.approx(expect, rel=1e-8)
                    assert float(values[3]) > float(values[4])

    def test_verify_small_run(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--out-dir", str(tmp_path),
            "-o", "m=16", "-o", "n=32", "-o", "trials=2",
            "-o", "rho_list=1", "-o", "w_grid=0,1", "-o", "seed=5",
        )
        assert code == 0
        assert "violations=0" in out
        assert (tmp_path / "verify.csv").exists()
        assert (tmp_path / "verify_summary.csv").exists()
        # solve statistics go to stderr, one line, never into stdout or the CSVs
        (line,) = err.splitlines()
        match = re.fullmatch(
            r"verify: 12 solves in one batch, iterations p50=\d+ p90=\d+ max=(\d+), "
            r"exits polished=(\d+) certified=(\d+) converged=(\d+) max_iter=0, "
            r"polish tries (\d+) \(\d+ steps\), "
            r"max lhs/rhs (\S+) at trial (\d+), "
            r"draw \d+\.\d{3} s, solve (\d+\.\d{3}) s \(polish (\d+\.\d{3}) s, "
            r"\d+\.\d us per loop iteration\), "
            r"tabulate \d+\.\d{3} s", line
        )
        assert match
        with open(tmp_path / "verify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert int(match.group(1)) == max(int(row["iterations"]) for row in rows)
        polished, certified, converged, tries = map(int, match.group(2, 3, 4, 5))
        assert polished + certified + converged == 12 and tries >= polished
        # the largest lhs/rhs over converged trials whose premises hold and whose rhs > 0
        judged = {int(row["trial"]): float(row["lhs"]) / float(row["rhs"]) for row in rows
                  if row["converged"] == row["premise_k"] == row["premise_d"] == "true"
                  and float(row["rhs"]) > 0.0}
        worst = max(judged, key=judged.get)
        assert int(match.group(7)) == worst
        assert float(match.group(6)) == pytest.approx(judged[worst], rel=1e-5)
        assert float(match.group(9)) <= float(match.group(8))  # the tries are part of the solve
        assert "solves" not in out

    def test_verify_nonconverged_exits_3(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--out-dir", str(tmp_path),
            "-o", "m=16", "-o", "n=32", "-o", "trials=1",
            "-o", "rho_list=1", "-o", "w_grid=0.5", "-o", "seed=5", "-o", "max_iter=3",
        )
        assert code == 3
        assert "converged=0" in out
        assert ", max lhs/rhs n/a, " in err.splitlines()[0]  # no converged trial to judge
        assert err.splitlines()[-1] == (
            "assertion failed: 3 trial(s) did not converge: "
            "trial 0 (rho=1, alpha=0, w=0.5, 3 iterations), trial 1 (rho=1, alpha=0.5, w=0.5, "
            "3 iterations), trial 2 (rho=1, alpha=1, w=0.5, 3 iterations)"
        )
        assert (tmp_path / "verify.csv").exists()
        # past five trials the line names the first five and counts the rest
        code, _, err = run_cli(capsys, "verify", "--out-dir", str(tmp_path), "-o", "m=16", "-o", "n=32",
                               "-o", "trials=2", "-o", "seed=5", "-o", "max_iter=3")
        assert code == 3
        last = err.splitlines()[-1]
        assert last.startswith("assertion failed: 30 trial(s) did not converge: trial 0 (rho=0.5, ")
        assert last.count("iterations)") == 5 and last.endswith(", and 25 more")

    def test_verify_survives_dependent_polish_free_sets(self, tmp_path, capsys):
        # [I | H/4] has spark 8: some polish tries meet a singular gram,
        # which the stacked LU solve once raised out of the command
        code, out, _ = run_cli(capsys, "verify", "--out-dir", str(tmp_path), "-o", "trials=2",
                               "-o", "m=16", "-o", "n=32", "-o", "k=6")
        assert code == 0
        assert "trials=66 converged=66 nonconverged=0 violations=0" in out

    def test_valid_verify_configs_exit_0_or_3(self, tmp_path, capsys):
        """Small verify runs over matrix size, sparsity, signal and noise: each
        exits 0 or 3, or reports a package error; no other exception escapes."""
        @settings(max_examples=20, deadline=None)
        @given(st.sampled_from((8, 16, 32)), st.data(), st.sampled_from(SIGNAL_KINDS),
               st.one_of(st.just(0.0), st.floats(0.001, 0.2)))
        def check(m, data, signal, eps):
            k = 2 * data.draw(st.integers(1, m // 4))  # an odd k makes rho = 0.5 a config error
            code, _, err = run_cli(capsys, "verify", "--out-dir", str(tmp_path), "-o", f"m={m}",
                                   "-o", f"n={2 * m}", "-o", f"k={k}", "-o", f"signal={signal}",
                                   "-o", f"epsilon={eps!r}", "-o", "trials=1")
            assert code in (0, 3) or (code in (1, 2) and err.splitlines()[-1].startswith("error: "))

        check()

    def test_verify_converges_when_y_is_mostly_noise(self, tmp_path, capsys):
        # ||y|| is about 1e5 + 1 at eps = 1e5: a step ratio taken from ||y||
        # instead of ||y|| - eps left two of the three solves at x = 0
        # through all 200,000 iterations
        code, out, _ = run_cli(capsys, "verify", "--out-dir", str(tmp_path), "-o", "trials=1",
                               "-o", "epsilon=1e5", "-o", "rho_list=1", "-o", "w_grid=0.5")
        assert code == 0
        assert "trials=3 converged=3 nonconverged=0 violations=0" in out
        with open(tmp_path / "verify.csv", newline="") as fh:
            assert max(int(row["iterations"]) for row in csv.DictReader(fh)) <= 500

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fig1", "--out-dir", str(tmp_path), "-o", "sigma=1")
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.parametrize("command, override", [
        ("fig1", "rho_list=nan"),
        ("fig1", "rho_list=inf"),
        ("fig2", "rho_list=nan"),
        ("fig2", "seed=-1"),
        ("verify", "seed=-1"),
        ("verify", "epsilon=nan"),
        ("verify", "max_iter=0"),
        ("verify", "max_iter=-1"),
        ("fig4", "w_step=nan"),
        ("fig4", "w_step=0"),
        ("fig1", "w_step=5e-324"),
        ("fig4", "rho_list=0.5,1"),
        ("fig4", "alpha_list=0.5,1"),
        ("fig1", "rho_list=1,1"),
        ("fig3", "alpha_list=0.5,0,0.5"),
        ("fig2", "w_grid=0,-0"),
        ("fig1", "rho_list=0.5,0.5000001"),  # both panels would be named _rho0.5
        ("fig3", "rho_list=0.5,0.5000001"),
        ("fig1", "foo"),
        ("fig1", "--config={tmp}/missing.cfg"),
        ("fig1", "alpha_list=1.5"),
        ("fig4", "w_grid="),
        ("fig2", "rho_list=0.5,1"),  # fig2 draws one prior support size
        # rho*k overflows to inf
        ("fig1", "rho_list=1e308"),
        ("fig2", "rho_list=1e308"),
        ("verify", "rho_list=1e308"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, command, override):
        small = ("-o", "m=16", "-o", "n=32", "-o", "trials=1", "-o", "w_grid=0.5")
        # a flag in place of an override, as --flag=value
        args = (override.format(tmp=tmp_path),) if override.startswith("--") else ("-o", override)
        code, out, err = run_cli(capsys, command, "--out-dir", str(tmp_path), *args,
                                 *(small if command == "verify" else ()))
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error: ")
        assert out == "" and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["fig1", "fig3", "fig4"])
    def test_k_beyond_a_float_exits_2(self, tmp_path, capsys, command):
        code, out, err = run_cli(capsys, command, "--out-dir", str(tmp_path),
                                 "-o", "k=1" + "0" * 400, "-o", "w_grid=0.5")
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error: k must be at most")
        assert out == "" and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["fig2", "verify"])
    def test_alphas_of_one_overlap_exit_2(self, tmp_path, capsys, command):
        # both alphas pass the integer-overlap check and realize the same overlap
        code, out, err = run_cli(capsys, command, "--out-dir", str(tmp_path),
                                 "-o", "alpha_list=0.5,0.5000000001", "-o", "rho_list=1",
                                 "-o", "trials=1", "-o", "w_grid=0.5")
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error: alpha=0.5 and alpha=0.5000000001 realize the same overlap")
        assert out == "" and os.listdir(tmp_path) == []

    def test_fig3_non_positive_baseline_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "fig3", "--out-dir", str(tmp_path),
                                 "-o", "rho_list=1e17", "-o", "alpha_list=0")
        assert code == 2
        assert err == "error: baseline k_max must be positive, got 0.0\n"
        assert out == "" and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("key", ["noise_scale", "violation_tol", "rho"])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, key):
        code, _, err = run_cli(capsys, "verify", "--out-dir", str(tmp_path), "-o", f"{key}=0.5")
        assert code == 2
        assert "unknown config key" in err

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mu=0\n")
        code, _, _ = run_cli(capsys, "fig1", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2

    def test_out_dir_naming_a_file_exits_1(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code, out, err = run_cli(capsys, "fig4", "--out-dir", str(target))
        assert code == 1
        (line,) = err.splitlines()
        assert line.startswith("error: ")
        assert out == "" and target.read_text() == ""

    def test_auto_alpha_list_is_the_default(self, tmp_path, capsys):
        for sub, extra in (("a", ()), ("b", ("-o", "alpha_list=auto"))):
            code, _, _ = run_cli(capsys, "fig2", "--out-dir", str(tmp_path / sub), *extra)
            assert code == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b")) and len(names) == 3
        assert all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
                   for n in names)

    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("PRIORCS_OUT_DIR", str(target))
        code, _, _ = run_cli(capsys, "fig1", "-o", "w_grid=0,1", "-o", "rho_list=0.5")
        assert code == 0
        assert (target / "fig1.csv").exists()

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run_cli(capsys, "fig4", "--out-dir", str(tmp_path / sub))
            assert code == 0
        a = (tmp_path / "a" / "fig4.csv").read_bytes()
        b = (tmp_path / "b" / "fig4.csv").read_bytes()
        assert a == b

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("experiment=fig1-coeffs\nw_grid=0,1\nrho_list=0.5,1\n")
        code, _, _ = run_cli(capsys, "fig1", "--config", str(cfg),
                             "--out-dir", str(tmp_path), "-o", "rho_list=0.5")
        assert code == 0
        text = (tmp_path / "fig1.csv").read_text()
        assert "\n1," not in text  # rho = 1 rows overridden away


# sha256 of every file each sweep writes with its default config, in the
# order the "wrote" lines name them; any change to a number, a file name, a
# title or the SVG layout shows up here
PINNED_OUTPUTS = {
    "fig1": [
        ("fig1.csv", "54e4b92e9f87487bb969bb2563daa94da02d00b8d80628a001da6d05448c4b29"),
        ("fig1_c0_rho0.5.svg", "a019a8bffa77eb305278b10b041a2ef3fef08919dee95dfe25f7211a860593b5"),
        ("fig1_c1_rho0.5.svg", "9cd188e42cbe81fea82570d9d478f2c445b15508917c3969079c351fecc1fcb2"),
        ("fig1_c0_rho1.svg", "b1bfa0ccacd790cd8c87124af9e4aa7cd9f6180035b6e4b6355a88b9ec12beee"),
        ("fig1_c1_rho1.svg", "906eee754b05543c92c7e424c4f01a9c701f2f39e2236335c2a8564ffffc7ca6"),
    ],
    "fig2": [
        ("fig2.csv", "ed4c659b8a76405dc31939f9af9c2c2f092f527d81df024bd6d76eed4614234a"),
        ("fig2_e_local.svg", "e7ef56129be7b6c51fa3444382e45b17d57037533de615380d5d9b6dcfe89626"),
        ("fig2_c1_e.svg", "285d3015cc94e80b3f53db2439a55daf3e1c43d178476acbb3c2af00a6431cab"),
    ],
    "fig3": [
        ("fig3.csv", "c2f291e867a87136c6e896853f24e9771aeb7ab320138f0fb64169b9e29bc04b"),
        ("fig3_ratio_standard_rho0.5.svg",
         "d2f40b537bdf0b7d4821b1a886f2b1c2a1e74671efee8f511a5e69eadc0bc065"),
        ("fig3_ratio_weighted_rho0.5.svg",
         "3f57def6e3f8d0ef5615d0405ec4759d822f6683d6bbf9e9c5b439cad857c72c"),
        ("fig3_ratio_standard_rho0.75.svg",
         "fd1b917ac4df064285825348851476271485adaba67439198c5e9ba236a74317"),
        ("fig3_ratio_weighted_rho0.75.svg",
         "69cca967089e97f8adbee0f82f58c7bc81284b2b5f251f9a01f3168d598abd8e"),
    ],
    "fig4": [
        ("fig4.csv", "c227a55cfbc01e6d99b0dbfbd4833623361338538bb308ccc60ca3f601f890d2"),
        ("fig4_c0.svg", "0496a882e67ea35d13b20a0e556b2c98eaaaa6df7dc17c529f853dc07aa1aa92"),
        ("fig4_c1.svg", "fe28cf3e6169fced84a918a362c3b11b2022f511e4d190bb993538be9dd4620d"),
    ],
}


# rows of each default sweep's CSV
PINNED_ROWS = {"fig1": 168, "fig2": 105, "fig3": 882, "fig4": 21}


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUTS))
def test_default_sweep_outputs_are_pinned(command, tmp_path, capsys):
    code, out, err = run_cli(capsys, command, "--out-dir", str(tmp_path))
    assert code == 0
    expected = PINNED_OUTPUTS[command]
    wrote = [line for line in out.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {os.path.join(str(tmp_path), name)}" for name, _ in expected]
    # row count and timings go to stderr, one line, never into stdout or the files
    (line,) = err.splitlines()
    assert re.fullmatch(
        rf"{command}: {PINNED_ROWS[command]} rows, evaluate \d+\.\d{{3}} s, "
        rf"csv \d+\.\d{{3}} s, svg \d+\.\d{{3}} s", line
    )
    assert " rows, " not in out
    assert sorted(os.listdir(tmp_path)) == sorted(name for name, _ in expected)
    for name, digest in expected:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of verify.csv and verify_summary.csv for the benchmark's two verify
# instances: the default config with trials=2 (64x128, eps 0.05, 30 solves)
# and the 32x64 Gaussian matrix at eps 0 (300 solves). The benchmark checks
# lhs to 1e-6; these pin every lhs and iterations cell to the bit.
PINNED_VERIFY = {
    "default-trials2": (
        {"trials": "2"},
        "43b83d040a3b14c8fa6bd0eab4ea6e99642a06ef78e839f0f6ba6a21a824a530",
        "04727563a5dfc0e78d82a4c29d14c5bb96509b620d561803b2b312dc9f167906",
    ),
    "gauss32x64-eps0": (
        {"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0",
         "trials": "20"},
        "3919c89234e5bee90ac034d231ec4fb6bb9accd600f496a504a23939b4b85152",
        "7d1d5ec0b31ed46d1d65f141d839e35d052b70de2efdfdff72205599018eec18",
    ),
}


@pytest.mark.parametrize("variant", sorted(PINNED_VERIFY))
def test_benchmark_verify_outputs_are_pinned(variant, tmp_path, capsys):
    overrides, csv_digest, summary_digest = PINNED_VERIFY[variant]
    argv = [arg for key, value in overrides.items() for arg in ("-o", f"{key}={value}")]
    code, _, _ = run_cli(capsys, "verify", *argv, "--out-dir", str(tmp_path))
    assert code == 0
    assert hashlib.sha256((tmp_path / "verify.csv").read_bytes()).hexdigest() == csv_digest
    assert (hashlib.sha256((tmp_path / "verify_summary.csv").read_bytes()).hexdigest()
            == summary_digest)


@pytest.mark.parametrize("workload", ["verify-noisy", "verify-noiseless-gauss"])
def test_benchmark_verify_lhs_is_near_reference(workload, tmp_path, capsys):
    """The benchmark's own check, tightened: the solver-independent columns
    match bench/reference.json byte for byte, and every lhs is within 1e-8
    of it (the benchmark allows 1e-6)."""
    workloads = _bench_workloads()
    (command,) = workloads.commands(workload, "full", 0)
    code, _, _ = run_cli(capsys, *workloads.argv(command, str(tmp_path)))
    assert code == 0
    reference_path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    (pinned,) = json.loads(reference_path.read_text())[workload]["full"][workloads.variant_of(workload, 0)]
    got = workloads.fingerprint(command, str(tmp_path))
    assert got["fixed_columns_sha256"] == pinned["fixed_columns_sha256"]
    assert len(got["lhs"]) == len(pinned["lhs"])
    assert max(abs(float(a) - float(b)) for a, b in zip(got["lhs"], pinned["lhs"])) <= 1e-8


_USAGE = """\
usage: priorcs [-h]
               {gen-matrix,analyze,solve,bounds,fig1,fig2,fig3,fig4,verify}
               ...
"""

# (stdout, stderr, exit code) of each command, at a terminal 80 columns wide
CLI_TEXTS = {
    ("--help",): (_USAGE + """
Weighted l1 sparse recovery with prior support: solvers, guarantee
calculators, and comparison experiments.

positional arguments:
  {gen-matrix,analyze,solve,bounds,fig1,fig2,fig3,fig4,verify}
    gen-matrix          generate a sensing matrix file
    analyze             coherence and isometry data for a matrix file
    solve               solve a weighted l1 problem file
    bounds              evaluate recovery guarantees at one parameter point
    fig1                run the fig1 experiment
    fig2                run the fig2 experiment
    fig3                run the fig3 experiment
    fig4                run the fig4 experiment
    verify              run the verify experiment

options:
  -h, --help            show this help message and exit
""", "", 0),
    ("nope",): ("", _USAGE + "priorcs: error: argument command: invalid choice: 'nope' "
                "(choose from 'gen-matrix', 'analyze', 'solve', 'bounds', 'fig1', 'fig2', "
                "'fig3', 'fig4', 'verify')\n", 2),
    ("fig3", "--bogus"): ("", _USAGE + "priorcs: error: unrecognized arguments: --bogus\n", 2),
    ("solve", "--help"): ("""\
usage: priorcs solve [-h] --problem PROBLEM [--opt-tol OPT_TOL]
                     [--feas-tol FEAS_TOL] [--max-iter MAX_ITER]

options:
  -h, --help           show this help message and exit
  --problem PROBLEM
  --opt-tol OPT_TOL
  --feas-tol FEAS_TOL
  --max-iter MAX_ITER
""", "", 0),
}


@pytest.mark.parametrize("argv", CLI_TEXTS, ids=" ".join)
def test_usage_help_and_errors_name_every_command(argv, capsys, monkeypatch):
    """The parser builds only the subparser argv[0] names; the text it prints
    is the same as with all nine built."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (captured.out, captured.err, exc.value.code) == CLI_TEXTS[argv]


def _env_with_src() -> dict:
    """The environment with this priorcs first on PYTHONPATH, for subprocesses."""
    src = str(Path(priorcs.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("argv", [
    ["fig2", "-o", "w_grid=0,0.5,1"],
    ["verify", "-o", "m=16", "-o", "n=32", "-o", "trials=1", "-o", "rho_list=1",
     "-o", "w_grid=0,1"],
], ids=["fig2", "verify"])
def test_a_fresh_process_prints_and_writes_what_main_does(argv, tmp_path, capsys):
    """A command in its own process, which freezes its heap at exit instead of
    collecting it, exits, prints and writes the same as an in-process call."""
    here, there = tmp_path / "in_process", tmp_path / "subprocess"
    code, out, _ = run_cli(capsys, *argv, "--out-dir", str(here))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from priorcs.cli import main; sys.exit(main())",
         *argv, "--out-dir", str(there)],
        capture_output=True, text=True, env=_env_with_src(), check=False,
    )
    assert proc.returncode == code == 0
    assert proc.stdout.replace(str(there), str(here)).splitlines() == out.splitlines()
    assert sorted(os.listdir(there)) == sorted(os.listdir(here))
    for name in os.listdir(here):
        assert (there / name).read_bytes() == (here / name).read_bytes(), name


def test_main_freezes_nothing_in_process(tmp_path, capsys):
    assert main(["fig4", "-o", "w_grid=0,1", "--out-dir", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("calls", [0, 2])
def test_exit_freezes_once_per_process_that_ran_main(calls):
    """Importing the cli registers nothing; any number of main() calls
    register one freeze, which runs at exit."""
    script = "\n".join(
        ["import gc", "gc.freeze = lambda: print('freeze')", "from priorcs.cli import main"]
        + ["main(['bounds', '--mu', '0.1', '--k', '2', '--theorem', 'cai'])"] * calls
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_env_with_src(), check=True)
    assert proc.stdout.splitlines().count("freeze") == min(calls, 1)
    assert proc.stdout.endswith("freeze\n") == (calls > 0)


def _bench_workloads():
    """bench/workloads.py, the benchmark's command lists and output checks."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def benchmark_sweeps(tmp_path_factory):
    """The benchmark's sweeps variant of seed 1 (mu 0.0825) on its full grids
    (about 71k CSV rows), run once: bench/workloads.py and (command, output
    directory) pairs."""
    workloads = _bench_workloads()
    root = tmp_path_factory.mktemp("sweeps")
    runs = []
    for command in workloads.commands("sweeps", "full", 1):
        out_dir = str(root / command[0])
        assert main(workloads.argv(command, out_dir)) == 0
        runs.append((command, out_dir))
    return workloads, runs


def test_benchmark_sweep_csvs_match_reference(benchmark_sweeps):
    """Every CSV must have the sha256 bench/reference.json pins for it."""
    workloads, runs = benchmark_sweeps
    reference_path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    reference = json.loads(reference_path.read_text())["sweeps"]["full"]
    expected = reference[workloads.variant_of("sweeps", 1)]
    assert len(runs) == len(expected) == 4
    for (command, out_dir), pinned in zip(runs, expected):
        assert workloads.fingerprint(command, out_dir) == pinned, command[0]


# sha256 of every SVG of the benchmark_sweeps run, by subcommand;
# bench/reference.json pins only the CSVs
BENCHMARK_SVGS = {
    "fig1": {
        "fig1_c0_rho0.5.svg":
            "8e46ae07b596212ad8ae81e317fbc3f959696d756b01701ac17e933a78c32d56",
        "fig1_c0_rho1.5.svg":
            "d8998f3162cd984025a84b3824774a86d05a778f86150c08c845c58020d440f9",
        "fig1_c0_rho1.svg":
            "13cafa238e99d847e0799358fdb04e12f3c0723d281e5cf6be6abbf626b955dc",
        "fig1_c0_rho2.svg":
            "900ae03089cdc894d0c3efdd66f294d647cab1a1ac9bb9601c5d62759bf64763",
        "fig1_c1_rho0.5.svg":
            "c0ac700a18dc1974f55e5a42400df7421987d8ae30d61469dea7220e7b467dd9",
        "fig1_c1_rho1.5.svg":
            "d652d6236a5d1413bb3145872b0f1c393b7cd10aea271ea75518a3b1bf9917ed",
        "fig1_c1_rho1.svg":
            "f9a1ea9ab4e2366480780231f32a9f4a99b83b99e9da40e07aaf303f738aa78a",
        "fig1_c1_rho2.svg":
            "5552ee9c03cb71c508d4ee252ca3fd01b59ede11d0ca201db56365fe2a4a051f",
    },
    "fig2": {
        "fig2_c1_e.svg":
            "4b98776ee1bcadac1fe9e3c6e13f21ceae675ddb2fe650cf445fc18c2d163bef",
        "fig2_e_local.svg":
            "21c5652656370a624bed4b710a6de97a0e21738785e22897749661bd787a60ea",
    },
    "fig3": {
        "fig3_ratio_standard_rho0.5.svg":
            "c1e2056fb72da896076820b1660ed05ed232fd982e5f54fab46146c1cbd8f53b",
        "fig3_ratio_standard_rho0.75.svg":
            "77626f880bea20c8dfac030db1414669719232667ab0c31482f27dc63e53aa68",
        "fig3_ratio_weighted_rho0.5.svg":
            "0445ecac11699080a1edb682b714bff049b99568a6cd90c87c1b6e7cb4debc71",
        "fig3_ratio_weighted_rho0.75.svg":
            "b4ac1a23aa2c59e899e94aa5284119803d3d2d2a8f1946165f0e183974fd786d",
    },
    "fig4": {
        "fig4_c0.svg":
            "3ea5dc7f36e00248b3442dde6d8b5c7f2574f07dba11c707d92fcbd46155a50c",
        "fig4_c1.svg":
            "eaf3cda06f93dbecc2f1456293900ce5fce08a2bad401ce4856b9d04459b2847",
    },
}


def test_benchmark_sweep_svgs_are_pinned(benchmark_sweeps):
    _, runs = benchmark_sweeps
    for command, out_dir in runs:
        digests = {name: hashlib.sha256(Path(out_dir, name).read_bytes()).hexdigest()
                   for name in sorted(os.listdir(out_dir)) if name.endswith(".svg")}
        assert digests == BENCHMARK_SVGS[command[0]], command[0]
