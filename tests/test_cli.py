import math
import os

import numpy as np
import pytest

from priorcs.cli import main
from priorcs.matrices import read_matrix_file


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

    def test_bad_kind_combination_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen-matrix", "--kind", "identity-plus-orthobasis",
                               "--m", "12", "--n", "24", "--out", str(tmp_path / "x.mat"))
        assert code == 2
        assert "power of two" in err


class TestSolveCommand:
    def test_solve_problem_file(self, tmp_path, capsys):
        s = 1.0 / math.sqrt(2.0)
        problem = tmp_path / "p.txt"
        problem.write_text(
            "MATRIX\n2 3\n"
            f"1.0 0.0 {s!r}\n0.0 1.0 {s!r}\n"
            f"VECTOR\n{s!r} {s!r}\n"
            "EPSILON\n0.0\n"
            "WEIGHTS\n1.0 1.0 1.0\n"
        )
        code, out, _ = run_cli(capsys, "solve", "--problem", str(problem))
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["converged"] == "true"
        x = [float(v) for v in lines["x_star"].split(",")]
        assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-6)
        assert float(lines["objective"]) == pytest.approx(1.0, abs=1e-6)

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

    def test_verify_small_run(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--out-dir", str(tmp_path),
            "-o", "m=16", "-o", "n=32", "-o", "trials=2",
            "-o", "rho_list=1", "-o", "w_grid=0,1", "-o", "seed=5",
        )
        assert code == 0
        assert "violations=0" in out
        assert (tmp_path / "verify.csv").exists()
        assert (tmp_path / "verify_summary.csv").exists()

    def test_verify_nonconverged_exits_3(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--out-dir", str(tmp_path),
            "-o", "m=16", "-o", "n=32", "-o", "trials=1",
            "-o", "rho_list=1", "-o", "w_grid=0.5", "-o", "seed=5", "-o", "max_iter=3",
        )
        assert code == 3
        assert "converged=0" in out
        assert "did not converge" in err
        assert (tmp_path / "verify.csv").exists()

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fig1", "--out-dir", str(tmp_path), "-o", "sigma=1")
        assert code == 2
        assert "unknown config key" in err

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mu=0\n")
        code, _, _ = run_cli(capsys, "fig1", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2

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
