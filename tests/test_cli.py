import csv
import hashlib
import math
import os
import re

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
    ])
    def test_partial_constant_set_exits_2_before_any_row(self, capsys, theorem, flags):
        code, out, err = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "2", "--rho", "1",
                                 "--alpha", "1", "--w", "0.5", "--theorem", theorem, *flags)
        assert code == 2
        assert out == "theorem,c0,c1,k_max,valid,reason\n"
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
        assert out == "theorem,c0,c1,k_max,valid,reason\n"
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
        assert out == "theorem,c0,c1,k_max,valid,reason\n"
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "must be finite and >= 0" in line

    def test_chen_constant_of_one_or_more_is_an_invalid_row(self, capsys):
        # the coherence substitution reaches delta_a >= 1 at larger k*mu, so
        # an explicit delta_a >= 1 is a failed premise, not an input error
        code, out, _ = run_cli(capsys, "bounds", "--mu", "0.1", "--k", "2", "--theorem", "chen",
                               "--a", "1", "--b", "1", "--delta-a", "1.5", "--theta-ab", "0.1")
        assert code == 0
        assert out.splitlines()[1].startswith("chen,") and ",false,premise fails" in out


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
            r"verify: 12 solves in one batch, iterations p50=\d+ p90=\d+ max=(\d+), \d+\.\d{3} s", line
        )
        assert match
        with open(tmp_path / "verify.csv", newline="") as fh:
            iterations = [int(row["iterations"]) for row in csv.DictReader(fh)]
        assert int(match.group(1)) == max(iterations)
        assert "solves" not in out

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

    @pytest.mark.parametrize("command, override", [
        ("fig1", "rho_list=nan"),
        ("fig1", "rho_list=inf"),
        ("fig2", "rho=nan"),
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
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, command, override):
        small = ("-o", "m=16", "-o", "n=32", "-o", "trials=1", "-o", "w_grid=0.5")
        code, out, err = run_cli(capsys, command, "--out-dir", str(tmp_path), "-o", override,
                                 *(small if command == "verify" else ()))
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error: ")
        assert out == "" and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("key", ["noise_scale", "violation_tol"])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, key):
        code, _, err = run_cli(capsys, "verify", "--out-dir", str(tmp_path), "-o", f"{key}=0.5")
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
        rf"{command}: {PINNED_ROWS[command]} rows, evaluate \d+\.\d{{3}} s, emit \d+\.\d{{3}} s", line
    )
    assert " rows, " not in out
    assert sorted(os.listdir(tmp_path)) == sorted(name for name, _ in expected)
    for name, digest in expected:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
