import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import priorcs.solver as solver
from priorcs import GuaranteeParams, kkt_check, local_bound
from priorcs.errors import ConfigError
from priorcs.experiments import (
    ExperimentConfig,
    admissible_alphas,
    check_fig3,
    default_config,
    emit_experiment_outputs,
    float_grid,
    load_config,
    parse_config_text,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_verify_local,
    summarize_verify,
)
from priorcs.tables import to_csv_text


def small_verify_config(**overrides) -> ExperimentConfig:
    base = dict(
        kind="verify-local", k=2, m=16, n=32, trials=2,
        rho_list=(1.0,), w_grid=(0.0, 1.0), epsilon=0.05, seed=5,
        matrix_kind="identity-plus-orthobasis", signal="sparse-gaussian",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_parse_text(self):
        pairs = parse_config_text("mu = 0.2\n# comment\n\nk=3  # trailing\nrho_list=0.5,1\n")
        assert pairs == {"mu": "0.2", "k": "3", "rho_list": "0.5,1"}

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ConfigError):
            parse_config_text("mu 0.2")

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("mu=0.2\nk=3\n")
        cfg = load_config("fig1-coeffs", path=path, overrides={"k": "5"})
        assert cfg.mu == 0.2
        assert cfg.k == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("mystery=1\n")
        with pytest.raises(ConfigError):
            load_config("fig1-coeffs", path=path)

    def test_experiment_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("experiment=fig2-error-terms\n")
        with pytest.raises(ConfigError):
            load_config("fig1-coeffs", path=path)

    def test_validation(self):
        with pytest.raises(ConfigError):
            load_config("fig1-coeffs", overrides={"mu": "0"})
        # the w range check names the first offender
        with pytest.raises(ConfigError, match=r"got 1\.5$"):
            load_config("fig1-coeffs", overrides={"w_grid": "0,1.5,-1,0.5"})
        with pytest.raises(ConfigError, match=r"got -1\.0$"):
            load_config("fig1-coeffs", overrides={"w_grid": "0,-1,1.5"})
        with pytest.raises(ConfigError):
            load_config("verify-local", overrides={"trials": "0"})
        with pytest.raises(ConfigError):
            load_config("fig1-coeffs", overrides={"rho_list": ""})

    def test_derived_alpha_grid_is_capped_before_it_is_built(self):
        # rho = 0.5, k = 10**12 would derive 5 * 10**11 + 1 alphas; the cap
        # admits 10**6 + 1, as w_step = 1e-6 does, and a given alpha_list
        # builds no grid
        with pytest.raises(ConfigError, match="alpha grid of over a million points"):
            load_config("fig1-coeffs", overrides={"k": "1000000000000"})
        assert load_config("fig1-coeffs", overrides={"k": "1000000", "rho_list": "1"}).k == 10**6
        assert load_config("fig1-coeffs", overrides={"k": "1000000000000", "alpha_list": "0,1"})

    def test_defaults_per_kind(self):
        assert default_config("fig4-comparison").k == 2
        assert default_config("fig3-kratio").rho_list == (0.5, 0.75)
        assert default_config("fig2-error-terms").rho_list == (1.0,)
        assert default_config("verify-local").matrix_kind == "identity-plus-orthobasis"
        with pytest.raises(ConfigError):
            default_config("fig9")

    def test_float_grid(self):
        grid = float_grid(0.05)
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert grid[3] == 0.15
        with pytest.raises(ConfigError):
            float_grid(0.3)

    @staticmethod
    def rounded_grid(step):
        return tuple(round(i * step, 12) for i in range(round(1.0 / step) + 1))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3000), st.booleans())
    def test_float_grid_is_python_round(self, count, rounded):
        # the steps 1/c and round(1/c, 12) that divide [0, 1] evenly
        step = round(1.0 / count, 12) if rounded else 1.0 / count
        assume(abs(round(1.0 / step) * step - 1.0) <= 1e-9)
        assert float_grid(step) == self.rounded_grid(step)

    # the smallest admissible steps, and 2**-13, whose odd multiples scale to
    # exact half-integers (ties to even)
    @pytest.mark.parametrize("step", [1e-5, 2e-6, 1e-6, 2.0 ** -13, 2.0 ** -17])
    def test_float_grid_is_python_round_on_fine_grids(self, step):
        grid = float_grid(step)
        assert grid == self.rounded_grid(step)
        assert all(type(v) is float for v in grid)

    def test_admissible_alphas(self):
        assert admissible_alphas(0.5, 4) == (0.0, 0.5, 1.0)
        assert admissible_alphas(1.0, 4) == (0.0, 0.25, 0.5, 0.75, 1.0)
        with pytest.raises(ConfigError):
            admissible_alphas(0.3, 4)


class TestFig1:
    def test_values_match_local_bound(self):
        cfg = ExperimentConfig(kind="fig1-coeffs", w_grid=(0.0,), rho_list=(0.5,), alpha_list=(0.0,))
        table = run_fig1(cfg)
        assert len(table.rows) == 1
        row = dict(zip(table.columns, table.rows[0]))
        res = local_bound(GuaranteeParams(mu=0.1, k=4, rho=0.5, alpha=0.0, w=0.0))
        assert row["c0"] == pytest.approx(2.3306863292670034, abs=1e-10)
        assert row["c0"] == res.c0 and row["c1"] == res.c1

    def test_default_grid_shape(self):
        table = run_fig1(default_config("fig1-coeffs"))
        # rho=0.5 has 3 alphas, rho=1 has 5; 21 w points each
        assert len(table.rows) == (3 + 5) * 21

    def test_inconsistent_alpha_rejected(self):
        cfg = ExperimentConfig(kind="fig1-coeffs", rho_list=(0.5,), alpha_list=(0.3,))
        with pytest.raises(ConfigError):
            run_fig1(cfg)

    def test_empty_alpha_list_rejected(self):
        with pytest.raises(ConfigError):
            load_config("fig1-coeffs", overrides={"alpha_list": ""})


class TestFig2:
    def test_sparse_signal_with_containing_prior_support(self):
        cfg = ExperimentConfig(
            kind="fig2-error-terms", k=4, n=32, rho_list=(1.0,), alpha_list=(1.0,),
            signal="sparse-gaussian", seed=3, w_grid=(0.0, 0.5, 1.0),
        )
        table = run_fig2(cfg)
        assert all(v == 0.0 for v in table.column("missed_top"))
        assert all(v == pytest.approx(0.0, abs=1e-15) for v in table.column("e_local"))

    def test_deterministic(self):
        cfg = default_config("fig2-error-terms")
        assert to_csv_text(run_fig2(cfg)) == to_csv_text(run_fig2(cfg))

    def test_minimum_at_full_overlap_w0(self):
        table = run_fig2(default_config("fig2-error-terms"))
        rows = [dict(zip(table.columns, r)) for r in table.rows]
        best = min(rows, key=lambda r: r["c1_e"])
        assert best["alpha"] == 1.0
        assert best["w"] == 0.0

    def test_e_increases_with_w_at_fixed_alpha(self):
        table = run_fig2(default_config("fig2-error-terms"))
        for alpha in set(table.column("alpha")):
            sub = table.select(alpha=alpha)
            es = sub.column("e_local")
            assert all(a <= b + 1e-12 for a, b in zip(es, es[1:]))

    def test_unachievable_overlap_is_config_error(self):
        cfg = ExperimentConfig(
            kind="fig2-error-terms", k=4, n=4, rho_list=(1.0,), alpha_list=(0.0,),
            signal="gaussian", seed=0, w_grid=(0.0,),
        )
        # n = k leaves no indices outside the top-k support
        with pytest.raises(ConfigError):
            run_fig2(cfg)


class TestFig3:
    def test_all_ratios_above_one_on_defaults(self):
        table = run_fig3(default_config("fig3-kratio"))
        assert len(table.rows) == 2 * 21 * 21
        assert check_fig3(table) == []
        assert min(table.column("ratio_standard")) > 1.0
        assert min(table.column("ratio_weighted")) > 1.0

    def test_pinned_ratio(self):
        cfg = ExperimentConfig(kind="fig3-kratio", rho_list=(0.5,), alpha_list=(0.0,), w_grid=(0.0,))
        table = run_fig3(cfg)
        assert table.rows[0][3] == pytest.approx(4.0, abs=1e-12)

    def test_check_reports_problems(self):
        from priorcs.tables import SweepTable
        bad = SweepTable(columns=["rho", "alpha", "w", "ratio_standard", "ratio_weighted"],
                         data=[[0.5, 0.5], [0.0, 0.0], [0.0, 0.5], [0.9, 1.1], [1.2, math.nan]])
        assert check_fig3(bad) == ["standard ratio 0.9 <= 1 at rho=0.5 alpha=0.0 w=0.0",
                                   "weighted ratio nan <= 1 at rho=0.5 alpha=0.0 w=0.5"]


class TestFig4:
    def test_friedlander_invalid_region_and_chen_singularity(self):
        table = run_fig4(default_config("fig4-comparison"))
        for row in table.rows:
            data = dict(zip(table.columns, row))
            assert data["friedlander_valid"] == (data["w"] <= 0.85)
            if data["w"] > 0.8 and not data["friedlander_valid"]:
                assert data["friedlander_reason"]
            if data["w"] == 0.0:
                assert not data["chen_valid"]
                assert "s = 0" in data["chen_reason"]
            else:
                assert data["chen_valid"]

    def test_local_below_valid_globals(self):
        table = run_fig4(default_config("fig4-comparison"))
        for row in table.rows:
            data = dict(zip(table.columns, row))
            for name in ("haixiao", "friedlander", "chen", "ge"):
                if data[f"{name}_valid"]:
                    assert data["local_c0"] < data[f"{name}_c0"]
                    assert data["local_c1"] < data[f"{name}_c1"]

    def test_both_ge_readings_reported(self):
        table = run_fig4(default_config("fig4-comparison"))
        assert "ge_c1_printed" in table.columns
        data = dict(zip(table.columns, table.rows[-1]))  # w = 1
        assert data["ge_c1"] == pytest.approx(2.7528033365105276, abs=1e-10)
        assert data["ge_c1_printed"] == pytest.approx(2.1927120970564062, abs=1e-10)


class TestVerifyLocal:
    def test_small_run_has_no_violations(self):
        table = run_verify_local(small_verify_config())
        summary = dict(zip(*[summarize_verify(table).columns, summarize_verify(table).rows[0]]))
        assert summary["trials"] == len(table.rows) == 2 * 2 * 3  # w x trials x alphas
        assert summary["violations"] == 0
        assert summary["converged"] == summary["trials"]
        assert summary["min_slack"] > 0

    def test_premises_hold_in_default_geometry(self):
        table = run_verify_local(small_verify_config())
        assert all(table.column("premise_k"))
        assert all(table.column("premise_d"))

    def test_noiseless_contained_support_recovers_exactly(self):
        cfg = small_verify_config(epsilon=0.0, w_grid=(0.0,), alpha_list=(1.0,), trials=3)
        table = run_verify_local(cfg)
        for row in table.rows:
            data = dict(zip(table.columns, row))
            assert data["rhs"] == pytest.approx(0.0, abs=1e-12)
            assert data["lhs"] <= 1e-6  # zero right-hand side forces local recovery
            assert not data["violation"]

    def test_deterministic(self):
        cfg = small_verify_config()
        assert to_csv_text(run_verify_local(cfg)) == to_csv_text(run_verify_local(cfg))

    @pytest.mark.parametrize("overrides", [
        {"trials": "2"},
        {"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0", "trials": "20"},
    ], ids=["verify-noisy", "verify-noiseless-gauss"])
    def test_every_batched_solve_is_optimal(self, batch_solves, overrides):
        # the benchmark's verify configs; its traced runs wrap solve_weighted_l1,
        # which verify does not call, so this is where their solves get checked
        table = run_verify_local(load_config("verify-local", overrides=overrides))
        ((problems, reports),) = batch_solves
        assert len(reports) == len(table.rows)
        for problem, report in zip(problems, reports):
            assert report.converged
            residual = kkt_check(problem, report.x_star, report.dual)
            assert residual <= 1e-6
            if report.exit in ("polished", "certified"):
                # these points come with their own exact multipliers
                assert residual <= 1e-9

    @pytest.mark.parametrize("overrides, total, longest", [
        ({"trials": "2"}, 600, 100),
        ({"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0", "trials": "20"},
         3690, 50),
        ({}, 8980, 120),
    ], ids=["verify-noisy", "verify-noiseless-gauss", "default-verify"])
    def test_polish_keeps_iteration_counts_down(self, batch_solves, overrides, total, longest):
        # the benchmark's verify configs and default verify; total and longest
        # were measured with the polish try's correction steps (with tries of
        # settled patterns only: 2,770 and 220; 8,550 and 60; 54,270 and 440;
        # without any polish: 14,305 and 1,067; 67,785 and 437), and a lost
        # correction step breaks the 10% margin
        table = run_verify_local(load_config("verify-local", overrides=overrides))
        iterations = table.column("iterations")
        assert iterations.sum() <= 1.1 * total
        assert iterations.max() <= 1.1 * longest
        if overrides.get("epsilon") == "0":
            ((_, reports),) = batch_solves
            assert {report.exit for report in reports} == {"polished"}

    def test_polish_tries_run_stacked(self, monkeypatch):
        # the benchmark's verify-noiseless-gauss config: its 369 tries fall
        # on six checks, and each check is one polish call that makes one
        # LAPACK solve per free-set size and correction round. Each try
        # solves once and once more per correction step (647 solves of a row
        # in 120 LAPACK calls); tries made one row at a time would make a
        # call per try and a LAPACK solve per try and per step
        calls, solves = [], []
        polish, solve = solver.try_polish, np.linalg.solve

        def count_polish(*args):
            calls.append(len(args[4]))  # the rows of x
            return polish(*args)

        def count_solve(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(solver, "try_polish", count_polish)
        monkeypatch.setattr(np.linalg, "solve", count_solve)
        timings = {}
        overrides = {"matrix_kind": "gaussian-normalized", "m": "32", "n": "64", "epsilon": "0",
                     "trials": "20"}
        run_verify_local(load_config("verify-local", overrides=overrides), timings)
        tries = timings["polish_tries"]
        assert sum(calls) == tries
        assert len(calls) <= timings["loop_iterations"] // solver.POLISH_EVERY
        assert 4 * len(solves) < tries + timings["polish_steps"]

    def test_rho_half_alpha_grid(self):
        cfg = small_verify_config(rho_list=(0.5,), w_grid=(0.5,), trials=2)
        table = run_verify_local(cfg)
        assert sorted(set(table.column("alpha"))) == [0.0, 1.0]
        assert all(not v for v in table.column("violation"))


class TestOutputs:
    def test_files_written_and_deterministic(self, tmp_path):
        cfg = default_config("fig1-coeffs")
        table = run_fig1(cfg)
        first = emit_experiment_outputs(cfg, table, tmp_path / "a")
        second = emit_experiment_outputs(cfg, table, tmp_path / "b")
        assert [os.path.basename(p) for p in first] == [os.path.basename(p) for p in second]
        for pa, pb in zip(first, second):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()
        names = [os.path.basename(p) for p in first]
        assert "fig1.csv" in names
        assert any(n.endswith(".svg") for n in names)

    def test_verify_summary_file(self, tmp_path):
        cfg = small_verify_config()
        table = run_verify_local(cfg)
        written = emit_experiment_outputs(cfg, table, tmp_path)
        names = [os.path.basename(p) for p in written]
        assert "verify.csv" in names and "verify_summary.csv" in names
