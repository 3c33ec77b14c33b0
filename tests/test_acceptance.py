"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
Expected values are frozen from the independent high-precision evaluators in
oracles.py; tolerances are stated inline next to each assertion.
"""

import math
import time

import numpy as np
import pytest

import priorcs as pc
from priorcs.bounds import GuaranteeParams
from priorcs.cli import main as cli_main
from priorcs.experiments import (
    default_config,
    run_fig3,
    run_fig4,
    run_verify_local,
    summarize_verify,
)

import oracles


def _report(ident, text):
    print(f"ACCEPTANCE {ident}: PASS - {text}")


class TestCriterion1FormulaOracleAgreement:
    def test_pinned_coefficients(self):
        t0 = time.perf_counter()
        # local bound at mu=0.1, k=4, rho=0.5, w=0
        res = pc.local_bound(GuaranteeParams(mu=0.1, k=4, rho=0.5, alpha=0.0, w=0.0))
        _, c0, c1, k_max = oracles.local_coeffs(0.1, 4, 0.5, 0.0, 0.0)
        assert abs(res.c0 - float(c0)) <= 1e-12 and abs(res.c0 - 2.33069) <= 1e-4
        assert abs(res.c1 - float(c1)) <= 1e-12 and abs(res.c1 - 0.31427) <= 1e-4
        assert abs(res.k_max - float(k_max)) <= 1e-12 and abs(res.k_max - 22.0) <= 1e-4

        cai = pc.cai_bound(GuaranteeParams(mu=0.1, k=2))
        c0o, c1o, kmo = oracles.cai_coeffs(0.1, 2)
        assert abs(cai.c0 - float(c0o)) <= 1e-12 and abs(cai.c0 - 4.46243) <= 1e-4
        assert abs(cai.c1 - float(c1o)) <= 1e-12 and abs(cai.c1 - 0.94761) <= 1e-4
        assert abs(cai.k_max - 5.5) <= 1e-12

        chen = pc.chen_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0))
        _, c0o, c1o = oracles.chen_coeffs(0.1, 2, 1.0, 1.0, 1.0, 2, 2)
        assert abs(chen.c0 - float(c0o)) <= 1e-12 and abs(chen.c0 - 4.94413) <= 1e-4
        assert abs(chen.c1 - float(c1o)) <= 1e-12 and abs(chen.c1 - 2.41421) <= 1e-4

        ge = pc.ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0))
        _, c0o, _, _ = oracles.ge_coeffs(0.1, 2, 1.0, 1.0, 1.0, 2.0)
        assert abs(ge.c0 - float(c0o)) <= 1e-12 and abs(ge.c0 - 5.60142) <= 1e-4
        _report(1, f"formula-oracle agreement at 1e-4 ({(time.perf_counter() - t0) * 1e3:.1f} ms)")


class TestCriterion2Fig1Properties:
    def test_monotonicity_and_minima(self):
        t0 = time.perf_counter()
        grid = [round(i * 0.01, 12) for i in range(101)]
        curves = {}
        for rho, alphas in ((0.5, (0.0, 0.5, 1.0)), (1.0, (0.0, 0.25, 0.5, 0.75, 1.0))):
            for alpha in alphas:
                rs = [pc.local_bound(GuaranteeParams(mu=0.1, k=4, rho=rho, alpha=alpha, w=w))
                      for w in grid]
                assert all(r.valid for r in rs)
                curves[(rho, alpha)] = rs
                c0s = [r.c0 for r in rs]
                c1s = [r.c1 for r in rs]
                if alpha == 0.0:
                    assert all(a > b for a, b in zip(c0s, c0s[1:])), "c0 not decreasing at alpha=0"
                    assert all(a > b for a, b in zip(c1s, c1s[1:])), "c1 not decreasing at alpha=0"
                else:
                    assert all(a < b for a, b in zip(c0s, c0s[1:])), "c0 not increasing at alpha>0"
                    assert all(a < b for a, b in zip(c1s, c1s[1:])), "c1 not increasing at alpha>0"
        for rho in (0.5, 1.0):
            mine = min((r.c0, r.c1) for key, rs in curves.items() if key[0] == rho for r in rs)
            at_min = curves[(rho, 0.0)][-1]  # alpha = 0, w = 1
            assert (at_min.c0, at_min.c1) == mine, "global minimum not at (alpha=0, w=1)"
        for alpha in (0.0, 0.5, 1.0):  # alphas admissible at both rho values
            for i, w in enumerate(grid):
                assert curves[(0.5, alpha)][i].c0 < curves[(1.0, alpha)][i].c0
                assert curves[(0.5, alpha)][i].c1 < curves[(1.0, alpha)][i].c1
        _report(2, f"coefficient monotonicity and minima on the 0.01 grid "
                   f"({time.perf_counter() - t0:.2f} s)")


class TestCriterion3Fig3Ratios:
    def test_all_ratios_strictly_above_one(self):
        t0 = time.perf_counter()
        grid = [round(i * 0.05, 12) for i in range(21)]
        count = 0
        for rho in (0.5, 0.75):
            for alpha in grid:
                for w in grid:
                    p = GuaranteeParams(mu=0.1, k=4, rho=rho, alpha=alpha, w=w)
                    standard, weighted = pc.k_ratios(p)
                    assert standard > 1.0
                    assert weighted > 1.0
                    count += 1
        table = run_fig3(default_config("fig3-kratio"))
        assert min(table.column("ratio_standard")) > 1.0
        assert min(table.column("ratio_weighted")) > 1.0
        _report(3, f"{count} grid points, both k-ratios > 1 ({time.perf_counter() - t0:.2f} s)")


class TestCriterion4Fig4Comparison:
    def test_local_beats_valid_globals(self):
        t0 = time.perf_counter()
        table = run_fig4(default_config("fig4-comparison"))
        assert len(table.rows) == 21
        invalid_friedlander = []
        for row in table.rows:
            data = dict(zip(table.columns, row))
            for name in ("haixiao", "friedlander", "chen", "ge"):
                if data[f"{name}_valid"]:
                    assert data["local_c0"] < data[f"{name}_c0"], (name, data["w"])
                    assert data["local_c1"] < data[f"{name}_c1"], (name, data["w"])
            if not data["friedlander_valid"]:
                invalid_friedlander.append(data["w"])
            assert data["chen_valid"] == (data["w"] != 0.0)
        assert invalid_friedlander == [0.9, 0.95, 1.0]
        assert all(w > 0.8 for w in invalid_friedlander)
        _report(4, f"local coefficients below every valid global on the 0.05 grid "
                   f"({time.perf_counter() - t0:.2f} s)")


class TestCriterion5AlgebraicIdentities:
    def test_error_multiplier_identity_10k(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(424242)
        for _ in range(10_000):
            n = int(rng.integers(1, 33))
            x = rng.standard_normal(n) * 3.0
            k = int(rng.integers(1, n + 1))
            t_size = int(rng.integers(0, n + 1))
            t = tuple(sorted(rng.choice(n, size=t_size, replace=False).tolist()))
            w = float(rng.uniform())
            model = pc.support_model(x, t, k, w)
            e_proof = oracles.proof_error_multiplier(x, t, np.flatnonzero(model.in_t0), w)
            assert abs(e_proof - pc.error_terms(x, model).e_local) <= 1e-12
        for mu in (0.02, 0.05, 0.1, 0.2, 0.3, 0.45):
            for k in (1, 2, 3, 4, 6, 10):
                for rho, alpha in ((0.5, 0.0), (1.0, 0.5), (2.0, 0.5)):
                    hx = pc.haixiao_bound(GuaranteeParams(mu=mu, k=k, rho=rho, alpha=alpha, w=1.0))
                    cai = pc.cai_bound(GuaranteeParams(mu=mu, k=k))
                    assert abs(hx.k_max - cai.k_max) <= 1e-12
                    if cai.valid:
                        assert abs(hx.c0 - cai.c0) <= 1e-12
                        assert abs(hx.c1 - cai.c1) <= 1e-12
        _report(5, f"10^4 error-multiplier identities at 1e-12; w=1 reduction on the grid "
                   f"({time.perf_counter() - t0:.2f} s)")


class TestCriterion6SolverOracleEquivalence:
    def test_exact_recovery_matches_l0_oracle(self):
        t0 = time.perf_counter()
        recovered = 0
        for seed in range(200):
            rng = np.random.default_rng([77, seed])
            n, m = 12, 8
            matrix = pc.generate_matrix("gaussian-normalized", m, n, int(rng.integers(2**32)))
            k_max = pc.cai_bound(GuaranteeParams(mu=matrix.mu, k=1)).k_max
            k = max(1, min(3, int(math.floor(k_max - 1e-9))))
            assert k < k_max
            x = np.zeros(n)
            support = rng.choice(n, size=k, replace=False)
            x[support] = rng.uniform(0.5, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k)
            y = matrix.entries @ x
            problem = pc.RecoveryProblem.create(matrix, y, 0.0, np.ones(n))
            report = pc.solve_weighted_l1(problem)
            assert report.converged
            assert np.max(np.abs(report.x_star - x)) <= 1e-6
            x0, k0 = oracles.solve_l0_oracle(matrix.entries, y, 0.0, k)
            assert k0 == k
            assert np.max(np.abs(x0 - x)) <= 1e-6
            assert np.max(np.abs(report.x_star - x0)) <= 1e-6
            recovered += 1
        assert recovered == 200
        _report(6, f"200/200 planted signals recovered to 1e-6, matching the l0 oracle "
                   f"({time.perf_counter() - t0:.2f} s)")


class TestCriterion7EmpiricalLocalBound:
    def test_default_verify_run_has_zero_violations(self):
        t0 = time.perf_counter()
        cfg = default_config("verify-local")
        assert cfg.m == 64 and cfg.n == 128
        table = run_verify_local(cfg)
        summary = dict(zip(summarize_verify(table).columns, summarize_verify(table).rows[0]))
        assert summary["trials"] >= 500
        assert all(table.column("premise_k"))
        assert all(table.column("premise_d"))
        assert summary["nonconverged"] == 0
        assert summary["violations"] == 0
        assert summary["min_slack"] > 0.0
        # no straggler: in the rho = 1, alpha = 1, w = 0 cell the minimizers
        # cost 0 and are not unique, and each row must be certified once its
        # iterate rests (waiting for the multiplier to decay took up to
        # 156,917 iterations)
        iterations = table.column("iterations")
        assert iterations.max() <= 1000
        cell = (table.column("rho") == 1.0) & (table.column("alpha") == 1.0) & (table.column("w") == 0.0)
        assert cell.sum() == 34 and iterations[cell].max() <= 120
        _report(7, f"{summary['trials']} trials, all converged, zero violations, "
                   f"min slack {summary['min_slack']:.4f} ({time.perf_counter() - t0:.1f} s)")


class TestCriterion8TinyScaleConstantOrdering:
    def test_exact_constants_below_coherence_bounds(self):
        t0 = time.perf_counter()
        checked = 0
        for seed in range(50):
            rng = np.random.default_rng([99, seed])
            n = int(rng.integers(6, 13))
            m = int(rng.integers(max(3, n - 5), n + 1))
            matrix = pc.generate_matrix("gaussian-normalized", m, n, int(rng.integers(2**32)))
            mu = pc.coherence(matrix)
            k = int(rng.integers(1, 4))
            assert pc.ric_exact(matrix, k) <= (k - 1) * mu + 1e-10
            if 2 * k <= n:
                assert pc.roc_exact(matrix, k, k) <= pc.ric_exact(matrix, 2 * k) + 1e-10
            checked += 1
        assert checked == 50
        _report(8, f"50 matrices: ric <= (k-1)mu and roc(k,k) <= ric(2k) "
                   f"({time.perf_counter() - t0:.2f} s)")


class TestCriterion9Determinism:
    @pytest.mark.parametrize("command,overrides", [
        ("fig1", []),
        ("fig2", []),
        ("fig3", []),
        ("fig4", []),
        ("verify", ["-o", "m=16", "-o", "n=32", "-o", "trials=2",
                    "-o", "rho_list=1", "-o", "w_grid=0,0.5,1"]),
    ])
    def test_byte_identical_reruns(self, tmp_path, capsys, command, overrides):
        outputs = []
        for sub in ("first", "second"):
            out_dir = tmp_path / sub
            code = cli_main([command, "--out-dir", str(out_dir)] + overrides)
            capsys.readouterr()
            assert code == 0
            csvs = sorted(p for p in out_dir.iterdir() if p.suffix == ".csv")
            assert csvs
            outputs.append({p.name: p.read_bytes() for p in csvs})
        assert outputs[0] == outputs[1]
        _report(9, f"{command}: repeated runs byte-identical across {len(outputs[0])} CSV file(s)")
