"""Each command loads only the modules it runs, and the package surface
resolves lazily to the same objects its modules define."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import priorcs
import priorcs.experiments as experiments

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every public name the package exports, by the module that defines it
EXPORTS = {
    "bounds": ["GuaranteeParams", "GuaranteeResult", "cai_bound", "chen_bound",
               "friedlander_bound", "ge_bound", "haixiao_bound", "k_ratios", "local_bound"],
    "errors": ["BudgetExceededError", "ConfigError", "InfeasibleProblemError",
               "InvalidInputError", "PriorCSError"],
    "matrices": ["IsometryReport", "SensingMatrix", "coherence", "generate_matrix",
                 "isometry_report", "read_matrix_file", "ric_exact", "roc_exact",
                 "write_matrix_file"],
    "solver": ["RecoveryProblem", "SolveReport", "SolveTolerances", "kkt_check",
               "read_problem_file", "solve_weighted_l1", "solve_weighted_l1_batch"],
    "supports": ["ErrorTerms", "SupportModel", "best_k_term", "error_terms",
                 "format_index_set", "prior_support_for", "support_model"],
}


def loaded_after(code: str, *argv) -> set:
    """The priorcs modules in sys.modules after a fresh process runs code,
    read from the last line it prints."""
    script = code + "\nprint(*sorted(m for m in sys.modules if m.startswith('priorcs')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    return set(proc.stdout.splitlines()[-1].split())


SWEEP_MODULES = {"priorcs", "priorcs.cli", "priorcs.errors", "priorcs.experiments",
                 "priorcs.bounds", "priorcs.tables"}


@pytest.mark.parametrize("command, modules", [
    ("fig1", SWEEP_MODULES),
    ("fig2", SWEEP_MODULES | {"priorcs.supports"}),
    ("fig3", SWEEP_MODULES),
    ("fig4", SWEEP_MODULES),
])
def test_a_sweep_loads_only_what_it_runs(command, modules, tmp_path):
    code = "import sys\nfrom priorcs.cli import main\nassert main(sys.argv[1:]) == 0"
    assert loaded_after(code, command, "-o", "w_grid=0,1", "--out-dir", str(tmp_path)) == modules


def test_importing_the_package_loads_no_module():
    assert loaded_after("import sys, priorcs") == {"priorcs"}


@pytest.mark.parametrize("module", EXPORTS)
def test_every_export_is_its_modules_object(module):
    source = importlib.import_module(f"priorcs.{module}")
    assert getattr(priorcs, module) is source
    for name in EXPORTS[module]:
        assert getattr(priorcs, name) is getattr(source, name), name
        assert name in dir(priorcs) and name in priorcs.__all__
    namespace = {}
    exec(f"from priorcs import {', '.join(EXPORTS[module])}", namespace)
    assert all(namespace[name] is getattr(source, name) for name in EXPORTS[module])


@pytest.mark.parametrize("module", [priorcs, experiments], ids=lambda m: m.__name__)
def test_an_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        module.nope


def test_experiments_binds_the_names_of_the_modules_it_defers():
    for module, names in experiments._LAZY.items():
        source = importlib.import_module(f"priorcs.{module}")
        assert all(getattr(experiments, name) is getattr(source, name) for name in names)
