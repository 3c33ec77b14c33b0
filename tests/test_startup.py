"""Each command loads only the modules it runs, and the package surface
resolves lazily to the same objects its modules define."""

import ast
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
    "baselines": ["cai_bound", "chen_bound", "friedlander_bound", "ge_bound", "haixiao_bound",
                  "k_ratios"],
    "bounds": ["GuaranteeParams", "GuaranteeResult", "local_bound"],
    "errors": ["BudgetExceededError", "ConfigError", "InfeasibleProblemError",
               "InvalidInputError", "PriorCSError"],
    "matrices": ["SensingMatrix", "coherence", "generate_matrix"],
    "solver": ["RecoveryProblem", "SolveReport", "SolveTolerances", "kkt_check",
               "solve_weighted_l1", "solve_weighted_l1_batch"],
    "supports": ["ErrorTerms", "SupportModel", "error_terms", "format_index_set",
                 "prior_support_for", "support_model"],
    "tools": ["IsometryReport", "isometry_report", "read_matrix_file", "read_problem_file",
              "ric_exact", "roc_exact", "write_matrix_file"],
}


def last_line(script: str, *argv) -> str:
    """The last line a fresh process prints when it runs script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    return proc.stdout.splitlines()[-1]


def loaded_after(code: str, *argv) -> set:
    """The priorcs modules in sys.modules after a fresh process runs code."""
    return set(last_line(
        code + "\nprint(*sorted(m for m in sys.modules if m.startswith('priorcs')))", *argv).split())


RUN_MAIN = "import sys\nfrom priorcs.cli import main\nassert main(sys.argv[1:]) == 0"
COMMON_MODULES = {"priorcs", "priorcs.cli", "priorcs.errors", "priorcs.experiments",
                  "priorcs.bounds", "priorcs.tables"}
SWEEP_MODULES = COMMON_MODULES | {"priorcs.sweeps", "priorcs.plots"}
VERIFY_ARGS = ("verify", "-o", "trials=1", "-o", "rho_list=1", "-o", "w_grid=0.5")


@pytest.mark.parametrize("command, modules", [
    ("fig1", SWEEP_MODULES),
    ("fig2", SWEEP_MODULES | {"priorcs.supports"}),
    ("fig3", SWEEP_MODULES | {"priorcs.baselines"}),
    ("fig4", SWEEP_MODULES | {"priorcs.baselines"}),
])
def test_a_sweep_loads_only_what_it_runs(command, modules, tmp_path):
    assert loaded_after(RUN_MAIN, command, "-o", "w_grid=0,1", "--out-dir", str(tmp_path)) == modules


def test_verify_loads_only_what_it_runs(tmp_path):
    assert loaded_after(RUN_MAIN, *VERIFY_ARGS, "--out-dir", str(tmp_path)) == COMMON_MODULES | {
        "priorcs.matrices", "priorcs.solver", "priorcs.polish", "priorcs.supports"}


def test_a_tool_command_loads_only_what_it_runs():
    assert loaded_after(RUN_MAIN, "bounds", "--mu", "0.1", "--k", "2") == COMMON_MODULES | {
        "priorcs.tools", "priorcs.baselines", "priorcs.matrices"}


# AST nodes that a fresh verify process may compile from src/priorcs. Under
# PYTHONDONTWRITEBYTECODE=1 every process compiles what it loads, and compile
# time follows the node count (about 1 us a node on a 2-vCPU VM), which
# docstrings and comments barely move, so the budget counts nodes, not lines.
VERIFY_NODE_BUDGET = 17_000


def ast_nodes(module: str) -> int:
    """The AST nodes of a priorcs module's source, such as priorcs.solver."""
    name = module.partition(".")[2] or "__init__"
    return sum(1 for _ in ast.walk(ast.parse((Path(SRC) / "priorcs" / f"{name}.py").read_text())))


def test_verify_compiles_within_its_node_budget(tmp_path):
    counts = {m: ast_nodes(m) for m in loaded_after(RUN_MAIN, *VERIFY_ARGS, "--out-dir", str(tmp_path))}
    table = "\n".join(f"{m}: {n}" for m, n in sorted(counts.items(), key=lambda item: -item[1]))
    assert sum(counts.values()) <= VERIFY_NODE_BUDGET, (
        f"verify loads {sum(counts.values())} AST nodes, over {VERIFY_NODE_BUDGET}:\n{table}")


@pytest.mark.parametrize("args", [
    ["fig1", "-o", "w_grid=0,1"], ["fig2", "-o", "w_grid=0,1"], ["fig3", "-o", "w_grid=0,1"],
    ["fig4", "-o", "w_grid=0,1"], ["verify", "-o", "trials=1", "-o", "rho_list=1", "-o", "w_grid=0.5"],
], ids=lambda args: args[0])
def test_a_command_leaves_numpy_ma_unloaded(args, tmp_path):
    # np.unique loads numpy.ma (about 720 KB resident); the CSV grouping sorts instead
    script = RUN_MAIN + "\nprint(any(m == 'numpy.ma' or m.startswith('numpy.ma.') for m in sys.modules))"
    assert last_line(script, *args, "--out-dir", str(tmp_path)) == "False"


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
