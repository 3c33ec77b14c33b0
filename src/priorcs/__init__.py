"""Weighted l1 sparse recovery with prior support information.

Library layout:

- ``matrices``: sensing-matrix generation, coherence, exact tiny-scale
  restricted isometry/orthogonality constants, matrix file format.
- ``supports``: prior-support geometry (rho, alpha) against the top-k
  support, error-multiplier terms.
- ``solver``: the weighted l1 primal-dual solver (one problem, or a batch
  that shares one matrix), the first-order optimality check of a solution
  pair (x, lam), problem file reader.
- ``bounds``: the local recovery guarantee and five global guarantees, plus
  coherence-scale substitutions and the admissible-sparsity ratios.
- ``experiments``: deterministic sweeps and the Monte-Carlo verification.
- ``cli``: the ``priorcs`` command.

Importing the package loads none of them: each public name below, and each
of the five library modules as an attribute, loads its module on first
access (PEP 562), so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The matrix kinds generate_matrix knows and the solver's default iteration
# limit. They are defined here, in the module every import of the package
# runs, so that the experiment config checks and defaults them without
# loading matrices or solver.
MATRIX_KINDS = ("gaussian-normalized", "identity-plus-orthobasis", "explicit")
MAX_ITER = 200_000

# library module -> the public names it defines
_LAZY = {
    "bounds": (
        "GuaranteeParams", "GuaranteeResult", "cai_bound", "chen_bound", "friedlander_bound",
        "ge_bound", "haixiao_bound", "k_ratios", "local_bound",
    ),
    "errors": (
        "BudgetExceededError", "ConfigError", "InfeasibleProblemError", "InvalidInputError",
        "PriorCSError",
    ),
    "matrices": (
        "IsometryReport", "SensingMatrix", "coherence", "generate_matrix", "isometry_report",
        "read_matrix_file", "ric_exact", "roc_exact", "write_matrix_file",
    ),
    "solver": (
        "RecoveryProblem", "SolveReport", "SolveTolerances", "kkt_check", "read_problem_file",
        "solve_weighted_l1", "solve_weighted_l1_batch",
    ),
    "supports": (
        "ErrorTerms", "SupportModel", "error_terms", "format_index_set", "prior_support_for",
        "support_model",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["MATRIX_KINDS", "MAX_ITER", *_MODULE_OF]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
