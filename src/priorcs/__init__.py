"""Weighted l1 sparse recovery with prior support information.

Library layout:

- ``matrices``: sensing-matrix generation and coherence.
- ``supports``: prior-support geometry (rho, alpha) against the top-k
  support, error-multiplier terms.
- ``solver``: the weighted l1 primal-dual solver (one problem, or a batch
  that shares one matrix); ``polish``: its polish tries.
- ``bounds``: the local recovery guarantee and the records all guarantees
  share.
- ``baselines``: the five global guarantees on the coherence scale or with
  given isometry constants, the theorem table and the admissible-sparsity
  ratios.
- ``tools``: the gen-matrix, analyze, solve and bounds commands, the matrix
  and problem file formats, exact tiny-scale restricted isometry and
  orthogonality constants, and the first-order optimality check of a
  solution pair (x, lam), which ``solver`` also resolves.
- ``experiments``: experiment configs and the Monte-Carlo verification;
  ``sweeps``: the deterministic sweeps fig1-fig4; ``tables``: sweep tables
  and CSV; ``plots``: SVG plots.
- ``cli``: the ``priorcs`` command.

Importing the package loads none of them: each public name below, and each
of the seven library modules as an attribute, loads its module on first
access (PEP 562), so a command pays only for the modules it runs. verify
loads neither ``baselines``, ``tools``, ``sweeps`` nor ``plots``.
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
    "baselines": (
        "cai_bound", "chen_bound", "friedlander_bound", "ge_bound", "haixiao_bound", "k_ratios",
    ),
    "bounds": ("GuaranteeParams", "GuaranteeResult", "local_bound"),
    "errors": (
        "BudgetExceededError", "ConfigError", "InfeasibleProblemError", "InvalidInputError",
        "PriorCSError",
    ),
    "matrices": ("SensingMatrix", "coherence", "generate_matrix"),
    "solver": (
        "RecoveryProblem", "SolveReport", "SolveTolerances", "solve_weighted_l1",
        "solve_weighted_l1_batch",
    ),
    "supports": (
        "ErrorTerms", "SupportModel", "error_terms", "format_index_set", "prior_support_for",
        "support_model",
    ),
    "tools": (
        "IsometryReport", "isometry_report", "kkt_check", "read_matrix_file", "read_problem_file",
        "ric_exact", "roc_exact", "write_matrix_file",
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
