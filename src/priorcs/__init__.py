"""Weighted l1 sparse recovery with prior support information.

Library layout:

- ``matrices``: sensing-matrix generation, coherence, exact tiny-scale
  restricted isometry/orthogonality constants, matrix file format.
- ``supports``: best k-term approximations, prior-support geometry
  (rho, alpha), error-multiplier terms.
- ``solver``: the weighted l1 primal-dual solver (one problem, or a batch
  that shares one matrix), the exhaustive l0 oracle, first-order
  optimality checks, problem file format.
- ``bounds``: the local recovery guarantee and five global guarantees, plus
  coherence-scale substitutions and the admissible-sparsity ratios.
- ``experiments``: deterministic sweeps and the Monte-Carlo verification.
- ``cli``: the ``priorcs`` command.
"""

from .bounds import (
    GuaranteeParams,
    GuaranteeResult,
    cai_bound,
    chen_bound,
    chen_bound_coherence,
    friedlander_bound,
    friedlander_bound_coherence,
    ge_bound,
    ge_bound_coherence,
    haixiao_bound,
    k_ratio,
    local_bound,
    local_k_max,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    InfeasibleProblemError,
    InvalidInputError,
    NoSparseSolutionError,
    PriorCSError,
)
from .matrices import (
    IsometryReport,
    SensingMatrix,
    coherence,
    generate_matrix,
    isometry_report,
    read_matrix_file,
    ric_exact,
    roc_exact,
    write_matrix_file,
)
from .solver import (
    RecoveryProblem,
    SolveReport,
    SolveTolerances,
    kkt_check,
    read_problem_file,
    solve_l0_oracle,
    solve_weighted_l1,
    solve_weighted_l1_batch,
    write_problem_file,
)
from .supports import (
    ErrorTerms,
    SupportModel,
    best_k_term,
    error_terms,
    format_index_set,
    parse_index_set,
    prior_support_for,
    support_model,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConfigError",
    "ErrorTerms",
    "GuaranteeParams",
    "GuaranteeResult",
    "InfeasibleProblemError",
    "InvalidInputError",
    "IsometryReport",
    "NoSparseSolutionError",
    "PriorCSError",
    "RecoveryProblem",
    "SensingMatrix",
    "SolveReport",
    "SolveTolerances",
    "SupportModel",
    "best_k_term",
    "cai_bound",
    "chen_bound",
    "chen_bound_coherence",
    "coherence",
    "error_terms",
    "format_index_set",
    "friedlander_bound",
    "friedlander_bound_coherence",
    "ge_bound",
    "ge_bound_coherence",
    "generate_matrix",
    "haixiao_bound",
    "isometry_report",
    "k_ratio",
    "kkt_check",
    "local_bound",
    "local_k_max",
    "parse_index_set",
    "prior_support_for",
    "read_matrix_file",
    "read_problem_file",
    "ric_exact",
    "roc_exact",
    "solve_l0_oracle",
    "solve_weighted_l1",
    "solve_weighted_l1_batch",
    "support_model",
    "write_matrix_file",
    "write_problem_file",
]
