"""Weighted l1 sparse recovery with prior support information.

Library layout:

- ``matrices``: sensing-matrix generation, coherence, exact tiny-scale
  restricted isometry/orthogonality constants, matrix file format.
- ``supports``: best k-term approximations, prior-support geometry
  (rho, alpha), error-multiplier terms.
- ``solver``: the weighted l1 primal-dual solver (one problem, or a batch
  that shares one matrix), the first-order optimality check of a solution
  pair (x, lam), problem file reader.
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
    friedlander_bound,
    ge_bound,
    haixiao_bound,
    k_ratios,
    local_bound,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    InfeasibleProblemError,
    InvalidInputError,
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
    solve_weighted_l1,
    solve_weighted_l1_batch,
)
from .supports import (
    ErrorTerms,
    SupportModel,
    best_k_term,
    error_terms,
    format_index_set,
    prior_support_for,
    support_model,
)

__version__ = "0.1.0"
