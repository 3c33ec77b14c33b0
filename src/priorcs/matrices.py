"""Sensing matrices: generation, coherence, and exact isometry constants.

Coherence is computed exactly at any size. The restricted isometry and
restricted orthogonality constants are NP-hard in general, so they are only
computed by exhaustive support enumeration at tiny scale; their role here is
to serve as oracles for the coherence-based upper bounds used everywhere else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, InvalidInputError

# Exhaustive-enumeration budgets. C(16,6) supports with 6x6 eigenproblems
# stay well under a second; anything larger is refused rather than ground out.
RIC_MAX_N = 16
RIC_MAX_K = 6

# Columns whose norm is already within this many ulps of 1 are not re-divided,
# so write -> read -> construct round-trips bit-identically.
_UNIT_NORM_SLACK = 64 * np.finfo(float).eps

MATRIX_KINDS = ("gaussian-normalized", "identity-plus-orthobasis", "explicit")


@dataclass(eq=False)
class SensingMatrix:
    """A real m x n measurement matrix with unit-norm columns.

    ``entries`` stores the column-normalized matrix (read-only).
    """

    entries: np.ndarray
    _mu: float | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_array(cls, raw) -> "SensingMatrix":
        arr = np.asarray(raw, dtype=float)
        if arr.ndim != 2:
            raise InvalidInputError(f"matrix must be 2-d, got shape {arr.shape}")
        m, n = arr.shape
        if m < 1 or n < 1:
            raise InvalidInputError(f"matrix must be nonempty, got {m}x{n}")
        if m > n:
            raise InvalidInputError(f"matrix must have m <= n, got {m}x{n}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("matrix entries must be finite")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(arr, axis=0)
        if np.any(norms <= 0.0):
            bad = int(np.argmin(norms))
            raise InvalidInputError(f"column {bad + 1} has zero norm")
        if not np.all(np.isfinite(norms)):
            raise InvalidInputError(f"column {int(np.argmax(norms)) + 1} has a norm that overflows")
        scale = np.where(np.abs(norms - 1.0) <= _UNIT_NORM_SLACK, 1.0, norms)
        entries = arr / scale
        entries.flags.writeable = False
        return cls(entries=entries)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def mu(self) -> float:
        """Coherence, computed once and cached."""
        if self._mu is None:
            self._mu = coherence(self)
        return self._mu


def coherence(matrix: SensingMatrix) -> float:
    """Largest absolute normalized inner product between distinct columns.

    Symmetric in column order and invariant under column sign flips.
    """
    a = matrix.entries
    if a.shape[1] < 2:
        raise InvalidInputError("coherence needs at least 2 columns")
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms <= 0.0):
        raise InvalidInputError("coherence undefined for a zero column")
    gram = np.abs(a.T @ a) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def ric_exact(matrix: SensingMatrix, k: int) -> float:
    """Exact k-th restricted isometry constant by support enumeration.

    Returns max over all supports S of size k of
    max(lambda_max(G_S) - 1, 1 - lambda_min(G_S)) with G_S the Gram matrix of
    the columns in S. Tiny scale only.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    if n > RIC_MAX_N or k > RIC_MAX_K:
        raise BudgetExceededError(
            f"exact RIC budget is n <= {RIC_MAX_N}, k <= {RIC_MAX_K}; got n={n}, k={k}"
        )
    gram = matrix.entries.T @ matrix.entries
    worst = 0.0
    for support in itertools.combinations(range(n), k):
        idx = np.asarray(support)
        eigs = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        worst = max(worst, eigs[-1] - 1.0, 1.0 - eigs[0])
    return worst


def roc_exact(matrix: SensingMatrix, s: int, s_tilde: int) -> float:
    """Exact restricted orthogonality constant theta_{s, s~}.

    Max over disjoint index sets T, T~ of sizes s, s~ of the largest singular
    value of A_T^T A_T~. Sizes at most s suffice because the largest singular
    value is monotone under adding columns, so only exact sizes are visited.
    """
    n = matrix.n
    if s < 1 or s_tilde < 1:
        raise InvalidInputError("set sizes must be >= 1")
    if s + s_tilde > n:
        raise InvalidInputError(f"s + s_tilde must be <= n, got {s}+{s_tilde} > {n}")
    if n > RIC_MAX_N:
        raise BudgetExceededError(f"exact ROC budget is n <= {RIC_MAX_N}, got n={n}")
    gram = matrix.entries.T @ matrix.entries
    worst = 0.0
    symmetric = s == s_tilde
    for left in itertools.combinations(range(n), s):
        rest = [j for j in range(n) if j not in left]
        lidx = np.asarray(left)
        for right in itertools.combinations(rest, s_tilde):
            if symmetric and right < left:
                continue  # sigma_max(M) == sigma_max(M^T): visit each pair once
            block = gram[np.ix_(lidx, np.asarray(right))]
            worst = max(worst, float(np.linalg.svd(block, compute_uv=False)[0]))
    return worst


@dataclass
class IsometryReport:
    """Exact and coherence-bound isometry data for one sparsity level."""

    k: int
    delta_coherence_bound: float
    delta_exact: float | None = None
    theta_exact: float | None = None


def isometry_report(matrix: SensingMatrix, k: int, exact: bool = True) -> IsometryReport:
    """Assemble delta_k data: the (k-1)*mu bound plus exact values in budget."""
    if not 1 <= k <= matrix.n:
        raise InvalidInputError(f"k must be in [1, {matrix.n}], got {k}")
    bound = (k - 1) * matrix.mu
    delta = None
    theta = None
    if exact and matrix.n <= RIC_MAX_N and k <= RIC_MAX_K:
        delta = ric_exact(matrix, k)
        if 2 * k <= matrix.n:
            theta = roc_exact(matrix, k, k)
    return IsometryReport(
        k=k, delta_coherence_bound=bound, delta_exact=delta, theta_exact=theta
    )


def _sylvester_hadamard(m: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < m:
        h = np.block([[h, h], [h, -h]])
    return h


def generate_matrix(kind: str, m: int, n: int, seed: int, entries=None) -> SensingMatrix:
    """Build a unit-column sensing matrix, deterministic in (kind, m, n, seed).

    Kinds:
      gaussian-normalized: i.i.d. standard normal entries, columns normalized.
      identity-plus-orthobasis: [I_m | H_m / sqrt(m)] with H_m the +-1
        orthogonal matrix of order m (m must be a power of two, n = 2m); the
        flat cross-correlation makes the coherence exactly 1/sqrt(m).
      explicit: pass ``entries`` through, normalized; the generated kinds
        take no entries.
    """
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if entries is not None and kind != "explicit":
        raise InvalidInputError(f"{kind} matrices are generated; only the explicit kind takes entries")
    if kind == "gaussian-normalized":
        if n < m:
            raise InvalidInputError(f"gaussian-normalized needs n >= m, got {m}x{n}")
        rng = np.random.default_rng(seed)
        return SensingMatrix.from_array(rng.standard_normal((m, n)))
    if kind == "identity-plus-orthobasis":
        if n != 2 * m:
            raise InvalidInputError(f"identity-plus-orthobasis needs n = 2m, got m={m}, n={n}")
        if m & (m - 1) != 0:
            raise InvalidInputError(
                f"identity-plus-orthobasis needs m a power of two, got m={m}"
            )
        basis = _sylvester_hadamard(m) / np.sqrt(m)
        return SensingMatrix.from_array(np.hstack([np.eye(m), basis]))
    if kind == "explicit":
        if entries is None:
            raise InvalidInputError("explicit kind requires entries")
        arr = np.asarray(entries, dtype=float)
        if arr.shape != (m, n):
            raise InvalidInputError(f"explicit entries have shape {arr.shape}, expected {(m, n)}")
        return SensingMatrix.from_array(arr)
    raise InvalidInputError(f"unknown matrix kind {kind!r}; choose one of {MATRIX_KINDS}")


def format_real(v: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(v))


def write_matrix_text(matrix: SensingMatrix) -> str:
    lines = [f"{matrix.m} {matrix.n}"]
    for row in matrix.entries:
        lines.append(" ".join(format_real(v) for v in row))
    return "\n".join(lines) + "\n"


def write_matrix_file(matrix: SensingMatrix, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(write_matrix_text(matrix))


def read_matrix_text(text: str) -> SensingMatrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise InvalidInputError("matrix text must start with 'm n'")
    try:
        m, n = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise InvalidInputError(f"bad matrix header: {tokens[:2]}") from exc
    if m < 1 or n < 1:
        raise InvalidInputError(f"bad matrix header: {tokens[:2]} (sizes must be >= 1)")
    values = tokens[2:]
    if len(values) != m * n:
        raise InvalidInputError(f"expected {m * n} entries, found {len(values)}")
    try:
        arr = np.array([float(v) for v in values]).reshape(m, n)
    except ValueError as exc:
        raise InvalidInputError("non-numeric matrix entry") from exc
    return SensingMatrix.from_array(arr)


def read_matrix_file(path) -> SensingMatrix:
    with open(path) as fh:
        return read_matrix_text(fh.read())
