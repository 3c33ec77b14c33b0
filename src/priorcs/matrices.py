"""Sensing matrices: generation and coherence.

Coherence is computed exactly at any size. The matrix file format and the
exact tiny-scale isometry constants, which only the tool commands use, are
in ``tools``.
"""

from __future__ import annotations

import numpy as np

from . import MATRIX_KINDS
from .errors import InvalidInputError

# Columns whose norm is already within this many ulps of 1 are not re-divided,
# so write -> read -> construct round-trips bit-identically.
_UNIT_NORM_SLACK = 64 * np.finfo(float).eps


class SensingMatrix:
    """A real m x n measurement matrix with unit-norm columns.

    ``entries`` stores the column-normalized matrix (read-only).
    """

    __slots__ = ("entries", "_mu")

    def __init__(self, entries: np.ndarray):
        self.entries = entries
        self._mu = None

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
