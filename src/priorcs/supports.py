"""Support-set arithmetic for prior-support sparse recovery.

Everything here is index bookkeeping: best k-term approximations, the
(rho, alpha) geometry of a prior support T against the top-k support T0, and
the l1 error terms that multiply the guarantee coefficients. Indices are
0-based throughout the Python API; the CLI and CSV serializations are 1-based.

Each function takes one signal x of length n or a (B, n) stack of signals,
one per row, and a 1-D signal is the stack of one: row i of a stack's result
is bit for bit the result for row i alone. A stack's index sets come as a
(B, t) integer array, one set per row. Each l1 sum runs over a row's
selected entries compacted into one contiguous run, rows of equal count
together, so numpy's pairwise summation groups them as in a 1-D sum.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError


def _signals(x):
    """x as a (B, n) float stack of finite signals, and whether it was 1-D."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"x must be numeric: {exc}") from exc
    if x.ndim not in (1, 2) or x.size == 0:
        raise InvalidInputError(f"x must be a signal or a stack of signals, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInputError("x must be finite")
    return np.atleast_2d(x), x.ndim == 1


def _indices(T) -> np.ndarray:
    """An index set, or a stack of them, as an integer array."""
    try:
        idx = np.asarray(T if isinstance(T, np.ndarray) else list(T))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"an index set must be a sequence of integers: {exc}") from exc
    if idx.size == 0:
        return idx.astype(np.intp)
    if idx.dtype.kind not in "iu":
        raise InvalidInputError(f"indices must be integers, got {idx.dtype} values {T!r}")
    return idx


def index_sets(T, rows: int, n: int) -> np.ndarray:
    """T as a (rows, t) array of indices in [0, n): a 1-D T is one set, a
    2-D T one set per row."""
    idx = _indices(T)
    if idx.ndim == 1 and rows == 1:
        idx = idx[None, :]
    if idx.ndim != 2 or idx.shape[0] != rows:
        raise InvalidInputError(f"expected {rows} index set(s) of equal size, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidInputError(f"T must be a subset of [0, {n}), got {T!r}")
    return idx


def _ranked(x, k):
    """Each row's indices by magnitude, largest first and ties to the lowest
    index, and the membership mask of T0, the nonzero entries among the
    first k."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise InvalidInputError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= x.shape[1]:
        raise InvalidInputError(f"k must be in [1, {x.shape[1]}], got {k}")
    order = np.argsort(-np.abs(x), axis=1, kind="stable")
    return order, _mask(x.shape, order[:, :k]) & (x != 0.0)


def _mask(shape, idx):
    """A (B, n) mask holding row i's indices idx[i]."""
    mask = np.zeros(shape, dtype=bool)
    mask[np.arange(shape[0])[:, None], idx] = True
    return mask


def _sets(mask):
    """The sorted index tuple of a 1-D mask, or one per row of a stack."""
    if mask.ndim == 1:
        return tuple(np.flatnonzero(mask).tolist())
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in mask)


def best_k_term(x, k: int):
    """Best k-term approximation of x and its support.

    Keeps the k largest-magnitude entries (ties broken by lowest index) and
    zeros the rest. Returns (x_k, T0) where T0 is the support of x_k; T0 can
    have fewer than k elements when x has fewer than k nonzeros. For a stack,
    x_k is a stack and T0 holds one tuple per row.
    """
    xs, single = _signals(x)
    order, in_t0 = _ranked(xs, k)
    x_k = np.where(_mask(xs.shape, order[:, :k]), xs, 0.0)
    return (x_k[0], _sets(in_t0[0])) if single else (x_k, _sets(in_t0))


class SupportModel(NamedTuple):
    """Prior-support geometry: |T| = rho*k and |T inter T0| = alpha*|T|.

    rho and alpha are the correctly rounded quotients of those counts; w may
    be an array of weights, giving e_local per weight. in_t and in_t0 are
    the membership masks of T and T0. For a stack of signals the masks have
    one row per signal and alpha one entry per signal; T and T0 then hold
    one tuple per signal.
    """

    n: int
    k: int
    in_t: np.ndarray
    in_t0: np.ndarray
    rho: float
    alpha: float | np.ndarray
    w: float | np.ndarray

    @property
    def T(self) -> tuple:
        return _sets(self.in_t)

    @property
    def T0(self) -> tuple:
        return _sets(self.in_t0)


def support_model(x, T, k: int, w) -> SupportModel:
    """Build the (rho, alpha, w) geometry of prior support T for signal x."""
    xs, single = _signals(x)
    rows, n = xs.shape
    idx = index_sets(T, rows, n)
    in_t = _mask(xs.shape, idx)
    t_size = idx.shape[1]
    if np.count_nonzero(in_t) < idx.size:
        raise InvalidInputError("T contains duplicate indices")
    weights = np.asarray(w, dtype=float)
    if not ((0.0 <= weights) & (weights <= 1.0)).all():
        raise InvalidInputError(f"w must be in [0, 1], got {w}")
    _, in_t0 = _ranked(xs, k)
    alpha = (in_t & in_t0).sum(axis=1) / t_size if t_size else np.zeros(rows)
    return SupportModel(n=n, k=k, in_t=in_t[0] if single else in_t,
                        in_t0=in_t0[0] if single else in_t0, rho=t_size / k,
                        alpha=float(alpha[0]) if single else alpha,
                        w=float(w) if weights.ndim == 0 else weights)


class ErrorTerms(NamedTuple):
    """The l1 error pieces multiplying C1 in the recovery guarantees.

    e_local = w*tail_k + (1-w)*off_prior_off_top + missed_top is the
    multiplier of the local bound: the global bounds' multiplier plus the
    mass of the top-k support that T misses. For a stack of signals each
    piece has one entry per signal.
    """

    tail_k: float | np.ndarray
    off_prior_off_top: float | np.ndarray
    missed_top: float | np.ndarray
    e_local: float | np.ndarray


def _row_sums(values, mask):
    """Sum of each row's entries under mask: rows with equal counts are
    compacted into one (rows, count) array and summed along it."""
    counts = np.count_nonzero(mask, axis=1)
    sums = np.empty(len(counts))
    for count in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == count)
        sums[rows] = values[rows][mask[rows]].reshape(rows.size, count).sum(axis=1)
    return sums


def error_terms(x, model: SupportModel) -> ErrorTerms:
    """Evaluate all error-multiplier pieces for x under the given geometry."""
    xs, single = _signals(x)
    in_t, in_t0 = np.atleast_2d(model.in_t), np.atleast_2d(model.in_t0)
    if xs.shape != in_t.shape:
        raise InvalidInputError(f"x has shape {np.shape(x)}, model expects {np.shape(model.in_t)}")
    ax = np.abs(xs)
    pieces = (_row_sums(ax, ~in_t0), _row_sums(ax, ~in_t & ~in_t0), _row_sums(ax, ~in_t & in_t0))
    tail_k, off_prior_off_top, missed_top = (float(p[0]) for p in pieces) if single else pieces
    w = model.w
    return ErrorTerms(
        tail_k=tail_k,
        off_prior_off_top=off_prior_off_top,
        missed_top=missed_top,
        e_local=w * tail_k + (1.0 - w) * off_prior_off_top + missed_top,
    )


def prior_support_for(x, k: int, rho: float, alpha: float):
    """Construct a prior support T with |T| = rho*k and |T inter T0| = alpha*rho*k.

    The overlap takes the largest-magnitude indices of T0 first; the remainder
    is filled with the lowest indices outside T0, which keeps the construction
    deterministic. Raises when the requested sizes are not integers or cannot
    be met by the signal. Returns a sorted tuple, or for a stack a (B, |T|)
    array of sorted rows.
    """
    xs, single = _signals(x)
    n = xs.shape[1]
    t_size = _as_count(rho * k, "rho*k")
    overlap = _as_count(alpha * rho * k, "alpha*rho*k")
    if overlap > t_size:
        raise InvalidInputError(f"overlap {overlap} exceeds |T| = {t_size}")
    if t_size > n:
        raise InvalidInputError(f"|T| = {t_size} exceeds the dimension {n}")
    order, in_t0 = _ranked(xs, k)
    sizes = np.count_nonzero(in_t0, axis=1)
    if overlap > sizes.min():
        raise InvalidInputError(
            f"requested overlap {overlap} but the top-{k} support has only {sizes.min()} entries"
        )
    fill = t_size - overlap
    outside = n - sizes.max()
    if fill > outside:
        raise InvalidInputError(
            f"cannot place {fill} indices outside the top-{k} support (only {outside} available)"
        )
    # the nonzero entries of T0 lead the order
    in_t = _mask(xs.shape, order[:, :overlap])
    in_t |= ~in_t0 & (np.cumsum(~in_t0, axis=1) <= fill)
    chosen = np.nonzero(in_t)[1].reshape(len(xs), t_size)  # each row's indices, ascending
    return tuple(chosen[0].tolist()) if single else chosen


def _as_count(value: float, label: str) -> int:
    rounded = round(value)
    if abs(value - rounded) > 1e-9 or rounded < 0:
        raise InvalidInputError(f"{label} must be a nonnegative integer, got {value}")
    return int(rounded)


def format_index_set(indices):
    """Serialize 0-based indices as sorted 1-based comma-separated integers;
    a (B, t) stack gives one string per row."""
    idx = _indices(indices)
    if idx.ndim not in (1, 2):
        raise InvalidInputError(f"expected an index set or a stack of them, got shape {idx.shape}")
    lines = [",".join(map(str, row)) for row in (np.sort(np.atleast_2d(idx), axis=1) + 1).tolist()]
    return lines[0] if idx.ndim == 1 else lines
