"""Support-set arithmetic for prior-support sparse recovery.

Everything here is index bookkeeping: best k-term approximations, the
(rho, alpha) geometry of a prior support T against the top-k support T0, and
the l1 error terms that multiply the guarantee coefficients. Indices are
0-based throughout the Python API; the CLI and CSV serializations are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def best_k_term(x, k: int):
    """Best k-term approximation of x and its support.

    Keeps the k largest-magnitude entries (ties broken by lowest index) and
    zeros the rest. Returns (x_k, T0) where T0 is the support of x_k; T0 can
    have fewer than k elements when x has fewer than k nonzeros.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    # lexsort uses the last key as primary: magnitude descending, then index.
    order = np.lexsort((np.arange(n), -np.abs(x)))[:k]
    x_k = np.zeros(n)
    x_k[order] = x[order]
    t0 = tuple(sorted(int(i) for i in order if x[i] != 0.0))
    return x_k, t0


@dataclass(frozen=True)
class SupportModel:
    """Prior-support geometry: |T| = rho*k and |T inter T0| = alpha*|T|.

    rho and alpha are the correctly rounded quotients of those counts; w may
    be an array of weights, giving e_local per weight.
    """

    n: int
    k: int
    T: tuple
    T0: tuple
    rho: float
    alpha: float
    w: float | np.ndarray


def support_model(x, T, k: int, w) -> SupportModel:
    """Build the (rho, alpha, w) geometry of prior support T for signal x."""
    x = np.asarray(x, dtype=float)
    n = x.size
    t = tuple(sorted(int(i) for i in T))
    if len(set(t)) != len(t):
        raise InvalidInputError("T contains duplicate indices")
    if t and (t[0] < 0 or t[-1] >= n):
        raise InvalidInputError(f"T must be a subset of [0, {n}), got {t}")
    if not np.all((0.0 <= np.asarray(w)) & (np.asarray(w) <= 1.0)):
        raise InvalidInputError(f"w must be in [0, 1], got {w}")
    _, t0 = best_k_term(x, k)
    alpha = len(set(t) & set(t0)) / len(t) if t else 0.0
    return SupportModel(n=n, k=k, T=t, T0=t0, rho=len(t) / k, alpha=alpha,
                        w=float(w) if np.ndim(w) == 0 else np.asarray(w, dtype=float))


@dataclass(frozen=True)
class ErrorTerms:
    """The l1 error pieces multiplying C1 in the recovery guarantees.

    e_local = w*tail_k + (1-w)*off_prior_off_top + missed_top is the
    multiplier of the local bound: the global bounds' multiplier plus the
    mass of the top-k support that T misses.
    """

    tail_k: float
    off_prior_off_top: float
    missed_top: float
    e_local: float


def error_terms(x, model: SupportModel) -> ErrorTerms:
    """Evaluate all error-multiplier pieces for x under the given geometry."""
    x = np.asarray(x, dtype=float)
    if x.size != model.n:
        raise InvalidInputError(f"x has length {x.size}, model expects {model.n}")
    ax = np.abs(x)
    in_t = np.zeros(model.n, dtype=bool)
    in_t[list(model.T)] = True
    in_t0 = np.zeros(model.n, dtype=bool)
    in_t0[list(model.T0)] = True

    tail_k = float(ax[~in_t0].sum())
    off_prior_off_top = float(ax[~in_t & ~in_t0].sum())
    missed_top = float(ax[~in_t & in_t0].sum())
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
    be met by the signal.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    t_size = _as_count(rho * k, "rho*k")
    overlap = _as_count(alpha * rho * k, "alpha*rho*k")
    if overlap > t_size:
        raise InvalidInputError(f"overlap {overlap} exceeds |T| = {t_size}")
    if t_size > n:
        raise InvalidInputError(f"|T| = {t_size} exceeds the dimension {n}")
    _, t0 = best_k_term(x, k)
    if overlap > len(t0):
        raise InvalidInputError(
            f"requested overlap {overlap} but the top-{k} support has only {len(t0)} entries"
        )
    fill = t_size - overlap
    in_t0 = set(t0)
    outside = [i for i in range(n) if i not in in_t0]
    if fill > len(outside):
        raise InvalidInputError(
            f"cannot place {fill} indices outside the top-{k} support (only {len(outside)} available)"
        )
    by_magnitude = sorted(t0, key=lambda i: (-abs(x[i]), i))
    chosen = by_magnitude[:overlap] + outside[:fill]
    return tuple(sorted(chosen))


def _as_count(value: float, label: str) -> int:
    rounded = round(value)
    if abs(value - rounded) > 1e-9 or rounded < 0:
        raise InvalidInputError(f"{label} must be a nonnegative integer, got {value}")
    return int(rounded)


def format_index_set(indices) -> str:
    """Serialize 0-based indices as sorted 1-based comma-separated integers."""
    return ",".join(str(i + 1) for i in sorted(indices))
