"""The local recovery guarantee, and the records every guarantee shares.

The local bound (error restricted to the prior support T) and the five
global bounds of ``baselines`` share one parameter record and one result
record. Each calculator returns coefficients (c0, c1), the supremum of
admissible sparsity where one exists in closed form, and a validity verdict
with a reason. Invalid parameter regions are reported as structured results
rather than raised, so sweeps can chart validity boundaries; coefficient
values are still filled in whenever they are computable (they can be
negative outside the premises).

Every calculator evaluates a grid: rho, alpha and w may be numpy arrays,
broadcast together (mu, k and the free constants a, b, t are scalars), and
the result's fields are arrays of the grid's shape. Each point goes through
the same elementwise operations whatever grid holds it, so its bits do not
depend on the grid; numbers for rho, alpha and w make the grid of one, whose
result holds Python values. An input error reports the first failing point
in grid order, with the message that point alone would give.

``local_bound(p).k_max`` is the local sparsity cap (no ``local_k_max``).
verify needs only this module; the global bounds, the theorem table and the
admissible-sparsity ratios are in ``baselines``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError


class _GuaranteeParams(NamedTuple):
    mu: float
    k: int
    rho: float | np.ndarray = 0.0
    alpha: float | np.ndarray = 0.0
    w: float | np.ndarray = 1.0
    a: float | None = None
    b: float | None = None
    t: float | None = None


class GuaranteeParams(_GuaranteeParams):
    """Parameter grid shared by all guarantee calculators.

    mu is the coherence of the sensing matrix (a free scalar here: the bounds
    only see the value, never a concrete matrix). rho, alpha and w are numbers
    or arrays broadcast together into the grid of points. a, b, t are the free
    constants of friedlander (a), chen (a, b) and ge (t), finite when given.
    None means the coherence-scale default (a = 2; a = b = k; t = 2), and is
    an error when the theorem is given its isometry constants. Every way to
    build one, _make and _replace included, checks the values.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.mu <= 1.0) or not math.isfinite(self.mu):
            raise InvalidInputError(f"mu must be in (0, 1], got {self.mu}")
        if self.k < 1 or int(self.k) != self.k:
            raise InvalidInputError(f"k must be an integer >= 1, got {self.k}")
        rho, alpha, w = np.broadcast_arrays(*(np.asarray(v) for v in (self.rho, self.alpha, self.w)))
        with np.errstate(all="ignore"):
            _raise_first(rho.shape, [
                ((rho < 0) | ~np.isfinite(rho), "rho must be >= 0, got {rho}"),
                (~((0.0 <= alpha) & (alpha <= 1.0)), "alpha must be in [0, 1], got {alpha}"),
                # overlap alpha*rho*k cannot exceed the top-k support size k
                (alpha * rho > 1.0 + 1e-9,
                 "alpha*rho must be <= 1, got {overlap} (alpha={alpha}, rho={rho})"),
                (~((0.0 <= w) & (w <= 1.0)), "w must be in [0, 1], got {w}"),
                *((not math.isfinite(v), f"{name} must be finite, got {v}")
                  for name, v in (("a", self.a), ("b", self.b), ("t", self.t)) if v is not None),
            ], rho=rho, alpha=alpha, overlap=alpha * rho, w=w)
        return self

    @classmethod
    def _make(cls, iterable):
        # the NamedTuple _make, which _replace calls, bypasses __new__
        return cls(*iterable)


class GuaranteeResult(NamedTuple):
    """One guarantee evaluated over a parameter grid.

    k_max is +inf when the guarantee puts no condition on k beyond the
    supplied constants, and nan when the premise fails with no admissible k
    expressible. Invalid points always carry a non-empty reason. Fields are
    arrays of the grid's shape, or Python values for a grid of one."""

    theorem: str
    c0: float
    c1: float
    k_max: float
    valid: bool
    reason: str = ""


def _grid(p: GuaranteeParams):
    """rho, alpha and w of p as float arrays of the grid's shape."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (p.rho, p.alpha, p.w)))


def _ratio(num, den):
    """num/den, nan where den is 0; call under np.errstate."""
    return np.where(den != 0.0, num / den, np.nan)


def _raise_first(shape, checks, **values):
    """Raise for the first failing point in grid order. checks are (failed,
    message) in the order a single point is checked; the message of the first
    check the point fails is formatted with the point's entries of values."""
    failed = [np.ravel(np.broadcast_to(f, shape)) for f, _ in checks]
    bad = np.logical_or.reduce(failed)
    if bad.any():
        i = int(np.argmax(bad))
        message = next(text for f, (_, text) in zip(failed, checks) if f[i])
        raise InvalidInputError(message.format(
            **{name: np.ravel(np.broadcast_to(v, shape))[i].item() for name, v in values.items()}))


def _result(theorem, shape, c0, c1, k_max, *checks) -> GuaranteeResult:
    """A result over a grid of the given shape. checks are (holds, reason) or
    (holds, reason, values) in report order: a point is valid where every check
    holds, and its reason joins with "; " the reasons of the checks it fails,
    a check's reason as it is, or with values a format string filled with the
    point's entry of values (one format call per check; no line breaks)."""
    size = math.prod(shape)
    valid = np.ones(size, dtype=bool)
    reasons = np.full(size, "", dtype=object)
    for holds, text, *values in checks:
        failed = np.flatnonzero(~np.broadcast_to(holds, shape))
        if not failed.size:
            continue
        first = valid[failed]  # no earlier check failed here
        if values:
            at = np.ravel(np.broadcast_to(values[0], shape))[failed].tolist()
            parts = np.array("\n".join([text] * failed.size).format(*at).split("\n"), dtype=object)
            reasons[failed[first]] = parts[first]
            reasons[failed[~first]] += "; " + parts[~first]
        else:
            reasons[failed[first]] = text
            reasons[failed[~first]] += "; " + text
        valid[failed] = False
    c0, c1, k_max = (np.broadcast_to(v, shape) for v in (c0, c1, k_max))
    if not shape:
        return GuaranteeResult(theorem, float(c0), float(c1), float(k_max), bool(valid[0]), reasons[0])
    return GuaranteeResult(theorem, c0, c1, k_max, valid.reshape(shape), reasons.reshape(shape))


def local_bound(p: GuaranteeParams) -> GuaranteeResult:
    """Recovery bound restricted to the prior support T.

    With rk = rho*k and c = 2*w*sqrt(alpha) + 1:

        D  = 1 + mu + w*mu*sqrt(rk) - mu*rk*c
        c0 = 2*sqrt(1 + (rk-1)*mu) / D,   c1 = 2*mu*sqrt(rk) / D

    admissible iff k < k_max where k_max solves D = 0 in k:

        k_max = (1/rho)*(1 + 1/mu)                                  for w = 0
        k_max = ((w + sqrt(w^2 + 4c(1 + 1/mu))) / (2*sqrt(rho)*c))^2  for w > 0
    """
    rho, alpha, w = _grid(p)
    mu, k = p.mu, p.k
    rk = rho * k
    empty = rho == 0.0
    with np.errstate(all="ignore"):
        denom = local_denominator(mu, k, rho, alpha, w)
        c = 2.0 * w * np.sqrt(alpha) + 1.0
        root = (w + np.sqrt(w * w + 4.0 * c * (1.0 + 1.0 / mu))) / (2.0 * np.sqrt(rho) * c)
        k_max = np.where(empty, np.inf, np.where(w == 0.0, (1.0 + 1.0 / mu) / rho, root * root))
        c0 = _ratio(2.0 * np.sqrt(1.0 + (rk - 1.0) * mu), denom)
        c1 = _ratio(2.0 * mu * np.sqrt(rk), denom)
    return _result(
        "local", rho.shape,
        np.where(empty, 2.0 * math.sqrt(1.0 - mu) / (1.0 + mu), c0), np.where(empty, 0.0, c1), k_max,
        (k < k_max, f"k = {k} >= k_max = {{:.6g}}", k_max),
        (denom > 0.0, "coefficient denominator <= 0"),
        (~empty, "empty prior support (rho = 0): c1 degenerates to 0"),
    )


def local_denominator(mu: float, k: float, rho, alpha, w):
    """Shared denominator of the local coefficients; positivity is the premise."""
    rk = rho * k
    c = 2.0 * w * np.sqrt(alpha) + 1.0
    return np.asarray(1.0 + mu + w * mu * np.sqrt(rk) - mu * rk * c)[()]


