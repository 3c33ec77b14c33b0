"""The five global recovery guarantees the local bound is compared with.

Five calculators from the literature, named by their authors as is
conventional, take the parameter grid of ``bounds.GuaranteeParams`` and
return ``bounds.GuaranteeResult``, with the grid and validity conventions of
``bounds``.

One calculator per theorem: friedlander, chen and ge use the isometry
constants they are given, and given none substitute the standard upper bounds
delta_j <= (j-1)*mu and theta_{a,b} <= (a+b-1)*mu, so that everything compares
on the coherence scale (no ``*_coherence`` companions); a partial set is an
error. ``THEOREMS`` lists the six, the local bound first, with the constants
each takes; ``evaluate`` hands a theorem its own. ``k_ratios`` divides the
local cap by the two coherence baselines, cai's and haixiao's, in one call.
Only the bounds command, fig3 and fig4 load this module.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import (GuaranteeParams, GuaranteeResult, _grid, _raise_first, _ratio, _result,
                     local_bound)
from .errors import InvalidInputError

_INT_TOL = 1e-9


def _spread(rho, alpha):
    """|T symmetric-difference T0| / k = 1 + rho - 2*alpha*rho, clamped at 0
    because the overlap check lets alpha*rho exceed 1 by a rounding tolerance."""
    return np.maximum(1.0 + rho - 2.0 * alpha * rho, 0.0)


def _explicit(theorem: str, **constants) -> bool:
    """True when every isometry constant is given (not None), False when none
    is; a partial set is an error."""
    missing = [name for name, value in constants.items() if value is None]
    if 0 < len(missing) < len(constants):
        raise InvalidInputError(f"{theorem} takes {' and '.join(constants)} together; "
                                f"missing {', '.join(missing)}")
    return not missing


def cai_bound(p: GuaranteeParams) -> GuaranteeResult:
    """Global bound for plain l1 minimization in terms of coherence alone.

    Admissible iff k < (1 + 1/mu)/2, equivalently 1 + mu - 2*mu*k > 0.
    """
    mu, k = p.mu, p.k
    k_max = 0.5 * (1.0 + 1.0 / mu)
    gap = 1.0 + mu - 2.0 * mu * k
    denom = gap * math.sqrt(1.0 + mu)
    if denom != 0.0:
        c0 = 2.0 * (gap + 2.0 * math.sqrt(mu * k * (1.0 + (k - 1.0) * mu))) / denom
        c1 = 2.0 * (1.0 + mu) * math.sqrt(mu) / denom
    else:
        c0 = c1 = math.nan
    return _result(
        "cai", _grid(p)[0].shape, c0, c1, k_max,
        (k < k_max and gap > 0.0, f"sparsity bound violated: k = {k} >= (1 + 1/mu)/2 = {k_max:.6g}"),
    )


def haixiao_bound(p: GuaranteeParams) -> GuaranteeResult:
    """Global bound for the weighted problem in terms of coherence alone.

    Q = (1-w)^2 (1 + rho - 2 alpha rho) / (1+w),
    L = (Q + 2 - sqrt(Q(Q+4))) / (1+w), admissible iff k < (L/2)(1 + 1/mu).
    At w = 1 this collapses to the unweighted coherence bound.
    """
    rho, alpha, w = _grid(p)
    mu, k = p.mu, p.k
    with np.errstate(all="ignore"):
        spread = _spread(rho, alpha)
        q = np.square(1.0 - w) * spread / (1.0 + w)
        big_l = (q + 2.0 - np.sqrt(q * (q + 4.0))) / (1.0 + w)
        k_max = 0.5 * big_l * (1.0 + 1.0 / mu)
        lead = 1.0 - (k - 1.0) * mu - mu * k * w
        denom = lead * math.sqrt(1.0 + mu) \
            - math.sqrt(mu) * (1.0 + mu) * (1.0 - w) * np.sqrt(mu * k * spread)
        c0 = _ratio(2.0 * (lead + (1.0 + w) * math.sqrt(mu * k * (1.0 + (k - 1.0) * mu))), denom)
        c1 = _ratio(2.0 * (1.0 + mu) * math.sqrt(mu), denom)
    return _result(
        "haixiao", rho.shape, c0, c1, k_max,
        (k < k_max, f"k = {k} >= (L/2)(1 + 1/mu) = {{:.6g}}", k_max),
        (denom > 0.0, "coefficient denominator <= 0"),
    )


def friedlander_bound(p: GuaranteeParams, delta_ak: float | None = None,
                      delta_a1k: float | None = None) -> GuaranteeResult:
    """Global bound for the weighted problem in terms of isometry constants.

    Requires a free constant a with a > 1, a >= (1 - alpha)*rho and a*k
    integral, plus the isometry constants delta_{ak} and delta_{(a+1)k}.
    With beta = w + (1-w)*sqrt(1 + rho - 2 alpha rho), the premise

        delta_ak + (a/beta^2) delta_{(a+1)k} < a/beta^2 - 1

    is evaluated in the multiplied-out form beta^2 (1 + delta_ak)
    < a (1 - delta_{(a+1)k}), which is equivalent for beta > 0 and remains
    meaningful at beta = 0. The same expression is (the square of) the shared
    coefficient denominator, so validity and positivity coincide.

    Without the isometry constants, a defaults to 2 and delta_j <= (j-1)*mu
    makes the premise linear in k, giving the closed form
    k_max = (a(1+mu) - beta^2 (1-mu)) / (mu a (beta^2 + a + 1)).
    """
    explicit = _explicit("friedlander", delta_ak=delta_ak, delta_a1k=delta_a1k)
    if explicit:
        _require_deltas(delta_ak, delta_a1k)
        if p.a is None:
            raise InvalidInputError("friedlander bound requires the free constant a")
    a, k, mu = 2.0 if p.a is None else p.a, p.k, p.mu
    if not a > 1.0:
        raise InvalidInputError(f"a must be > 1, got {a}")
    rho, alpha, w = _grid(p)
    with np.errstate(all="ignore"):
        beta = w + (1.0 - w) * np.sqrt(_spread(rho, alpha))
    if not explicit:
        with np.errstate(all="ignore"):
            k_max = (a * (1.0 + mu) - beta * beta * (1.0 - mu)) / (mu * a * (beta * beta + a + 1.0))
        delta_ak, delta_a1k = (a * k - 1.0) * mu, ((a + 1.0) * k - 1.0) * mu
        if delta_a1k >= 1.0 or delta_ak >= 1.0:
            return _result("friedlander", rho.shape, math.nan, math.nan, k_max,
                           (False, "coherence substitution gives delta >= 1"))
    floor = (1.0 - alpha) * rho
    _raise_first(rho.shape, [
        (a < floor, f"a = {a} must be >= (1 - alpha)*rho = {{floor}}"),
        (abs(a * k - round(a * k)) > _INT_TOL, f"a*k must be an integer, got {a * k}"),
    ], floor=floor)
    with np.errstate(all="ignore"):
        denom = math.sqrt(1.0 - delta_a1k) - (beta / math.sqrt(a)) * math.sqrt(1.0 + delta_ak)
        c0 = _ratio(2.0 * (1.0 + beta / math.sqrt(a)), denom)
        c1 = _ratio((2.0 / math.sqrt(a * k))
                    * (math.sqrt(1.0 - delta_a1k) + math.sqrt(1.0 + delta_ak)), denom)
    valid = (beta * beta * (1.0 + delta_ak) < a * (1.0 - delta_a1k)) & (denom > 0.0)
    return _result(
        "friedlander", rho.shape, c0, c1, np.where(valid, np.inf, np.nan) if explicit else k_max,
        (valid, "isometry premise fails: beta^2 (1 + delta_ak) >= a (1 - delta_(a+1)k)"),
    )


def chen_bound(p: GuaranteeParams, delta_a: float | None = None,
               theta_ab: float | None = None) -> GuaranteeResult:
    """Global bound for the weighted problem in isometry + orthogonality form.

    Free integers 1 <= a <= k and b >= 1. With r = (1 + rho - 2 alpha rho)*k:

        s = k - a + w*k + (1-w)*sqrt(r)*max(sqrt(r), sqrt(a))
        C = max(s/sqrt(ab), sqrt(s/a)),  d = k (w=1) or max(k, r) (w<1)

    premise delta_a + C*theta_ab < 1. s = 0 (reachable at w = 0) leaves c1
    undefined and is reported as invalid. Without the isometry constants,
    a = b = k by default and the coherence substitutions delta_a <= (a-1)*mu,
    theta_{a,b} <= (a+b-1)*mu apply (at a = b = k, theta_{k,k} <= delta_2k).
    """
    a, b = p.a, p.b
    if not _explicit("chen", delta_a=delta_a, theta_ab=theta_ab):
        a = float(p.k) if a is None else a
        b = float(p.k) if b is None else b
        delta_a, theta_ab = (a - 1.0) * p.mu, (a + b - 1.0) * p.mu
    # no upper limit of 1: the coherence substitution reaches delta_a >= 1 at
    # larger k*mu, which is a failed premise, not an input error
    if not (0.0 <= delta_a < math.inf and 0.0 <= theta_ab < math.inf):
        raise InvalidInputError(f"delta_a and theta_ab must be finite and >= 0, "
                                f"got {delta_a} and {theta_ab}")
    if a is None or b is None:
        raise InvalidInputError("chen bound requires the free constants a and b")
    if not (1 <= a <= p.k) or int(a) != a:
        raise InvalidInputError(f"a must be an integer in [1, k], got {a}")
    if b < 1 or int(b) != b:
        raise InvalidInputError(f"b must be an integer >= 1, got {b}")
    rho, alpha, w = _grid(p)
    with np.errstate(all="ignore"):
        r = _spread(rho, alpha) * p.k
        s = p.k - a + w * p.k + (1.0 - w) * np.sqrt(r) * np.maximum(np.sqrt(r), math.sqrt(a))
        big_c = np.maximum(s / math.sqrt(a * b), np.sqrt(s / a))
        d = np.where(w == 1.0, float(p.k), np.maximum(float(p.k), r))
        denom = 1.0 - delta_a - big_c * theta_ab
        c0 = _ratio(2.0 * np.sqrt(2.0 * (1.0 + delta_a) * d / a), denom)
        c1 = np.where(denom != 0.0, 2.0 * np.sqrt(2.0 * d) * big_c * theta_ab / (denom * s)
                      + 2.0 / np.sqrt(d), np.nan)
    undefined = s <= 0.0
    valid = (denom > 0.0) & ~undefined
    return _result(
        "chen", rho.shape, np.where(undefined, np.nan, c0), np.where(undefined, np.nan, c1),
        np.where(valid, np.inf, np.nan),
        (~undefined, "s = 0: c1 undefined (division by s)"),
        (valid | undefined, "premise fails: delta_a + C*theta_ab >= 1"),
    )


def ge_bound(p: GuaranteeParams, delta_tk: float | None = None,
             c1_form: str = "c0-denominator") -> GuaranteeResult:
    """Global bound from the block-sparse family, reduced to one support estimate.

    ups = w + (1-w)*sqrt(1 + rho - 2 alpha rho); d = 1 at w = 1, otherwise 1
    for alpha >= 1/2 and 1 + rho - 2 alpha rho below; needs t > d and the
    premise delta_tk < sqrt((t-d)/(t-d+ups^2)). Without delta_tk, t defaults
    to 2 and the substitution delta_tk <= (tk-1)*mu applies. c1_form picks
    the reading of c1 (see _ge_readings).
    """
    if c1_form not in ("c0-denominator", "printed"):
        raise InvalidInputError(f"unknown c1_form {c1_form!r}")
    result, printed = _ge_readings(p, delta_tk)
    return result._replace(c1=printed) if c1_form == "printed" else result


def _ge_readings(p: GuaranteeParams, delta_tk: float | None = None) -> tuple:
    """ge_bound's result with the c0-denominator reading of c1, and the
    printed reading of c1, shaped as the result's fields: both readings from
    one evaluation."""
    t = p.t
    if delta_tk is None:
        t = 2.0 if t is None else t
        delta_tk = (t * p.k - 1.0) * p.mu
        if delta_tk >= 1.0:
            result = _result("ge", _grid(p)[0].shape, math.nan, math.nan, math.nan,
                             (False, "coherence substitution gives delta >= 1"))
            return result, result.c1
    _require_deltas(delta_tk)
    if t is None:
        raise InvalidInputError("ge bound requires the free constant t")
    rho, alpha, w = _grid(p)
    with np.errstate(all="ignore"):
        spread = _spread(rho, alpha)
        ups = w + (1.0 - w) * np.sqrt(spread)
        d = np.where((w == 1.0) | (alpha >= 0.5), 1.0, spread)
        _raise_first(rho.shape, [(~(t > d), f"t must exceed d, got t = {t}, d = {{d}}")], d=d)
        gap = t - d
        g = gap + ups * ups
        root = np.sqrt(gap / g)
        c0_denom = g * (root - delta_tk)
        c0 = _ratio(2.0 * np.sqrt(2.0 * gap * g * (1.0 + delta_tk)), c0_denom)

        # The closed form for c1 in the source theorem reads, verbatim:
        #   c1 = (2/sqrt(k)) * ( (sqrt(2)*delta*ups
        #                          + sqrt((t-d+ups^2) * ((t-d)/(t-d+ups^2) - delta) * delta))
        #        / ((t-d+ups^2) * (sqrt((t-d+ups^2) * (t-d)/(t-d+ups^2)) - delta))
        #        + 1/sqrt(d) )
        # Its denominator simplifies to (t-d+ups^2) * (sqrt(t-d) - delta), which does
        # not match c0's denominator even though the two coefficients share one
        # denominator in every other guarantee of this family. The default reading
        # reuses c0's denominator; c1_form="printed" evaluates the literal form.
        # The comparison experiment reports both.
        inner = (gap - delta_tk * g) * delta_tk
        numer = math.sqrt(2.0) * delta_tk * ups + np.sqrt(inner)
        c1, printed = ((2.0 / math.sqrt(p.k)) * (_ratio(numer, denom) + 1.0 / np.sqrt(d))
                       for denom in (c0_denom, g * (np.sqrt(gap) - delta_tk)))
    premise = delta_tk < root
    defined = ~(inner < 0.0)
    result = _result(
        "ge", rho.shape, c0, np.where(defined, c1, np.nan),
        np.where(premise & defined, np.inf, np.nan),
        (premise, "premise fails: delta_tk >= sqrt((t-d)/(t-d+ups^2))"),
        (defined, "c1 undefined: negative square-root argument"),
    )
    printed = np.where(defined, printed, np.nan)
    return result, printed if rho.shape else float(printed)


# name -> (calculator, names of the isometry constants it takes), in report
# order; given none of its constants, a calculator works on the coherence scale
THEOREMS = {
    "local": (local_bound, ()),
    "cai": (cai_bound, ()),
    "haixiao": (haixiao_bound, ()),
    "friedlander": (friedlander_bound, ("delta_ak", "delta_a1k")),
    "chen": (chen_bound, ("delta_a", "theta_ab")),
    "ge": (ge_bound, ("delta_tk",)),
}


def evaluate(name: str, p: GuaranteeParams, **constants) -> GuaranteeResult:
    """The named theorem at p, handed the isometry constants it takes from
    constants (None counts as not given); constants of other theorems are
    ignored."""
    if name not in THEOREMS:
        raise InvalidInputError(f"unknown theorem {name!r}; choose from {tuple(THEOREMS)}")
    calculator, own = THEOREMS[name]
    return calculator(p, **{c: constants.get(c) for c in own})


def k_ratios(p: GuaranteeParams) -> tuple:
    """Local admissible-sparsity supremum over the standard baseline's, cai's
    (1 + 1/mu)/2, and over the weighted one's, haixiao's (L/2)(1 + 1/mu) at
    the same (rho, alpha, w): the pair (standard, weighted)."""
    local, bases = local_bound(p).k_max, (cai_bound(p).k_max, haixiao_bound(p).k_max)
    for base in bases:
        _raise_first(_grid(p)[0].shape,
                     [(~(np.asarray(base) > 0.0), "baseline k_max must be positive, got {base}")],
                     base=base)
    return tuple(local / base for base in bases)


def _require_deltas(*deltas):
    for d in deltas:
        if not 0.0 <= d < 1.0:
            raise InvalidInputError(f"isometry constants must lie in [0, 1), got {d}")
