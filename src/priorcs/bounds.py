"""Closed-form recovery guarantees for weighted l1 minimization with prior support.

Six calculators share one parameter record: the local bound (error restricted
to the prior support T) and five global bounds from the literature, named by
their authors as is conventional. Each returns coefficients (c0, c1), the
supremum of admissible sparsity where one exists in closed form, and a
validity verdict with a reason. Invalid parameter regions are reported as
structured results rather than raised, so sweeps can chart validity
boundaries; coefficient values are still filled in whenever they are
computable (they can be negative outside the premises).

The calculators taking restricted-isometry or orthogonality constants accept
them as explicit arguments; the ``*_coherence`` companions substitute the
standard upper bounds delta_j <= (j-1)*mu and theta_{a,b} <= (a+b-1)*mu so
that everything can be compared on the coherence scale alone. ``THEOREMS``
lists the six by name, and ``evaluate`` picks a theorem's explicit or
coherence-scale form from the constants it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError

_INT_TOL = 1e-9


@dataclass(frozen=True)
class GuaranteeParams:
    """Parameter point shared by all guarantee calculators.

    mu is the coherence of the sensing matrix (a free scalar here: the bounds
    only see the value, never a concrete matrix). a, b, t are the free
    constants some of the guarantees carry; they stay None unless needed and
    must be finite when given.
    """

    mu: float
    k: int
    rho: float = 0.0
    alpha: float = 0.0
    w: float = 1.0
    a: float | None = None
    b: float | None = None
    t: float | None = None

    def __post_init__(self):
        if not (0.0 < self.mu <= 1.0) or not math.isfinite(self.mu):
            raise InvalidInputError(f"mu must be in (0, 1], got {self.mu}")
        if self.k < 1 or int(self.k) != self.k:
            raise InvalidInputError(f"k must be an integer >= 1, got {self.k}")
        if self.rho < 0 or not math.isfinite(self.rho):
            raise InvalidInputError(f"rho must be >= 0, got {self.rho}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidInputError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.alpha * self.rho > 1.0 + 1e-9:
            # overlap alpha*rho*k cannot exceed the top-k support size k
            raise InvalidInputError(
                f"alpha*rho must be <= 1, got {self.alpha * self.rho} "
                f"(alpha={self.alpha}, rho={self.rho})"
            )
        if not 0.0 <= self.w <= 1.0:
            raise InvalidInputError(f"w must be in [0, 1], got {self.w}")
        for name in ("a", "b", "t"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class GuaranteeResult:
    """One guarantee evaluated at one parameter point.

    k_max is +inf when the guarantee puts no condition on k beyond the
    supplied constants, and nan when the premise fails with no admissible k
    expressible. Invalid results always carry a non-empty reason.
    """

    theorem: str
    c0: float
    c1: float
    k_max: float
    valid: bool
    reason: str = ""


def local_bound(p: GuaranteeParams) -> GuaranteeResult:
    """Recovery bound restricted to the prior support T.

    With rk = rho*k and c = 2*w*sqrt(alpha) + 1:

        D  = 1 + mu + w*mu*sqrt(rk) - mu*rk*c
        c0 = 2*sqrt(1 + (rk-1)*mu) / D,   c1 = 2*mu*sqrt(rk) / D

    admissible iff k < k_max where k_max solves D = 0 in k:

        k_max = (1/rho)*(1 + 1/mu)                                  for w = 0
        k_max = ((w + sqrt(w^2 + 4c(1 + 1/mu))) / (2*sqrt(rho)*c))^2  for w > 0
    """
    mu, k, rho, alpha, w = p.mu, p.k, p.rho, p.alpha, p.w
    if rho == 0.0:
        return GuaranteeResult(
            theorem="local",
            c0=2.0 * math.sqrt(1.0 - mu) / (1.0 + mu),
            c1=0.0,
            k_max=math.inf,
            valid=False,
            reason="empty prior support (rho = 0): c1 degenerates to 0",
        )
    rk = rho * k
    denom = local_denominator(mu, k, rho, alpha, w)
    c0 = 2.0 * math.sqrt(1.0 + (rk - 1.0) * mu) / denom if denom != 0.0 else math.nan
    c1 = 2.0 * mu * math.sqrt(rk) / denom if denom != 0.0 else math.nan
    k_max = local_k_max(mu, rho, alpha, w)
    reasons = []
    if not k < k_max:
        reasons.append(f"k = {k} >= k_max = {k_max:.6g}")
    if not denom > 0.0:
        reasons.append("coefficient denominator <= 0")
    return GuaranteeResult(
        theorem="local", c0=c0, c1=c1, k_max=k_max,
        valid=not reasons, reason="; ".join(reasons),
    )


def local_denominator(mu: float, k: float, rho: float, alpha: float, w: float) -> float:
    """Shared denominator of the local coefficients; positivity is the premise."""
    rk = rho * k
    c = 2.0 * w * math.sqrt(alpha) + 1.0
    return 1.0 + mu + w * mu * math.sqrt(rk) - mu * rk * c


def local_k_max(mu: float, rho: float, alpha: float, w: float) -> float:
    """Supremum of sparsity admissible for the local bound."""
    if rho == 0.0:
        return math.inf
    if w == 0.0:
        return (1.0 + 1.0 / mu) / rho
    c = 2.0 * w * math.sqrt(alpha) + 1.0
    root = (w + math.sqrt(w * w + 4.0 * c * (1.0 + 1.0 / mu))) / (2.0 * math.sqrt(rho) * c)
    return root * root


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
    valid = k < k_max and gap > 0.0
    reason = "" if valid else f"sparsity bound violated: k = {k} >= (1 + 1/mu)/2 = {k_max:.6g}"
    return GuaranteeResult(theorem="cai", c0=c0, c1=c1, k_max=k_max, valid=valid, reason=reason)


def haixiao_bound(p: GuaranteeParams) -> GuaranteeResult:
    """Global bound for the weighted problem in terms of coherence alone.

    Q = (1-w)^2 (1 + rho - 2 alpha rho) / (1+w),
    L = (Q + 2 - sqrt(Q(Q+4))) / (1+w), admissible iff k < (L/2)(1 + 1/mu).
    At w = 1 this collapses to the unweighted coherence bound.
    """
    mu, k, rho, alpha, w = p.mu, p.k, p.rho, p.alpha, p.w
    spread = 1.0 + rho - 2.0 * alpha * rho
    q = (1.0 - w) ** 2 * spread / (1.0 + w)
    big_l = (q + 2.0 - math.sqrt(q * (q + 4.0))) / (1.0 + w)
    k_max = 0.5 * big_l * (1.0 + 1.0 / mu)
    lead = 1.0 - (k - 1.0) * mu - mu * k * w
    denom = lead * math.sqrt(1.0 + mu) \
        - math.sqrt(mu) * (1.0 + mu) * (1.0 - w) * math.sqrt(mu * k * spread)
    if denom != 0.0:
        c0 = 2.0 * (lead + (1.0 + w) * math.sqrt(mu * k * (1.0 + (k - 1.0) * mu))) / denom
        c1 = 2.0 * (1.0 + mu) * math.sqrt(mu) / denom
    else:
        c0 = c1 = math.nan
    reasons = []
    if not k < k_max:
        reasons.append(f"k = {k} >= (L/2)(1 + 1/mu) = {k_max:.6g}")
    if not denom > 0.0:
        reasons.append("coefficient denominator <= 0")
    return GuaranteeResult(
        theorem="haixiao", c0=c0, c1=c1, k_max=k_max,
        valid=not reasons, reason="; ".join(reasons),
    )


def _spread_root(rho: float, alpha: float) -> float:
    return math.sqrt(1.0 + rho - 2.0 * alpha * rho)


def friedlander_bound(p: GuaranteeParams, delta_ak: float, delta_a1k: float) -> GuaranteeResult:
    """Global bound for the weighted problem in terms of isometry constants.

    Requires a free constant a with a > 1, a >= (1 - alpha)*rho and a*k
    integral, plus the isometry constants delta_{ak} and delta_{(a+1)k}.
    With beta = w + (1-w)*sqrt(1 + rho - 2 alpha rho), the premise

        delta_ak + (a/beta^2) delta_{(a+1)k} < a/beta^2 - 1

    is evaluated in the multiplied-out form beta^2 (1 + delta_ak)
    < a (1 - delta_{(a+1)k}), which is equivalent for beta > 0 and remains
    meaningful at beta = 0. The same expression is (the square of) the shared
    coefficient denominator, so validity and positivity coincide.
    """
    _require_deltas(delta_ak, delta_a1k)
    a = p.a
    if a is None:
        raise InvalidInputError("friedlander bound requires the free constant a")
    if not a > 1.0:
        raise InvalidInputError(f"a must be > 1, got {a}")
    if a < (1.0 - p.alpha) * p.rho:
        raise InvalidInputError(f"a = {a} must be >= (1 - alpha)*rho = {(1.0 - p.alpha) * p.rho}")
    if abs(a * p.k - round(a * p.k)) > _INT_TOL:
        raise InvalidInputError(f"a*k must be an integer, got {a * p.k}")
    beta = p.w + (1.0 - p.w) * _spread_root(p.rho, p.alpha)
    denom = math.sqrt(1.0 - delta_a1k) - (beta / math.sqrt(a)) * math.sqrt(1.0 + delta_ak)
    premise = beta * beta * (1.0 + delta_ak) < a * (1.0 - delta_a1k)
    if denom != 0.0:
        c0 = 2.0 * (1.0 + beta / math.sqrt(a)) / denom
        c1 = (2.0 / math.sqrt(a * p.k)) \
            * (math.sqrt(1.0 - delta_a1k) + math.sqrt(1.0 + delta_ak)) / denom
    else:
        c0 = c1 = math.nan
    valid = premise and denom > 0.0
    return GuaranteeResult(
        theorem="friedlander", c0=c0, c1=c1,
        k_max=math.inf if valid else math.nan,
        valid=valid,
        reason="" if valid else "isometry premise fails: beta^2 (1 + delta_ak) >= a (1 - delta_(a+1)k)",
    )


def friedlander_bound_coherence(p: GuaranteeParams) -> GuaranteeResult:
    """Friedlander bound under delta_j <= (j-1)*mu, default a = 2.

    On the coherence scale the premise becomes linear in k, giving the closed
    form k_max = (a(1+mu) - beta^2 (1-mu)) / (mu a (beta^2 + a + 1)).
    """
    p = _with_default(p, a=2.0)
    a, k, mu = p.a, p.k, p.mu
    if not a > 1.0:
        raise InvalidInputError(f"a must be > 1, got {a}")
    beta = p.w + (1.0 - p.w) * _spread_root(p.rho, p.alpha)
    k_max = (a * (1.0 + mu) - beta * beta * (1.0 - mu)) / (mu * a * (beta * beta + a + 1.0))
    delta_ak = (a * k - 1.0) * mu
    delta_a1k = ((a + 1.0) * k - 1.0) * mu
    if delta_a1k >= 1.0 or delta_ak >= 1.0:
        return GuaranteeResult(
            theorem="friedlander", c0=math.nan, c1=math.nan, k_max=k_max,
            valid=False, reason="coherence substitution gives delta >= 1",
        )
    res = friedlander_bound(p, delta_ak=delta_ak, delta_a1k=delta_a1k)
    return GuaranteeResult(
        theorem=res.theorem, c0=res.c0, c1=res.c1, k_max=k_max,
        valid=res.valid, reason=res.reason,
    )


def chen_bound(p: GuaranteeParams, delta_a: float, theta_ab: float) -> GuaranteeResult:
    """Global bound for the weighted problem in isometry + orthogonality form.

    Free integers 1 <= a <= k and b >= 1. With r = (1 + rho - 2 alpha rho)*k:

        s = k - a + w*k + (1-w)*sqrt(r)*max(sqrt(r), sqrt(a))
        C = max(s/sqrt(ab), sqrt(s/a)),  d = k (w=1) or max(k, r) (w<1)

    premise delta_a + C*theta_ab < 1. s = 0 (reachable at w = 0) leaves c1
    undefined and is reported as invalid.
    """
    if delta_a < 0.0 or theta_ab < 0.0:
        raise InvalidInputError("delta_a and theta_ab must be >= 0")
    a, b = p.a, p.b
    if a is None or b is None:
        raise InvalidInputError("chen bound requires the free constants a and b")
    if not (1 <= a <= p.k) or int(a) != a:
        raise InvalidInputError(f"a must be an integer in [1, k], got {a}")
    if b < 1 or int(b) != b:
        raise InvalidInputError(f"b must be an integer >= 1, got {b}")
    r = (1.0 + p.rho - 2.0 * p.alpha * p.rho) * p.k
    s = p.k - a + p.w * p.k + (1.0 - p.w) * math.sqrt(r) * max(math.sqrt(r), math.sqrt(a))
    if s <= 0.0:
        return GuaranteeResult(
            theorem="chen", c0=math.nan, c1=math.nan, k_max=math.nan,
            valid=False, reason="s = 0: c1 undefined (division by s)",
        )
    big_c = max(s / math.sqrt(a * b), math.sqrt(s / a))
    d = float(p.k) if p.w == 1.0 else max(float(p.k), r)
    denom = 1.0 - delta_a - big_c * theta_ab
    if denom != 0.0:
        c0 = 2.0 * math.sqrt(2.0 * (1.0 + delta_a) * d / a) / denom
        c1 = 2.0 * math.sqrt(2.0 * d) * big_c * theta_ab / (denom * s) + 2.0 / math.sqrt(d)
    else:
        c0 = c1 = math.nan
    valid = denom > 0.0
    return GuaranteeResult(
        theorem="chen", c0=c0, c1=c1,
        k_max=math.inf if valid else math.nan,
        valid=valid,
        reason="" if valid else "premise fails: delta_a + C*theta_ab >= 1",
    )


def chen_bound_coherence(p: GuaranteeParams) -> GuaranteeResult:
    """Chen bound with a = b = k and the coherence substitutions
    delta_k <= (k-1)*mu, theta_{k,k} <= delta_2k <= (2k-1)*mu."""
    p = _with_default(p, a=float(p.k), b=float(p.k))
    return chen_bound(p, delta_a=(p.a - 1.0) * p.mu, theta_ab=(p.a + p.b - 1.0) * p.mu)


def ge_bound(p: GuaranteeParams, delta_tk: float, c1_form: str = "c0-denominator") -> GuaranteeResult:
    """Global bound from the block-sparse family, reduced to one support estimate.

    ups = w + (1-w)*sqrt(1 + rho - 2 alpha rho); d = 1 at w = 1, otherwise 1
    for alpha >= 1/2 and 1 + rho - 2 alpha rho below; needs t > d and the
    premise delta_tk < sqrt((t-d)/(t-d+ups^2)).
    """
    _require_deltas(delta_tk)
    t = p.t
    if t is None:
        raise InvalidInputError("ge bound requires the free constant t")
    if c1_form not in ("c0-denominator", "printed"):
        raise InvalidInputError(f"unknown c1_form {c1_form!r}")
    ups = p.w + (1.0 - p.w) * _spread_root(p.rho, p.alpha)
    if p.w == 1.0 or p.alpha >= 0.5:
        d = 1.0
    else:
        d = 1.0 + p.rho - 2.0 * p.alpha * p.rho
    if not t > d:
        raise InvalidInputError(f"t must exceed d, got t = {t}, d = {d}")
    gap = t - d
    g = gap + ups * ups
    root = math.sqrt(gap / g)
    premise = delta_tk < root
    c0_denom = g * (root - delta_tk)
    c0 = 2.0 * math.sqrt(2.0 * gap * g * (1.0 + delta_tk)) / c0_denom if c0_denom != 0.0 else math.nan

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
    reasons = []
    if not premise:
        reasons.append("premise fails: delta_tk >= sqrt((t-d)/(t-d+ups^2))")
    if inner < 0.0:
        c1 = math.nan
        reasons.append("c1 undefined: negative square-root argument")
    else:
        numer = math.sqrt(2.0) * delta_tk * ups + math.sqrt(inner)
        c1_denom = c0_denom if c1_form == "c0-denominator" else g * (math.sqrt(gap) - delta_tk)
        frac = numer / c1_denom if c1_denom != 0.0 else math.nan
        c1 = (2.0 / math.sqrt(p.k)) * (frac + 1.0 / math.sqrt(d))
    valid = not reasons
    return GuaranteeResult(
        theorem="ge", c0=c0, c1=c1,
        k_max=math.inf if valid else math.nan,
        valid=valid, reason="; ".join(reasons),
    )


def ge_bound_coherence(p: GuaranteeParams, c1_form: str = "c0-denominator") -> GuaranteeResult:
    """Ge bound with t = 2 and the substitution delta_tk <= (tk-1)*mu."""
    p = _with_default(p, t=2.0)
    delta_tk = (p.t * p.k - 1.0) * p.mu
    if delta_tk >= 1.0:
        return GuaranteeResult(
            theorem="ge", c0=math.nan, c1=math.nan, k_max=math.nan,
            valid=False, reason="coherence substitution gives delta >= 1",
        )
    return ge_bound(p, delta_tk=delta_tk, c1_form=c1_form)


# name -> (coherence-scale calculator, explicit calculator, names of the isometry
# constants the explicit one takes), in report order; the first three take none
THEOREMS = {
    "local": (local_bound, None, ()),
    "cai": (cai_bound, None, ()),
    "haixiao": (haixiao_bound, None, ()),
    "friedlander": (friedlander_bound_coherence, friedlander_bound, ("delta_ak", "delta_a1k")),
    "chen": (chen_bound_coherence, chen_bound, ("delta_a", "theta_ab")),
    "ge": (ge_bound_coherence, ge_bound, ("delta_tk",)),
}


def evaluate(name: str, p: GuaranteeParams, **constants) -> GuaranteeResult:
    """The named theorem at p: its explicit form when every isometry constant it
    takes is given (not None) in constants, its coherence-scale form when none
    is. A partial set is an error; constants of other theorems are ignored."""
    if name not in THEOREMS:
        raise InvalidInputError(f"unknown theorem {name!r}; choose from {tuple(THEOREMS)}")
    coherence_form, explicit_form, own = THEOREMS[name]
    given = {c: constants[c] for c in own if constants.get(c) is not None}
    if not given:
        return coherence_form(p)
    if len(given) < len(own):
        missing = ", ".join(c for c in own if c not in given)
        raise InvalidInputError(f"{name} takes {' and '.join(own)} together; missing {missing}")
    return explicit_form(p, **given)


# baseline name -> guarantee whose k_max the local one is compared with
K_RATIO_BASELINES = {"standard": cai_bound, "weighted": haixiao_bound}


def k_ratio(p: GuaranteeParams, baseline: str) -> float:
    """Local admissible-sparsity supremum divided by a baseline's.

    baseline="standard" compares against the unweighted coherence bound
    (1 + 1/mu)/2; baseline="weighted" against the weighted coherence bound
    (L/2)(1 + 1/mu) at the same (rho, alpha, w).
    """
    if baseline not in K_RATIO_BASELINES:
        raise InvalidInputError(
            f"unknown baseline {baseline!r}; choose from {tuple(K_RATIO_BASELINES)}"
        )
    base = K_RATIO_BASELINES[baseline](p).k_max
    if not base > 0.0:
        raise InvalidInputError(f"baseline k_max must be positive, got {base}")
    return local_k_max(p.mu, p.rho, p.alpha, p.w) / base


def _require_deltas(*deltas):
    for d in deltas:
        if not 0.0 <= d < 1.0:
            raise InvalidInputError(f"isometry constants must lie in [0, 1), got {d}")


def _with_default(p: GuaranteeParams, **defaults) -> GuaranteeParams:
    updates = {name: value for name, value in defaults.items() if getattr(p, name) is None}
    if not updates:
        return p
    return GuaranteeParams(
        mu=p.mu, k=p.k, rho=p.rho, alpha=p.alpha, w=p.w,
        a=updates.get("a", p.a), b=updates.get("b", p.b), t=updates.get("t", p.t),
    )
