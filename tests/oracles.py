"""Independent oracles the tests check the library against.

These deliberately do not import the library's calculators: the closed forms
are re-transliterated here on top of mpmath at 50 digits, and the tiny solver
oracles work by exhaustive enumeration. Expected values frozen into tests were
produced by these functions.
"""

import itertools
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def local_coeffs(mu, k, rho, alpha, w):
    """(D, c0, c1, k_max) of the prior-support-restricted bound."""
    mu, rho, alpha, w = map(mp.mpf, (mu, rho, alpha, w))
    rk = rho * k
    c = 2 * w * mp.sqrt(alpha) + 1
    denom = 1 + mu + w * mu * mp.sqrt(rk) - mu * rk * c
    c0 = 2 * mp.sqrt(1 + (rk - 1) * mu) / denom
    c1 = 2 * mu * mp.sqrt(rk) / denom
    if w == 0:
        k_max = (1 / rho) * (1 + 1 / mu)
    else:
        k_max = ((w + mp.sqrt(w ** 2 + 4 * c * (1 + 1 / mu))) / (2 * mp.sqrt(rho) * c)) ** 2
    return denom, c0, c1, k_max


def cai_coeffs(mu, k):
    mu = mp.mpf(mu)
    den = (1 + mu - 2 * mu * k) * mp.sqrt(1 + mu)
    c0 = 2 * (1 + mu - 2 * mu * k + 2 * mp.sqrt(mu * k * (1 + (k - 1) * mu))) / den
    c1 = 2 * (1 + mu) * mp.sqrt(mu) / den
    return c0, c1, (1 + 1 / mu) / 2


def haixiao_coeffs(mu, k, rho, alpha, w):
    mu, rho, alpha, w = map(mp.mpf, (mu, rho, alpha, w))
    spread = 1 + rho - 2 * alpha * rho
    q = (1 - w) ** 2 * spread / (1 + w)
    big_l = (q + 2 - mp.sqrt(q * (q + 4))) / (1 + w)
    k_max = big_l / 2 * (1 + 1 / mu)
    lead = 1 - (k - 1) * mu - mu * k * w
    den = lead * mp.sqrt(1 + mu) - mp.sqrt(mu) * (1 + mu) * (1 - w) * mp.sqrt(mu * k * spread)
    c0 = 2 * (lead + (1 + w) * mp.sqrt(mu * k * (1 + (k - 1) * mu))) / den
    c1 = 2 * (1 + mu) * mp.sqrt(mu) / den
    return c0, c1, k_max


def friedlander_coeffs(mu, k, rho, alpha, w, a):
    """Coherence-substituted version; returns (denominator, c0, c1, premise)."""
    mu, rho, alpha, w, a = map(mp.mpf, (mu, rho, alpha, w, a))
    beta = w + (1 - w) * mp.sqrt(1 + rho - 2 * alpha * rho)
    d_ak = (a * k - 1) * mu
    d_a1k = ((a + 1) * k - 1) * mu
    den = mp.sqrt(1 - d_a1k) - beta / mp.sqrt(a) * mp.sqrt(1 + d_ak)
    c0 = 2 * (1 + beta / mp.sqrt(a)) / den
    c1 = 2 / mp.sqrt(a * k) * (mp.sqrt(1 - d_a1k) + mp.sqrt(1 + d_ak)) / den
    premise = beta ** 2 * (1 + d_ak) < a * (1 - d_a1k)
    return den, c0, c1, premise


def chen_coeffs(mu, k, rho, alpha, w, a, b):
    """Coherence-substituted version; returns (s, c0, c1) with Nones at s = 0."""
    mu, rho, alpha, w = map(mp.mpf, (mu, rho, alpha, w))
    r = (1 + rho - 2 * alpha * rho) * k
    s = k - a + w * k + (1 - w) * mp.sqrt(r) * max(mp.sqrt(r), mp.sqrt(mp.mpf(a)))
    if s == 0:
        return s, None, None
    big_c = max(s / mp.sqrt(a * b), mp.sqrt(s / a))
    d = mp.mpf(k) if w == 1 else max(mp.mpf(k), r)
    delta_a = (a - 1) * mu
    theta = (a + b - 1) * mu
    den = 1 - delta_a - big_c * theta
    c0 = 2 * mp.sqrt(2 * (1 + delta_a) * d / a) / den
    c1 = 2 * mp.sqrt(2 * d) * big_c * theta / (den * s) + 2 / mp.sqrt(d)
    return s, c0, c1


def ge_coeffs(mu, k, rho, alpha, w, t):
    """Coherence-substituted version; returns (premise, c0, c1_shared, c1_printed)."""
    mu, rho, alpha, w, t = map(mp.mpf, (mu, rho, alpha, w, t))
    ups = w + (1 - w) * mp.sqrt(1 + rho - 2 * alpha * rho)
    if w == 1 or alpha >= mp.mpf(1) / 2:
        d = mp.mpf(1)
    else:
        d = 1 + rho - 2 * alpha * rho
    delta = (t * k - 1) * mu
    g = t - d + ups ** 2
    root = mp.sqrt((t - d) / g)
    premise = delta < root
    c0 = 2 * mp.sqrt(2 * (t - d) * g * (1 + delta)) / (g * (root - delta))
    numer = mp.sqrt(2) * delta * ups + mp.sqrt(g * ((t - d) / g - delta) * delta)
    c1_shared = 2 / mp.sqrt(k) * (numer / (g * (root - delta)) + 1 / mp.sqrt(d))
    c1_printed = 2 / mp.sqrt(k) * (numer / (g * (mp.sqrt(t - d) - delta)) + 1 / mp.sqrt(d))
    return premise, c0, c1_shared, c1_printed


def best_tail_by_enumeration(x, k):
    """Smallest l1 tail over every k-subset, by brute force (tiny n only)."""
    x = np.asarray(x, dtype=float)
    total = np.abs(x).sum()
    best = np.inf
    for support in itertools.combinations(range(x.size), k):
        best = min(best, total - np.abs(x[list(support)]).sum())
    return best


def min_weighted_l1_by_vertex_enumeration(entries, y, weights, feas_tol=1e-9):
    """Exact minimum of sum w_i |x_i| over {x : Ax = y} by vertex enumeration.

    The minimum of a (weighted) l1 objective over an affine set is attained at
    a point supported on linearly independent columns, so enumerating all such
    supports and solving exactly is a complete search at tiny scale.
    """
    entries = np.asarray(entries, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m, n = entries.shape
    best_value = None
    best_x = None
    for size in range(0, m + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            block = entries[:, idx]
            if idx and np.linalg.matrix_rank(block) < len(idx):
                continue
            coeffs, *_ = np.linalg.lstsq(block, y, rcond=None) if idx else (np.zeros(0),)
            residual = np.linalg.norm(block @ coeffs - y) if idx else np.linalg.norm(y)
            if residual > feas_tol:
                continue
            x = np.zeros(n)
            x[idx] = coeffs
            value = float(np.sum(weights * np.abs(x)))
            if best_value is None or value < best_value - 1e-15:
                best_value, best_x = value, x
    return best_value, best_x


def primal_dual_one_at_a_time(entries, y, eps, weights, opt_tol=1e-8, feas_tol=1e-9, max_iter=200_000):
    """The weighted l1 primal-dual iteration on one problem with 1-D vectors.

    The reference the batched solver must match bit for bit: the same
    operations in the same order, on plain vectors, with a gemv per matrix
    product and a ddot per norm. Returns (x, lam, iterations, converged,
    opt_residual).
    """
    a = np.asarray(entries, dtype=float)
    norm_y = math.sqrt(y @ y)
    norm_a = float(np.linalg.norm(a, 2))
    step = 0.99 / norm_a if norm_a > 0.0 else 1.0
    norm_w = math.sqrt(weights @ weights)
    omega = norm_w / norm_y if norm_w > 0.0 and norm_y > 0.0 else 1.0
    tau, sigma = step / omega, step * omega
    tau_w, sigma_y, sigma_eps = tau * weights, sigma * y, sigma * eps
    dual_scale = max(1.0, norm_y)

    x = np.zeros(a.shape[1])
    ax, ax_prev, lam = np.zeros(a.shape[0]), np.zeros(a.shape[0]), np.zeros(a.shape[0])
    iterations, converged, opt_residual = 0, False, math.inf
    for iterations in range(1, max_iter + 1):
        ax_bar = 2.0 * ax - ax_prev
        shift = lam + sigma * ax_bar - sigma_y
        shift_norm = math.sqrt(shift @ shift)
        lam_new = shift * (max(0.0, 1.0 - sigma_eps / shift_norm) if shift_norm > 0.0 else 0.0)
        v = x - tau * (a.T @ lam_new)
        x_new = v - np.maximum(np.minimum(v, tau_w), -tau_w)
        ax_new = a @ x_new
        primal = (x - x_new) / tau
        dual = (lam - lam_new) / sigma + (ax_bar - ax_new)
        residual = ax_new - y
        opt_residual = max(math.sqrt(primal @ primal), math.sqrt(dual @ dual) / dual_scale)
        feas = max(math.sqrt(residual @ residual) - eps, 0.0)
        x, ax_prev, ax, lam = x_new, ax, ax_new, lam_new
        if opt_residual <= opt_tol and feas <= feas_tol:
            converged = True
            break
    return x, lam, iterations, converged, opt_residual
