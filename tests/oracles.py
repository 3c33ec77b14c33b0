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


def proof_error_multiplier(x, t, t0, w):
    """The local bound's multiplier in the form its proof uses:
    w*|x on T minus T0|_1 + |x off T|_1."""
    x = np.abs(np.asarray(x, dtype=float))
    on_t = np.isin(np.arange(x.size), list(t))
    off_top = ~np.isin(np.arange(x.size), list(t0))
    return w * x[on_t & off_top].sum() + x[~on_t].sum()


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


def solve_l0_oracle(entries, y, eps, k_max, feas_tol=1e-8):
    """Sparsest x with ||Ax - y|| <= eps + feas_tol, by exhausting all supports
    of size 0..k_max (tiny n only).

    Per support the coefficients are the minimal-norm least-squares fit. Among
    the feasible supports of the smallest size the one with the smallest
    residual wins, ties going to the lexicographically first support. Returns
    (x0, k0), or None when no support of size <= k_max fits.
    """
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[1]
    for size in range(k_max + 1):
        best = None
        for support in itertools.combinations(range(n), size):
            block = entries[:, list(support)]
            coeffs, *_ = np.linalg.lstsq(block, y, rcond=None)
            residual = float(np.linalg.norm(block @ coeffs - y))
            if residual <= eps + feas_tol and (best is None or residual < best[0]):
                best = (residual, support, coeffs)
        if best is not None:
            _, support, coeffs = best
            x0 = np.zeros(n)
            x0[list(support)] = coeffs
            return x0, size
    return None


def polish_one(a, y, eps, weights, x, lam, opt_tol, feas_tol):
    """The polish try of one iterate: the minimizer of the weighted l1
    program with x's sign pattern held, its multiplier and its pair residual,
    or None when the try fails.

    F = {x_i != 0} | {w_i = 0} is free, c = w_F sign(x_F) and G = A_F^T A_F.
    At eps > 0 the point is z_ls - t G^-1 c with t = sqrt(eps^2 - r^2) /
    sqrt(c^T G^-1 c) and the multiplier (A z - y) / t; at eps = 0 it is the
    least-squares fit z_ls, and the multiplier is lam projected onto
    A_F^T lam = -c. Accepted when the signs on F with w > 0 hold, the point
    is feasible to feas_tol and the pair residual is at most opt_tol.
    """
    free = (x != 0.0) | (weights == 0.0)
    if free.sum() > a.shape[0]:
        return None
    a_f = a[:, free]
    c = weights[free] * np.sign(x[free])
    gram = a_f.T @ a_f
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    second = c if eps > 0.0 else c + a_f.T @ lam
    z_f, g = np.linalg.solve(gram, np.stack([a_f.T @ y, second], axis=1)).T
    if eps > 0.0:
        fit = a_f @ z_f - y
        r2, q = fit @ fit, c @ g
        if q <= 0.0 or r2 >= eps * eps:
            return None
        t = math.sqrt(eps * eps - r2) / math.sqrt(q)
        z_f = z_f - t * g
    positive = weights[free] > 0.0
    if not np.array_equal(np.sign(z_f)[positive], np.sign(x[free])[positive]):
        return None
    z = np.zeros_like(x)
    z[free] = z_f
    residual = a @ z - y
    lam = residual / t if eps > 0.0 else lam - a_f @ g
    v = a.T @ lam
    on = np.abs(v[free] + c).max(initial=0.0)
    off = max(0.0, (np.abs(v[~free]) - weights[~free]).max(initial=0.0))
    pair = max(on, off)
    if math.isnan(on) or math.isnan(off) or pair > opt_tol:
        return None
    if math.sqrt(residual @ residual) - eps > feas_tol:
        return None
    return z, lam, pair


def primal_dual_one_at_a_time(entries, y, eps, weights, opt_tol=1e-8, feas_tol=1e-9, max_iter=200_000,
                              polish_every=10, certify=True):
    """The weighted l1 primal-dual iteration on one problem with 1-D vectors.

    The reference the batched solver must match bit for bit: the same
    operations in the same order, on plain vectors, with a gemv per matrix
    product and a ddot per norm. The stop test runs every polish_every
    iterations (a check) and at iteration max_iter. At a check that the stop
    test does not end, an iterate that is 0 wherever w > 0, feasible and
    equal to the iterate of the previous check is certified with the zero
    multiplier (unless certify is false); otherwise, when the signs of x on
    w > 0 are those of the previous check, the iterate tries polish_one, and
    at eps > 0 a pattern that failed is not tried again. Returns (x, lam,
    iterations, converged, opt_residual, exit, polish tries).
    """
    a = np.asarray(entries, dtype=float)
    norm_y = math.sqrt(y @ y)
    norm_a = float(np.linalg.norm(a, 2))
    step = 0.99 / norm_a if norm_a > 0.0 else 1.0
    norm_w = math.sqrt(weights @ weights)
    scale_y = norm_y - eps if norm_y > eps else norm_y
    omega = norm_w / scale_y if norm_w > 0.0 and scale_y > 0.0 else 1.0
    tau, sigma = step / omega, step * omega
    tau_w, sigma_y, sigma_eps = tau * weights, sigma * y, sigma * eps
    dual_scale = max(1.0, norm_y)

    x = np.zeros(a.shape[1])
    ax, ax_prev, lam = np.zeros(a.shape[0]), np.zeros(a.shape[0]), np.zeros(a.shape[0])
    iterations, opt_residual = 0, math.inf
    previous, still, rejected, tries = None, None, set(), 0
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
        check = iterations % polish_every == 0
        if not check and iterations < max_iter:
            continue
        if opt_residual <= opt_tol and feas <= feas_tol:
            return x, lam, iterations, True, opt_residual, "converged", tries
        if not check:
            continue
        zero_cost = not x[weights > 0.0].any()
        if certify and zero_cost and feas <= feas_tol and np.array_equal(x, still):
            return x, np.zeros_like(lam), iterations, True, 0.0, "certified", tries
        still = x.copy() if zero_cost else None
        pattern = tuple(np.sign(x[weights > 0.0]))
        settled, previous = pattern == previous, pattern
        if not settled or (eps > 0.0 and pattern in rejected):
            continue
        tries += 1
        polished = polish_one(a, y, eps, weights, x, lam, opt_tol, feas_tol)
        if polished is None:
            rejected.add(pattern)
            continue
        z, lam, pair = polished
        return z, lam, iterations, True, pair, "polished", tries
    return x, lam, iterations, False, opt_residual, "max_iter", tries


def csv_cells(values):
    """The CSV cells of one column, formatted one cell at a time by the
    column's type: the reference for the library's bulk CSV formatter."""
    values = np.asarray(values)
    kind, cells = values.dtype.kind, values.tolist()
    if kind == "b":
        return ["true" if v else "false" for v in cells]
    if kind in "iu":
        return [str(v) for v in cells]
    if kind == "f":
        return [f"{v:.12g}" for v in cells]
    out = []
    for v in cells:
        text = str(v).replace("\n", " ").replace("\r", " ")
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        out.append(text)
    return out


def csv_text(columns, data):
    """A table's CSV text, header then one line per row, built cell by cell."""
    lines = [",".join(csv_cells(columns))]
    lines += map(",".join, zip(*(csv_cells(values) for values in data)))
    return "\n".join(lines) + "\n"


def svg_polyline_points(xs, series, left=80, top=50, plot_w=550, plot_h=490):
    """The points attribute of every polyline an SVG line plot draws, one
    point at a time in plain floats: per series, one polyline per run of
    consecutive points where x and y are both finite. left, top, plot_w and
    plot_h place the plot area in pixels."""
    def axis(values):
        finite = [v for v in values if math.isfinite(v)]
        lo, hi = min(finite), max(finite)
        return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)

    xs = [float(v) for v in xs]
    series = [[float(v) for v in ys] for ys in series]
    x_lo, x_hi = axis(xs)
    y_lo, y_hi = axis([v for ys in series for v in ys])
    out = []
    for ys in series:
        run = []
        for x, y in zip(xs + [math.nan], ys + [math.nan]):
            if math.isfinite(x) and math.isfinite(y):
                gx = left + plot_w * (x - x_lo) / (x_hi - x_lo)
                gy = top + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))
                run.append(f"{gx:.2f},{gy:.2f}")
            elif run:
                out.append(" ".join(run))
                run = []
    return out
