"""Polish tries of the batch solve; the solver docstring describes them."""

from __future__ import annotations

import contextlib
import math

import numpy as np


def try_polish(a, y, eps, w, x, lam, tol):
    """Polish tries of some rows at one check, as (accepted, z, lam, residual)
    with one entry per row: the minimizer of the program restricted to the
    row's sign pattern, its multiplier and its pair residual (see the solver
    docstring); where a row is not accepted its other entries are scratch.
    y, w, x and lam are (G, k) stacks of the trying rows, whose free sets
    have at most m coordinates.

    Rows are grouped by |F|, and a group makes one stacked call per step.
    Its A_F^T items are gathered rows of A^T, so their transposes are
    F-ordered like a[:, F], and the gram, A_F^T y, A_F z and the solve run
    the BLAS and LAPACK calls of a try on 1-D vectors, with the same bits
    (C-ordered A_F items would run gemv_n where the 1-D try runs gemv_t).
    If the stacked solve raises, the items are solved one by one, and a
    singular item's NaN solution fails the acceptance tests.
    """
    count, n = x.shape
    accepted = np.zeros(count, dtype=bool)
    z, lam_out, pair = np.zeros((count, n)), np.empty_like(lam), np.empty(count)
    free = (x != 0.0) | (w == 0.0)
    sizes = np.count_nonzero(free, axis=1)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == size)
        fr = free[rows]
        a_ft = a.T[np.nonzero(fr)[1].reshape(rows.size, size)]  # (G, |F|, m), C-ordered
        gram = a_ft @ a_ft.transpose(0, 2, 1)
        a_f = a_ft.transpose(0, 2, 1)
        w_g, y_g, lam_g = w[rows], y[rows][:, :, None], lam[rows][:, :, None]
        w_f = w_g[fr].reshape(rows.size, size)
        c = w_f * np.sign(x[rows][fr].reshape(rows.size, size))
        # at eps = 0 the second column solves for the projection of lam
        second = c[:, :, None] if eps > 0.0 else c[:, :, None] + a_ft @ lam_g
        rhs = np.concatenate((a_ft @ y_g, second), axis=2)
        try:
            solution = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            solution = np.full_like(rhs, math.nan)
            for j in range(rows.size):
                with contextlib.suppress(np.linalg.LinAlgError):
                    solution[j] = np.linalg.solve(gram[j], rhs[j])
        z_f, g = solution[:, :, 0], solution[:, :, 1:]
        ok = True
        if eps > 0.0:
            fit = a_f @ solution[:, :, :1] - y_g
            q = np.vecdot(c, g[:, :, 0])
            r2 = np.vecdot(fit, fit, axis=1)[:, 0]
            ok = (q > 0.0) & (r2 < eps * eps)
            t = np.sqrt(eps * eps - r2) / np.sqrt(q)
            z_f = z_f - t[:, None] * g[:, :, 0]
        ok = ok & (w_f * np.sign(z_f) == c).all(axis=1)
        z_g = np.zeros((rows.size, n))
        z_g[fr] = z_f.reshape(-1)
        residual = a @ z_g[:, :, None] - y_g
        lam_g = residual / t[:, None, None] if eps > 0.0 else lam_g - a_f @ g
        v = (a.T @ lam_g)[:, :, 0]
        # the pair residual: |v + c| on F, |v| - w off it
        excess = np.abs(v)
        excess -= w_g
        excess[fr] = np.abs(v[fr] + c.reshape(-1))
        pair_g = excess.max(axis=1, initial=0.0)
        # written so that a NaN fails; the norm is one ddot per row
        norm = np.sqrt(np.vecdot(residual, residual, axis=1))[:, 0]
        ok &= (norm - eps <= tol.feas_tol) & (pair_g <= tol.opt_tol)
        accepted[rows], z[rows], lam_out[rows], pair[rows] = ok, z_g, lam_g[:, :, 0], pair_g
    return accepted, z, lam_out, pair
