"""Polish tries of the batch solve; the solver docstring describes them."""

from __future__ import annotations

import contextlib
import math

import numpy as np

# the correction steps a try may take after its first solve
STEPS = 8


def try_polish(a, y, eps, w, rows, x, lam, tol):
    """Polish tries of some rows at one check, as (accepted, z, lam, residual,
    steps): per row, whether it is accepted, the minimizer of the program
    restricted to its sign pattern as corrected, its multiplier and its pair
    residual (see the solver docstring), scratch where it is not accepted;
    and the correction steps the tries took in all. y, w, x and lam are
    (B, k) stacks of the live rows, and the indices rows name those that
    try, whose free sets have at most m coordinates; a row that does not
    try comes back not accepted.

    A try runs in rounds. Each round solves every row still trying on its
    current pattern; a row whose point fails the sign test drops the
    coordinates that flipped, one whose point fails the off-F test adds the
    most violated coordinate, and both try again, up to STEPS times. A row
    whose new pattern is the one it solved in the round before stops, since
    it would cycle. At eps = 0 every round projects the row's own lam.

    In a round, rows are grouped by |F|, and a group makes one stacked call
    per product over F. Its A_F^T items are gathered rows of A^T, so their
    transposes are F-ordered like a[:, F], and the gram, A_F^T y, A_F z and
    the solve run the BLAS and LAPACK calls of a try on 1-D vectors, with the
    same bits (C-ordered A_F items would run gemv_n where the 1-D try runs
    gemv_t). The rest of a round is elementwise, or one gemv per row over
    all n coordinates, so it runs on the whole round at once. If a stacked
    solve raises, its items are solved one by one, and a singular item fails
    its try.
    """
    count, n = x.shape
    accepted = np.zeros(count, dtype=bool)
    z, lam_out, pair = np.zeros((count, n)), np.empty_like(lam), np.empty(count)
    steps = 0
    # the rows still trying: each one's index, free set and pattern (the
    # signs it holds on F, 0 off F; with w it fixes F and c)
    state = [rows, (x[rows] != 0.0) | (w[rows] == 0.0), np.sign(x[rows]).astype(np.int8)]
    state[2] *= state[1]
    before = None  # the pattern each row solved in the round before
    for step in range(STEPS + 1):
        sizes = np.count_nonzero(state[1], axis=1)
        counts = np.bincount(sizes).tolist()
        if len(counts) - counts.count(0) > 1:
            # the round's rows in order of |F|, so that each group is a slice
            order = np.argsort(sizes, kind="stable")
            state, sizes = [v[order] for v in state], sizes[order]
            before = None if before is None else before[order]
        going = state[0]
        again, free, signs = _round(a, y, eps, w, lam, tol, state, sizes, counts, step < STEPS,
                                    (accepted, z, lam_out, pair))
        # a row back at the pattern it solved a round before would cycle
        if again.size and before is not None:
            fresh = (signs != before[again]).any(axis=1)
            again, free, signs = again[fresh], free[fresh], signs[fresh]
        if not again.size:
            break
        before = state[2][again]
        state = [going[again], free, signs]
        steps += again.size
    return accepted, z, lam_out, pair, steps


def _round(a, y, eps, w, lam, tol, state, sizes, counts, correct, out):
    """One round of tries. It writes each row's verdict, point, multiplier
    and pair residual to the rows of out = (accepted, z, lam, residual),
    and returns (again, free, signs): if correct, the rows (their places in
    the round) that try again, with their corrected free sets and patterns.
    A row whose signs did not hold drops the coordinates that flipped; one
    whose signs held but not the off-F test adds the most violated
    coordinate, with the sign that lowers the violation. The round's
    (rows, n) stacks go as soon as they are read, which keeps the first
    check's memory peak down."""
    m = a.shape[0]
    going, fr, signs = state
    w_f = w[going][fr]  # each row's w on F in turn, and its c
    c_f, y_r = w_f * signs[fr], y[going][:, :, None]
    lam_r = None if eps > 0.0 else lam[going][:, :, None]
    z_r, flipped, t, lam_r, solved = _points(a, eps, w_f, c_f, y_r, lam_r, fr, counts)
    held = ~flipped.any(axis=1)
    residual = a @ z_r[:, :, None]
    residual -= y_r
    # written so that a NaN fails; the norm is one ddot per row
    norm = np.sqrt(np.vecdot(residual, residual, axis=1))[:, 0]
    if eps > 0.0:
        lam_r = residual / t[:, None, None]
    accepted, z, lam_out, pair = out
    z[going], lam_out[going] = z_r, lam_r[:, :, 0]
    del residual, y_r, z_r
    # the pair residual: |v + c| on F, |v| - w off it, in v's place
    excess = (a.T @ lam_r)[:, :, 0]
    del lam_r
    on, negative = np.abs(excess[fr] + c_f), np.signbit(excess)
    np.abs(excess, out=excess)
    excess -= w[going]
    excess[fr] = -math.inf
    worst, off = excess.argmax(axis=1), excess.max(axis=1)
    excess[fr] = on
    pair_r = np.maximum(excess.max(axis=1, where=fr, initial=0.0), off)
    del excess
    held &= solved
    accepted[going] = held & (norm - eps <= tol.feas_tol) & (pair_r <= tol.opt_tol)
    pair[going] = pair_r
    if not correct:
        return np.empty(0, dtype=np.intp), None, None
    add = held & (off > tol.opt_tol) & (sizes < m)
    again = np.flatnonzero(add | (~held & solved))
    kept = ~flipped[again]  # all True on a row that adds
    fr, signs = fr[again], signs[again]
    fr &= kept
    signs *= kept
    grow = np.flatnonzero(add[again])
    row = again[grow]
    fr[grow, worst[row]] = True
    # the sign that lowers the violation, -sign(A_j^T lam), with A_j^T lam != 0
    signs[grow, worst[row]] = np.where(negative[row, worst[row]], 1, -1)
    return again, fr, signs


def _points(a, eps, w_f, c_f, y_r, lam_r, fr, counts):
    """The closed-form points of a round's rows, as (z, flipped, t, lam,
    solved): z on all n coordinates and where it fails the sign test,
    w sign(z) = c on F; at eps > 0 the t of each row, at eps = 0 the
    projected lam; and whether the closed form exists (its solve was not
    singular and, at eps > 0, c^T G^-1 c > 0 and r^2 < eps^2). w_f and c_f
    hold each row's w and c on F in turn."""
    m, n = a.shape
    count = fr.shape[0]
    a_t = a.T[np.nonzero(fr)[1]]  # each row's F in turn: the gathered rows of A^T
    z_parts, t, solved = [], np.empty(count), np.ones(count, dtype=bool)
    lo = start = 0
    for size, rows in enumerate(counts):
        if not rows:
            continue
        hi, end = lo + rows, start + rows * size
        a_ft = a_t[start:end].reshape(rows, size, m)  # (G, |F|, m), C-ordered
        a_f = a_ft.transpose(0, 2, 1)
        c, y_g = c_f[start:end].reshape(rows, size), y_r[lo:hi]
        # at eps = 0 the second column solves for the projection of lam
        second = c[:, :, None] if eps > 0.0 else c[:, :, None] + a_ft @ lam_r[lo:hi]
        rhs = np.concatenate((a_ft @ y_g, second), axis=2)
        gram = a_ft @ a_f
        try:
            solution = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            solution = np.full_like(rhs, math.nan)
            for j in range(rows):
                with contextlib.suppress(np.linalg.LinAlgError):
                    solution[j] = np.linalg.solve(gram[j], rhs[j])
            solved[lo:hi] = ~np.isnan(solution[:, 0, 0])
        z_f = solution[:, :, 0]
        if eps > 0.0:
            fit = a_f @ solution[:, :, :1] - y_g
            q = np.vecdot(c, solution[:, :, 1])
            r2 = np.vecdot(fit, fit, axis=1)[:, 0]
            solved[lo:hi] &= (q > 0.0) & (r2 < eps * eps)
            t[lo:hi] = np.sqrt(eps * eps - r2) / np.sqrt(q)
            z_f = z_f - t[lo:hi, None] * solution[:, :, 1]
        else:
            projected = lam_r[lo:hi]
            projected -= a_f @ solution[:, :, 1:]
        z_parts.append(z_f.reshape(-1))
        lo, start = hi, end
    del a_t, a_ft, a_f  # the gathered rows go before the (rows, n) stacks come
    # the points and the sign test on all n coordinates, row after row
    z_f = np.concatenate(z_parts) if len(z_parts) > 1 else z_parts[0]
    z_r, flipped = np.zeros((count, n)), np.zeros((count, n), dtype=bool)
    z_r[fr] = z_f
    flipped[fr] = w_f * np.sign(z_f) != c_f
    return z_r, flipped, t, None if eps > 0.0 else lam_r, solved
