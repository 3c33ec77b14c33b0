"""Experiment configs, the Monte-Carlo check of the local recovery bound,
and the entry points that run and write every experiment.

Experiments are pure functions of (config, seed): sweeps over closed-form
coefficients carry no randomness at all, and every randomized trial derives
its own generator from (master seed, trial index), so outputs are
byte-reproducible and independent of scheduling order. The sweeps fig1-fig4
are in ``sweeps`` and their plots in ``plots``, which verify never loads.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import MATRIX_KINDS, MAX_ITER, bounds
from .errors import ConfigError
from .tables import SweepTable, emit_csv

# Names of the modules that only some commands run: the functions here that
# call them bind them into this module's namespace with _bind (a verify run
# without a w_grid loads sweeps for float_grid alone), and a lookup from
# outside, such as experiments.solve_weighted_l1_batch or the supports names
# that sweeps.run_fig2 reads here, binds them through __getattr__ (PEP 562).
# They stay module attributes that the function bodies read as globals, and
# _bind never replaces one already set, so a wrapper that a test or
# bench/traced_cli.py sets here is what the runs call. No function here
# calls solve_weighted_l1; it is listed because the tracer looks it up on
# this module.
_LAZY = {
    "matrices": ("generate_matrix",),
    "plots": ("emit_svg",),
    "solver": ("EXITS", "RecoveryProblem", "SolveTolerances", "solve_weighted_l1",
               "solve_weighted_l1_batch"),
    "supports": ("error_terms", "format_index_set", "prior_support_for", "support_model"),
    "sweeps": ("check_fig3", "check_sweep_config", "float_grid", "panels", "run_fig1", "run_fig2",
               "run_fig3", "run_fig4"),
}


def _bind(*modules) -> None:
    namespace = globals()
    for module in modules:
        source = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            namespace.setdefault(name, getattr(source, name))


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SIGNAL_KINDS = ("gaussian", "sparse-gaussian")

# lhs may exceed rhs by this much before a verify trial counts as a violation;
# it absorbs the solver's finite accuracy, which matters only when rhs is
# exactly zero (eps = 0 with the prior support holding the whole signal)
VIOLATION_TOL = 1e-6


class ExperimentConfig(NamedTuple):
    """Settings shared by all experiment kinds; per-kind defaults differ."""

    kind: str
    mu: float = 0.1
    k: int = 4
    rho_list: tuple = (0.5, 1.0)
    alpha_list: tuple | None = None  # None: derive / default grid per kind
    w_grid: tuple | None = None      # None: 0..1 with step w_step
    w_step: float = 0.05
    n: int = 64
    m: int = 32
    matrix_kind: str = "identity-plus-orthobasis"
    signal: str = "gaussian"
    seed: int = 20240901
    trials: int = 34
    epsilon: float = 0.05
    max_iter: int = MAX_ITER
    out_dir: str = "out"


# kind -> its departures from the ExperimentConfig defaults
_KIND_DEFAULTS = {
    "fig1-coeffs": {},
    # n small enough that the top-k entries carry a visible share of the l1
    # mass; with a long dense tail the smallest c1*e moves away from
    # (alpha=1, w=0) because c1 keeps shrinking toward (alpha=0, w=1)
    "fig2-error-terms": dict(n=16, rho_list=(1.0,)),
    "fig3-kratio": dict(rho_list=(0.5, 0.75)),
    "fig4-comparison": dict(k=2, rho_list=(1.0,), alpha_list=(1.0,)),
    "verify-local": dict(k=2, w_grid=(0.0, 0.5, 1.0), m=64, n=128, signal="sparse-gaussian"),
}

EXPERIMENT_KINDS = tuple(_KIND_DEFAULTS)

# field name -> declared type as written in ExperimentConfig ("float", "int",
# "str", "tuple" or "tuple | None"; annotations are strings in this module,
# which NamedTuple wraps in ForwardRef)
_FIELD_TYPES = {name: getattr(t, "__forward_arg__", t)
                for name, t in ExperimentConfig.__annotations__.items()}


def default_config(kind: str) -> ExperimentConfig:
    if kind not in _KIND_DEFAULTS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")
    return ExperimentConfig(kind=kind, **_KIND_DEFAULTS[kind])


def _parse_value(name: str, text: str):
    """One config value, parsed by the type ExperimentConfig declares for it;
    'auto' stands for None where the type allows None."""
    declared = _FIELD_TYPES[name]
    text = text.strip()
    if declared == "str":
        return text
    if declared.startswith("tuple"):
        if text == "auto" and declared.endswith("| None"):
            return None
        try:
            return tuple(float(p) for p in text.split(",") if p.strip() != "")
        except ValueError as exc:
            raise ConfigError(f"bad list value {text!r}") from exc
    try:
        return float(text) if declared == "float" else int(text)
    except ValueError as exc:
        noun = "numeric" if declared == "float" else "integer"
        raise ConfigError(f"bad {noun} value for {name}: {text!r}") from exc


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; later keys win."""
    pairs = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def load_config(kind: str, path=None, overrides=None) -> ExperimentConfig:
    """Defaults for the kind, then config-file values, then overrides."""
    cfg = default_config(kind)
    pairs = {}
    if path is not None:
        try:
            with open(path) as fh:
                pairs.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    pairs.update(overrides or {})
    updates = {}
    for key, raw in pairs.items():
        if key not in _FIELD_TYPES and key != "experiment":
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("kind", "experiment"):
            if raw != kind:
                raise ConfigError(f"config names experiment {raw!r} but {kind!r} was requested")
            continue
        updates[key] = raw if not isinstance(raw, str) else _parse_value(key, raw)
    cfg = cfg._replace(**updates)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    for name in _FIELD_TYPES:
        value = getattr(cfg, name)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be finite, got {value}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if not 0.0 < cfg.mu <= 1.0:
        raise ConfigError(f"mu must be in (0, 1], got {cfg.mu}")
    if cfg.k < 1:
        raise ConfigError(f"k must be >= 1, got {cfg.k}")
    if cfg.k > sys.float_info.max:  # rho * k and the bounds work in floats
        raise ConfigError(f"k must be at most {sys.float_info.max:g}")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.epsilon < 0:
        raise ConfigError(f"epsilon must be >= 0, got {cfg.epsilon}")
    if cfg.max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {cfg.max_iter}")
    if cfg.kind in ("fig2-error-terms", "verify-local") and cfg.k > cfg.n:
        raise ConfigError(f"k = {cfg.k} exceeds the signal dimension n = {cfg.n}")
    if cfg.matrix_kind not in MATRIX_KINDS:
        raise ConfigError(f"unknown matrix kind {cfg.matrix_kind!r}")
    if cfg.signal not in SIGNAL_KINDS:
        raise ConfigError(f"unknown signal kind {cfg.signal!r}")
    if not cfg.rho_list:
        raise ConfigError("rho_list must be non-empty")
    if cfg.alpha_list is not None and len(cfg.alpha_list) == 0:
        raise ConfigError("alpha_list must be non-empty (or 'auto')")
    if cfg.alpha_list is not None and any(not 0.0 <= a <= 1.0 for a in cfg.alpha_list):
        raise ConfigError(f"alpha values must lie in [0, 1], got {cfg.alpha_list}")
    # fig1, fig2 and verify make |T| = rho*k, and a derived alpha grid has a
    # point per overlap 0..min(rho*k, k)
    if cfg.kind in ("fig1-coeffs", "fig2-error-terms", "verify-local"):
        for rho in cfg.rho_list:
            if not math.isfinite(rho * cfg.k):
                raise ConfigError(f"rho*k must be finite, got rho={rho}, k={cfg.k}")
            if cfg.alpha_list is None and min(rho * cfg.k, cfg.k) > 1e6:
                raise ConfigError(f"rho={rho}, k={cfg.k} would make an alpha grid "
                                  "of over a million points")
    if not 0.0 < cfg.w_step <= 1.0:
        raise ConfigError(f"w_step must be in (0, 1], got {cfg.w_step}")
    if cfg.w_step < 1e-6:
        raise ConfigError(f"w_step {cfg.w_step} would make a grid of over a million points")
    ws = w_values(cfg)
    w = np.asarray(ws, dtype=float)
    outside = np.flatnonzero(~((w >= 0.0) & (w <= 1.0)))
    if outside.size:
        raise ConfigError(f"w values must lie in [0, 1], got {ws[outside[0]]}")
    if cfg.w_grid is not None and len(cfg.w_grid) == 0:
        raise ConfigError("w_grid must be non-empty (or 'auto')")
    # each value of these lists is one block of the sweep and one curve of its plots
    for name in ("rho_list", "alpha_list", "w_grid"):
        values = getattr(cfg, name) or ()
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} must not repeat a value, got {values}")
    if cfg.kind != "verify-local":
        _bind("sweeps")
        check_sweep_config(cfg)


def w_values(cfg: ExperimentConfig) -> tuple:
    if cfg.w_grid is not None:
        return cfg.w_grid
    _bind("sweeps")  # which builds the grid of w_step
    return float_grid(cfg.w_step)


def admissible_alphas(rho: float, k: int) -> tuple:
    """Overlap fractions alpha for which |T| = rho*k and |T inter T0| = alpha*rho*k
    are both integers, with the overlap capped by k."""
    t_size = rho * k
    if abs(t_size - round(t_size)) > 1e-9 or round(t_size) < 1:
        raise ConfigError(f"rho*k must be a positive integer, got rho={rho}, k={k}")
    t_size = int(round(t_size))
    top = min(t_size, k)
    return tuple(j / t_size for j in range(top + 1))


def _alphas_for(cfg: ExperimentConfig, rho: float) -> tuple:
    if cfg.alpha_list is None:
        return admissible_alphas(rho, cfg.k)
    seen = {}  # realized overlap -> the alpha that gave it
    for alpha in cfg.alpha_list:
        overlap = alpha * rho * cfg.k
        if abs(overlap - round(overlap)) > 1e-9:
            raise ConfigError(
                f"alpha={alpha} is inconsistent with the integer overlap constraint "
                f"at rho={rho}, k={cfg.k} (alpha*rho*k = {overlap})"
            )
        if round(overlap) in seen:
            raise ConfigError(
                f"alpha={seen[round(overlap)]} and alpha={alpha} realize the same overlap "
                f"{round(overlap)} at rho={rho}, k={cfg.k}"
            )
        seen[round(overlap)] = alpha
    return cfg.alpha_list


def _draw_signal(cfg: ExperimentConfig, rng) -> np.ndarray:
    if cfg.signal == "gaussian":
        x = rng.standard_normal(cfg.n)
    else:
        x = np.zeros(cfg.n)
        support = rng.choice(cfg.n, size=cfg.k, replace=False)
        values = rng.standard_normal(cfg.k)
        while np.any(values == 0.0):
            values = rng.standard_normal(cfg.k)
        x[support] = values
    return x / np.linalg.norm(x)


def run_verify_local(cfg: ExperimentConfig, timings: dict | None = None) -> SweepTable:
    """Monte-Carlo check of the local bound: solve, then compare
    ||x*_T - x_T||_2 against c0*eps + c1*e per trial.

    Every trial draws its signal and noise from its own generator; then all
    are solved in one batch (they share A and eps), which gives each trial
    the bits of a solve on its own. The noise has norm exactly eps. The
    support bookkeeping runs once per (rho, alpha) pair, on the stack of
    its trials over the w grid. Violations are only counted on converged
    trials whose premises hold; the expected count is zero.
    If timings is a dict, the wall seconds of the three phases go to it:
    drawing the matrix and the trials (draw_s), the batch solve (solve_s),
    of which the polish tries (polish_s), and building the table
    (tabulate_s); so do the iterations of the batch loop (loop_iterations),
    the solves' count of each exit reason (exits, in EXITS order), their
    polish tries (polish_tries) and the tries' correction steps
    (polish_steps).
    """
    _bind("matrices", "solver", "supports")
    start = time.perf_counter()
    matrix = generate_matrix(cfg.matrix_kind, cfg.m, cfg.n, cfg.seed)
    mu = matrix.mu
    a = matrix.entries
    # a block is one (rho, alpha) pair: its trials run through the w grid,
    # cfg.trials per w, and share the size of T
    ws = np.repeat(np.array(w_values(cfg), dtype=float), cfg.trials)
    blocks = [(rho, alpha) for rho in cfg.rho_list for alpha in _alphas_for(cfg, rho)]
    count = len(blocks) * ws.size
    signals, noise = np.empty((count, cfg.n)), np.zeros((count, cfg.m))
    for i in range(count):
        rng = np.random.default_rng([cfg.seed, i])
        signals[i] = _draw_signal(cfg, rng)
        if cfg.epsilon > 0.0:
            direction = rng.standard_normal(cfg.m)
            noise[i] = direction / np.linalg.norm(direction) * cfg.epsilon
    ys = (a @ signals[:, :, None])[:, :, 0] + noise  # a gemv per row: the bits of a @ x
    rows = [slice(b * ws.size, (b + 1) * ws.size) for b in range(len(blocks))]
    supports = [prior_support_for(signals[r], cfg.k, rho, alpha)
                for r, (rho, alpha) in zip(rows, blocks)]
    weights = np.ones((count, cfg.n))
    for r, t in zip(rows, supports):
        np.put_along_axis(weights[r], t, ws[:, None], axis=1)
    # create() would check each row, and none can fail: y is finite, eps and
    # the weights passed validate_config
    eps = float(cfg.epsilon)
    problems = [RecoveryProblem(matrix, y, eps, row) for y, row in zip(ys, weights)]

    drawn = time.perf_counter()
    reports = solve_weighted_l1_batch(problems, SolveTolerances(max_iter=cfg.max_iter), timings)
    solved = time.perf_counter()

    x_star = np.array([report.x_star for report in reports])
    per_block = []  # (rho, alpha, T, e_local, lhs), one entry per trial
    for r, t in zip(rows, supports):
        model = support_model(signals[r], t, cfg.k, ws)
        # x*_T - x_T compacted, so each norm is one ddot, as np.linalg.norm
        d = np.take_along_axis(x_star[r], t, axis=1) - np.take_along_axis(signals[r], t, axis=1)
        per_block.append((np.full(ws.size, model.rho), model.alpha, format_index_set(t),
                          error_terms(signals[r], model).e_local, np.sqrt(np.vecdot(d, d))))
    rho, alpha, sets, e_local, lhs = (np.concatenate(part) for part in zip(*per_block))
    w = np.tile(ws, len(blocks))
    res = bounds.local_bound(bounds.GuaranteeParams(mu=mu, k=cfg.k, rho=rho, alpha=alpha, w=w))
    premise_k = cfg.k < res.k_max
    premise_d = bounds.local_denominator(mu, cfg.k, rho, alpha, w) > 0.0
    converged = np.array([report.converged for report in reports], dtype=bool)
    rhs = res.c0 * cfg.epsilon + res.c1 * e_local
    table = SweepTable.from_columns({
        "trial": np.arange(count), "rho": rho, "alpha": alpha, "w": w,
        "T": sets, "converged": converged,
        "iterations": [report.iterations for report in reports],
        "premise_k": premise_k, "premise_d": premise_d,
        "k_max": res.k_max, "c0": res.c0, "c1": res.c1, "e_local": e_local,
        "lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
        "violation": converged & premise_k & premise_d & (lhs > rhs + VIOLATION_TOL),
    })
    if timings is not None:
        timings.update(draw_s=drawn - start, solve_s=solved - drawn,
                       tabulate_s=time.perf_counter() - solved,
                       exits={name: sum(r.exit == name for r in reports) for name in EXITS},
                       polish_tries=sum(r.polish_tries for r in reports))
    return table


def summarize_verify(table: SweepTable) -> SweepTable:
    converged = table.column("converged")
    premises = table.column("premise_k") & table.column("premise_d")
    slack = table.column("slack")[premises & converged]
    return SweepTable.from_columns({
        "trials": [len(table)], "converged": [converged.sum()], "nonconverged": [(~converged).sum()],
        "premises_ok": [premises.sum()], "violations": [table.column("violation").sum()],
        "min_slack": [slack.min() if slack.size else math.nan],
    })


def run_experiment(cfg: ExperimentConfig, timings: dict | None = None) -> SweepTable:
    """The kind's table. If timings is a dict, the run's wall seconds go to
    timings["evaluate_s"]; verify also records its phases there."""
    start = time.perf_counter()
    if cfg.kind == "verify-local":
        table = run_verify_local(cfg, timings)
    else:
        _bind("sweeps")
        runners = {"fig1-coeffs": run_fig1, "fig2-error-terms": run_fig2,
                   "fig3-kratio": run_fig3, "fig4-comparison": run_fig4}
        table = runners[cfg.kind](cfg)
    if timings is not None:
        timings["evaluate_s"] = time.perf_counter() - start
    return table


def emit_experiment_outputs(cfg: ExperimentConfig, table: SweepTable, out_dir,
                            timings: dict | None = None) -> list:
    """Write the canonical CSV plus the companion SVG panels; returns paths.
    If timings is a dict, CSV and SVG writing seconds go to its csv_s, svg_s."""
    os.makedirs(out_dir, exist_ok=True)
    short = cfg.kind.split("-")[0]
    written = []
    timings = {} if timings is None else timings
    timings.update(csv_s=0.0, svg_s=0.0)

    def save(name, tbl, *plot):  # plot: an SVG's title and y label
        path = os.path.join(out_dir, name)
        start = time.perf_counter()
        if plot:
            emit_svg(tbl, path, *plot)
        else:
            emit_csv(tbl, path)
        timings["svg_s" if plot else "csv_s"] += time.perf_counter() - start
        written.append(path)

    save(f"{short}.csv", table)
    if cfg.kind == "verify-local":
        save("verify_summary.csv", summarize_verify(table))
    else:
        _bind("sweeps", "plots")
        for name, wide, title, y_label in panels(cfg, table):
            save(f"{short}_{name}.svg", wide, title, y_label)
    return written
