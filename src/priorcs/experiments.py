"""Parameter sweeps and the Monte-Carlo check of the local recovery bound.

Experiments are pure functions of (config, seed): sweeps over closed-form
coefficients carry no randomness at all, and every randomized trial derives
its own generator from (master seed, trial index), so outputs are
byte-reproducible and independent of scheduling order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from . import bounds
from .errors import ConfigError, InvalidInputError
from .matrices import MATRIX_KINDS, generate_matrix
# solve_weighted_l1 stays importable from this module: bench/traced_cli.py
# looks it up here when it installs its wrappers, so without it every traced
# run fails.
from .solver import (  # noqa: F401
    RecoveryProblem,
    SolveTolerances,
    solve_weighted_l1,
    solve_weighted_l1_batch,
)
from .supports import error_terms, format_index_set, prior_support_for, support_model
from .tables import PlotSpec, SweepTable, emit_csv, emit_svg

EXPERIMENT_KINDS = ("fig1-coeffs", "fig2-error-terms", "fig3-kratio", "fig4-comparison", "verify-local")

SIGNAL_KINDS = ("gaussian", "sparse-gaussian")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by all experiment kinds; per-kind defaults differ."""

    kind: str
    mu: float = 0.1
    k: int = 4
    rho: float = 1.0
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
    noise_scale: float = 1.0
    max_iter: int = 200_000
    violation_tol: float = 1e-6
    out_dir: str = "out"


def default_config(kind: str) -> ExperimentConfig:
    if kind == "fig1-coeffs":
        return ExperimentConfig(kind=kind, mu=0.1, k=4, rho_list=(0.5, 1.0))
    if kind == "fig2-error-terms":
        # n small enough that the top-k entries carry a visible share of the
        # l1 mass; with a long dense tail the smallest c1*e moves away from
        # (alpha=1, w=0) because c1 keeps shrinking toward (alpha=0, w=1)
        return ExperimentConfig(kind=kind, mu=0.1, k=4, rho=1.0, n=16)
    if kind == "fig3-kratio":
        return ExperimentConfig(kind=kind, mu=0.1, k=4, rho_list=(0.5, 0.75))
    if kind == "fig4-comparison":
        return ExperimentConfig(kind=kind, mu=0.1, k=2, rho_list=(1.0,), alpha_list=(1.0,))
    if kind == "verify-local":
        return ExperimentConfig(
            kind=kind, k=2, rho_list=(0.5, 1.0), w_grid=(0.0, 0.5, 1.0),
            m=64, n=128, matrix_kind="identity-plus-orthobasis",
            signal="sparse-gaussian", trials=34, epsilon=0.05,
        )
    raise ConfigError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")


def _parse_float_list(text: str):
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad list value {text!r}") from exc


def _parse_value(name: str, text: str):
    text = text.strip()
    if name in ("mu", "rho", "w_step", "epsilon", "noise_scale", "violation_tol"):
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"bad numeric value for {name}: {text!r}") from exc
    if name in ("k", "n", "m", "seed", "trials", "max_iter"):
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"bad integer value for {name}: {text!r}") from exc
    if name in ("rho_list",):
        return _parse_float_list(text)
    if name in ("alpha_list", "w_grid"):
        return None if text == "auto" else _parse_float_list(text)
    if name in ("kind", "matrix_kind", "signal", "out_dir"):
        return text
    raise ConfigError(f"unknown config key {name!r}")


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
    known = {f.name for f in fields(ExperimentConfig)} | {"experiment"}
    updates = {}
    for key, raw in pairs.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("kind", "experiment"):
            if raw != kind:
                raise ConfigError(f"config names experiment {raw!r} but {kind!r} was requested")
            continue
        updates[key] = raw if not isinstance(raw, str) else _parse_value(key, raw)
    cfg = replace(cfg, **updates)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    if not 0.0 < cfg.mu <= 1.0:
        raise ConfigError(f"mu must be in (0, 1], got {cfg.mu}")
    if cfg.k < 1:
        raise ConfigError(f"k must be >= 1, got {cfg.k}")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.epsilon < 0:
        raise ConfigError(f"epsilon must be >= 0, got {cfg.epsilon}")
    if not 0.0 <= cfg.noise_scale <= 1.0:
        raise ConfigError(f"noise_scale must be in [0, 1], got {cfg.noise_scale}")
    if cfg.violation_tol < 0:
        raise ConfigError(f"violation_tol must be >= 0, got {cfg.violation_tol}")
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
    for w in w_values(cfg):
        if not 0.0 <= w <= 1.0:
            raise ConfigError(f"w values must lie in [0, 1], got {w}")
    if cfg.w_grid is not None and len(cfg.w_grid) == 0:
        raise ConfigError("w_grid must be non-empty (or 'auto')")
    if not 0.0 < cfg.w_step <= 1.0:
        raise ConfigError(f"w_step must be in (0, 1], got {cfg.w_step}")


def float_grid(step: float) -> tuple:
    count = round(1.0 / step)
    if abs(count * step - 1.0) > 1e-9:
        raise ConfigError(f"step {step} does not divide [0, 1] evenly")
    return tuple(round(i * step, 12) for i in range(count + 1))


def w_values(cfg: ExperimentConfig) -> tuple:
    return cfg.w_grid if cfg.w_grid is not None else float_grid(cfg.w_step)


def admissible_alphas(rho: float, k: int) -> tuple:
    """Overlap fractions alpha for which |T| = rho*k and |T inter T0| = alpha*rho*k
    are both integers, with the overlap capped by k."""
    t_size = rho * k
    if abs(t_size - round(t_size)) > 1e-9 or round(t_size) < 1:
        raise ConfigError(f"rho*k must be a positive integer, got rho={rho}, k={k}")
    t_size = int(round(t_size))
    top = min(t_size, k)
    return tuple(float(Fraction(j, t_size)) for j in range(top + 1))


def _alphas_for(cfg: ExperimentConfig, rho: float) -> tuple:
    if cfg.alpha_list is None:
        return admissible_alphas(rho, cfg.k)
    for alpha in cfg.alpha_list:
        overlap = alpha * rho * cfg.k
        if abs(overlap - round(overlap)) > 1e-9:
            raise ConfigError(
                f"alpha={alpha} is inconsistent with the integer overlap constraint "
                f"at rho={rho}, k={cfg.k} (alpha*rho*k = {overlap})"
            )
    return cfg.alpha_list


def run_fig1(cfg: ExperimentConfig) -> SweepTable:
    """Local-bound coefficients over the w grid for each (rho, alpha)."""
    table = SweepTable(columns=["rho", "alpha", "w", "c0", "c1", "valid", "reason"])
    for rho in cfg.rho_list:
        for alpha in _alphas_for(cfg, rho):
            for w in w_values(cfg):
                res = bounds.local_bound(
                    bounds.GuaranteeParams(mu=cfg.mu, k=cfg.k, rho=rho, alpha=alpha, w=w)
                )
                table.add_row([rho, alpha, w, res.c0, res.c1, res.valid, res.reason])
    return table


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


def run_fig2(cfg: ExperimentConfig) -> SweepTable:
    """Error multiplier e and c1*e for one drawn signal over (alpha, w)."""
    rng = np.random.default_rng(cfg.seed)
    x = _draw_signal(cfg, rng)
    table = SweepTable(
        columns=["alpha", "w", "T", "tail_k", "off_prior_off_top", "missed_top",
                 "e_local", "c1", "c1_e", "valid"]
    )
    for alpha in _alphas_for(cfg, cfg.rho):
        try:
            t = prior_support_for(x, cfg.k, cfg.rho, alpha)
        except InvalidInputError as exc:
            raise ConfigError(f"requested overlap unachievable for the drawn signal: {exc}") from exc
        for w in w_values(cfg):
            model = support_model(x, t, cfg.k, w)
            terms = error_terms(x, model)
            res = bounds.local_bound(
                bounds.GuaranteeParams(mu=cfg.mu, k=cfg.k, rho=model.rho, alpha=model.alpha, w=w)
            )
            table.add_row([
                model.alpha, w, format_index_set(t),
                terms.tail_k, terms.off_prior_off_top, terms.missed_top,
                terms.e_local, res.c1, res.c1 * terms.e_local, res.valid,
            ])
    return table


def run_fig3(cfg: ExperimentConfig) -> SweepTable:
    """Admissible-sparsity ratios against the standard and weighted baselines."""
    alphas = cfg.alpha_list if cfg.alpha_list is not None else float_grid(cfg.w_step)
    table = SweepTable(columns=["rho", "alpha", "w", "ratio_standard", "ratio_weighted"])
    for rho in cfg.rho_list:
        for alpha in alphas:
            for w in w_values(cfg):
                p = bounds.GuaranteeParams(mu=cfg.mu, k=cfg.k, rho=rho, alpha=alpha, w=w)
                table.add_row([
                    rho, alpha, w,
                    bounds.k_ratio(p, "standard"),
                    bounds.k_ratio(p, "weighted"),
                ])
    return table


def check_fig3(table: SweepTable) -> list:
    """Messages for any grid point whose ratio is not strictly above 1."""
    problems = []
    for row in table.rows:
        rho, alpha, w, standard, weighted = row
        if not standard > 1.0:
            problems.append(f"standard ratio {standard:.6g} <= 1 at rho={rho} alpha={alpha} w={w}")
        if not weighted > 1.0:
            problems.append(f"weighted ratio {weighted:.6g} <= 1 at rho={rho} alpha={alpha} w={w}")
    return problems


FIG4_COLUMNS = [
    "w",
    "local_c0", "local_c1", "local_valid",
    "haixiao_c0", "haixiao_c1", "haixiao_valid", "haixiao_reason",
    "friedlander_c0", "friedlander_c1", "friedlander_valid", "friedlander_reason",
    "chen_c0", "chen_c1", "chen_valid", "chen_reason",
    "ge_c0", "ge_c1", "ge_c1_printed", "ge_valid", "ge_reason",
]


def run_fig4(cfg: ExperimentConfig) -> SweepTable:
    """Local vs global coefficients when the error terms coincide (T = T0).

    Globals are put on the coherence scale with the standard substitutions and
    the conventional free constants a = 2, a = b = k, t = 2. Both readings of
    the ge c1 coefficient are reported.
    """
    rho = cfg.rho_list[0]
    alpha = cfg.alpha_list[0] if cfg.alpha_list else 1.0
    table = SweepTable(columns=FIG4_COLUMNS)
    for w in w_values(cfg):
        p = bounds.GuaranteeParams(mu=cfg.mu, k=cfg.k, rho=rho, alpha=alpha, w=w)
        local = bounds.local_bound(p)
        hx = bounds.haixiao_bound(p)
        fr = bounds.friedlander_bound_coherence(p)
        ch = bounds.chen_bound_coherence(p)
        ge = bounds.ge_bound_coherence(p)
        ge_printed = bounds.ge_bound_coherence(p, c1_form="printed")
        table.add_row([
            w,
            local.c0, local.c1, local.valid,
            hx.c0, hx.c1, hx.valid, hx.reason,
            fr.c0, fr.c1, fr.valid, fr.reason,
            ch.c0, ch.c1, ch.valid, ch.reason,
            ge.c0, ge.c1, ge_printed.c1, ge.valid, ge.reason,
        ])
    return table


VERIFY_COLUMNS = [
    "trial", "rho", "alpha", "w", "T", "converged", "iterations",
    "premise_k", "premise_d", "k_max", "c0", "c1",
    "e_local", "lhs", "rhs", "slack", "violation",
]


def run_verify_local(cfg: ExperimentConfig, timings: dict | None = None) -> SweepTable:
    """Monte-Carlo check of the local bound: solve, then compare
    ||x*_T - x_T||_2 against c0*eps + c1*e per trial.

    Every trial is drawn first and all are solved in one batch (they share A
    and eps), which gives each trial the bits of a solve on its own.
    Violations are only counted on converged trials whose premises hold; the
    expected count is zero. violation_tol absorbs the solver's finite
    accuracy, which matters only when the right-hand side is exactly zero
    (eps = 0 with the prior support containing the whole signal support).
    If timings is a dict, the batch's wall seconds go to timings["solve_s"].
    """
    matrix = generate_matrix(cfg.matrix_kind, cfg.m, cfg.n, cfg.seed)
    mu = matrix.mu
    a = matrix.entries
    combos = [
        (rho, alpha, w)
        for rho in cfg.rho_list
        for alpha in _alphas_for(cfg, rho)
        for w in w_values(cfg)
    ]
    trials = []  # (w, x, T, problem) in trial order
    for rho, alpha, w in combos:
        for _ in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, len(trials)])
            x = _draw_signal(cfg, rng)
            noise = np.zeros(cfg.m)
            if cfg.epsilon > 0.0 and cfg.noise_scale > 0.0:
                direction = rng.standard_normal(cfg.m)
                noise = direction / np.linalg.norm(direction) * (cfg.noise_scale * cfg.epsilon)
            y = a @ x + noise
            t = prior_support_for(x, cfg.k, rho, alpha)
            trials.append((w, x, t, RecoveryProblem.with_prior_support(matrix, y, cfg.epsilon, t, w)))

    start = time.perf_counter()
    reports = solve_weighted_l1_batch(
        [problem for *_, problem in trials], SolveTolerances(max_iter=cfg.max_iter)
    )
    if timings is not None:
        timings["solve_s"] = time.perf_counter() - start

    table = SweepTable(columns=VERIFY_COLUMNS)
    for trial, ((w, x, t, _), report) in enumerate(zip(trials, reports)):
        model = support_model(x, t, cfg.k, w)
        terms = error_terms(x, model)
        params = bounds.GuaranteeParams(mu=mu, k=cfg.k, rho=model.rho, alpha=model.alpha, w=w)
        res = bounds.local_bound(params)
        premise_k = cfg.k < res.k_max
        premise_d = bounds.local_denominator(mu, cfg.k, model.rho, model.alpha, w) > 0.0
        t_idx = np.asarray(t, dtype=int)
        lhs = float(np.linalg.norm(report.x_star[t_idx] - x[t_idx]))
        rhs = res.c0 * cfg.epsilon + res.c1 * terms.e_local
        violation = bool(
            report.converged and premise_k and premise_d and lhs > rhs + cfg.violation_tol
        )
        table.add_row([
            trial, model.rho, model.alpha, w, format_index_set(t),
            report.converged, report.iterations,
            premise_k, premise_d, res.k_max, res.c0, res.c1,
            terms.e_local, lhs, rhs, rhs - lhs, violation,
        ])
    return table


def summarize_verify(table: SweepTable) -> SweepTable:
    converged = table.column("converged")
    violations = table.column("violation")
    premises = [
        pk and pd for pk, pd in zip(table.column("premise_k"), table.column("premise_d"))
    ]
    slack = [
        s for s, ok, conv in zip(table.column("slack"), premises, converged) if ok and conv
    ]
    summary = SweepTable(
        columns=["trials", "converged", "nonconverged", "premises_ok", "violations", "min_slack"]
    )
    summary.add_row([
        len(table.rows),
        sum(1 for c in converged if c),
        sum(1 for c in converged if not c),
        sum(1 for p in premises if p),
        sum(1 for v in violations if v),
        min(slack) if slack else float("nan"),
    ])
    return summary


def run_experiment(cfg: ExperimentConfig, timings: dict | None = None) -> SweepTable:
    """The kind's table; verify records its solve time in timings."""
    if cfg.kind == "verify-local":
        return run_verify_local(cfg, timings)
    runner = {
        "fig1-coeffs": run_fig1,
        "fig2-error-terms": run_fig2,
        "fig3-kratio": run_fig3,
        "fig4-comparison": run_fig4,
    }[cfg.kind]
    return runner(cfg)


def _series_pivot(table: SweepTable, x_col: str, y_col: str, group_col: str) -> SweepTable:
    """Wide table with one column per group value, for plotting."""
    groups = []
    for value in table.column(group_col):
        if value not in groups:
            groups.append(value)
    xs = []
    for value in table.column(x_col):
        if value not in xs:
            xs.append(value)
    wide = SweepTable(columns=[x_col] + [f"{group_col}={g:g}" for g in groups])
    lookup = {}
    for row in table.rows:
        data = dict(zip(table.columns, row))
        lookup[(data[x_col], data[group_col])] = data[y_col]
    for x in xs:
        wide.add_row([x] + [lookup.get((x, g), float("nan")) for g in groups])
    return wide


def emit_experiment_outputs(cfg: ExperimentConfig, table: SweepTable, out_dir) -> list:
    """Write the canonical CSV plus the companion SVG panels; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    short = cfg.kind.split("-")[0]
    written = []

    def save_csv(name, tbl):
        path = os.path.join(out_dir, name)
        emit_csv(tbl, path)
        written.append(path)

    def save_svg(name, tbl, spec):
        path = os.path.join(out_dir, name)
        emit_svg(tbl, path, spec)
        written.append(path)

    save_csv(f"{short}.csv", table)
    if cfg.kind == "fig1-coeffs":
        for rho in cfg.rho_list:
            sub = table.select(rho=rho)
            for coeff in ("c0", "c1"):
                wide = _series_pivot(sub, "w", coeff, "alpha")
                save_svg(
                    f"{short}_{coeff}_rho{rho:g}.svg", wide,
                    PlotSpec(x="w", series=tuple(wide.columns[1:]),
                             title=f"{coeff} vs w (rho={rho:g})", x_label="w", y_label=coeff),
                )
    elif cfg.kind == "fig2-error-terms":
        for quantity in ("e_local", "c1_e"):
            wide = _series_pivot(table, "w", quantity, "alpha")
            save_svg(
                f"{short}_{quantity}.svg", wide,
                PlotSpec(x="w", series=tuple(wide.columns[1:]),
                         title=f"{quantity} vs w", x_label="w", y_label=quantity),
            )
    elif cfg.kind == "fig3-kratio":
        for rho in cfg.rho_list:
            sub = table.select(rho=rho)
            for ratio in ("ratio_standard", "ratio_weighted"):
                wide = _series_pivot(sub, "w", ratio, "alpha")
                save_svg(
                    f"{short}_{ratio}_rho{rho:g}.svg", wide,
                    PlotSpec(x="w", series=tuple(wide.columns[1:]),
                             title=f"{ratio} vs w (rho={rho:g})", x_label="w", y_label=ratio),
                )
    elif cfg.kind == "fig4-comparison":
        for coeff in ("c0", "c1"):
            series = [f"local_{coeff}", f"haixiao_{coeff}", f"friedlander_{coeff}",
                      f"chen_{coeff}", f"ge_{coeff}"]
            if coeff == "c1":
                series.append("ge_c1_printed")
            save_svg(
                f"{short}_{coeff}.svg", table,
                PlotSpec(x="w", series=tuple(series),
                         title=f"{coeff}: local vs global", x_label="w", y_label=coeff),
            )
    elif cfg.kind == "verify-local":
        save_csv("verify_summary.csv", summarize_verify(table))
    return written
