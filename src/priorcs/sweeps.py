"""The deterministic sweeps fig1-fig4, their SVG panels, the w grid of a
w_step, the config checks only a sweep needs, and fig3's k-ratio check.

Each sweep is one calculator call per figure over a grid of (rho, alpha, w)
built from its config, and carries no randomness but fig2's one drawn
signal, whose generator derives from the config's seed. The experiment
config and its common checks are in ``experiments``, which runs a sweep
through its run_fig* names and writes the panels that panels() lays out.
Only the sweeps load this module (and a verify run without a w_grid, for
float_grid), and only fig3 and fig4 the global guarantees of ``baselines``.
"""

from __future__ import annotations

import functools

import numpy as np

from . import bounds, experiments
from .errors import ConfigError, InvalidInputError
from .experiments import ExperimentConfig, _alphas_for, _draw_signal, w_values
from .tables import SweepTable, rint_scaled

# the theorems fig4 compares, in baselines.THEOREMS order: every one but
# cai, the one global bound that ignores the prior support
_FIG4_THEOREMS = ("local", "haixiao", "friedlander", "chen", "ge")

# kind -> (quantities drawn against w, one curve per alpha; one panel per rho?)
_PANELS = {
    "fig1-coeffs": (("c0", "c1"), True),
    "fig2-error-terms": (("e_local", "c1_e"), False),
    "fig3-kratio": (("ratio_standard", "ratio_weighted"), True),
}


@functools.lru_cache(maxsize=16)  # one build per grid: the checks, the run and each panel share it
def float_grid(step: float) -> tuple:
    """round(i * step, 12) for i = 0..1/step: rint(i * step * 1e12) / 1e12,
    and Python's round where tables.rint_scaled doubts the rint."""
    count = round(1.0 / step)
    if abs(count * step - 1.0) > 1e-9:
        raise ConfigError(f"step {step} does not divide [0, 1] evenly")
    values = np.arange(count + 1) * step
    n, near = rint_scaled(values, 12)
    grid = n / 1e12
    grid[near] = [round(v, 12) for v in values[near].tolist()]
    return tuple(grid.tolist())


def _blocks(per_block, ws):
    """Columns that hold each block's values once per point of the w grid ws,
    then the w column: one block per tuple of per_block, in order."""
    return (*np.repeat(np.array(per_block, dtype=float), len(ws), axis=0).T,
            np.tile(np.asarray(ws, dtype=float), len(per_block)))


def check_sweep_config(cfg: ExperimentConfig) -> None:
    """The config checks that only a sweep needs, after the common ones."""
    if cfg.kind == "fig2-error-terms" and len(cfg.rho_list) > 1:
        raise ConfigError("fig2 draws one prior support size; give one value of rho_list")
    if cfg.kind == "fig4-comparison" and (len(cfg.rho_list) > 1 or len(cfg.alpha_list or ()) > 1):
        raise ConfigError("fig4 compares at one (rho, alpha); give one value of each")
    # each rho of a sweep's panels names its SVGs by {:g} (fig2 and fig4
    # passed the one-rho check above, so only fig1 and fig3 can fail here)
    labels = [f"{rho:g}" for rho in cfg.rho_list]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"rho_list values must differ in their panel labels {labels}, "
                          f"got {cfg.rho_list}")


def run_fig1(cfg: ExperimentConfig) -> SweepTable:
    """Local-bound coefficients over the w grid for each (rho, alpha)."""
    pairs = [(rho, alpha) for rho in cfg.rho_list for alpha in _alphas_for(cfg, rho)]
    rho, alpha, w = _blocks(pairs, w_values(cfg))
    res = bounds.local_bound(bounds.GuaranteeParams(mu=cfg.mu, k=cfg.k, rho=rho, alpha=alpha, w=w))
    return SweepTable.from_columns({"rho": rho, "alpha": alpha, "w": w, "c0": res.c0, "c1": res.c1,
                                    "valid": res.valid, "reason": res.reason})


def run_fig2(cfg: ExperimentConfig) -> SweepTable:
    """Error multiplier e and c1*e for one drawn signal over (alpha, w); only
    e_local and the bound vary along the w grid, the rest is per alpha.
    The supports functions are looked up on experiments, which binds them
    on first lookup and holds any wrapper set there."""
    rng = np.random.default_rng(cfg.seed)
    x = _draw_signal(cfg, rng)
    ws = np.array(w_values(cfg), dtype=float)
    rho = cfg.rho_list[0]
    per_alpha, sets, e_local = [], [], []
    for alpha in _alphas_for(cfg, rho):
        try:
            t = experiments.prior_support_for(x, cfg.k, rho, alpha)
        except InvalidInputError as exc:
            raise ConfigError(f"requested overlap unachievable for the drawn signal: {exc}") from exc
        model = experiments.support_model(x, t, cfg.k, ws)
        terms = experiments.error_terms(x, model)
        per_alpha.append((model.rho, model.alpha, terms.tail_k, terms.off_prior_off_top,
                          terms.missed_top))
        sets.append(experiments.format_index_set(t))
        e_local.append(terms.e_local)
    rho, alpha, tail_k, off_prior_off_top, missed_top, w = _blocks(per_alpha, ws)
    e_local = np.concatenate(e_local)
    res = bounds.local_bound(bounds.GuaranteeParams(mu=cfg.mu, k=cfg.k, rho=rho, alpha=alpha, w=w))
    return SweepTable.from_columns({
        "alpha": alpha, "w": w, "T": np.repeat(np.array(sets, dtype=object), len(ws)),
        "tail_k": tail_k, "off_prior_off_top": off_prior_off_top, "missed_top": missed_top,
        "e_local": e_local, "c1": res.c1, "c1_e": res.c1 * e_local, "valid": res.valid,
    })


def run_fig3(cfg: ExperimentConfig) -> SweepTable:
    """Admissible-sparsity ratios against the standard and weighted baselines."""
    from . import baselines

    alphas = cfg.alpha_list if cfg.alpha_list is not None else float_grid(cfg.w_step)
    rho, alpha, w = _blocks([(rho, alpha) for rho in cfg.rho_list for alpha in alphas], w_values(cfg))
    p = bounds.GuaranteeParams(mu=cfg.mu, k=cfg.k, rho=rho, alpha=alpha, w=w)
    return SweepTable(columns=["rho", "alpha", "w", "ratio_standard", "ratio_weighted"],
                      data=[rho, alpha, w, *baselines.k_ratios(p)])


def check_fig3(table: SweepTable) -> list:
    """Messages for any grid point whose ratio is not strictly above 1."""
    standard, weighted = table.column("ratio_standard"), table.column("ratio_weighted")
    problems = []
    for i in np.flatnonzero(~(standard > 1.0) | ~(weighted > 1.0)).tolist():
        rho, alpha, w = (table.column(name)[i].item() for name in ("rho", "alpha", "w"))
        for label, ratio in (("standard", standard[i]), ("weighted", weighted[i])):
            if not ratio > 1.0:
                problems.append(f"{label} ratio {ratio:.6g} <= 1 at rho={rho} alpha={alpha} w={w}")
    return problems


def run_fig4(cfg: ExperimentConfig) -> SweepTable:
    """Local vs global coefficients when the error terms coincide (T = T0).

    Globals are put on the coherence scale with the standard substitutions and
    the conventional free constants a = 2, a = b = k, t = 2. Both readings of
    the ge c1 coefficient are reported, from one evaluation of ge.
    """
    from . import baselines

    rho = cfg.rho_list[0]
    alpha = cfg.alpha_list[0] if cfg.alpha_list else 1.0
    w = np.array(w_values(cfg), dtype=float)
    p = bounds.GuaranteeParams(mu=cfg.mu, k=cfg.k, rho=rho, alpha=alpha, w=w)
    columns = {"w": w}
    for name in _FIG4_THEOREMS:
        if name == "local":
            res = bounds.local_bound(p)
        elif name == "ge":
            res, printed = baselines._ge_readings(p)
        else:
            res = baselines.evaluate(name, p)
        columns.update({f"{name}_c0": res.c0, f"{name}_c1": res.c1})
        if name == "ge":
            columns["ge_c1_printed"] = printed
        columns[f"{name}_valid"] = res.valid
        if name != "local":
            columns[f"{name}_reason"] = res.reason
    return SweepTable.from_columns(columns)


def _series_pivot(table: SweepTable, quantity: str, n_w: int) -> SweepTable:
    """Wide table for plotting: w, then quantity against w for each alpha.
    table is blocks of n_w rows, one per alpha, each holding the same w grid."""
    return SweepTable(
        columns=["w"] + [f"alpha={alpha:g}" for alpha in table.column("alpha")[::n_w].tolist()],
        data=[table.column("w")[:n_w], *table.column(quantity).reshape(-1, n_w)],
    )


def select(table: SweepTable, **filters) -> SweepTable:
    """The rows of a table whose cells equal every filter value."""
    keep = np.ones(len(table), dtype=bool)
    for name, value in filters.items():
        keep &= table.column(name) == value
    return SweepTable(columns=list(table.columns), data=[values[keep] for values in table.data])


def panels(cfg: ExperimentConfig, table: SweepTable):
    """The SVG panels of a sweep's table, in the order they are written: each
    its file name without the kind and extension, wide table, title and y
    label."""
    if cfg.kind == "fig4-comparison":
        for coeff in ("c0", "c1"):
            series = [f"{name}_{coeff}" for name in _FIG4_THEOREMS]
            if coeff == "c1":
                series.append("ge_c1_printed")
            wide = SweepTable.from_columns({name: table.column(name) for name in ["w", *series]})
            yield coeff, wide, f"{coeff}: local vs global", coeff
        return
    quantities, per_rho = _PANELS[cfg.kind]
    for rho in cfg.rho_list if per_rho else (None,):
        sub = table if rho is None else select(table, rho=rho)
        suffix, note = ("", "") if rho is None else (f"_rho{rho:g}", f" (rho={rho:g})")
        for quantity in quantities:
            yield (f"{quantity}{suffix}", _series_pivot(sub, quantity, len(w_values(cfg))),
                   f"{quantity} vs w{note}", quantity)
