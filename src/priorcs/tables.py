"""Rectangular sweep tables with deterministic CSV and SVG emission.

CSV cells: reals at 12 significant digits, booleans as true/false, text
sanitized so cells never contain separators. Both emitters write LF line
endings and are byte-reproducible for identical inputs; the SVG is a
deliberately plain fixed-size line plot meant for eyeball regression, the CSV
carries the data contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidInputError

SVG_WIDTH = 800
SVG_HEIGHT = 600
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 170
_MARGIN_TOP = 50
_MARGIN_BOTTOM = 60
_TICKS = 10

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass
class SweepTable:
    """A rectangular grid of named columns; rows keep insertion order."""

    columns: list
    rows: list = field(default_factory=list)

    def add_row(self, values) -> None:
        values = list(values)
        if len(values) != len(self.columns):
            raise InvalidInputError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def column(self, name: str) -> list:
        try:
            idx = self.columns.index(name)
        except ValueError as exc:
            raise InvalidInputError(f"no column named {name!r}") from exc
        return [row[idx] for row in self.rows]

    def select(self, **filters) -> "SweepTable":
        """Rows whose cells equal every filter value."""
        keep = []
        idx = {name: self.columns.index(name) for name in filters}
        for row in self.rows:
            if all(row[idx[name]] == value for name, value in filters.items()):
                keep.append(list(row))
        return SweepTable(columns=list(self.columns), rows=keep)


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    text = str(value)
    return text.replace("\n", " ").replace("\r", " ")


def _encode_cell(text: str) -> str:
    # minimal CSV quoting so cells may carry commas (index-set columns)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv_text(table: SweepTable) -> str:
    lines = [",".join(_encode_cell(format_cell(c)) for c in table.columns)]
    for row in table.rows:
        lines.append(",".join(_encode_cell(format_cell(c)) for c in row))
    return "\n".join(lines) + "\n"


def emit_csv(table: SweepTable, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_csv_text(table))


@dataclass(frozen=True)
class PlotSpec:
    """Which columns to draw: x against each series column."""

    x: str
    series: tuple
    title: str = ""
    x_label: str = ""
    y_label: str = ""


def _axis_range(values):
    finite = [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]
    if not finite:
        raise InvalidInputError("no finite values to plot")
    lo, hi = min(finite), max(finite)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return float(lo), float(hi)


def to_svg_text(table: SweepTable, spec: PlotSpec) -> str:
    if not table.rows:
        raise InvalidInputError("nothing to plot: table has no rows")
    xs = table.column(spec.x)
    series = [(name, table.column(name)) for name in spec.series]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range([v for _, ys in series for v in ys])

    plot_w = SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v):
        return _MARGIN_LEFT + plot_w * (v - x_lo) / (x_hi - x_lo)

    def py(v):
        return _MARGIN_TOP + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    # gridlines and tick labels, _TICKS intervals per axis
    for i in range(_TICKS + 1):
        xv = x_lo + (x_hi - x_lo) * i / _TICKS
        yv = y_lo + (y_hi - y_lo) * i / _TICKS
        gx, gy = px(xv), py(yv)
        out.append(
            f'<line x1="{gx:.2f}" y1="{_MARGIN_TOP}" x2="{gx:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{gy:.2f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{gy:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{gx:.2f}" y="{_MARGIN_TOP + plot_h + 18}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{xv:.4g}</text>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{gy:.2f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle" font-family="monospace">{yv:.4g}</text>'
        )
    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for k, (name, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        # break the polyline at non-finite values instead of bridging gaps
        segment = []
        segments = []
        for xv, yv in zip(xs, ys):
            ok = (
                isinstance(xv, (int, float)) and isinstance(yv, (int, float))
                and math.isfinite(xv) and math.isfinite(yv)
            )
            if ok:
                segment.append((px(xv), py(yv)))
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for seg in segments:
            pts = " ".join(f"{gx:.2f},{gy:.2f}" for gx, gy in seg)
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MARGIN_TOP + 14 + 16 * k
        lx = SVG_WIDTH - _MARGIN_RIGHT + 14
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly}" font-size="12" font-family="monospace">{name}</text>'
        )
    if spec.title:
        out.append(
            f'<text x="{SVG_WIDTH / 2:.0f}" y="24" font-size="15" text-anchor="middle" '
            f'font-family="monospace">{spec.title}</text>'
        )
    if spec.x_label:
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{SVG_HEIGHT - 16}" font-size="13" '
            f'text-anchor="middle" font-family="monospace">{spec.x_label}</text>'
        )
    if spec.y_label:
        out.append(
            f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.0f}" font-size="13" text-anchor="middle" '
            f'font-family="monospace" transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.0f})">'
            f'{spec.y_label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_svg(table: SweepTable, path, spec: PlotSpec) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_svg_text(table, spec))
