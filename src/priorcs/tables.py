"""Rectangular sweep tables with deterministic CSV and SVG emission.

A table stores one numpy array per named column; row i is the i-th entry of
every column. CSV cells are formatted a column at a time, by the column's
type: booleans as true/false, integers as decimal, reals at 12 significant
digits, anything else as text, sanitized so cells never contain line breaks
and quoted when they hold a comma. Both emitters write LF line endings and
are byte-reproducible for identical inputs; the SVG is a deliberately plain
fixed-size line plot meant for eyeball regression, the CSV carries the data
contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Named columns of equal length: columns holds the names, data one array
    (or sequence, converted to an array) per name."""

    columns: list
    data: list

    def __post_init__(self):
        self.data = [np.asarray(values) for values in self.data]
        lengths = [len(values) for values in self.data]
        if len(lengths) != len(self.columns) or len(set(lengths)) > 1:
            raise InvalidInputError(f"{len(self.columns)} names for columns of lengths {lengths}")

    @classmethod
    def from_columns(cls, columns: dict) -> "SweepTable":
        """A table from a mapping of column name to values, in mapping order."""
        return cls(columns=list(columns), data=list(columns.values()))

    def __len__(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def rows(self) -> list:
        """The cells row by row, as Python values."""
        return [list(row) for row in zip(*(values.tolist() for values in self.data))]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.data[self.columns.index(name)]
        except ValueError as exc:
            raise InvalidInputError(f"no column named {name!r}") from exc

    def select(self, **filters) -> "SweepTable":
        """Rows whose cells equal every filter value."""
        keep = np.ones(len(self), dtype=bool)
        for name, value in filters.items():
            keep &= self.column(name) == value
        return SweepTable(columns=list(self.columns), data=[values[keep] for values in self.data])


def format_column(values) -> list:
    """The CSV cells of one column, by the column's type."""
    values = np.asarray(values)
    kind, cells = values.dtype.kind, values.tolist()
    if kind == "b":
        return ["true" if v else "false" for v in cells]
    if kind in "iu":
        return [str(v) for v in cells]
    if kind == "f":
        return [f"{v:.12g}" for v in cells]
    return [_encode_cell(str(v).replace("\n", " ").replace("\r", " ")) for v in cells]


def _encode_cell(text: str) -> str:
    # minimal CSV quoting so cells may carry commas (index-set columns)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv_text(table: SweepTable) -> str:
    lines = [",".join(format_column(table.columns))]
    for start in range(0, len(table), 4096):  # bounds the formatted cells alive at once
        lines += map(",".join, zip(*(format_column(v[start:start + 4096]) for v in table.data)))
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
    finite = values[np.isfinite(values)]
    if not finite.size:
        raise InvalidInputError("no finite values to plot")
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def to_svg_text(table: SweepTable, spec: PlotSpec) -> str:
    if not len(table):
        raise InvalidInputError("nothing to plot: table has no rows")
    xs = np.asarray(table.column(spec.x), dtype=float)
    series = [(name, np.asarray(table.column(name), dtype=float)) for name in spec.series]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(np.concatenate([ys for _, ys in series]))

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
        drawn = np.flatnonzero(np.isfinite(xs) & np.isfinite(ys))
        points = [f"{gx:.2f},{gy:.2f}"
                  for gx, gy in zip(px(xs[drawn]).tolist(), py(ys[drawn]).tolist())]
        cuts = [0, *(np.flatnonzero(np.diff(drawn) > 1) + 1).tolist(), len(points)]
        for start, stop in zip(cuts, cuts[1:]):
            if start < stop:
                out.append(
                    f'<polyline points="{" ".join(points[start:stop])}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
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
