"""Rectangular sweep tables with deterministic CSV and SVG emission.

A table stores one numpy array per named column; row i is the i-th entry of
every column. CSV cells are formatted by the column's type: booleans as
true/false, integers as decimal, reals at 12 significant digits, anything
else as text, sanitized so cells never contain line breaks and quoted when
they hold a comma; one %-format call writes 4096 CSV rows. An SVG's "%.2f"
pixel cells come from one exact fixed-point byte kernel per plot, _fixed2:
near-ties and cells outside [0, 9999.995) go through Python's own "%.2f".
Both emitters write LF line endings and are byte-reproducible for identical
inputs. The SVG is a deliberately plain fixed-size line plot of a wide table,
every column after the first drawn against the first, meant for eyeball
regression; the CSV carries the data contract.
"""

from __future__ import annotations

from itertools import chain, islice

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


class SweepTable:
    """Named columns of equal length: columns holds the names, data one array
    (or sequence, converted to an array) per name."""

    __slots__ = ("columns", "data")

    def __init__(self, columns: list, data: list):
        self.columns = columns
        self.data = [np.asarray(values) for values in data]
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


def _cells(values) -> tuple:
    """A column's %-format and its cells as %-arguments, by the column's type;
    text is sanitized and quoted once per distinct value."""
    kind = values.dtype.kind
    if kind == "b":
        return "%s", np.where(values, "true", "false").tolist()
    if kind in "iu":
        return "%d", values.tolist()
    if kind == "f":
        return "%.12g", values.tolist()
    texts = list(map(str, values.tolist()))
    joined = "".join(texts)
    if not any(char in joined for char in '\n\r,"'):
        return "%s", texts
    encoded = {text: _encode_text(text) for text in set(texts)}
    return "%s", list(map(encoded.__getitem__, texts))


def _encode_text(text: str) -> str:
    text = text.replace("\n", " ").replace("\r", " ")
    # minimal CSV quoting so cells may carry commas (index-set columns)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv_text(table: SweepTable) -> str:
    spec, names = _cells(np.asarray(table.columns))
    lines = [",".join([spec] * len(names)) % tuple(names)]
    for start in range(0, len(table), 4096):  # bounds the formatted cells alive at once
        specs, cells = zip(*(_cells(v[start:start + 4096]) for v in table.data))
        rows = "\n".join([",".join(specs)] * len(cells[0]))
        lines.append(rows % tuple(chain.from_iterable(zip(*cells))))
    return "\n".join(lines) + "\n"


def emit_csv(table: SweepTable, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_csv_text(table))


def _axis_range(values):
    finite = values[np.isfinite(values)]
    if not finite.size:
        raise InvalidInputError("no finite values to plot")
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    # the pixel maps and gridlines scale the span by less than SVG_WIDTH
    if not 0.0 < (hi - lo) * SVG_WIDTH < np.inf:
        raise InvalidInputError(f"cannot draw an axis from {lo!r} to {hi!r}: "
                                "its span overflows or vanishes")
    return lo, hi


# "00" to "99" as 16-bit little-endian words, first digit in the low byte
_PAIRS = np.array([ord(a) | ord(b) << 8 for a in "0123456789" for b in "0123456789"],
                  dtype=np.uint64)
_DOT = np.uint64(ord(".") << 32)


def _fixed2(values) -> np.ndarray:
    """The "%.2f" text of every value, one row each of an (N, W) uint8 matrix,
    NUL where a byte is absent; W is 7 unless a fallback cell is longer.

    CPython's "%.2f" prints the exact 100 x rounded to an integer n, ties to
    even. The float p = 100 * x is within half an ulp of the exact product,
    and every half-integer below 2**52 is a float, so n = rint(p) unless p
    itself is a half-integer; then the sign of the rounding error of p says
    which way the exact product lies (an exact tie keeps rint's even n). That
    error is computed exactly by Dekker's product, with a Veltkamp split of
    x (100 has 7 significant bits). n is spelt from digit pairs as
    divmod(n, 100) without the leading zeros. Python's own "%.2f" writes the
    rest: non-finite values, negative ones and -0.0, and those from 9999.995
    on (five integer digits).
    """
    x = np.asarray(values, dtype=float).ravel()
    p = x * 100.0
    n = np.rint(p)
    with np.errstate(invalid="ignore"):  # inf - inf: a fallback cell
        fast = ~np.signbit(p) & (p < 999_999.5)
        ties = np.flatnonzero(fast & (np.abs(p - n) == 0.5))
    if ties.size:
        t = x[ties]
        t_hi = t * 134217729.0  # 2**27 + 1: t_hi keeps the top 26 bits of t
        t_hi -= t_hi - t
        error = (t_hi * 100.0 - p[ties]) + (t - t_hi) * 100.0  # the exact 100 t - p
        n[ties] = np.where(error == 0.0, n[ties], p[ties] + np.copysign(0.5, error))
    whole, cents = np.divmod(np.where(fast, n, 0.0).astype(np.int32), 100)
    hi, lo = np.divmod(whole, 100)
    words = _PAIRS.take(hi) | _PAIRS.take(lo) << 16 | _DOT | _PAIRS.take(cents) << 40
    # the integer part's leading zeros are the word's low bytes
    words >>= ((whole < 10).astype(np.uint8) + (whole < 100) + (whole < 1000)) * np.uint8(8)
    cells = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :7]
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = np.array(("%.2f " * slow.size % tuple(x[slow].tolist())).split(), dtype="S")
        cells = np.pad(cells, ((0, 0), (0, max(0, texts.itemsize - 7))))
        cells[slow] = texts.astype(f"S{cells.shape[1]}").view(np.uint8).reshape(slow.size, -1)
    return cells


def to_svg_text(table: SweepTable, title: str, y_label: str) -> str:
    """A line plot of every column after the first against the first, whose
    name labels the x axis."""
    if not len(table):
        raise InvalidInputError("nothing to plot: table has no rows")
    if len(table.columns) < 2:
        raise InvalidInputError("nothing to plot: table has no column after the x column")
    try:
        xs, *columns = (np.asarray(values, dtype=float) for values in table.data)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot plot a non-numeric column: {exc}") from exc
    ys = np.stack(columns)
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)

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
    # one byte block of every point drawn, x "," y and a space, or a newline
    # where its polyline ends: non-finite values break a line, never bridged
    x_ok = np.isfinite(xs)
    drawn = x_ok & np.isfinite(ys)
    ends = drawn & ~np.pad(drawn[:, 1:], ((0, 0), (0, 1)))
    x_cells = _fixed2(np.where(x_ok, px(xs), 0.0))
    y_cells = _fixed2(np.where(drawn, py(ys), 0.0)).reshape(*drawn.shape, -1)
    wx = x_cells.shape[1]
    block = np.empty((*drawn.shape, wx + y_cells.shape[2] + 2), dtype=np.uint8)
    block[..., :wx] = x_cells
    block[..., wx] = ord(",")
    block[..., wx + 1:-1] = y_cells
    block[..., -1] = np.where(ends, ord("\n"), ord(" "))
    block[~drawn] = 0
    polylines = iter(block[block != 0].tobytes().decode().split("\n"))
    for k, (name, count) in enumerate(zip(table.columns[1:], ends.sum(1).tolist())):
        color = _PALETTE[k % len(_PALETTE)]
        for points in islice(polylines, count):
            out.append(
                f'<polyline points="{points}" fill="none" '
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
    out += [
        f'<text x="{SVG_WIDTH / 2:.0f}" y="24" font-size="15" text-anchor="middle" '
        f'font-family="monospace">{title}</text>',
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{SVG_HEIGHT - 16}" font-size="13" '
        f'text-anchor="middle" font-family="monospace">{table.columns[0]}</text>',
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.0f}" font-size="13" text-anchor="middle" '
        f'font-family="monospace" transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.0f})">'
        f'{y_label}</text>',
        "</svg>",
    ]
    return "\n".join(out) + "\n"


def emit_svg(table: SweepTable, path, title: str, y_label: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_svg_text(table, title, y_label))
