"""SVG line plots of sweep tables.

The SVG is a deliberately plain fixed-size line plot of a wide table, every
column after the first drawn against the first, meant for eyeball
regression; the CSV carries the data contract. Its "%.2f" pixel cells come
from one exact fixed-point byte kernel per plot, _fixed2, which spells every
value in [0, 9999.995). Plots are written with LF line endings and are
byte-reproducible for identical inputs. Only the sweeps draw plots, so this
module stays off the load path of the commands that draw none.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import InvalidInputError
from .tables import SweepTable

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
    """The "%.2f" text of every value in [0, 9999.995), one row each of an
    (N, 7) uint8 matrix, NUL where a byte is absent.

    to_svg_text's pixel coordinates lie in [0, SVG_WIDTH], so every cell is
    in that window. CPython's "%.2f" prints the exact 100 x rounded to an
    integer n, ties to even. The float p = 100 * x is within half an ulp of
    the exact product, and every half-integer below 2**52 is a float, so
    n = rint(p) unless p itself is a half-integer; then the sign of the
    rounding error of p says which way the exact product lies (an exact tie
    keeps rint's even n). That error is computed exactly by Dekker's
    product, with a Veltkamp split of x (100 has 7 significant bits). n is
    spelt from digit pairs as divmod(n, 100) without the leading zeros.
    """
    x = np.asarray(values, dtype=float).ravel()
    p = x * 100.0
    n = np.rint(p)
    ties = np.flatnonzero(np.abs(p - n) == 0.5)
    if ties.size:
        t = x[ties]
        t_hi = t * 134217729.0  # 2**27 + 1: t_hi keeps the top 26 bits of t
        t_hi -= t_hi - t
        error = (t_hi * 100.0 - p[ties]) + (t - t_hi) * 100.0  # the exact 100 t - p
        n[ties] = np.where(error == 0.0, n[ties], p[ties] + np.copysign(0.5, error))
    whole, cents = np.divmod(n.astype(np.int32), 100)
    hi, lo = np.divmod(whole, 100)
    words = _PAIRS.take(hi) | _PAIRS.take(lo) << 16 | _DOT | _PAIRS.take(cents) << 40
    # the integer part's leading zeros are the word's low bytes
    words >>= ((whole < 10).astype(np.uint8) + (whole < 100) + (whole < 1000)) * np.uint8(8)
    return words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :7]


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
    block = np.empty((*drawn.shape, 16), dtype=np.uint8)
    block[..., :7] = _fixed2(np.where(x_ok, px(xs), 0.0))
    block[..., 7] = ord(",")
    block[..., 8:15] = _fixed2(np.where(drawn, py(ys), 0.0)).reshape(*drawn.shape, 7)
    block[..., -1] = np.where(ends, ord("\n"), ord(" "))
    block[~drawn] = 0
    polylines = iter(block.tobytes().translate(None, b"\0").decode().split("\n"))
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
