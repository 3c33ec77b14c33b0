"""Rectangular sweep tables with deterministic CSV emission.

A table stores one numpy array per named column; row i is the i-th entry of
every column. CSV cells are formatted by the column's type: booleans as
true/false, integers as decimal, reals at 12 significant digits, anything
else as text, sanitized so cells never contain line breaks and quoted when
they hold a comma; one %-format call writes 4096 CSV rows. A real column
whose cells mostly repeat has each distinct value formatted once. The CSV
has LF line endings and is byte-reproducible for identical inputs; it
carries the data contract. The SVG plots of a table are in ``plots``.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import InvalidInputError


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


_BOOLS = np.array(["false", "true"], dtype=object)
_CHUNK = 4096  # rows per %-format call: bounds the formatted cells alive at once


def _cells(values) -> tuple:
    """A column's %-format and its cells as %-arguments, by the column's type;
    the text of a whole column is scanned once, and each distinct text is
    sanitized and quoted once."""
    kind = values.dtype.kind
    if kind == "b":
        return "%s", _BOOLS[values.view(np.uint8)].tolist()
    if kind in "iu":
        return "%d", values.tolist()
    if kind == "f":
        return "%.12g", values.tolist()
    # str cells are their own text: the join fails on any other cell, and
    # its text is what is scanned
    cells = values.tolist()
    try:
        joined = "".join(cells)
    except TypeError:  # some cell is not a str
        cells = list(map(str, cells))
        joined = "".join(cells)
    if not any(char in joined for char in '\n\r,"'):
        return "%s", cells
    encoded = {text: _encode_text(text) for text in set(cells)}
    return "%s", list(map(encoded.__getitem__, cells))


def _chunks(values):
    """A column's %-format and cells for each run of _CHUNK rows.

    A real column is grouped once by the bits of its float64 values (what
    tolist gives for every float width), so -0.0 and 0.0 stay apart; when at
    most half its cells are distinct, each distinct value is formatted once
    and the chunks gather their cells from those texts. A mostly distinct
    column is formatted cell by cell, which costs it only the sort. Sorting
    keeps numpy.ma unloaded, which np.unique would load. A text column is
    formatted whole, and the chunks slice its cells.
    """
    if values.dtype.kind not in "biuf":
        spec, cells = _cells(values)
        for start in range(0, len(cells), _CHUNK):
            yield spec, cells[start:start + _CHUNK]
        return
    if values.dtype.kind == "f":
        with np.errstate(over="ignore"):  # a longdouble beyond float64 prints as inf
            values = values.astype(float, copy=False)
        bits = values.view(np.int64)
        # timsort is linear on sorted runs, which grid and monotone columns
        # are made of, and maps less numpy code into memory than quicksort
        ordered = np.sort(bits, kind="stable")
        new = ordered[1:] != ordered[:-1]
        if 2 * (1 + np.count_nonzero(new)) <= len(bits):
            distinct = np.append(ordered[:1], ordered[1:][new])
            texts = "\n".join(["%.12g"] * distinct.size) % tuple(distinct.view(float).tolist())
            texts = np.array(texts.split("\n"), dtype=object)
            group = np.searchsorted(distinct, bits)
            for start in range(0, len(group), _CHUNK):
                yield "%s", texts[group[start:start + _CHUNK]].tolist()
            return
    for start in range(0, len(values), _CHUNK):
        yield _cells(values[start:start + _CHUNK])


def _encode_text(text: str) -> str:
    text = text.replace("\n", " ").replace("\r", " ")
    # minimal CSV quoting so cells may carry commas (index-set columns)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv_text(table: SweepTable) -> str:
    spec, names = _cells(np.asarray(table.columns))
    lines = [",".join([spec] * len(names)) % tuple(names)]
    for chunk in zip(*map(_chunks, table.data)):
        specs, cells = zip(*chunk)
        rows = "\n".join([",".join(specs)] * len(cells[0]))
        lines.append(rows % tuple(chain.from_iterable(zip(*cells))))
    return "\n".join(lines) + "\n"


def emit_csv(table: SweepTable, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_csv_text(table))
