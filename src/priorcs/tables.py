"""Rectangular sweep tables with deterministic CSV emission.

A table stores one numpy array per named column; row i is the i-th entry of
every column. CSV cells are formatted by the column's type: booleans as
true/false, integers as decimal, reals as "%.12g", anything else as text,
sanitized so cells never contain line breaks and quoted when they hold a
comma. The CSV has LF line endings, is UTF-8 and is byte-reproducible for
identical inputs; it carries the data contract. The SVG plots of a table are
in ``plots``.

The CSV is built as bytes. Every column becomes a block of NUL-padded cells
of whole 8-byte words, each closed by its separator, and the index of each
row's cell in it: a real column holds each distinct value once when at most
half its cells are distinct, a text column each distinct text. For _CHUNK
rows at a time the cells sit side by side and the NULs are dropped.

Reals are spelt by one exact fixed-point byte kernel, _reals, run once per
table over the values of every real column, in the manner of plots._fixed2.
"%.12g" prints the exact |x| rounded to 12 significant digits, ties to even:
the integer n in [1e11, 1e12) nearest to |x| * 10**(11 - e), e = floor(log10
|x|), its trailing zeros stripped. For e in -4..11 the point follows digit
e + 1, or "0." and -e - 1 zeros for e < 0; for any other e it follows the
first digit, and "e", the sign and two digits of e close the cell. The kernel
takes the decades e in -10..32, where k = 11 - e has |k| <= 22 and 10**|k| is
an exact double: s = |x| * 10**k, or |x| / 10**-k, is then correctly
rounded, within half an ulp (2**-14 = 6.1e-5 below 2**40) of the exact
value, so n = rint(s) is exact unless s lies within _TIE_MARGIN of a
half-integer. n = 1e12 is a rounding that carries into the next decade, 1e11
at e + 1; log10 can be one off only within a few ulps of a power of ten,
where n comes out as that power (1e11, or 1e12 and a carry). The digits are
spelt as two uint64 words by products that divide lanes of 4, 2 and 1 digits
exactly. Python's own "%.12g" writes every other cell: zeros, non-finite
values, the other decades and the cells near a half-integer.
"""

from __future__ import annotations

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


# within this of a half-integer, a scaled value may round either way
_TIE_MARGIN = 1e-3
_POW10 = np.array([float(10 ** k) for k in range(23)])  # the exact doubles 10**k


def rint_scaled(x, k) -> tuple:
    """rint(x * 10**k) for |k| <= 22 (an integer array or an int), and a mask
    of the cells within _TIE_MARGIN of a half-integer: there the float product
    or quotient may round the other way than the exact one, so the caller
    asks Python instead."""
    s = x * _POW10[np.maximum(k, 0)] / _POW10[np.maximum(-k, 0)]  # one of the two is 1
    n = np.rint(s)
    return n, np.abs(s - n) > 0.5 - _TIE_MARGIN


_U = np.uint64
_ONES = 2 ** 64 - 1
_SLICE = 1 << 13  # reals per kernel pass: its temporaries stay in cache


# per exponent e in -11..33 at index e + 11 (log10 may put a value of the
# kernel's decades one off): the head word, with byte 0 free for the sign and
# the "0.000" prefix of e in -4..-1 after it; the tail word, with the "e-05"
# suffix of the exponent form in bytes 3-6 and the cell's ","; and the bit
# after which the fixed form of e in 0..11 has its point (128: none)
_E = range(-11, 34)
_HEADS = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-e - 1), "little") if -4 <= e < 0 else 0
                   for e in _E], dtype=_U)
_TAILS = np.array([int.from_bytes(f"\0\0\0e{e:+03d},".encode(), "little") if not -4 <= e < 12
                   else ord(",") << 56 for e in _E], dtype=_U)
_POINTS = np.array([8 * e + 8 if 0 <= e < 12 else 128 for e in _E], dtype=_U)
# per step: a divisor, a product and shift that divide every lane by it
# exactly in the lane's range, a mask of the quotients and the new lane width
_SPLITS = np.array([[10_000, 109951163, 40, _ONES, 32], [100, 5243, 19, 0x0000007F0000007F, 16],
                    [10, 103, 10, 0x000F000F000F000F, 8]], dtype=_U)


def _reals(values) -> np.ndarray:
    """The "%.12g" text of every float64 of values, one 24-byte row each of
    an (N, 3) little-endian uint64 matrix, NUL where a byte is absent and ","
    as its last byte: the head (sign, then the "0.000" prefix or the first
    digit and point of the exponent form), digits 1-8 with the point, and the
    digit they spill with digits 9-12 and the "e-05" suffix."""
    out = np.empty((len(values), 3), dtype="<u8")
    for start in range(0, len(values), _SLICE):
        x, cells = values[start:start + _SLICE], out[start:start + _SLICE]
        ax = np.abs(x)
        kernel = (ax >= 1e-10) & (ax < 1e33)  # the kernel's decades: e in -10..32
        ax[~kernel] = 1.0
        e = np.floor(np.log10(ax)).astype(np.intp)
        n, near = rint_scaled(ax, 11 - e)
        carry = n == 1e12
        e += carry + 11  # from here, the index of e in the tables
        n[carry] = 1e11
        kernel &= ~near
        # "%.12g" writes e in -4..11 without an exponent; the exponent form
        # keeps its first digit for the head and spells the other 11 below
        lead = (x < 0) * _U(ord("-"))
        expo = (e < 7) | (e > 22)
        if expo.any():
            first = np.floor(n / 1e11)  # exact, as hi below
            n[expo] = (n - first * 1e11)[expo] * 10.0
            lead |= expo * (first.astype(_U) + ord("0") << 8 | (n > 0) * _U(ord(".") << 16))

        # the digits as bytes 0-11, the first in the low byte: 1-8 in one word
        # and 9-12 (times 10**4) in the other, each halved into lanes of 4, 2, 1
        hi = np.floor(n / 1e4)  # exact: n is an integer below 2**40
        words = np.stack([hi, (n - hi * 1e4) * 1e4]).astype(_U)
        for divisor, magic, shift, mask, width in _SPLITS:
            quotient = words * magic >> shift & mask
            words = quotient | (words - quotient * divisor) << width
        w1, w2 = words
        # the bit length of the significant digits, in whole bytes: a word of
        # bytes 0-9 has no run of 53 one bits, so the double of both words
        # keeps their bit length
        length = (np.frexp(w2 * 2.0 ** 64 + w1)[1] + 7 & -8).astype(_U)
        # "0" goes in each digit byte kept: the significant ones and those
        # before the point
        point = _POINTS.take(e)
        kept = np.maximum(length, point & 127)
        w1 |= 0x3030303030303030 & ~(_ONES << kept)
        w2 |= 0x30303030 >> 96 - kept
        # the digits after the point move up a byte, the last of w1 into w2.
        # numpy shifts a word by 64 bits or more to 0, so the terms of a
        # point in the other word (or none) vanish
        after1 = w1 & _ONES << point
        after2 = w2 & _ONES << np.maximum(point, 64) - 64
        dot = (length > point) * _U(ord("."))
        np.stack([_HEADS.take(e) | lead,
                  w1 ^ after1 | after1 << 8 | dot << point,
                  w2 ^ after2 | after2 << 8 | after1 >> 56 | dot << (point ^ 64) | _TAILS.take(e)],
                 axis=1, out=cells)
        texts = np.array([b"%.12g" % v for v in x[~kernel].tolist()], dtype="S23")
        cells.view(np.uint8)[~kernel, :23] = texts.view(np.uint8).reshape(-1, 23)
    return out


_CHUNK = 4096  # rows per block of CSV lines: bounds the bytes alive at once
_BOOLS = np.array([b"false\0\0,", b"true\0\0\0,"]).view("<u8").reshape(2, 1)


def _real_cells(values) -> tuple:
    """A real column as float64 values to format and each cell's index there.

    The column is grouped by the bits of its float64 values, so -0.0 and 0.0
    stay apart; when at most half its cells are distinct, each distinct value
    is formatted once. Sorting keeps numpy.ma unloaded, which np.unique would
    load; timsort is linear on the sorted runs that grid and monotone columns
    are made of.
    """
    with np.errstate(over="ignore"):  # a longdouble beyond float64 prints as inf
        values = values.astype(float)
    bits = values.view(np.int64)
    ordered = np.sort(bits, kind="stable")
    distinct = np.append(ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]])
    if 2 * len(distinct) > len(bits):
        return values, np.arange(len(bits))
    return distinct.view(float), np.searchsorted(distinct, bits)


def _text_cells(values) -> tuple:
    """A non-real column as a block of its distinct cells and each cell's
    index there; the text of a whole column is scanned once."""
    if values.dtype.kind == "b":
        return _BOOLS, values.view(np.uint8)
    cells = values.tolist()
    try:  # str cells are their own text: the join fails on any other cell
        joined = "".join(cells)
    except TypeError:
        cells = list(map(str, cells))
        joined = "".join(cells)
    distinct = list(dict.fromkeys(cells))
    index = dict(zip(distinct, range(len(distinct))))
    if any(char in joined for char in '\n\r,"'):
        distinct = map(_encode_text, distinct)
    # no text holds a line break now, so the texts are encoded as one; a NUL
    # of a text is carried as 0xff, which UTF-8 never uses
    encoded = "\n".join(distinct).encode("utf-8", "surrogatepass").replace(b"\0", b"\xff")
    encoded = encoded.split(b"\n")
    width = max(map(len, encoded)) + 8 & -8  # whole words, a byte to spare
    block = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    block[:, -1] = ord(",")
    return block.view("<u8"), np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))


def _encode_text(text: str) -> str:
    text = text.replace("\n", " ").replace("\r", " ")
    # minimal CSV quoting so cells may carry commas (index-set columns)
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def _csv(table: SweepTable):
    """The CSV's header line, then its lines _CHUNK rows at a time. Each
    column is a block of NUL-padded cells, each closed by ",", and the index
    of every row's cell there; one kernel call formats the reals of all
    columns. The chunk's cells sit side by side and its NULs are dropped."""
    names = map(str, np.asarray(table.columns).tolist())  # as a column: no trailing NULs
    yield (",".join(map(_encode_text, names)) + "\n").encode("utf-8", "surrogatepass")
    reals = [_real_cells(values) for values in table.data if values.dtype.kind == "f"]
    if reals:
        values, indexes = zip(*reals)
        blocks = np.split(_reals(np.concatenate(values)), np.cumsum([len(v) for v in values])[:-1])
        reals = iter(zip(blocks, indexes))
    columns = [next(reals) if values.dtype.kind == "f" else _text_cells(values) for values in table.data]
    for start in range(0, len(table), _CHUNK):
        cells = np.concatenate([block.take(index[start:start + _CHUNK], axis=0)
                                for block, index in columns], axis=1).view(np.uint8)
        cells[:, -1] = ord("\n")
        yield cells.tobytes().translate(None, b"\0").replace(b"\xff", b"\0")


def to_csv_text(table: SweepTable) -> str:
    return b"".join(_csv(table)).decode("utf-8", "surrogatepass")


def emit_csv(table: SweepTable, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_csv(table))
