import csv
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import csv_text, svg_polyline_points
from priorcs.errors import InvalidInputError
from priorcs.plots import _fixed2, to_svg_text
from priorcs.sweeps import select
from priorcs.tables import SweepTable, to_csv_text


def read_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def format_column(values):
    """The CSV cells the library writes for one column."""
    return to_csv_text(SweepTable(columns=["v"], data=[values])).split("\n")[1:-1]


def plotted(table, *names):
    """The wide table to_svg_text draws: the named columns, x first."""
    return SweepTable.from_columns({name: table.column(name) for name in names})


def small_table():
    return SweepTable(columns=["w", "c0", "valid", "reason"], data=[
        [0.0, 0.05], [2.3306863292670034, 2.5], [True, False], ["", "k >= k_max, boundary"],
    ])


class TestSweepTable:
    def test_rectangularity_enforced(self):
        with pytest.raises(InvalidInputError):
            SweepTable(columns=["a", "b"], data=[[1, 2], [3]])
        with pytest.raises(InvalidInputError):
            SweepTable(columns=["a", "b"], data=[[1], [2], [3]])

    def test_column_and_select(self):
        t = small_table()
        assert t.column("w").tolist() == [0.0, 0.05]
        assert select(t, valid=True).rows == [[0.0, 2.3306863292670034, True, ""]]
        assert len(t) == 2 and len(select(t, valid=True)) == 1
        with pytest.raises(InvalidInputError):
            t.column("nope")


class TestCsv:
    def test_format_cells(self):
        assert format_column([True, False]) == ["true", "false"]
        assert format_column(np.array([True, False])) == ["true", "false"]  # not "True"
        assert format_column([3, -7]) == ["3", "-7"]
        assert format_column(np.arange(2)) == ["0", "1"]
        assert format_column([0.1, 2.3306863292670034]) == ["0.1", "2.33068632927"]  # 12 digits
        assert format_column([float("nan"), float("inf"), 1.0]) == ["nan", "inf", "1"]
        # repeats are formatted once per bit pattern, so -0.0 keeps its sign
        assert format_column([0.0, -0.0] * 3 + [0.5]) == ["0", "-0"] * 3 + ["0.5"]
        # a longdouble prints as its nearest double, inf beyond the double range
        assert format_column(np.array(["1e400", "-1e400", "1e-400"] * 2, dtype=np.longdouble)) \
            == ["inf", "-inf", "0"] * 2
        assert format_column(["a b\nc", "x,y"]) == ["a b c", '"x,y"']
        assert format_column(np.array(["a b\rc", None], dtype=object)) == ["a b c", "None"]

    def test_layout(self):
        text = to_csv_text(small_table())
        lines = text.split("\n")
        assert lines[0] == "w,c0,valid,reason"
        assert lines[1] == "0,2.33068632927,true,"
        assert lines[2] == '0.05,2.5,false,"k >= k_max, boundary"'
        assert text.endswith("\n")
        assert "\r" not in text

    def test_index_set_column_round_trips(self):
        t = SweepTable(columns=["trial", "T"], data=[[0, 1], ["1,4,7", ""]])
        assert read_rows(to_csv_text(t)) == [["trial", "T"], ["0", "1,4,7"], ["1", ""]]

    def test_round_trip_values(self):
        t = SweepTable(columns=["a", "b"], data=[[1.5, -0.25], [2, 7]])
        header, *rows = read_rows(to_csv_text(t))
        assert header == ["a", "b"]
        assert [[float(a), int(b)] for a, b in rows] == [[1.5, 2], [-0.25, 7]]

    def test_emission_idempotent_after_parse(self):
        text = to_csv_text(small_table())
        header, *rows = read_rows(text)
        assert to_csv_text(SweepTable(columns=header, data=list(zip(*rows)))) == text

    def test_deterministic_bytes(self):
        assert to_csv_text(small_table()) == to_csv_text(small_table())

    def test_header_only_for_empty_table(self):
        t = SweepTable(columns=["x", "y"], data=[[], []])
        assert to_csv_text(t) == "x,y\n"


# text cells that need sanitizing or quoting, and plain ones
# NUL and a two-byte UTF-8 character: a NUL-padded block of text cells keeps both
TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n;x1\0é'), max_size=6)
SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                  2.2250738585072014e-308, 1e300, -1e-300, 0.1])
# a few reals, -0.0 beside 0.0, so that most cells of a column repeat one
REPEATED_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1])


def columns_of(n):
    """A strategy for one column of n cells, as an array of one of the types
    the CSV distinguishes."""
    return st.one_of(
        st.lists(st.one_of(st.floats(), SPECIAL_FLOATS), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=float)),
        st.lists(REPEATED_FLOATS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float)),
        # other float widths; a third of a double carries bits a double drops
        st.lists(st.floats(width=32), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.float32)),
        st.lists(st.one_of(st.floats(), REPEATED_FLOATS), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.longdouble) / 3),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.uint64)),
        st.lists(st.integers(-2**80, 2**80), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=object)),  # beyond int64: written as text
        st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=bool)),
        # few distinct values, so most cells repeat one
        st.lists(TEXT, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        .map(lambda v: np.array(v, dtype=object)),
        st.lists(TEXT, min_size=n, max_size=n).map(np.array),
        st.lists(st.one_of(st.none(), st.floats(), st.integers(), TEXT), min_size=n, max_size=n)
        .map(lambda v: np.array(v + [None], dtype=object)[:n]),
    )


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    names = draw(st.lists(TEXT, min_size=1, max_size=5))
    return SweepTable(columns=names, data=[draw(columns_of(n)) for _ in names])


class TestCsvMatchesPerCellOracle:
    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_bulk_format_equals_per_cell_format(self, table):
        assert to_csv_text(table) == csv_text(table.columns, table.data)

    def test_across_chunk_boundaries(self):
        rng = np.random.default_rng(0)
        n = 2 * 4096 + 5
        data = [rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n),
                rng.integers(-9, 9, n), rng.random(n) < 0.5,
                np.array(["", "k >= k_max, boundary", 'say "x"'], dtype=object)[rng.integers(0, 3, n)],
                # a w grid tiled over the rows: its groups span every chunk edge
                np.resize(np.linspace(0.0, 1.0, 1001), n)]
        data[0][::7] = np.nan
        table = SweepTable(columns=["x", "i", "b", "reason", "w"], data=data)
        assert to_csv_text(table) == csv_text(table.columns, table.data)

    def test_empty_tables(self):
        for table in (SweepTable(columns=[], data=[]),
                      SweepTable(columns=["a", "b,c"], data=[np.array([]), np.array([], dtype=bool)])):
            assert to_csv_text(table) == csv_text(table.columns, table.data)


# where the real kernel could go wrong: signed zeros, subnormals, roundings
# that carry into the next decade, the decades where "%.12g" switches to and
# from an exponent and those where the kernel hands over to Python, integers
# whose trailing zeros stand before the point, and plain values
EDGE_VALUES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
               9.9999999999995, 9.99999999999949, 0.99999999999995, 99999.9999999995,
               999999999999.5, 999999.9999995, 9999999.9999995, 9999999.99999949,
               9.9999999999995e-5, 9.99999999999949e-5, 1e-4, 1.00000000000005e-4,
               1e-5, 9.99999999999e-5, 1e11, 99999999999.95, 1e12, 999999999999.4, 1e7,
               1e-10, 9.9999999999995e-11, 9.99999999999949e-11, 1e-11, 1.5e-9,
               1e33, 9.9999999999995e32, 9.99999999999949e32, 1e32, 1.5e21, 123456789012345.0,
               1.0, 10.0, 100.0, 2500.0, 1e6, 120.5, 0.1, 0.5, 1.5, 123456.789, 7.5e-3,
               math.nan, math.inf, 1e300, 1e-300]


def decimal_ties():
    """The doubles nearest to 12-digit decimal ties (k + 0.5) 10**(e - 11),
    k of 12 digits, for every e from -12 to 34, and two neighbours each side."""
    rng = np.random.default_rng(7)
    ties = np.array([float(f"{k}5e{e - 12}") for e in range(-12, 35)
                     for k in rng.integers(10 ** 11, 10 ** 12, 25).tolist()])
    below, above = np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)
    return np.concatenate([ties, below, above, np.nextafter(below, -np.inf),
                           np.nextafter(above, np.inf)])


class TestRealCellsMatchPercentFormat:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.longdouble])
    def test_edge_values(self, dtype):
        values = np.concatenate([EDGE_VALUES, decimal_ties()])
        with np.errstate(over="ignore"):
            column = np.concatenate([values, -values]).astype(dtype)
        table = SweepTable(columns=["x", "third"], data=[column, column / 3])
        assert to_csv_text(table) == csv_text(table.columns, table.data)

    def test_random_doubles_of_every_exponent(self):
        rng = np.random.default_rng(2024)
        n = 50_000
        # random bits: every exponent, subnormals, infinities and NaNs
        bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
        decades = rng.random(n) * 10.0 ** rng.integers(-14, 37, n) * rng.choice([-1.0, 1.0], n)
        table = SweepTable(columns=["bits", "decades"], data=[bits, decades])
        assert to_csv_text(table) == csv_text(table.columns, table.data)


class TestSvg:
    def test_empty_table_rejected(self):
        t = SweepTable(columns=["x", "y"], data=[[], []])
        with pytest.raises(InvalidInputError):
            to_svg_text(t, "", "")

    def test_deterministic_bytes(self):
        t = plotted(small_table(), "w", "c0")
        assert to_svg_text(t, "t", "c0") == to_svg_text(t, "t", "c0")

    def test_structure(self):
        t = plotted(small_table(), "w", "c0")
        svg = to_svg_text(t, "coefficients", "height")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert "coefficients" in svg
        # the first column is the x axis and names it; the y label is drawn as given
        assert 'font-family="monospace">w</text>' in svg
        assert ">height</text>" in svg

    def test_non_finite_values_break_the_line(self):
        t = SweepTable(columns=["x", "y"], data=[[0.0, 1.0, 2.0, 3.0], [1.0, math.nan, 3.0, 4.0]])
        svg = to_svg_text(t, "", "")
        assert svg.count("<polyline") == 2

    def test_all_nan_series_rejected(self):
        t = SweepTable(columns=["x", "y"], data=[[0.0], [math.nan]])
        with pytest.raises(InvalidInputError):
            to_svg_text(t, "", "")

    def test_constant_series_plots(self):
        t = SweepTable(columns=["x", "y"], data=[[0.0, 1.0], [2.0, 2.0]])
        svg = to_svg_text(t, "", "")
        assert "polyline" in svg

    @pytest.mark.parametrize("xs, ys", [
        ([-1e308, 0.0, 1e308], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [-1e308, 0.0, 1e308]),
        ([-1e306, 1e306], [0.0, 1.0]),  # the span is finite, 550 pixels times it is not
        ([0.0, 1.0], [-1e307, 1e307]),  # the span is finite, ten gridlines times it are not
        ([1e20, 1e20], [0.0, 1.0]),  # padding by 0.5 leaves no span
    ], ids=["x-overflow", "y-overflow", "x-pixels-overflow", "y-gridlines-overflow", "x-no-span"])
    def test_axis_that_cannot_be_drawn_rejected(self, xs, ys):
        t = SweepTable(columns=["x", "y"], data=[xs, ys])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                to_svg_text(t, "", "")

    def test_x_column_alone_rejected(self):
        t = SweepTable(columns=["x"], data=[[0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            to_svg_text(t, "", "")

    def test_text_column_rejected(self):
        for data in ([[0.0, 1.0], ["a", "b"]], [["a", "b"], [0.0, 1.0]],
                     [[0.0, 1.0], np.array(["a", 1.0], dtype=object)],
                     [[0.0, 1.0], np.array([{}, 1.0], dtype=object)]):
            with pytest.raises(InvalidInputError):
                to_svg_text(SweepTable(columns=["x", "y"], data=data), "", "")


def polylines(svg):
    return re.findall(r'<polyline points="([^"]*)"', svg)


FINITE = st.floats(-1e6, 1e6)
ANY = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


class TestSvgMatchesPerPointOracle:
    def test_gaps_and_all_nan_series(self):
        nan, inf = math.nan, math.inf
        xs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        series = {
            "leading": [nan, -inf, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0],
            "interior": [1.0, 1.5, nan, 2.0, inf, nan, 0.5, 0.25],
            "trailing": [0.0, 0.5, 1.0, 1.5, 2.0, nan, nan, inf],
            "all_nan": [nan] * 8,
            "single_points": [1.0, nan, 2.0, nan, 3.0, nan, 4.0, nan],
        }
        table = SweepTable.from_columns({"x": xs, **series})
        svg = to_svg_text(table, "", "")
        expected = svg_polyline_points(xs, list(series.values()))
        assert polylines(svg) == expected
        assert len(expected) == 1 + 3 + 1 + 0 + 4

    def test_non_finite_x_breaks_every_series(self):
        xs = [0.0, 1.0, math.nan, 3.0, 4.0]
        table = SweepTable.from_columns({"x": xs, "a": [1.0, 2.0, 3.0, 4.0, 5.0], "b": [0.0] * 5})
        svg = to_svg_text(table, "", "")
        assert polylines(svg) == svg_polyline_points(xs, [table.column("a"), table.column("b")])
        assert len(polylines(svg)) == 4

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda n: st.tuples(
        st.lists(FINITE, min_size=n, max_size=n), st.lists(ANY, min_size=n, max_size=n),
        st.lists(st.lists(ANY, min_size=n, max_size=n), max_size=3))))
    def test_random_series(self, drawn):
        xs, first, others = drawn
        series = [first, *others]
        if not any(math.isfinite(v) for ys in series for v in ys):
            series[0][0] = 1.0
        table = SweepTable(columns=["x", *(f"s{i}" for i in range(len(series)))],
                           data=[xs, *series])
        svg = to_svg_text(table, "", "")
        assert polylines(svg) == svg_polyline_points(xs, series)


def fixed2_texts(values):
    cells = _fixed2(np.array(values, dtype=float))
    assert cells.dtype == np.uint8 and cells.shape == (len(values), 7)
    return [bytes(row[row != 0]).decode() for row in cells]


@st.composite
def near_ties(draw):
    """k/100 + 0.005 in floats below 9999.995, nudged a few ulps either way."""
    value = draw(st.integers(0, 999_998)) / 100 + 0.005
    for _ in range(draw(st.integers(0, 4))):
        value = np.nextafter(value, draw(st.sampled_from([0.0, math.inf])))
    return float(value)


class TestFixed2MatchesPercentFormat:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 9999.995, exclude_max=True), near_ties()),
                    min_size=1, max_size=40))
    @example([0.0, 5e-324, 9.995, 99.995, 999.995, 9999.994, 9999.994999999999])
    def test_in_window_and_near_ties(self, values):
        assert fixed2_texts(values) == ["%.2f" % v for v in values]

    def test_exact_ties_round_half_even(self):
        values = [0.125, 0.375, 80.125, 80.375, 0.5, 2.5, 0.005, 0.015, 9999.985, 1023.875]
        assert fixed2_texts(values) == ["%.2f" % v for v in values]
        assert fixed2_texts([0.125, 80.125, 0.375]) == ["0.12", "80.12", "0.38"]

    def test_the_pixel_cells_of_a_fine_w_grid(self):
        """The x pixels of fig4 -o w_step=0.0001: p = 100 x lands on a
        half-integer for 3,859 of them, and within 1e-6 of one for 1,141 more."""
        w = np.array([round(i * 1e-4, 12) for i in range(10_001)])
        x = 80 + 550 * (w - 0.0) / (1.0 - 0.0)
        p = x * 100.0
        assert np.sum(np.abs(p - np.rint(p)) == 0.5) == 3859
        assert np.sum(np.abs(np.abs(p - np.rint(p)) - 0.5) < 1e-6) == 5000
        assert fixed2_texts(x) == ["%.2f" % v for v in x.tolist()]

    def test_empty(self):
        assert fixed2_texts([]) == []

    def test_pixel_on_a_tie_end_to_end(self):
        # px(0.125) = 80 + 550 * 0.125 / 550 = 80.125 exactly, which "%.2f" rounds to even
        xs, ys = [0.0, 0.125, 550.0], [1.0, 2.0, 3.0]
        svg = to_svg_text(SweepTable(columns=["x", "y"], data=[xs, ys]), "", "")
        assert polylines(svg) == svg_polyline_points(xs, [ys])
        assert polylines(svg)[0].split()[1].startswith("80.12,")
