import csv
import io
import math

import numpy as np
import pytest

from priorcs.errors import InvalidInputError
from priorcs.tables import (
    PlotSpec,
    SweepTable,
    format_column,
    to_csv_text,
    to_svg_text,
)


def read_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


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
        assert t.select(valid=True).rows == [[0.0, 2.3306863292670034, True, ""]]
        assert len(t) == 2 and len(t.select(valid=True)) == 1
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


class TestSvg:
    def test_empty_table_rejected(self):
        t = SweepTable(columns=["x", "y"], data=[[], []])
        with pytest.raises(InvalidInputError):
            to_svg_text(t, PlotSpec(x="x", series=("y",)))

    def test_deterministic_bytes(self):
        t = small_table()
        spec = PlotSpec(x="w", series=("c0",), title="t", x_label="w", y_label="c0")
        assert to_svg_text(t, spec) == to_svg_text(t, spec)

    def test_structure(self):
        t = small_table()
        svg = to_svg_text(t, PlotSpec(x="w", series=("c0",), title="coefficients"))
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert "coefficients" in svg

    def test_non_finite_values_break_the_line(self):
        t = SweepTable(columns=["x", "y"], data=[[0.0, 1.0, 2.0, 3.0], [1.0, math.nan, 3.0, 4.0]])
        svg = to_svg_text(t, PlotSpec(x="x", series=("y",)))
        assert svg.count("<polyline") == 2

    def test_all_nan_series_rejected(self):
        t = SweepTable(columns=["x", "y"], data=[[0.0], [math.nan]])
        with pytest.raises(InvalidInputError):
            to_svg_text(t, PlotSpec(x="x", series=("y",)))

    def test_constant_series_plots(self):
        t = SweepTable(columns=["x", "y"], data=[[0.0, 1.0], [2.0, 2.0]])
        svg = to_svg_text(t, PlotSpec(x="x", series=("y",)))
        assert "polyline" in svg
