import csv
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canopydw.report import (
    choose_binary_unit,
    csv_line,
    csv_lines,
    format_binary_size,
    render_cell,
    text_table,
)

MIB = 2**20
GIB = 2**30


def test_render_cell():
    assert render_cell(None) == ""
    assert render_cell(0.59) == "0.59"
    assert render_cell(1 / 3) == repr(1 / 3)
    assert render_cell(7) == "7"
    assert render_cell("abc") == "abc"


def test_csv_line_plain():
    assert csv_line(("a", 1, None)) == "a,1,"
    floats = (0.59, 1 / 3, -0.0, 1e16, float("inf"), float("nan"))
    assert csv_line((None, *floats, None)) == ",".join(["", *map(repr, floats), ""])
    assert csv_line((None,)) == csv_line(("",)) == '""'


def test_csv_line_escapes():
    line = csv_line(('he said "hi", twice', 2))
    parsed = next(csv.reader(io.StringIO(line)))
    assert parsed == ['he said "hi", twice', "2"]


def test_csv_lines_header_first():
    out = list(csv_lines(("x", "y"), [(1, 2), (3, None)]))
    assert out == ["x,y", "1,2", "3,"]


def test_text_table_alignment():
    table = text_table(("name", "n"), [("ab", 100), ("c", 2)])
    lines = table.splitlines()
    assert lines[0].split() == ["name", "n"]
    assert lines[2].split() == ["ab", "100"]
    assert all(len(line) <= len(lines[1]) for line in lines)


def test_choose_binary_unit():
    assert choose_binary_unit(500) == "MiB"
    assert choose_binary_unit(2**30 - 1) == "MiB"
    assert choose_binary_unit(2**30) == "GiB"
    assert choose_binary_unit(50 * GIB) == "GiB"


# frozen display cases; the first two are the reference renderings
@pytest.mark.parametrize(
    "nbytes,unit,expected",
    [
        (965_620_122, "MiB", "920.9"),
        (int(8.12 * GIB), "GiB", "8.12"),
        (14_677, "MiB", "0.014"),
        (89, "MiB", "0.000085"),
        (int(7.8288 * GIB), "GiB", "7.83"),
        (100 * MIB, "MiB", "100.0"),
        (MIB, "MiB", "1.00"),
        (int(1.5 * MIB), "MiB", "1.50"),
        (int(99.994 * MIB), "MiB", "99.99"),
        (0, "MiB", "0"),
        (10_485, "MiB", "0.01"),
        (52_429, "MiB", "0.05"),
    ],
)
def test_format_binary_size_frozen(nbytes, unit, expected):
    assert format_binary_size(nbytes, unit) == expected


@given(st.integers(1, 10**15))
def test_format_binary_size_reparses_close(nbytes):
    unit = choose_binary_unit(nbytes)
    scale = MIB if unit == "MiB" else GIB
    shown = float(format_binary_size(nbytes, unit))
    true = nbytes / scale
    if true >= 1:
        assert abs(shown - true) <= 0.051
    else:
        assert shown == pytest.approx(true, rel=0.06)
