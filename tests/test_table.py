"""The shared CSV table format: round trips, quoting and reader errors."""

import csv
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tarsim.table import (float_columns, parse_row, read_table, row_at,
                          write_table)

# every character but surrogates (not encodable in UTF-8); commas, quotes
# and line breaks are drawn often
TEXT = st.text(st.one_of(st.sampled_from(',"\n\r'),
                         st.characters(blacklist_categories=("Cs",))))
CELL = st.one_of(st.none(), TEXT,
                 st.floats(allow_nan=False, allow_infinity=False))


def expected_text(cell):
    if cell is None:
        return ""
    return repr(cell) if isinstance(cell, float) else cell


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(CELL, min_size=w, max_size=w), max_size=6)))
def test_round_trip_is_lossless(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    width = len(rows[0]) if rows else 2
    header = [f"c{j}" for j in range(width)]
    write_table(path, header, rows)
    got_header, got = read_table(path, header)
    assert got_header == header
    assert got == [[expected_text(c) for c in row] for row in rows]
    for row, back in zip(rows, got):
        for cell, text in zip(row, back):
            if isinstance(cell, float):
                assert float(text) == cell


def frozen_write_table(path, header, rows):
    """The writer as it was with a Python step per cell: the oracle for
    the bytes ``write_table`` writes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_CELL = st.one_of(st.none(), TEXT, st.floats(), FINITE.map(np.float64),
                     st.integers(), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.tuples(
    st.lists(TEXT, min_size=w, max_size=w),
    st.lists(st.lists(ANY_CELL, min_size=w, max_size=w), max_size=8))))
def test_writer_keeps_its_bytes(tmp_path_factory, table):
    header, rows = table
    where = tmp_path_factory.mktemp("bytes")
    write_table(where / "new.csv", header, rows)
    frozen_write_table(where / "old.csv", header, rows)
    assert (where / "new.csv").read_bytes() == (where / "old.csv").read_bytes()


def test_cells_with_commas_quotes_newlines_are_quoted(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c"], [["x,y", 'say "hi"', "two\nlines"],
                                        [1.5, None, 3]])
    assert path.read_bytes() == (
        b'a,b,c\n"x,y","say ""hi""","two\nlines"\n1.5,,3\n')


def test_plain_cells_are_not_quoted(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("t_ms", "event"), [[0.1, "Hook"], [np.float64(2.0),
                                                         "Release"]])
    assert path.read_text() == "t_ms,event\n0.1,Hook\n2.0,Release\n"


def test_carriage_returns_are_quoted(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [["x\ry", "\r\n"], ["", None]])
    assert path.read_bytes() == b'a,b\n"x\ry","\r\n"\n,\n'
    assert read_table(path)[1] == [["x\ry", "\r\n"], ["", ""]]


def test_blank_lines_and_crlf(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\r\n1,2\r\n\r\n\n3,4\r\n\n")
    assert read_table(path, ["a", "b"]) == (["a", "b"], [["1", "2"],
                                                        ["3", "4"]])


def test_wrong_header_is_row_1(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="row 1: bad header 'x,y'"):
        read_table(path, ("a", "b"))


def test_wrong_width_names_the_file_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b\n1,2\n\n"x\ny",3\n4\n')
    with pytest.raises(ValueError, match="row 6: expected 2 fields, got 1"):
        read_table(path)


def test_row_at_counts_blank_lines_and_quoted_newlines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b\n\n"x\ny",1\n\n2,3\n')
    assert [row_at(path, i)[0] for i in range(2)] == [4, 6]


@pytest.mark.parametrize("bad, message", [
    (b"\xff", "not UTF-8 text (byte 0xff)"),
    (b"\xe9x", "not UTF-8 text (byte 0xe9)"),
    (b"1" * (csv.field_size_limit() + 1),
     f"field larger than field limit ({csv.field_size_limit()})"),
], ids=["0xff", "0xe9", "field limit"])
def test_bad_cell_names_its_line_as_the_reader_counts(tmp_path, bad,
                                                      message):
    # CRLF, a lone CR, a quoted LF and a blank line each end one line
    path = tmp_path / "t.csv"
    path.write_bytes(b'a,b\r\n1,2\r"x\ny",3\n\n4,' + bad + b"\n")
    with pytest.raises(ValueError, match=rf"^row 6: {re.escape(message)}$"):
        read_table(path)


def test_float_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["t", "label", "x"], [[0.1, "a", 1e-300],
                                            [0.2, "b", -3.0]])
    _, rows = read_table(path)
    values = float_columns(path, rows, (0, 2))
    assert values.tolist() == [[0.1, 1e-300], [0.2, -3.0]]
    assert float_columns(path, [], (0, 2)).shape == (0, 2)


@pytest.mark.parametrize("bad", ["oops", "nan", "-inf"])
def test_float_columns_names_the_bad_row(tmp_path, bad):
    path = tmp_path / "t.csv"
    path.write_text(f"t,x\n0.0,1.0\n\n1.0,{bad}\n")
    _, rows = read_table(path)
    with pytest.raises(ValueError, match="row 4: not a finite number"):
        float_columns(path, rows, (0, 1))


def test_parse_row():
    assert parse_row("1,-2.5,3") == ["1", "-2.5", "3"]
    assert parse_row('"a,b",1') == ["a,b", "1"]
