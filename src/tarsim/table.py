"""The one CSV format of every table tarsim reads or writes.

A header line, then ``\\n``-terminated rows.  Floats are written with
``repr``, so a read gives back the same value; ``None`` is an empty cell;
a cell holding a comma, a quote or a line break (``\\n`` or ``\\r``) is
quoted (stdlib ``csv``, minimal quoting).  Reads skip blank lines and
accept CRLF; errors name the file line as ``row N``, the header being
row 1.
"""

from __future__ import annotations

import csv
import itertools
from types import SimpleNamespace

import numpy as np


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows`` (sequences of cells) to ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # csv quotes a cell only for the characters of its line terminator,
        # so it gets "\r\n" to quote a "\r" too; each row comes in one
        # write call, whose terminator becomes "\n"
        out = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(header)
        # csv writes None as "" and str() of other cells, but the repr of a
        # numpy float is "np.float64(...)", hence float() first
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def read_table(path, header=None):
    """(header, rows of strings); every row as wide as the header.

    With ``header`` given, a file with another header is rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, [])
        if header is not None and first != list(header):
            raise ValueError(f"row 1: bad header {','.join(first)!r}, "
                             f"expected {','.join(header)!r}")
        rows = [row for row in reader if row]
    for i, row in enumerate(rows):
        if len(row) != len(first):
            raise ValueError(f"row {line_of(path, i)}: expected "
                             f"{len(first)} fields, got {len(row)}")
    return first, rows


def line_of(path, index: int) -> int:
    """File line of ``read_table(path)[1][index]``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        lines = (reader.line_num for row in reader if row)
        return next(itertools.islice(lines, index, None))


def float_columns(path, rows, columns) -> np.ndarray:
    """``columns`` of ``read_table(path)`` rows as an (N, k) float array.

    Converts a column per numpy call; a cell that is not a finite number
    raises ValueError naming its row.
    """
    try:
        values = np.column_stack([
            np.array([row[j] for row in rows], dtype=float) for j in columns])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for i, row in enumerate(rows):
            cells = [row[j] for j in columns]
            try:
                if np.isfinite(np.array(cells, dtype=float)).all():
                    continue
            except ValueError:
                pass
            raise ValueError(f"row {line_of(path, i)}: not a finite number "
                             f"in {cells}")
    return values


def parse_row(text: str) -> list[str]:
    """The cells of one CSV line, such as a command-line ``x,y,z``."""
    return next(csv.reader([text]), [])
