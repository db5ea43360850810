"""The one CSV format of every table tarsim reads or writes.

A header line, then ``\\n``-terminated rows.  Floats are written with
``repr``, so a read gives back the same value; ``None`` is an empty cell;
a cell holding a comma, a quote or a line break (``\\n`` or ``\\r``) is
quoted (stdlib ``csv``, minimal quoting).  Reads skip blank lines and
accept CRLF; errors name the file line as ``row N``, the header being
row 1.

``write_table`` hands whole rows to the ``csv`` writer, which formats
every cell in C: ``None`` as empty, any other cell as its ``str``, which
for a Python float is its ``repr``.  Callers pass float columns as Python
floats (``ndarray.tolist()``); a table holding a numpy float, which
formats itself, has its float cells made Python floats first.  The text
is formatted with ``\\n`` line ends, and a table holding a ``\\r`` again
with ``\\r\\n`` ones, which quote it.

``read_table`` and ``float_columns`` define the format and, with
``_reject_first`` for the loaders' own row checks, are the one reporter of
a bad input file: every error is a ValueError naming the file line as
``row N``, a cell past the ``csv`` field size limit and a byte that is
not UTF-8 included, and ``csv.Error`` never leaves this module.
``read_columns`` takes a faster path for a plain file:
printable ASCII but ``"``, ``\\n`` or ``\\r\\n`` line ends, the expected
header and no line past the ``csv`` field size limit.  There no cell is
quoted and ``\\n`` is the only line break, so splitting on ``,`` is what
``csv`` does, and the one blank both ``loadtxt`` and ``float`` strip
around a number, the space, is the only one that can occur; tabs and
other control or Unicode blanks, which the two treat apart, cannot.  Such
a file is split into its lines once, and one ``np.loadtxt`` call parses
that list, skipping the header and the empty lines itself; the result is
kept if every number is finite.  The lines are measured against the
limit only where a scan of the bytes, block by block, finds a stretch
with no line break as long as half the limit.  Any other file, a cell
``loadtxt`` rejects or a non-finite number goes through ``read_table``
and ``float_columns``, which return the same values or raise the ``row
N`` error; ``float_columns`` rejects the spellings ``float`` reads but
``loadtxt`` does not, a number with a ``_`` (``1_0``) or a non-ASCII
character.

A text column with a closed vocabulary, such as a recording's marker
label, can be read as int codes: ``loadtxt`` reads it as fixed-width
text, which one ``np.searchsorted`` maps to codes, so no ``str`` object is
made per row; the ``csv`` path maps its strings to the same codes.
"""

from __future__ import annotations

import csv
import io
import itertools
from types import SimpleNamespace

import numpy as np


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows`` (sequences of cells) to ``path``."""
    rows = list(rows)
    # csv writes str() of a cell, which for a float subclass such as
    # numpy's float64 is that type's own format: such cells become Python
    # floats, whose str is their repr.  The cell types are collected in C,
    # so a table of Python floats, text, ints and None takes no Python
    # step per cell.
    if any(issubclass(kind, float) and kind is not float
           for kind in set(map(type, itertools.chain.from_iterable(rows)))):
        rows = [[float(v) if isinstance(v, float) else v for v in row]
                for row in rows]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    text = out.getvalue()
    if "\r" in text:
        # csv quotes a cell only for the characters of its line terminator,
        # so a table holding a "\r" is written again with "\r\n", one row
        # per write call, whose terminator becomes "\n"
        out = io.StringIO()
        writer = SimpleNamespace(write=lambda row: out.write(row[:-2] + "\n"))
        csv.writer(writer, lineterminator="\r\n").writerows([header, *rows])
        text = out.getvalue()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def read_table(path, header=None):
    """(header, rows of strings); every row as wide as the header.

    With ``header`` given, a file with another header is rejected.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                first = next(reader, [])
                if header is not None and first != list(header):
                    raise ValueError(f"row 1: bad header {','.join(first)!r}, "
                                     f"expected {','.join(header)!r}")
                rows = [row for row in reader if row]
            except csv.Error as err:  # a cell past the field size limit
                raise ValueError(f"row {reader.line_num}: {err}") from None
    except UnicodeDecodeError:
        _reject_not_utf8(path)
        raise
    for i, row in enumerate(rows):
        if len(row) != len(first):
            raise ValueError(f"row {row_at(path, i)[0]}: expected "
                             f"{len(first)} fields, got {len(row)}")
    return first, rows


def row_at(path, index: int) -> tuple[int, list[str]]:
    """(file line, cells) of ``read_table(path)[1][index]``, in one pass."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        rows = ((reader.line_num, row) for row in reader if row)
        return next(itertools.islice(rows, index, None))


def _reject_not_utf8(path) -> None:
    """Raise ValueError naming the line of the first byte of ``path`` that
    is not UTF-8, lines counted as the ``csv`` reader counts them: each
    ``\\n``, ``\\r\\n`` and lone ``\\r`` ends one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start].decode("utf-8")
        line = len(io.StringIO(head + "x", newline="").readlines())
        raise ValueError(f"row {line}: not UTF-8 text "
                         f"(byte 0x{data[err.start]:02x})") from None


def _reject_first(path, bad, why) -> None:
    """Raise ValueError naming the file row of the first ``bad`` row."""
    if bad.any():
        line, row = row_at(path, int(np.argmax(bad)))
        raise ValueError(f"row {line}: {why}: {','.join(row)}")


def float_columns(path, rows, columns) -> np.ndarray:
    """``columns`` of ``read_table(path)`` rows as an (N, k) float array.

    Converts a column per numpy call; a cell that is not a finite number
    raises ValueError naming its row.
    """
    try:
        values = np.column_stack([
            _floats([row[j] for row in rows]) for j in columns])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for i, row in enumerate(rows):
            cells = [row[j] for j in columns]
            try:
                if np.isfinite(_floats(cells)).all():
                    continue
            except ValueError:
                pass
            raise ValueError(f"row {row_at(path, i)[0]}: not a finite number "
                             f"in {cells}")
    return values


def _floats(cells) -> np.ndarray:
    """The cells as a float array.  Raises ValueError, as for any cell
    ``float`` rejects, for a ``_`` or a non-ASCII character: ``float``
    reads ``1_0`` as 10 and Arabic-Indic digits as digits, but no CSV
    writer writes them, and ``np.loadtxt`` rejects them."""
    text = "".join(cells)
    if "_" in text or not text.isascii():
        raise ValueError("not a plain number")
    return np.array(cells, dtype=float)


# the bytes of a plain table, in which ``,`` and ``\n`` are the only syntax
_PLAIN_BYTES = b"\n" + bytes(c for c in range(0x20, 0x7F) if c != ord('"'))


def read_columns(path, header, floats, codes=None) -> tuple:
    """(values, *texts) of a table with ``header``: the ``floats`` columns
    as an (N, k) float array, then each other column, in header order, as
    an object array of ``str``.  ``codes`` maps a text column to its
    closed vocabulary, a non-empty sequence of words: that column comes as
    an int array of each cell's index in it, -1 for any other cell.

    Accepts, rejects and reports as ``read_table(path, header)`` followed
    by ``float_columns(path, rows, floats)`` (see the module docstring).
    """
    floats = list(floats)
    codes = codes or {}
    texts = [j for j in range(len(header)) if j not in floats]
    cells = _plain_cells(path, header, floats, codes)
    if cells is not None:
        values = np.column_stack([cells[str(j)] for j in floats])
        if np.isfinite(values).all():
            return (values, *(_word_codes(cells[str(j)], codes[j])
                              if j in codes else cells[str(j)]
                              for j in texts))
    _, rows = read_table(path, header)
    index = {j: {word: k for k, word in enumerate(words)}
             for j, words in codes.items()}
    return (float_columns(path, rows, floats),
            *(np.array([index[j].get(row[j], -1) for row in rows], dtype=int)
              if j in codes else
              np.array([row[j] for row in rows], dtype=object)
              for j in texts))


def _word_codes(cells, words) -> np.ndarray:
    """Index of each fixed-width cell in ``words``, -1 where it is none."""
    order = np.argsort(words)
    ranked = np.asarray(words)[order]
    at = np.searchsorted(ranked, cells).clip(max=len(ranked) - 1)
    return np.where(ranked[at] == cells, order[at], -1)


def _plain_cells(path, header, floats, codes):
    """The rows of a plain table as one structured array, else None.

    A ``codes`` column is read as text one character wider than its
    longest word, so that ``loadtxt`` cuts a longer cell to a width no
    word has.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # replace copies the text even when nothing matches
        data = data.replace(b"\r\n", b"\n")
    if data.translate(None, _PLAIN_BYTES):
        return None
    limit = csv.field_size_limit()
    # a line of ``limit`` characters or more holds a whole block of
    # ``half`` that starts at a multiple of ``half``, so the lines are
    # measured only where such a block holds no line break
    half = max(limit // 2, 1)
    measure = any(data.find(b"\n", k, k + half) < 0
                  for k in range(0, len(data) - half + 1, half))
    # each copy of the text is dropped before the next one is built
    lines = data.decode("ascii").split("\n")
    del data
    if (lines[0].split(",") != list(header)
            or measure and max(map(len, lines)) >= limit):
        return None
    kinds = {j: f"U{1 + max(map(len, words))}" for j, words in codes.items()}
    dtype = [(str(j), float if j in floats else kinds.get(j, object))
             for j in range(len(header))]
    # loadtxt skips the empty lines, but warns when it reads no row at all
    if not any(itertools.islice(lines, 1, None)):
        return np.zeros(0, dtype)
    try:
        return np.loadtxt(lines, dtype, comments=None, delimiter=",",
                          skiprows=1, ndmin=1)
    except ValueError:
        return None


def parse_row(text: str) -> list[str]:
    """The cells of one CSV line, such as a command-line ``x,y,z``."""
    return next(csv.reader([text]), [])
