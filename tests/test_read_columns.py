"""``read_columns`` against the csv reader it stands in for.

The one-pass numpy read must give the same values, or the same error, as
``read_table`` followed by ``float_columns``.  It and the loaders built on
it are checked against frozen copies of the reader and the loaders as
they were when every table went through the csv module.  The copied
number reader rejects a number holding ``_`` or a non-ASCII character,
as ``float_columns`` does.
"""

import csv
import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tarsim import contact, gait, leg, table
from tarsim.table import read_columns

RECORDING = gait.RECORDING_HEADER
FLOATS = (0, 2, 3, 4)


# -- the loaders as they read tables through the csv module (frozen) --------

def old_read_table(path, header=None):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, [])
            if header is not None and first != list(header):
                raise ValueError(f"row 1: bad header {','.join(first)!r}, "
                                 f"expected {','.join(header)!r}")
            rows = [row for row in reader if row]
        except csv.Error as err:
            raise ValueError(f"row {reader.line_num}: {err}") from None
    for i, row in enumerate(rows):
        if len(row) != len(first):
            raise ValueError(f"row {old_line_of(path, i)}: expected "
                             f"{len(first)} fields, got {len(row)}")
    return first, rows


def old_line_of(path, index):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        lines = (reader.line_num for row in reader if row)
        return next(itertools.islice(lines, index, None))


def old_floats(cells):
    # a number holding "_" or a non-ASCII character is not a number
    if any("_" in c or not c.isascii() for c in cells):
        raise ValueError("not a plain number")
    return np.array(cells, dtype=float)


def old_float_columns(path, rows, columns):
    try:
        values = np.column_stack([
            old_floats([row[j] for row in rows]) for j in columns])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for i, row in enumerate(rows):
            cells = [row[j] for j in columns]
            try:
                if np.isfinite(old_floats(cells)).all():
                    continue
            except ValueError:
                pass
            raise ValueError(f"row {old_line_of(path, i)}: not a finite "
                             f"number in {cells}")
    return values


def old_load_recording(path, rate=gait.DEFAULT_RATE_FPS):
    LABELS = gait.LABELS
    if not rate > 0:
        raise ValueError("rate must be > 0")
    _, rows = old_read_table(path, RECORDING)
    values = old_float_columns(path, rows, FLOATS)
    t = values[:, 0]
    index = {label: j for j, label in enumerate(LABELS)}
    column = np.array([index.get(row[1], -1) for row in rows], dtype=int)
    del rows
    t0 = float(t[0]) if len(t) else 0.0
    position = (t - t0) * (rate / 1000.0)
    frame = np.rint(position)
    _, first = np.unique(frame * len(LABELS) + column, return_index=True)
    repeat = np.bincount(first, minlength=len(t)) == 0
    for bad, why in (
            (column < 0, "unknown label"),
            (frame >= len(t), "more frames than the file has rows"),
            (np.diff(t, prepend=t0) < 0, "time goes backwards"),
            (np.abs(position - frame) > gait.GRID_TOL_FRAMES,
             f"timestamp off the {rate:g} fps grid"),
            (repeat, "second row for this label in this frame")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {old_line_of(path, i)}: {why}: "
                             f"{','.join(old_read_table(path)[1][i])}")
    markers = np.full((int(frame.max(initial=-1)) + 1, len(LABELS), 3),
                      np.nan)
    markers[frame.astype(int), column] = values[:, 1:]
    return gait.TrialRecording(markers, rate, t0)


def old_load_trajectory(path):
    _, rows = old_read_table(path, leg.TRAJECTORY_HEADER)
    data = old_float_columns(path, rows, range(4))
    back = np.diff(data[:, 0], prepend=-np.inf) <= 0
    if back.any():
        i = int(np.argmax(back))
        raise ValueError(f"row {old_line_of(path, i)}: timestamps must be "
                         f"strictly increasing: {','.join(rows[i])}")
    return leg.Trajectory(data[:, 0], data[:, 1:])


def old_load_demo_csv(path):
    _, rows = old_read_table(path, contact.DEMO_HEADER)
    numbers = old_float_columns(path, rows, (0, 1, 2, 6, 7)).tolist()
    return [contact.DemoSample(t, claw_z, mesh_z, *row[3:6], vertical,
                               horizontal)
            for (t, claw_z, mesh_z, vertical, horizontal), row
            in zip(numbers, rows)]


def old_read_columns(path, header, floats):
    _, rows = old_read_table(path, header)
    return (old_float_columns(path, rows, floats),
            *(np.array([row[j] for row in rows], dtype=object)
              for j in range(len(header)) if j not in floats))


def old_label_codes(path):
    """The recording's numbers and its labels as indices in ``LABELS``."""
    values, labels = old_read_columns(path, RECORDING, FLOATS)
    index = {label: j for j, label in enumerate(gait.LABELS)}
    return values, np.array([index.get(label, -1) for label in labels],
                            dtype=int)


# -- comparing results bit for bit -------------------------------------------

def canon(x):
    """A value that compares equal only for bit-identical results."""
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return ("objects", x.shape, [canon(v) for v in x.tolist()])
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, [canon(getattr(x, f.name))
                                   for f in dataclasses.fields(x)])
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, float):
        return ("float", x.hex())
    return (type(x).__name__, x)


def outcome(load, *args):
    try:
        return canon(load(*args))
    except Exception as err:  # noqa: BLE001  (the error is the outcome)
        return ("raises", type(err).__name__, str(err))


# -- named traps for the one-pass read ---------------------------------------

GOOD = "0.0,B1,1.0,2.0,3.0\n10.0,R1,4.0,5.0,6.0\n"
TRAPS = {
    "number padded with FS": "0.0,B1,\x1c1.0,2.0,3.0\n",
    "number padded with VT": "0.0,B1,1.0\x0b,2.0,3.0\n",
    "number padded with tab": "0.0,B1,\t1.0,2.0,3.0\n",
    "number padded with spaces": "0.0,B1, 1.0 ,2.0,3.0\n",
    "quoted label": '0.0,"B1",1.0,2.0,3.0\n',
    "quoted label with a comma": '0.0,"B,1",1.0,2.0,3.0\n',
    "lone CR": "0.0,B1,1.0,2.0,3.0\r10.0,R1,4.0,5.0,6.0\n",
    "CRLF": GOOD.replace("\n", "\r\n"),
    "whitespace-only line": "0.0,B1,1.0,2.0,3.0\n \n",
    "NUL inside a label": "0.0,B\x001,1.0,2.0,3.0\n",
    "6-cell row": "0.0,B1,1.0,2.0,3.0,\n",
    "underscore in a number": "1_0,B1,1.0,2.0,3.0\n",
    "header only": "",
    "nan": "0.0,B1,nan,2.0,3.0\n",
    "overflow": "0.0,B1,1e400,2.0,3.0\n",
    "Arabic-Indic digit": "0.0,B1,١,2.0,3.0\n",
    "comment mark": "0.0,B1,1.0,2.0,3.0#\n",
    "blank lines": "\n" + GOOD.replace("\n", "\n\n"),
    "header then blank lines": "\n\n\n",
    "blank lines between and after rows": GOOD.replace("\n", "\n\n\n"),
    "no final line break": GOOD.rstrip("\n"),
}


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("name", TRAPS)
def test_trap_reads_as_the_csv_path(tmp_path, name):
    path = write(tmp_path / "t.csv", ",".join(RECORDING) + "\n" + TRAPS[name])
    assert outcome(read_columns, path, RECORDING, FLOATS) == \
        outcome(old_read_columns, path, RECORDING, FLOATS)
    assert outcome(gait.load_recording, path) == \
        outcome(old_load_recording, path)


def test_bom_before_the_header_is_a_bad_header(tmp_path):
    path = write(tmp_path / "t.csv", "\ufeff" + ",".join(RECORDING) + "\n"
                 + GOOD)
    with pytest.raises(ValueError, match="row 1: bad header"):
        read_columns(path, RECORDING, FLOATS)
    assert outcome(read_columns, path, RECORDING, FLOATS) == \
        outcome(old_read_columns, path, RECORDING, FLOATS)


@pytest.mark.parametrize("name, expect", [
    ("number padded with FS", "row 2: not a finite number"),
    ("whitespace-only line", "row 3: expected 5 fields, got 1"),
    ("6-cell row", "row 2: expected 5 fields, got 6"),
    ("nan", "row 2: not a finite number"),
])
def test_trap_errors_name_the_row(tmp_path, name, expect):
    path = write(tmp_path / "t.csv", ",".join(RECORDING) + "\n" + TRAPS[name])
    with pytest.raises(ValueError, match=expect):
        read_columns(path, RECORDING, FLOATS)


def test_trap_values(tmp_path):
    def read(name):
        path = write(tmp_path / "t.csv",
                     ",".join(RECORDING) + "\n" + TRAPS[name])
        return read_columns(path, RECORDING, FLOATS)

    with pytest.raises(ValueError, match="row 2: not a finite number"):
        read("underscore in a number")
    with pytest.raises(ValueError, match="row 2: not a finite number"):
        read("Arabic-Indic digit")
    assert read("quoted label with a comma")[1].tolist() == ["B,1"]
    assert read("lone CR")[1].tolist() == ["B1", "R1"]
    values, labels = read("header only")
    assert values.shape == (0, 4) and labels.shape == (0,)


def test_plain_table_takes_one_numpy_pass(tmp_path, monkeypatch):
    path = write(tmp_path / "t.csv", ",".join(RECORDING) + "\r\n"
                 + GOOD.replace("\n", "\r\n") + "\n")

    def csv_reader_called(*args):
        raise AssertionError("plain table went through the csv reader")

    monkeypatch.setattr(table, "read_table", csv_reader_called)
    values, labels = read_columns(path, RECORDING, FLOATS)
    assert values.tolist() == [[0.0, 1.0, 2.0, 3.0], [10.0, 4.0, 5.0, 6.0]]
    assert labels.dtype == object
    assert [type(v) for v in labels] == [str, str]


@pytest.mark.parametrize("name", ["header only", "header then blank lines",
                                  "blank lines",
                                  "blank lines between and after rows",
                                  "no final line break", "CRLF"])
def test_plain_trap_takes_one_numpy_pass(tmp_path, monkeypatch, name):
    path = write(tmp_path / "t.csv", ",".join(RECORDING) + "\n" + TRAPS[name])
    expected = outcome(old_read_columns, path, RECORDING, FLOATS)
    expected_codes = outcome(old_label_codes, path)
    monkeypatch.setattr(table, "read_table", None)  # not reached
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a table of no rows
        assert outcome(read_columns, path, RECORDING, FLOATS) == expected
        assert outcome(read_columns, path, RECORDING, FLOATS,
                       {1: gait.LABELS}) == expected_codes


# -- label codes ------------------------------------------------------------

@pytest.mark.parametrize("path_taken", ["plain", "csv"])
@pytest.mark.parametrize("label", ["B1x", "B1xx", " B1", "B1 ", "b1", ""])
def test_near_miss_label_is_unknown(tmp_path, monkeypatch, label,
                                    path_taken):
    rows = ["0.0,B1,1.0,2.0,3.0", "0.0,R1,4.0,5.0,6.0",
            f"10.0,{label},7.0,8.0,9.0", "20.0,L3,1.0,2.0,3.0"]
    if path_taken == "csv":  # one quoted cell sends the file to csv
        rows[1] = rows[1].replace("R1", '"R1"')
    path = write(tmp_path / "t.csv", ",".join(RECORDING) + "\n"
                 + "".join(row + "\n" for row in rows))
    if path_taken == "plain":
        monkeypatch.setattr(table, "read_table", None)  # not reached
    _, codes = read_columns(path, RECORDING, FLOATS, codes={1: gait.LABELS})
    assert codes.tolist() == [gait.LABELS.index(word) if word else -1
                              for word in ("B1", "R1", None, "L3")]
    with pytest.raises(ValueError, match="^row 4: unknown label: "):
        gait.load_recording(path)
    assert outcome(gait.load_recording, path) == \
        outcome(old_load_recording, path)


def test_repeated_row_before_time_going_back_reports_the_time(tmp_path):
    # the repeat check runs last and only on a file that passed the others
    path = write(tmp_path / "t.csv", ",".join(RECORDING) + "\n"
                 "0.0,B1,1.0,2.0,3.0\n0.0,B1,1.0,2.0,3.0\n"
                 "10.0,R1,1.0,2.0,3.0\n0.0,R2,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="^row 5: time goes backwards"):
        gait.load_recording(path)
    assert outcome(gait.load_recording, path) == \
        outcome(old_load_recording, path)


def test_line_past_the_csv_field_limit_names_its_row(tmp_path):
    path = write(tmp_path / "t.csv", ",".join(RECORDING) + "\n0.0,"
                 + "B" * csv.field_size_limit() + "1,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="^row 2: field larger"):
        read_columns(path, RECORDING, FLOATS)


@pytest.mark.parametrize("rows_before", [0, 1, 2000, 2345])
@pytest.mark.parametrize("extra", [0, 1, 70000])
@pytest.mark.parametrize("end", ["\n", ""])
def test_long_label_anywhere_is_read_as_the_csv_path(tmp_path, rows_before,
                                                     extra, end):
    # a label cell from 131056 to 201056 characters long, after rows that
    # shift it against any fixed block of the bytes, at the file's end or
    # not: on the csv path the csv error or the cell itself
    limit = csv.field_size_limit()
    label = "B" * (limit - 16 + extra)
    path = write(tmp_path / "t.csv", ",".join(RECORDING) + "\n"
                 + "0.0,B1,1.0,2.0,3.0\n" * rows_before
                 + f"0.0,{label},1.0,2.0,3.0" + end)
    assert outcome(read_columns, path, RECORDING, FLOATS) == \
        outcome(old_read_columns, path, RECORDING, FLOATS)


# -- mutated tables: the loaders against their frozen copies -----------------

LOADERS = {
    "recording": (RECORDING, FLOATS, gait.load_recording,
                  old_load_recording, gait.LABELS),
    "trajectory": (leg.TRAJECTORY_HEADER, range(4), leg.load_trajectory,
                   old_load_trajectory, ()),
    "demo": (contact.DEMO_HEADER, (0, 1, 2, 6, 7), contact.load_demo_csv,
             old_load_demo_csv, ("flexible", "rigid", "free", "hooked",
                                 "Hook;Release", "")),
}
TOKENS = [",", '"', "\r", "\n", "\r\n",
          " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
          "\x00", "_", "#", "nan", "inf", "1e400", "١", "\ufeff",
          "known", "unknown"]
NUMBER = st.one_of(st.integers(-999, 999).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def mutated_table(draw):
    name = draw(st.sampled_from(sorted(LOADERS)))
    header, floats, _, _, words = LOADERS[name]
    words = words or ("B1",)
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 6))):
        # 10 ms apart, so an unmutated recording is one frame per row
        lines.append(",".join(
            repr(10.0 * i) if j == 0 else repr(draw(NUMBER)) if j in floats
            else draw(st.sampled_from(words)) for j in range(len(header))))
    text = "\n".join(lines) + "\n"
    for op, at, token in draw(st.lists(st.tuples(
            st.sampled_from(["insert", "replace", "delete"]),
            st.integers(0, 10**6), st.sampled_from(TOKENS)), max_size=4)):
        token = {"known": words[at % len(words)], "unknown": "X9"}.get(
            token, token)
        if op == "delete":
            starts = [k for k in range(len(text))
                      if text.startswith(token, k)]
            if starts:
                k = starts[at % len(starts)]
                text = text[:k] + text[k + len(token):]
            continue
        k = at % (len(text) + 1)
        text = text[:k] + token + text[k + (op == "replace"):]
    return name, text


@settings(max_examples=400, deadline=None)
@given(mutated_table())
# a trajectory going back in time, which the mutations almost never make
@example(("trajectory", ",".join(leg.TRAJECTORY_HEADER)
          + "\n0.0,1.0,2.0,3.0\n\n0.0,1.0,2.0,3.0\n"))
def test_mutated_tables_load_as_before(tmp_path_factory, case):
    name, text = case
    header, floats, load, old_load, _ = LOADERS[name]
    path = write(tmp_path_factory.mktemp("mutated") / "t.csv", text)
    assert outcome(read_columns, path, header, floats) == \
        outcome(old_read_columns, path, header, floats)
    assert outcome(load, path) == outcome(old_load, path)
    if name == "recording":
        assert outcome(read_columns, path, header, floats,
                       {1: gait.LABELS}) == outcome(old_label_codes, path)


# -- one bad row: its loader names its file line -----------------------------

@st.composite
def table_with_one_bad_row(draw):
    """(loader name, file bytes, file line of the one bad row).

    A good table with blank lines and LF or CRLF line ends, one data row
    broken in one way; on the csv path the last line ends in a lone CR.
    """
    name = draw(st.sampled_from(sorted(LOADERS)))
    header, floats, _, _, words = LOADERS[name]
    rows = [[repr(10.0 * i) if j == 0 else repr(draw(NUMBER)) if j in floats
             else draw(st.sampled_from(words)) for j in range(len(header))]
            for i in range(draw(st.integers(1, 5)))]
    k = draw(st.integers(0, len(rows) - 1))
    ways = ["word", "missing cell", "0xff"]
    if name != "demo" and k > 0:
        ways.append("earlier")
    way = draw(st.sampled_from(ways))
    if way == "word":
        rows[k][draw(st.sampled_from(list(floats)))] = "abc"
    elif way == "missing cell":
        del rows[k][draw(st.integers(0, len(header) - 1))]
    elif way == "earlier":
        rows[k][0] = repr(10.0 * (k - 2))
    blanks = st.lists(st.just(""), max_size=2)
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines += draw(blanks)
        if i == k:
            bad = len(lines)
        lines.append(",".join(row))
    lines += draw(blanks)
    data = [line.encode() + draw(st.sampled_from([b"\n", b"\r\n"]))
            for line in lines]
    if way == "0xff":
        at = draw(st.integers(0, len(lines[bad])))
        data[bad] = data[bad][:at] + b"\xff" + data[bad][at:]
    if draw(st.sampled_from(["plain", "csv"])) == "csv":
        data[-1] = data[-1].rstrip(b"\r\n") + b"\r"
    return name, b"".join(data), bad + 1


def past_the_field_limit(name, row):
    """A table whose one data row holds a cell past the csv field limit."""
    return name, ",".join(LOADERS[name][0]).encode() + b"\n" + row, 2


BIG = b"1" * (csv.field_size_limit() + 1)


@settings(max_examples=150, deadline=None)
@given(table_with_one_bad_row())
@example(past_the_field_limit("recording", b"0.0,B" + BIG + b",1,2,3\n"))
@example(past_the_field_limit("trajectory", b"0.0," + BIG + b",2,3\n"))
@example(past_the_field_limit("demo", b"0,1,2,rigid,free," + BIG + b",1,2\n"))
def test_one_bad_row_names_its_row(tmp_path_factory, case):
    name, data, line = case
    path = tmp_path_factory.mktemp("bad") / "t.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^row {line}: "):
        LOADERS[name][2](path)


def bench_shaped_recording(rng, frames):
    """Markers with noise, short dropouts and a few absent frames."""
    markers = rng.normal(0.0, 20.0, (1, len(gait.LABELS), 3)) \
        + rng.normal(0.0, 5.0, (frames, len(gait.LABELS), 3))
    for j in range(len(gait.LABELS)):
        for s in np.flatnonzero(rng.random(frames) < 0.002):
            markers[s:s + int(rng.integers(1, 6)), j] = np.nan
    absent = rng.random(frames) < 0.001
    absent[[0, -1]] = False
    markers[absent] = np.nan
    return gait.TrialRecording(markers)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bench_shaped_recordings_load_bit_identical(tmp_path_factory, seed):
    path = tmp_path_factory.mktemp("bench") / "trial.csv"
    recording = bench_shaped_recording(np.random.default_rng(seed), 1000)
    gait.save_recording(path, recording)
    loaded = gait.load_recording(path)
    assert canon(loaded) == canon(old_load_recording(path))
    assert canon(loaded.markers) == canon(recording.markers)
