"""SVG chart writer: structure, NaN gaps, degenerate inputs."""

import hashlib
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from tarsim import svgplot
from tarsim.svgplot import line_chart


def test_basic_chart(tmp_path):
    p = tmp_path / "c.svg"
    x = np.linspace(0.0, 10.0, 50)
    line_chart(p, [("a", x, np.sin(x)), ("b", x, np.cos(x))],
               title="waves", xlabel="t", ylabel="v")
    text = p.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "waves" in text and ">a<" in text and ">b<" in text


def test_nan_breaks_polyline(tmp_path):
    p = tmp_path / "gap.svg"
    x = np.arange(10.0)
    y = x.copy()
    y[4:6] = np.nan
    line_chart(p, [("gappy", x, y)])
    assert p.read_text().count("<polyline") == 2


def test_constant_series_does_not_crash(tmp_path):
    p = tmp_path / "flat.svg"
    line_chart(p, [("flat", [0.0, 1.0], [2.0, 2.0])])
    assert "<polyline" in p.read_text()


def test_empty_series_list(tmp_path):
    p = tmp_path / "empty.svg"
    line_chart(p, [])
    text = p.read_text()
    assert text.startswith("<svg") and "</svg>" in text


def test_text_is_xml_escaped(tmp_path):
    p = tmp_path / "esc.svg"
    odd = 'a & b < c "d"'
    line_chart(p, [(f"series {odd}", [0.0, 1.0], [0.0, 1.0])],
               title=f"title {odd}", xlabel=f"x {odd}", ylabel=f"y {odd}")
    root = ElementTree.parse(p).getroot()
    texts = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
    for name in ("series", "title", "x", "y"):
        assert f"{name} {odd}" in texts


def frozen_runs(x, y, px, py):
    """The per-point polyline loop ``line_chart`` ran before ``_runs``."""
    run = []
    chunks = []
    for xi, yi in zip(x, y):
        if np.isfinite(xi) and np.isfinite(yi):
            run.append(f"{px(xi):.2f},{py(yi):.2f}")
        elif run:
            chunks.append(run)
            run = []
    if run:
        chunks.append(run)
    return [" ".join(run) for run in chunks]


NAN = float("nan")
SERIES = {
    "nan runs": [("a", np.arange(12.0),
                  [0.5, NAN, NAN, 2.0, 3.0, NAN, 4.25, 5.0, 6.0, NAN, 7.0,
                   8.0])],
    "leading and trailing nan": [("a", [0.0, 1.0, 2.0, 3.0, 4.0],
                                  [NAN, 1.0, 2.0, 3.0, NAN])],
    "nan in x": [("a", [0.0, NAN, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])],
    "infinities": [("a", [0.0, 1.0, 2.0, 3.0], [1.0, np.inf, -np.inf, 2.0])],
    "all nan": [("a", [0.0, 1.0, 2.0], [NAN, NAN, NAN]),
                ("b", [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])],
    "all nan alone": [("a", [0.0, 1.0], [NAN, NAN])],
    "single point": [("a", [3.0], [7.0])],
    "uneven lengths": [("a", [0.0, 1.0, 2.0, 3.0], [1.0, 2.0])],
    "sim-like": [("claw", np.arange(1, 136) * 10.0,
                  -120.0 + 30.0 * np.sin(np.arange(135) / 9.0)),
                 ("mesh", np.arange(1, 136) * 10.0,
                  np.where(np.arange(135) % 40 < 20, -120.0, NAN)),
                 ("rest", np.arange(1, 136) * 10.0, [-120.0] * 135)],
}


@pytest.mark.parametrize("case", sorted(SERIES))
def test_same_bytes_as_the_per_point_loop(tmp_path, monkeypatch, case):
    line_chart(tmp_path / "new.svg", SERIES[case], title="t")
    monkeypatch.setattr(svgplot, "_runs", frozen_runs)
    line_chart(tmp_path / "old.svg", SERIES[case], title="t")
    new = (tmp_path / "new.svg").read_bytes()
    assert new == (tmp_path / "old.svg").read_bytes()
    assert b"nan" not in new and b"inf" not in new


def test_runs_split_at_non_finite_points():
    def ident(v):
        return v

    x = np.arange(8.0)
    y = np.array([NAN, 1.0, 2.0, NAN, NAN, 5.0, np.inf, 7.0])
    assert svgplot._runs(x, y, ident, ident) == [
        "1.00,1.00 2.00,2.00", "5.00,5.00", "7.00,7.00"]
    assert svgplot._runs(x, np.full(8, NAN), ident, ident) == []


def heights_series():
    """A sim-shaped heights chart: 135 ticks of 10 ms, the claw going
    down through the rest height and back, the strand riding it."""
    t = [10.0 * k for k in range(1, 136)]
    claw = [min(-60.0 - 1.5 * k if k < 50 else -135.0 + 2.0 * (k - 50),
                -60.0) for k in range(135)]
    mesh = [min(c, -120.0) if 30 <= k < 90 else -120.0
            for k, c in enumerate(claw)]
    return [("claw", t, claw), ("mesh", t, mesh), ("rest", t, [-120.0] * 135)]


def sweep_series():
    """A sweep-shaped bend chart: 131 pulls 0.1 mm apart, the bend
    rising to 65.8 deg at 5.5 mm."""
    pulls = [0.037 + 0.1 * k for k in range(131)]
    return [("total bend", pulls, [65.8 * min(p, 5.5) / 5.5
                                   + 0.25 * max(p - 5.5, 0.0)
                                   for p in pulls])]


# inputs built by IEEE arithmetic only (no transcendental functions), so
# that their bits, and the chart's, are the same on every platform
CHARTS = {
    "nan gap": ([("gappy", np.arange(10.0),
                  [0.0, 1.0, 2.0, 3.0, NAN, NAN, 6.0, 7.0, 8.0, 9.0])], {}),
    "constant": ([("flat", [0.0, 1.0], [2.0, 2.0])], {}),
    "negative y": ([("low", np.arange(8.0),
                     [-3.5, -1.25, -7.0, -2.0, -9.75, -4.5, -6.0, -0.5])],
                   {"title": "t"}),
    "heights": (heights_series(),
                {"title": "Scenario walk_cycle", "xlabel": "time (ms)",
                 "ylabel": "height (mm)"}),
    "sweep": (sweep_series(),
              {"title": "Tarsal bend vs string pull", "xlabel": "pull (mm)",
               "ylabel": "bend (deg)"}),
}
# the sha256 of each chart as the numpy-scalar tick loop wrote it
PINNED = {
    "nan gap":
        "354a4d70cfaa808222a1a1e20630b670f254c0679b4caf46295c667b549f561a",
    "constant":
        "c1aa31e7fdb15381a6da633c3b28833960e824ca54f11f72774deff2413473d4",
    "negative y":
        "949675fc4639bffd0013aaef64a75a3eba92857a2febbe0ee034b87062f5b0dc",
    "heights":
        "b752865c0aa17197ecfa077f81a2e0cd24fb9669cacca7f27231afe74e15443b",
    "sweep":
        "26432a8fa99afc0a038c8a11234380d7bd55fcf7be5cb0f043280164e3b0515e",
}


@pytest.mark.parametrize("case", sorted(CHARTS))
def test_chart_bytes_are_pinned(tmp_path, case):
    series, labels = CHARTS[case]
    line_chart(tmp_path / "c.svg", series, **labels)
    digest = hashlib.sha256((tmp_path / "c.svg").read_bytes()).hexdigest()
    assert digest == PINNED[case]


def y_ticks(path):
    """The y tick labels of a chart, bottom to top."""
    root = ElementTree.parse(path).getroot()
    return [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
            if el.get("text-anchor") == "end"]


@pytest.mark.parametrize("y, ticks", [
    # the 4% pad would take the y span past the float range: unpadded
    ([-60.0, 1.7e308], ["-60", "4.25e+307", "8.5e+307", "1.275e+308",
                        "1.7e+308"]),
    # all equal past 2**53, where a unit is lost to rounding
    ([1e20, 1e20], None),
    ([-1.7e308, -1.7e308], None)],
    ids=["pad_past_the_float_range", "constant_past_2_53",
         "constant_near_the_float_range"])
def test_ranges_near_the_float_range_draw_finite(tmp_path, y, ticks):
    p = tmp_path / "c.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line_chart(p, [("a", [0.0, 1.0], y)])
    text = p.read_text()
    assert "nan" not in text and "inf" not in text
    if ticks is not None:
        assert y_ticks(p) == ticks


def test_data_wider_than_the_float_range_is_refused(tmp_path):
    with pytest.raises(ValueError, match="float range"):
        line_chart(tmp_path / "c.svg", [("a", [0.0, 1.0], [-1e308, 1e308])])
    assert not (tmp_path / "c.svg").exists()
