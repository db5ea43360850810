"""SVG chart writer: structure, NaN gaps, degenerate inputs."""

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
