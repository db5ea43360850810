"""SVG chart writer: structure, NaN gaps, degenerate inputs."""

from xml.etree import ElementTree

import numpy as np

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
