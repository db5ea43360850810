"""Tiny dependency-free SVG line charts for curve outputs."""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
SIZE = (640, 420)  # chart width and height, px


def _xml_escape(text: str) -> str:
    """XML-escape character data (no import: xml.sax pulls in urllib)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _span(arrays) -> tuple[float, float]:
    """The range of the finite values of ``arrays``: (0, 1) when there
    is none, one unit wide when they are all equal (2**-20 of the value
    wide, toward 0, where rounding loses the unit)."""
    finite = np.concatenate(
        [np.empty(0)] + [a[np.isfinite(a)] for a in arrays])
    if not finite.size:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if hi == lo:
        hi = lo + 1.0
        if hi == lo:
            width = abs(lo) * 2.0 ** -20
            lo, hi = (lo, lo + width) if lo < 0 else (lo - width, lo)
    return lo, hi


def _runs(x, y, px, py) -> list[str]:
    """Polyline points ``"px,py"`` (2 decimals), joined by spaces, one
    string per run of points with finite x and y; ``px`` and ``py`` map
    arrays of data to pixels.  Each run is formatted by one ``%``."""
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    finite = np.isfinite(x) & np.isfinite(y)
    coords = np.column_stack([px(x[finite]), py(y[finite])]).ravel().tolist()
    cuts = (np.flatnonzero(np.diff(np.flatnonzero(finite)) > 1) + 1).tolist()
    return [" ".join(["%.2f,%.2f"] * (b - a)) % tuple(coords[2 * a:2 * b])
            for a, b in zip([0] + cuts, cuts + [len(coords) // 2]) if b > a]


def line_chart(path, series, title: str = "", xlabel: str = "",
               ylabel: str = "") -> None:
    """Write an SVG line chart.

    ``series`` is a list of (label, x, y) with array-likes of equal
    length; NaNs break the polyline.  The title, axis labels and series
    labels are XML-escaped.  The y range is padded by 4% where that
    keeps it finite.  Raises ValueError for data wider than the float
    range.
    """
    w, h = SIZE
    ml, mr, mt, mb = 62, 16, 34, 46  # margins
    pw, ph = w - ml - mr, h - mt - mb

    series = [(label, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
              for label, x, y in series]
    x0, x1 = _span([x for _, x, _ in series])
    y0, y1 = _span([y for _, _, y in series])
    if not math.isfinite((x1 - x0) + (y1 - y0)):
        raise ValueError("chart data wider than the float range")
    pad = 0.04 * (y1 - y0)
    if math.isfinite((y1 + pad) - (y0 - pad)):
        y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444"/>',
    ]
    if title:
        parts.append(f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{_xml_escape(title)}</text>')
    # Python floats: numpy scalars' arithmetic, without numpy's overhead
    for tx in np.linspace(x0, x1, 5).tolist():
        parts.append(f'<line x1="{px(tx):.1f}" y1="{mt + ph}" '
                     f'x2="{px(tx):.1f}" y2="{mt + ph + 4}" stroke="#444"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{mt + ph + 17}" '
                     f'text-anchor="middle">{tx:.4g}</text>')
    for ty in np.linspace(y0, y1, 5).tolist():
        parts.append(f'<line x1="{ml - 4}" y1="{py(ty):.1f}" x2="{ml}" '
                     f'y2="{py(ty):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 7}" y="{py(ty) + 4:.1f}" '
                     f'text-anchor="end">{ty:.4g}</text>')
    if xlabel:
        parts.append(f'<text x="{ml + pw / 2:.1f}" y="{h - 10}" '
                     f'text-anchor="middle">{_xml_escape(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {mt + ph / 2:.1f})">'
                     f'{_xml_escape(ylabel)}</text>')

    for k, (label, x, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        for run in _runs(x, y, px, py):
            parts.append(f'<polyline points="{run}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        if label:
            ly = mt + 14 + 15 * k
            parts.append(f'<line x1="{ml + 8}" y1="{ly - 4}" x2="{ml + 28}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{ml + 33}" y="{ly}">'
                         f'{_xml_escape(label)}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
