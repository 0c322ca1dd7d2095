"""Hand-rolled SVG renderings: Hinton diagrams, isometric bar (city) plots,
and count histograms.  No plotting dependency, no timestamps or other
run-varying metadata, so identical inputs give byte-identical files.  A city
plot formats each distinct number of its bars once (corners share their x and
base-plane coordinates); a Hinton plot formats through one ``%`` template.
Every axis and bar label is written by one label writer, :func:`_label`.

A plot's frame, the part that depends only on its size and its label texts
(a city plot's base-plane grid and label columns, a Hinton diagram's
background and labels), is built once per ``(n, label texts)`` and kept in
a ``functools.lru_cache`` of ``_FRAMES`` = 4 entries (:func:`_city_frame`,
:func:`_hinton_frame`), under 1 MB for both at K = 4.  Labels are keyed by
their ``str`` texts, which is what a plot writes: ``1``, ``1.0`` and ``True``
hash alike but are three frames.  A city plot of a NaN matrix, whose base
plane lies at NaN height, has a frame of its own.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_FONT = 'font-family="Helvetica,Arial,sans-serif"'
# Least plot scale: the imaginary part of a real channel, rounding noise of ~1e-15, draws an
# empty plot instead of noise at full size.  Plots with content peak at 8e-4 or more.
_MIN_SCALE = 1e-6
# Frames kept per writer: a run draws one shape of each, and at K = 4 a city frame is
# about 105 KB and a Hinton frame about 57 KB.
_FRAMES = 4
_HINTON_GRID = 26.0, 64.0, 56.0  # cell side, left and top margins
_CITY_GRID = 16.0, 8.0, 140.0  # x and y of one grid step, y of the base plane's back corner


# One Hinton square per template line, keyed by ``entry >= 0``.
_HINTON_RECT = {
    True: '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#2b6cb0"/>\n',
    False: '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
    'fill="white" stroke="#c53030" stroke-width="1.5"/>\n',
}
# The fixed text around one city bar's 24 numbers, one row per colour (row ``entry >= 0``):
# the template of the bar's two viewer-facing side faces (left, right) and its lid, split
# at each ``%.2f``.  A (2, 25) object array.
_CITY_FACE = (
    '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="{}" '
    'stroke="#333" stroke-width="0.4"/>\n'
)
_CITY_PIECES = np.array([
    "".join(_CITY_FACE.format(c) for c in colors).split("%.2f")
    for colors in (("#cc4125", "#94301a", "#ea9999"), ("#3d85c6", "#2a5d8f", "#6fa8dc"))
], dtype=object)


def _text(value) -> str:  # as xml.sax.saxutils.escape, which would import urllib (+7 MB RSS)
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _label(x: float, y: float, anchor: str, size: int, text) -> str:
    """One axis or bar label: a ``<text>`` element at ``(x, y)``, its text escaped."""
    return (f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" font-size="{size}" '
            f'{_FONT}>{_text(text)}</text>')


def _two_decimals(values: np.ndarray) -> np.ndarray:
    """``"%.2f" % x`` for each float64 ``x``, as an object array of ``values``' shape.

    Each distinct bit pattern is formatted once, so -0.0 and 0.0 keep their own text.
    """
    bits = np.asarray(values, dtype=np.float64).ravel().view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)  # inverse's shape varies by numpy
    text = ("%.2f " * distinct.size % tuple(distinct.view(np.float64).tolist())).split()
    return np.array(text, dtype=object)[inverse.reshape(np.shape(values))]


def _svg_header(width: float, height: float, title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
            f'font-size="14" {_FONT}>{_text(title)}</text>'
        )
    return parts


@functools.lru_cache(maxsize=_FRAMES)
def _hinton_frame(n: int, texts: tuple[str, ...]) -> str:
    """A Hinton diagram's grey background and its column and row labels, one element a line."""
    cell, margin_left, margin_top = _HINTON_GRID
    parts = [
        f'<rect x="{margin_left}" y="{margin_top}" width="{n * cell}" '
        f'height="{n * cell}" fill="#e8e8e8" stroke="#999"/>'
    ]
    for j, lab in enumerate(texts):
        parts.append(_label(margin_left + (j + 0.5) * cell, margin_top - 6, "middle", 9, lab))
    for i, lab in enumerate(texts):
        parts.append(_label(margin_left - 6, margin_top + (i + 0.5) * cell + 3, "end", 9, lab))
    return "\n".join(parts)


def svg_hinton(matrix: np.ndarray, labels, title: str = "") -> str:
    """Hinton diagram: square side proportional to sqrt(|entry|).

    Positive entries are filled, negative ones drawn in a contrasting
    outlined style.  Axis ticks carry the supplied labels.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    cell, margin_left, margin_top = _HINTON_GRID
    width = margin_left + n * cell + 20
    height = margin_top + n * cell + 20
    parts = _svg_header(width, height, title)
    parts.append(_hinton_frame(n, tuple(map(str, labels))))
    vmax = max(np.abs(m).max(), _MIN_SCALE)
    scale = np.abs(m) / vmax
    i, j = np.nonzero(~(scale < 1e-6))  # row-major; NaN entries are drawn
    side = cell * 0.92 * np.sqrt(scale[i, j])
    x = margin_left + (j + 0.5) * cell - side / 2
    y = margin_top + (i + 0.5) * cell - side / 2
    rects = "".join(map(_HINTON_RECT.get, (m[i, j] >= 0).tolist()))
    parts.append(rects % tuple(np.stack([x, y, side, side], 1).ravel().tolist()) + "</svg>")
    return "\n".join(parts) + "\n"


@functools.lru_cache(maxsize=_FRAMES)
def _city_frame(n: int, texts: tuple[str, ...], nan_scale: bool) -> str:
    """A city plot's base-plane grid and its two label columns, one element a line.

    The base plane is at height 0, so its points do not depend on the plot's
    height scale ``hz``, unless that is NaN (a NaN matrix): then ``0 * hz`` makes
    every y NaN."""
    ux, uy, oy = _CITY_GRID
    ox = (2 * n * ux + 120) / 2
    z = math.nan if nan_scale else 0.0  # 0 * hz

    def iso(i, j):  # grid point (i, j) on the base plane -> canvas (x, y), as svg_city's iso
        return ox + (j - i) * ux, oy + (j + i) * uy - z

    parts = []
    for k in range(n + 1):
        for (x1, y1), (x2, y2) in ((iso(k, 0), iso(k, n)), (iso(0, k), iso(n, k))):
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="#ccc" stroke-width="0.6"/>'
            )
    for k, lab in enumerate(texts):
        parts.append(_label(*iso(k + 0.5, -0.4), "end", 8, lab))
        parts.append(_label(*iso(-0.4, k + 0.5), "start", 8, lab))
    return "\n".join(parts)


def svg_city(matrix: np.ndarray, labels, title: str = "") -> str:
    """Isometric 3-D bar plot of a real matrix (cityscape view).

    Bars rise above the base plane for positive entries and drop below it
    for negative ones, in contrasting colors.  Bars are drawn back to
    front so occlusion is correct.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    vmax = max(np.abs(m).max(), _MIN_SCALE)
    ux, uy, oy = _CITY_GRID
    hz = 90.0 / vmax
    width = 2 * n * ux + 120
    height = 2 * n * uy + 200
    ox = width / 2
    parts = _svg_header(width, height, title)
    parts.append(_city_frame(n, tuple(map(str, labels)), math.isnan(hz)))

    def iso(i, j, z=0):  # grid point (i, j) at height z -> canvas (x, y); arrays broadcast
        return ox + (j - i) * ux, oy + (j + i) * uy - z * hz

    i, j = np.nonzero(~(np.abs(m) / vmax < 1e-4))
    i, j = np.stack([i, j])[:, np.lexsort((i, i + j))]  # back to front: by i + j, then i
    v = m[i, j]
    half = 0.36
    a = (i + 0.5)[:, None] - half * np.array([1, 1, -1, -1])  # corners 0..3 of each bar
    b = (j + 0.5)[:, None] - half * np.array([1, -1, -1, 1])
    x, top = iso(a, b, v[:, None])
    base = iso(a, b)[1]
    up = v >= 0
    hi, lo = np.where(up[:, None], top, base), np.where(up[:, None], base, top)
    bars = np.empty((len(v), 49), dtype=object)  # text pieces and numbers, alternately
    bars[:, 0::2] = _CITY_PIECES[up.astype(np.intp)]
    # (x, y) of each bar's faces in drawing order: left, right, lid
    bars[:, 1::2] = _two_decimals(np.stack([
        x[:, 1], hi[:, 1], x[:, 2], hi[:, 2], x[:, 2], lo[:, 2], x[:, 1], lo[:, 1],
        x[:, 2], hi[:, 2], x[:, 3], hi[:, 3], x[:, 3], lo[:, 3], x[:, 2], lo[:, 2],
        x[:, 0], top[:, 0], x[:, 1], top[:, 1], x[:, 2], top[:, 2], x[:, 3], top[:, 3],
    ], axis=1))
    parts.append("".join(bars.ravel().tolist()) + "</svg>")
    return "\n".join(parts) + "\n"


def svg_counts_bar(counts: dict[str, int], shots: int, title: str = "") -> str:
    """Frequency bar chart of measured outcomes."""
    keys = sorted(counts)
    bar_w, gap = 56.0, 22.0
    margin_left, base_y, plot_h = 60.0, 250.0, 190.0
    width = margin_left + len(keys) * (bar_w + gap) + 30
    parts = _svg_header(width, base_y + 50, title)
    parts.append(
        f'<line x1="{margin_left - 10}" y1="{base_y}" x2="{width - 15}" '
        f'y2="{base_y}" stroke="#333"/>'
    )
    fmax = max(max(counts.values()) / shots, 1e-9)
    for k, key in enumerate(keys):
        f = counts[key] / shots
        h = plot_h * f / fmax
        x = margin_left + k * (bar_w + gap)
        parts.append(
            f'<rect x="{x:.1f}" y="{base_y - h:.1f}" width="{bar_w}" '
            f'height="{h:.1f}" fill="#2b6cb0"/>'
        )
        parts.append(_label(x + bar_w / 2, base_y + 16, "middle", 12, key))
        parts.append(_label(x + bar_w / 2, base_y - h - 6, "middle", 10, f"{counts[key]} ({f:.4f})"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
