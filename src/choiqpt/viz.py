"""Hand-rolled SVG renderings: Hinton diagrams, isometric bar (city) plots,
and count histograms.  No plotting dependency, no timestamps or other
run-varying metadata, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


# One Hinton square per template line, keyed by ``entry >= 0``.
_HINTON_RECT = {
    True: '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#2b6cb0"/>\n',
    False: '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
    'fill="white" stroke="#c53030" stroke-width="1.5"/>\n',
}
# One city bar per template, keyed by ``entry >= 0``: the two viewer-facing
# side faces (left, right), then the lid.
_CITY_FACE = (
    '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="{}" '
    'stroke="#333" stroke-width="0.4"/>\n'
)
_CITY_BAR = {
    True: "".join(_CITY_FACE.format(c) for c in ("#3d85c6", "#2a5d8f", "#6fa8dc")),
    False: "".join(_CITY_FACE.format(c) for c in ("#cc4125", "#94301a", "#ea9999")),
}


def _text(value) -> str:  # as xml.sax.saxutils.escape, which would import urllib (+7 MB RSS)
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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


def svg_hinton(matrix: np.ndarray, labels, title: str = "") -> str:
    """Hinton diagram: square side proportional to sqrt(|entry|).

    Positive entries are filled, negative ones drawn in a contrasting
    outlined style.  Axis ticks carry the supplied labels.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    cell = 26.0
    margin_left, margin_top = 64.0, 56.0
    width = margin_left + n * cell + 20
    height = margin_top + n * cell + 20
    parts = _svg_header(width, height, title)
    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{n * cell}" '
        f'height="{n * cell}" fill="#e8e8e8" stroke="#999"/>'
    )
    vmax = np.abs(m).max()
    vmax = vmax if vmax > 0 else 1.0
    for j, lab in enumerate(labels):
        x = margin_left + (j + 0.5) * cell
        parts.append(
            f'<text x="{x:.1f}" y="{margin_top - 6:.1f}" text-anchor="middle" '
            f'font-size="9" {_FONT}>{_text(lab)}</text>'
        )
    for i, lab in enumerate(labels):
        y = margin_top + (i + 0.5) * cell + 3
        parts.append(
            f'<text x="{margin_left - 6:.1f}" y="{y:.1f}" text-anchor="end" '
            f'font-size="9" {_FONT}>{_text(lab)}</text>'
        )
    scale = np.abs(m) / vmax
    i, j = np.nonzero(~(scale < 1e-6))  # row-major; NaN entries are drawn
    side = cell * 0.92 * np.sqrt(scale[i, j])
    x = margin_left + (j + 0.5) * cell - side / 2
    y = margin_top + (i + 0.5) * cell - side / 2
    rects = "".join(map(_HINTON_RECT.get, (m[i, j] >= 0).tolist()))
    parts.append(rects % tuple(np.stack([x, y, side, side], 1).ravel().tolist()) + "</svg>")
    return "\n".join(parts) + "\n"


def svg_city(matrix: np.ndarray, labels, title: str = "") -> str:
    """Isometric 3-D bar plot of a real matrix (cityscape view).

    Bars rise above the base plane for positive entries and drop below it
    for negative ones, in contrasting colors.  Bars are drawn back to
    front so occlusion is correct.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    vmax = np.abs(m).max()
    vmax = vmax if vmax > 0 else 1.0
    ux, uy = 16.0, 8.0
    with np.errstate(over="ignore"):
        hz = 90.0 / vmax
    if np.isinf(hz):  # largest |entry| below about 5e-307: draw m / vmax instead
        m, vmax, hz = m / vmax, 1.0, 90.0
    width = 2 * n * ux + 120
    height = 2 * n * uy + 200
    ox = width / 2
    oy = 140.0
    parts = _svg_header(width, height, title)

    def iso(i, j, z=0):  # grid point (i, j) at height z -> canvas (x, y); arrays broadcast
        return ox + (j - i) * ux, oy + (j + i) * uy - z * hz

    # base-plane grid
    for k in range(n + 1):
        for (x1, y1), (x2, y2) in ((iso(k, 0), iso(k, n)), (iso(0, k), iso(n, k))):
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="#ccc" stroke-width="0.6"/>'
            )
    for k, lab in enumerate(labels):
        lab = _text(lab)
        x, y = iso(k + 0.5, -0.4)
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="end" font-size="8" '
            f'{_FONT}>{lab}</text>'
        )
        x, y = iso(-0.4, k + 0.5)
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="start" font-size="8" '
            f'{_FONT}>{lab}</text>'
        )

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
    points = np.stack([  # (x, y) of each bar's faces in drawing order: left, right, lid
        x[:, 1], hi[:, 1], x[:, 2], hi[:, 2], x[:, 2], lo[:, 2], x[:, 1], lo[:, 1],
        x[:, 2], hi[:, 2], x[:, 3], hi[:, 3], x[:, 3], lo[:, 3], x[:, 2], lo[:, 2],
        x[:, 0], top[:, 0], x[:, 1], top[:, 1], x[:, 2], top[:, 2], x[:, 3], top[:, 3],
    ], axis=1)
    bars = "".join(map(_CITY_BAR.get, up.tolist()))
    parts.append(bars % tuple(points.ravel().tolist()) + "</svg>")
    return "\n".join(parts) + "\n"


def svg_counts_bar(counts: dict[str, int], shots: int, title: str = "") -> str:
    """Frequency bar chart of measured outcomes."""
    keys = sorted(counts)
    n = len(keys)
    bar_w, gap = 56.0, 22.0
    margin_left, base_y, plot_h = 60.0, 250.0, 190.0
    width = margin_left + n * (bar_w + gap) + 30
    height = base_y + 50
    parts = _svg_header(width, height, title)
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
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y + 16:.1f}" text-anchor="middle" '
            f'font-size="12" {_FONT}>{_text(key)}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y - h - 6:.1f}" text-anchor="middle" '
            f'font-size="10" {_FONT}>{counts[key]} ({f:.4f})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
