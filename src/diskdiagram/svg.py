"""Deterministic SVG rendering of a realized disk function.

Byte-identical output for identical input: fixed decimal formatting,
no timestamps, colors computed from level values only.
"""
from __future__ import annotations

from html import escape

import numpy as np

from .realization import _level_polylines

MARGIN = 1.1
SIZE = 600.0  # canvas width and height


def _color(t):
    """Blue (low) to red (high) through violet; t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    r = int(round(40 + 200 * t))
    g = 40
    b = int(round(240 - 200 * t))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(f, levels=5):
    """Render boundary circle, trees, vertices, and exact level polylines.

    Every level is cut at once (`_level_polylines`).  The drawing is one
    template with a ``%.4f`` slot per number, filled by a single ``%``
    operation: the level points, tree segment ends, vertex marks and
    labels are mapped to the canvas in one numpy step, and any number
    below 5e-5 in magnitude is written as 0.  Vertex names enter the
    template literally, with ``&``, ``<`` and ``>`` escaped and ``%``
    doubled; `html.escape` is used because `xml.sax.saxutils` would add
    `urllib.request` to the CLI's start-up.
    """
    heights = f.heights
    values = sorted(set(heights.value.values()))
    lo, hi = values[0], values[-1]
    span = hi - lo or 1.0
    level_values = [
        lo + (k + 1) * span / (levels + 1) for k in range(max(0, levels))
    ]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'width="%.4f" height="%.4f" viewBox="0 0 %.4f %.4f">',
        '<g fill="none" stroke-linejoin="round" stroke-linecap="round">',
        '<circle cx="%.4f" cy="%.4f" r="%.4f" stroke="#202020" stroke-width="2"/>',
    ]
    drawn = []  # every level's points
    for c, chains in zip(level_values, _level_polylines(f, level_values)):
        color = _color((c - lo) / span)
        for chain in chains:
            out.append(
                f'<polyline class="level" points="{" ".join(["%.4f,%.4f"] * len(chain))}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
        drawn += chains
    ends = f.tree_ends
    out += [
        '<line class="tree" x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
        'stroke="#101010" stroke-width="2.5"/>'
    ] * len(ends)
    out.append("</g>")
    out.append('<g font-family="monospace" font-size="12" fill="#000000">')
    for v in f.vertex_names:
        out.append('<circle class="vertex" cx="%.4f" cy="%.4f" r="3" fill="#000000"/>')
        out.append(f'<text x="%.4f" y="%.4f">{escape(v, quote=False).replace("%", "%%")}=%.4f</text>')
    out.append("</g>")
    out.append("</svg>")
    xy = f.vertex_xy
    p = np.concatenate(drawn + [xy.take(ends.ravel(), axis=0), xy])
    # x and y on the canvas; -y + MARGIN rounds as MARGIN - y does
    p = (p * [1, -1] + MARGIN) / (2 * MARGIN) * SIZE
    lines = len(p) - len(xy)  # level points and tree ends
    # the canvas size, the circle's center (the origin, mapped as p is) and
    # radius, the lines' points, then each vertex's x, y, x + 5, y - 5, value
    numbers = np.empty(7 + 2 * lines + 5 * len(xy))
    numbers[:7] = [SIZE] * 4 + [MARGIN / (2 * MARGIN) * SIZE] * 2 + [SIZE / (2 * MARGIN)]
    numbers[7 : 7 + 2 * lines] = p[:lines].ravel()
    marks = numbers[7 + 2 * lines :].reshape(-1, 5)
    marks[:, :2] = p[lines:]
    marks[:, 2:4] = p[lines:] + [5, -5]
    marks[:, 4] = f.vertex_values
    numbers[np.abs(numbers) < 5e-5] = 0.0
    return "\n".join(out) % tuple(numbers.tolist()) + "\n"
