"""Deterministic SVG rendering of a realized disk function.

Byte-identical output for identical input: fixed decimal formatting,
no timestamps, colors computed from level values only.
"""
from __future__ import annotations

from .realization import level_set

MARGIN = 1.1


def _fmt(x):
    if abs(x) < 5e-5:
        x = 0.0
    return f"{x:.4f}"


def _to_svg(p, size):
    x = (p[0] + MARGIN) / (2 * MARGIN) * size
    y = (MARGIN - p[1]) / (2 * MARGIN) * size
    return x, y


def _color(t):
    """Blue (low) to red (high) through violet; t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    r = int(round(40 + 200 * t))
    g = 40
    b = int(round(240 - 200 * t))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(f, levels=5, size=600.0):
    """Render boundary circle, trees, vertices, and exact level polylines."""
    coords = f.embedding.coords
    heights = f.heights
    values = sorted(set(heights.value.values()))
    lo, hi = values[0], values[-1]
    span = hi - lo or 1.0
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(size)}" height="{_fmt(size)}" '
        f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">'
    )
    out.append('<g fill="none" stroke-linejoin="round" stroke-linecap="round">')
    cx, cy = _to_svg((0.0, 0.0), size)
    radius = size / (2 * MARGIN)
    out.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        f'stroke="#202020" stroke-width="2"/>'
    )
    level_values = [
        lo + (k + 1) * span / (levels + 1) for k in range(max(0, levels))
    ]
    for c in level_values:
        color = _color((c - lo) / span)
        for chain in level_set(f, c):
            pts = " ".join(
                f"{_fmt(px)},{_fmt(py)}"
                for px, py in (_to_svg(p, size) for p in chain)
            )
            out.append(
                f'<polyline class="level" points="{pts}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
    for t in f.decomposition.trees:
        for e in sorted(t.edges):
            x1, y1 = _to_svg(coords[e.a], size)
            x2, y2 = _to_svg(coords[e.b], size)
            out.append(
                f'<line class="tree" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#101010" stroke-width="2.5"/>'
            )
    out.append("</g>")
    out.append('<g font-family="monospace" font-size="12" fill="#000000">')
    for v in sorted(coords):
        x, y = _to_svg(coords[v], size)
        out.append(
            f'<circle class="vertex" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" '
            f'fill="#000000"/>'
        )
        out.append(
            f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}">'
            f"{v}={_fmt(heights.value[v])}</text>"
        )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
