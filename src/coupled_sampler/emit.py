"""Deterministic CSV, JSON, and SVG emitters.

A CSV cell is a Python int, a float or empty (None). Floats are written with
shortest round-trip repr so a rerun of the same (config, seed) reproduces
every file byte for byte. SVG figures are built from raw
circle/line/polyline primitives; no plotting dependency.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from pathlib import Path

import numpy as np


_CHUNK_ROWS = 4096
_CELL_TYPES = {int, float, type(None)}


def write_csv(path, header, rows) -> Path:
    """rows is consumed lazily, _CHUNK_ROWS rows at a time, and each chunk is
    written from one repr of it: repr(float) is the shortest round-trip form,
    repr(int) is str(int), and None becomes an empty cell. A chunk holding
    anything but lists of those cells raises TypeError before it is written.
    """
    path = Path(path)
    rows = iter(rows)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        while batch := list(islice(rows, _CHUNK_ROWS)):
            cells = chain.from_iterable(batch)
            if set(map(type, batch)) != {list} or not set(map(type, cells)) <= _CELL_TYPES:
                raise TypeError("write_csv: a row must be a list of Python int, float or None")
            text = repr(batch)[2:-2].replace("], [", "\n").replace(", ", ",")
            f.write(text.replace("None", "") + "\n")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def _svg_doc(size_w: int, size_h: int, body: list) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size_w}" height="{size_h}" '
        f'viewBox="0 0 {size_w} {size_h}">'
    )
    return "\n".join([head, f'<rect width="{size_w}" height="{size_h}" fill="#ffffff"/>']
                     + body + ["</svg>"]) + "\n"


def scatter_svg(groups, segments=None) -> str:
    """Scatter plot of one or more (points, color) groups.

    groups: iterable of (points(n, >=2), fill color). Only the first two
    coordinates are drawn. segments, when given, is a pair of equally sized
    point arrays; a light line joins each row.
    """
    size = 640
    pts = [np.asarray(p, dtype=float)[:, :2] for p, _ in groups]
    stack = np.vstack(pts + ([np.asarray(s, dtype=float)[:, :2] for s in segments]
                             if segments else []))
    lo, hi = stack.min(axis=0), stack.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-9)  # 5 % of the data range blank on each side
    lo, hi = lo - pad, hi + pad
    span = hi - lo

    def to_px(points):
        """Pixel coordinates of (n, >=2) points, as two lists of floats."""
        x = (points[:, 0] - lo[0]) / span[0] * size
        y = size - (points[:, 1] - lo[1]) / span[1] * size
        return x.tolist(), y.tolist()

    body = []
    if segments is not None:
        a, b = (np.asarray(s, dtype=float)[:, :2] for s in segments)
        body += ['<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                 'stroke="#cccccc" stroke-width="0.4"/>' % c
                 for c in zip(*to_px(a), *to_px(b))]
    for points, color in zip(pts, (c for _, c in groups)):
        body += ['<circle cx="%.2f" cy="%.2f" r="1.6" fill="%s"/>' % (x, y, color)
                 for x, y in zip(*to_px(points))]
    return _svg_doc(size, size, body)


def curves_svg(xs, series) -> str:
    """Polyline chart; each named series is normalized to its own range.

    series: iterable of (name, values, color). The per-series value range is
    printed in the legend so the curves stay readable without shared axes.
    """
    xs = np.asarray(xs, dtype=float)
    width, height = 640, 420
    margin = 50.0
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    x_lo, x_hi = float(xs.min()), float(xs.max())
    x_span = max(x_hi - x_lo, 1e-9)
    body = [
        f'<rect x="{margin:.1f}" y="{margin:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#444444"/>'
    ]
    for i, xv in enumerate(xs):
        px = margin + (xv - x_lo) / x_span * plot_w
        body.append(
            f'<text x="{px:.1f}" y="{height - margin + 16:.1f}" font-size="11" '
            f'text-anchor="middle" fill="#333333">{xv:g}</text>'
        )
    legend_y = 18.0
    for name, values, color in series:
        vals = np.asarray(values, dtype=float)
        v_lo, v_hi = float(vals.min()), float(vals.max())
        v_span = max(v_hi - v_lo, 1e-9)
        pts = []
        for xv, v in zip(xs, vals):
            px = margin + (xv - x_lo) / x_span * plot_w
            py = margin + plot_h - (v - v_lo) / v_span * plot_h
            pts.append((f"{px:.2f}", f"{py:.2f}"))
        points = " ".join(f"{px},{py}" for px, py in pts)
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for px, py in pts:
            body.append(f'<circle cx="{px}" cy="{py}" r="2.5" fill="{color}"/>')
        body.append(
            f'<text x="{margin:.1f}" y="{legend_y:.1f}" font-size="12" fill="{color}">'
            f"{name} [{v_lo:.4g} .. {v_hi:.4g}]</text>"
        )
        legend_y += 15.0
    return _svg_doc(width, height, body)
