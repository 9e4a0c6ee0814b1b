"""Standalone SVG heatmaps with a symmetric diverging color scale.

No plotting dependency: cells are colored rects, plus axis ticks and a
color bar.  Output bytes depend only on the inputs, so re-renders of the
same grid are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# blue -> white -> red anchors of the diverging scale
_NEG = (33, 102, 172)
_MID = (247, 247, 247)
_POS = (178, 24, 43)


@dataclass
class Heatmap:
    """A value grid over a box; ``values[i, j]`` sits at row i (y), column j (x)."""

    xlo: float
    xhi: float
    ylo: float
    yhi: float
    values: np.ndarray
    vmax: float | None = None   # symmetric clip range; max|v| when omitted
    title: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or min(self.values.shape) < 2:
            raise ValueError("values must be a grid with at least 2 cells per axis")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if self.vmax is None:
            self.vmax = float(np.max(np.abs(self.values))) or 1.0


def grid_eval(fn, xlo, xhi, ylo, yhi, resolution: int) -> Heatmap:
    """Evaluate fn(x, y) on cell centers of a resolution^2 grid."""
    xs = np.linspace(xlo, xhi, resolution + 1)
    ys = np.linspace(ylo, yhi, resolution + 1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    gx, gy = np.meshgrid(cx, cy)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = np.asarray(fn(pts), dtype=float).reshape(resolution, resolution)
    return Heatmap(xlo, xhi, ylo, yhi, vals)


def colors_of(values, vmax: float) -> np.ndarray:
    """Fill colors ``#rrggbb`` of ``values`` on the scale clipped at +-vmax.

    Each channel is ``rint(mid + (end - mid) |t|)`` for ``t = v / vmax``
    clipped to [-1, 1], with the red anchor for t >= 0 and the blue one
    below; ``np.rint`` rounds half to even, as Python's ``round`` does.
    """
    t = np.clip(np.asarray(values, dtype=float) / vmax, -1.0, 1.0)[..., None]
    mid = np.array(_MID, dtype=float)
    end = np.where(t >= 0, np.array(_POS, dtype=float), np.array(_NEG, dtype=float))
    rgb = np.rint(mid + (end - mid) * np.abs(t)).astype(np.int64)
    code = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    return np.array(["#%06x" % c for c in code.ravel().tolist()]).reshape(code.shape)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def emit_svg_heatmap(h: Heatmap, path) -> None:
    """Write the heatmap as a standalone SVG file."""
    ny, nx = h.values.shape
    cell = max(2, int(round(560 / max(nx, ny))))
    plot_w, plot_h = nx * cell, ny * cell
    margin_l, margin_b, margin_t, bar_w = 46, 34, 26 if h.title else 10, 46
    width = margin_l + plot_w + bar_w + 30
    height = margin_t + plot_h + margin_b

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if h.title:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.1f}" y="16" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{h.title}</text>')
    colors = colors_of(h.values, h.vmax)
    for i in range(ny):
        y = margin_t + (ny - 1 - i) * cell   # row 0 at the bottom
        for j, c in enumerate(colors[i].tolist()):
            x = margin_l + j * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{c}"/>')
    # axes ticks: ends and midpoints
    for frac in (0.0, 0.5, 1.0):
        xv = h.xlo + frac * (h.xhi - h.xlo)
        px = margin_l + frac * plot_w
        parts.append(f'<line x1="{px:.1f}" y1="{margin_t + plot_h}" x2="{px:.1f}" '
                     f'y2="{margin_t + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{margin_t + plot_h + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{_fmt(xv)}</text>')
        yv = h.ylo + frac * (h.yhi - h.ylo)
        py = margin_t + (1 - frac) * plot_h
        parts.append(f'<line x1="{margin_l - 4}" y1="{py:.1f}" x2="{margin_l}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin_l - 7}" y="{py + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(yv)}</text>')
    # color bar
    bar_x = margin_l + plot_w + 14
    steps = 64
    bar = colors_of([h.vmax * (1 - 2 * (s + 0.5) / steps) for s in range(steps)], h.vmax)
    for s, c in enumerate(bar.tolist()):
        y = margin_t + plot_h * s / steps
        parts.append(f'<rect x="{bar_x}" y="{y:.2f}" width="14" '
                     f'height="{plot_h / steps + 0.5:.2f}" fill="{c}"/>')
    for frac, label in ((0.0, _fmt(h.vmax)), (0.5, "0"), (1.0, _fmt(-h.vmax))):
        y = margin_t + frac * plot_h
        parts.append(f'<text x="{bar_x + 18}" y="{y + 3:.1f}" font-family="sans-serif" '
                     f'font-size="10">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
