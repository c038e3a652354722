"""Minimal deterministic SVG emitter for figure panels.

Self-contained vector output with no plotting dependency: identical panel
data produces byte-identical files.  Every coordinate is written in pixels
as "%.2f" (a polyline point as "%.2f,%.2f").  Legend conventions: true
curve black, posterior mean red, credible band green, posterior draws
dashed gray.
"""

from __future__ import annotations

import hashlib

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 16, 40


def _fmt(v: float) -> str:
    return format(v, ".2f")


class _Frame:
    def __init__(self, x, y_min: float, y_max: float):
        self.x0, self.x1 = float(x.min()), float(x.max())
        pad = 0.05 * (y_max - y_min) or 1.0
        self.y0, self.y1 = y_min - pad, y_max + pad

    def px(self, x):
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (np.asarray(x) - self.x0) / (self.x1 - self.x0) * w

    def py(self, y):
        h = HEIGHT - MARGIN_T - MARGIN_B
        return MARGIN_T + (self.y1 - np.asarray(y)) / (self.y1 - self.y0) * h


def _polyline(frame: _Frame, x, y, stroke: str, width: float = 1.5,
              dashed: bool = False) -> str:
    xy = np.column_stack([frame.px(x), frame.py(y)]).ravel().tolist()
    pts = " ".join(["%.2f,%.2f"] * (len(xy) // 2)) % tuple(xy)
    dash = ' stroke-dasharray="4,3"' if dashed else ""
    return (f'<polyline fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash} points="{pts}"/>')


def render_static_plot(panel, path) -> str:
    """Write one panel as a self-contained SVG; returns its sha256.

    panel carries x, truth, post_mean, lower, upper and draw_curves
    (possibly zero rows, in which case no dashed curves appear).
    """
    x = np.asarray(panel.x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot render an empty panel dataset")
    series = {"truth": panel.truth, "post_mean": panel.post_mean,
              "lower": panel.lower, "upper": panel.upper,
              "draw_curves": panel.draw_curves}
    for name, values in {"x": x, **series}.items():
        if not np.isfinite(values).all():
            raise ValueError(f"cannot render non-finite values in {name}")
    allv = np.concatenate([np.asarray(s, dtype=float).ravel()
                           for s in series.values()])
    frame = _Frame(x, float(allv.min()), float(allv.max()))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for j in range(panel.draw_curves.shape[0]):
        parts.append(_polyline(frame, x, panel.draw_curves[j],
                               "#999999", 0.8, dashed=True))
    parts.append(_polyline(frame, x, panel.lower, "#117733", 1.5))
    parts.append(_polyline(frame, x, panel.upper, "#117733", 1.5))
    parts.append(_polyline(frame, x, panel.post_mean, "#cc2222", 1.5))
    parts.append(_polyline(frame, x, panel.truth, "#000000", 1.8))
    for tick in (0.0, 0.5, 1.0):
        tx = float(frame.px(np.array([tick]))[0])
        parts.append(f'<line x1="{_fmt(tx)}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{_fmt(tx)}" y2="{HEIGHT - MARGIN_B + 5}" '
                     'stroke="#000" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(tx)}" y="{HEIGHT - MARGIN_B + 18}" '
                     'font-family="monospace" font-size="11" '
                     f'text-anchor="middle">{tick:g}</text>')
    for yv in (frame.y0, frame.y1):
        ty = float(frame.py(np.array([yv]))[0])
        parts.append(f'<text x="{MARGIN_L - 6}" y="{_fmt(ty + 4)}" '
                     'font-family="monospace" font-size="11" '
                     f'text-anchor="end">{yv:.2f}</text>')
    label = getattr(panel, "label", "")
    if label:
        parts.append(f'<text x="{MARGIN_L + 6}" y="{MARGIN_T + 14}" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    parts.append("</svg>")
    payload = ("\n".join(parts) + "\n").encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"failed writing plot to {path}: {exc}") from exc
    return hashlib.sha256(payload).hexdigest()
