"""Minimal deterministic SVG emitter for figure panels.

Self-contained vector output with no plotting dependency: identical panel
data produces byte-identical files.  Every coordinate is written in pixels
as "%.2f" (a polyline point as "%.2f,%.2f").  Legend conventions: true
curve black, posterior mean red, credible band green, posterior draws
dashed gray.

The polylines of a file are formatted together, as integer cent counts
k = rint(100 v) turned into digit bytes (one byte row per coordinate, as
many digit columns as the largest count has digits), and the result is
exactly format(v, ".2f").  That needs the pixel coordinates in [0, 1e6),
where fl(100 v) lies within half an ulp of 1e8, 7.5e-9, of 100 v: so rint
picks the correctly rounded cent count unless fl(100 v) lies within 1e-6
of a half, and those few coordinates (exact binary ties such as 0.125,
which round half-even, among them) take their count from "%.2f" % v.  A
coordinate outside [0, 1e6), non-finite or -0.0 raises ValueError.

A plot is written as io writes datasets: in place, a regular file trimmed
to the new bytes, and a failed write leaving the prefix written.
"""

from __future__ import annotations

from html import escape

import numpy as np

from .io import _write_bytes

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 16, 40

class _Frame:
    def __init__(self, x, y_min: float, y_max: float):
        self.x0, self.x1 = float(x.min()), float(x.max())
        pad = 0.05 * (y_max - y_min) or 1.0
        self.y0, self.y1 = y_min - pad, y_max + pad

    def px(self, x):
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * w

    def py(self, y):
        h = HEIGHT - MARGIN_T - MARGIN_B
        return MARGIN_T + (self.y1 - y) / (self.y1 - self.y0) * h


def _points(xy: np.ndarray) -> list[str]:
    """The polyline points "x,y x,y ..." of each row of a (rows, points, 2)
    array of pixel coordinates, every coordinate as format(v, ".2f"),
    built row-major (a byte row per coordinate) to compact contiguously."""
    v = xy.ravel()
    if np.any(np.signbit(v) | ~(v < 1e6)):
        raise ValueError("cannot render pixel coordinates outside [0, 1e6)")
    t = 100.0 * v
    k = np.rint(t).astype(np.int32)
    ties = np.flatnonzero(np.abs(t - np.floor(t) - 0.5) < 1e-6)
    k[ties] = [int(("%.2f" % u).replace(".", "")) for u in v[ties].tolist()]
    # a byte row per coordinate, text[:, j] its j-th character: the digits
    # of the largest count, at least "0.00", with the point before the last
    # two, then what follows: "," after x, " " after y, "\n" after a row's
    # end; leading zeros (integer digits above the units) are dropped
    places = max(3, len(str(k.max(initial=0))))
    text = np.empty((v.size, places + 2), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    above = 0  # the digits above this place's, as one number
    for j in range(places):
        q = k // 10 ** (places - 1 - j)
        text[:, j + (j >= places - 2)] = q - 10 * above + ord("0")
        if j < places - 3:
            keep[:, j] = q > 0
        above = q
    text[:, places - 2] = ord(".")
    text[0::2, -1] = ord(",")
    text[1::2, -1] = ord(" ")
    text.reshape(xy.shape + (-1,))[:, -1, 1, -1] = ord("\n")
    return text[keep].tobytes().decode("ascii").split("\n")[:-1]


def render_static_plot(panel, path) -> str:
    """Write one panel as a self-contained SVG; returns its sha256.

    panel carries x, truth, post_mean, lower, upper and draw_curves
    (possibly zero rows, in which case no dashed curves appear).  An
    empty or non-finite panel, x values that span no interval, or pixel
    coordinates outside [0, 1e6) raise ValueError before any file is
    written.
    """
    x = np.asarray(panel.x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot render an empty panel dataset")
    for name in ("x", "truth", "post_mean", "lower", "upper", "draw_curves"):
        if not np.isfinite(getattr(panel, name)).all():
            raise ValueError(f"cannot render non-finite values in {name}")
    if x.max() == x.min():
        raise ValueError("cannot render x values that span no interval")
    draws = np.asarray(panel.draw_curves, dtype=float).reshape(-1, x.size)
    curves = np.vstack([draws, panel.lower, panel.upper, panel.post_mean,
                        panel.truth])
    frame = _Frame(x, float(curves.min()), float(curves.max()))
    xy = np.empty(curves.shape + (2,))
    xy[..., 0] = frame.px(x)
    xy[..., 1] = frame.py(curves)
    # (stroke, width, dash) of each curve
    styles = ([("#999999", 0.8, ' stroke-dasharray="4,3"')] * draws.shape[0]
              + [("#117733", 1.5, ""), ("#117733", 1.5, ""),
                 ("#cc2222", 1.5, ""), ("#000000", 1.8, "")])

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
    parts += [f'<polyline fill="none" stroke="{stroke}" '
              f'stroke-width="{width}"{dash} points="{points}"/>'
              for points, (stroke, width, dash) in zip(_points(xy), styles)]
    for tick in (0.0, 0.5, 1.0):
        tx = frame.px(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{tx:.2f}" y2="{HEIGHT - MARGIN_B + 5}" '
                     'stroke="#000" stroke-width="1"/>')
        parts.append(f'<text x="{tx:.2f}" y="{HEIGHT - MARGIN_B + 18}" '
                     'font-family="monospace" font-size="11" '
                     f'text-anchor="middle">{tick:g}</text>')
    for yv in (frame.y0, frame.y1):
        ty = frame.py(yv)
        parts.append(f'<text x="{MARGIN_L - 6}" y="{ty + 4:.2f}" '
                     'font-family="monospace" font-size="11" '
                     f'text-anchor="end">{yv:.2f}</text>')
    label = escape(getattr(panel, "label", ""), quote=False)
    if label:
        parts.append(f'<text x="{MARGIN_L + 6}" y="{MARGIN_T + 14}" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    parts.append("</svg>")
    return _write_bytes(path, ("\n".join(parts) + "\n").encode("utf-8"),
                        "plot")
