"""Minimal self-contained SVG line plots (no plotting dependency).

Produces a fixed-size 2x2 panel figure with axes, tick labels and one
curve per panel.  Every coordinate is written as `'%.2f' % v`, so repeated
renders of the same data are byte-identical; the polyline's points go
through the exact vectorised `%.2f` of `_g17.chunks_2f`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import _g17

__all__ = ["svg_panels"]

_PANEL_W = 430
_PANEL_H = 320
_MARGIN_L = 62
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 44


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5):
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-12 * abs(step):
        # on an axis a few ulps wide, ceil(lo / step) * step may round below lo
        if t >= lo - 1e-12 * abs(step):
            ticks.append(0.0 if abs(t) < 1e-12 * abs(step) else t)
        if t + step == t:
            # a step below half an ulp of t: an axis a few ulps wide
            break
        t += step
    return ticks


def _points(xy) -> str:
    """The points attribute of a polyline, "x,y x,y ...", from x and y interleaved in `xy`.

    Every point lies inside the canvas, so every value is in the domain of
    _g17.chunks_2f.
    """
    seps = np.full(len(xy), ord(","), np.uint8)
    seps[1::2] = ord(" ")
    return b"".join(_g17.chunks_2f(xy, seps))[:-1].decode()


def _panel(x, y, title, ox, oy):
    """Render one panel (axes, ticks, polyline) at canvas offset (ox, oy).

    x and y are float64 arrays; sx and sy map a tick or a whole array with
    the same operations in the same order, so each point rounds alike.
    A non-finite value, a constant x, or a range of x or of the padded y
    whose drawing overflows or whose quarter is below the smallest normal
    float is refused with a ValueError naming the panel.
    """
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"panel {title!r}: x and y must be finite")
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        raise ValueError(f"panel {title!r}: x must not be constant, got x = {x_lo:g}")
    y_lo, y_hi = float(y.min()), float(y.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    inner_w = _PANEL_W - _MARGIN_L - _MARGIN_R
    inner_h = _PANEL_H - _MARGIN_T - _MARGIN_B
    # sx multiplies by inner_w before it divides by the range of x
    if not math.isfinite(inner_w * (x_hi - x_lo)):
        raise ValueError(
            f"panel {title!r}: the range of x overflows, got {x_lo:g} to {x_hi:g}"
        )
    if not math.isfinite(y_hi - y_lo):
        raise ValueError(
            f"panel {title!r}: the range of padded y overflows, got {y_lo:g} to {y_hi:g}"
        )
    # _ticks needs a quarter of each range, its raw step, to be a normal float
    for axis, lo, hi in (("x", x_lo, x_hi), ("padded y", y_lo, y_hi)):
        if (hi - lo) / 4 < sys.float_info.min:
            raise ValueError(
                f"panel {title!r}: the range of {axis} is too narrow to tick, "
                f"got {lo:g} to {hi:g}"
            )

    def sx(v):
        return ox + _MARGIN_L + inner_w * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return oy + _MARGIN_T + inner_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = []
    parts.append(
        f'<rect x="{_fmt(ox + _MARGIN_L)}" y="{_fmt(oy + _MARGIN_T)}" '
        f'width="{_fmt(inner_w)}" height="{_fmt(inner_h)}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_fmt(ox + _PANEL_W / 2)}" y="{_fmt(oy + 20)}" '
        'font-family="monospace" font-size="13" text-anchor="middle">'
        f"{title}</text>"
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        y0 = oy + _PANEL_H - _MARGIN_B
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(y0 + 4)}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 17)}" font-family="monospace" '
            f'font-size="10" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        x0 = ox + _MARGIN_L
        parts.append(
            f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(py)}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 7)}" y="{_fmt(py + 3)}" font-family="monospace" '
            f'font-size="10" text-anchor="end">{t:g}</text>'
        )
    pts = _points(np.column_stack((sx(x), sy(y))).ravel())
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>'
    )
    return "\n".join(parts)


def svg_panels(panels, caption="") -> str:
    """Render up to four (x, y, title) triples as a self-contained 2x2 SVG."""
    if not panels or len(panels) > 4:
        raise ValueError("svg_panels needs between 1 and 4 panels")
    width = _PANEL_W * 2
    height = _PANEL_H * 2 + (22 if caption else 0)
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i, (x, y, title) in enumerate(panels):
        ox = (i % 2) * _PANEL_W
        oy = (i // 2) * _PANEL_H
        body.append(_panel(np.asarray(x, dtype=float), np.asarray(y, dtype=float), title, ox, oy))
    if caption:
        body.append(
            f'<text x="{width / 2:.2f}" y="{height - 8:.2f}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{caption}</text>'
        )
    body.append("</svg>")
    return "\n".join(body) + "\n"
