"""Minimal standalone SVG line plots (no plotting dependency).

Only what the command-line `plot` subcommand needs: one (x, y) series,
optional log scaling per axis, ticks and a legend entry for its label.
Output is a plain-text vector file: labels are escaped as XML text, and
any non-ASCII character in them is written as a character reference.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from .errors import ParameterDomainError

__all__ = ["render_line_plot"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 34, 50
_COLOR = "#1f77b4"


def _ticks(lo: float, hi: float, log: bool):
    """Tick values in [lo, hi]: the powers of ten on a log axis that holds
    two or more, else 1-2-5 steps of at most six intervals, or the two
    ends alone when the span is under 64 float spacings of the values, so
    that a 1-2-5 step might not move a tick."""
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        decades = [10.0**e for e in range(lo_e, hi_e + 1) if lo <= 10.0**e <= hi]
        if len(decades) >= 2:
            return decades
    span = hi - lo
    if span < 64.0 * np.spacing(max(abs(lo), abs(hi))):
        return [lo, hi]
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    count = math.floor((hi + 1e-12 * span - first) / step) + 1
    return [first + i * step for i in range(count)]


def _axis_range(values, log: bool) -> tuple[float, float]:
    """(min, max) of the values, a constant c widened to a positive length:
    half a decade each way on a log axis, else max(0.5, 1e-6 |c|) each way.
    ParameterDomainError if that length, or the widened log axis, leaves
    the float range."""
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        pad = max(0.5, 1e-6 * abs(lo))
        lo, hi = (lo / math.sqrt(10.0), hi * math.sqrt(10.0)) if log else (lo - pad, hi + pad)
    if not math.isfinite(hi - lo) or (log and lo == 0.0):
        raise ParameterDomainError(f"axis from {lo!r} to {hi!r} leaves the float range")
    return lo, hi


def render_line_plot(x, y, path, *, label: str = "", log_x: bool = False,
                     log_y: bool = False, title: str = "", xlabel: str = "",
                     ylabel: str = "") -> None:
    """Write an SVG plot of the series (x, y), with an optional legend
    ``label``, to ``path``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    if log_x:
        keep &= x > 0
    if log_y:
        keep &= y > 0
    if np.count_nonzero(keep) < 2:
        raise ParameterDomainError(f"series {label!r} has fewer than 2 plottable points")
    x, y = x[keep], y[keep]
    x_lo, x_hi = _axis_range(x, log_x)
    y_lo, y_hi = _axis_range(y, log_y)

    def to_px(x, y):
        if log_x:
            fx = (np.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            fx = (x - x_lo) / (x_hi - x_lo)
        if log_y:
            fy = (np.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            fy = (y - y_lo) / (y_hi - y_lo)
        px = _MARGIN_L + fx * (_WIDTH - _MARGIN_L - _MARGIN_R)
        py = _HEIGHT - _MARGIN_B - fy * (_HEIGHT - _MARGIN_T - _MARGIN_B)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{escape(title)}</text>')
    for tx in _ticks(x_lo, x_hi, log_x):
        px, _ = to_px(tx, y_lo)
        parts.append(f'<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" x2="{px:.1f}" '
                     f'y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(y_lo, y_hi, log_y):
        _, py = to_px(x_lo, ty)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{ty:.4g}</text>')
    if xlabel:
        parts.append(f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
                     f'font-size="12">{escape(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" font-size="12" '
                     f'transform="rotate(-90 16 {_HEIGHT / 2})">{escape(ylabel)}</text>')
    px, py = to_px(x, y)
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    parts.append(f'<polyline points="{points}" fill="none" stroke="{_COLOR}" '
                 f'stroke-width="1.5"/>')
    if label:
        ly = _MARGIN_T + 16
        parts.append(f'<line x1="{_WIDTH - 180}" y1="{ly - 4}" x2="{_WIDTH - 156}" '
                     f'y2="{ly - 4}" stroke="{_COLOR}" stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH - 150}" y="{ly}" font-size="11">'
                     f'{escape(label)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", errors="xmlcharrefreplace") as fh:
        fh.write("\n".join(parts) + "\n")
