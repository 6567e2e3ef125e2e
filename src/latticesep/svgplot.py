"""Minimal static SVG renderer for error-rate curves.

Draws semi-log plots (linear dB on x, log-10 probability on y) with no
dependency beyond the standard library: polylines, decade gridlines, tick
labels, and a legend.  Deliberately small -- figures here are static
result displays, so there is no styling surface beyond a fixed palette.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CurveSeries", "render_svg", "write_svg"]

_WIDTH = 640.0
_HEIGHT = 440.0
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 52.0

_X_LABEL = "SNR (dB)"
_Y_LABEL = "symbol error probability"
_Y_FLOOR = 1e-12

_PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#222222")


@dataclass(frozen=True, eq=False)
class CurveSeries:
    """One labelled curve: x values in dB, y values as probabilities."""

    label: str
    x: np.ndarray
    y: np.ndarray


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10.0 * magnitude


def _format_tick(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


def render_svg(series: list[CurveSeries], title: str = "") -> str:
    """Render the curves as a complete SVG document string.

    Points with ``y <= 1e-12`` are dropped (they have no logarithm);
    a curve interrupted by dropped points is drawn as separate segments.
    Raises ``ValueError`` when nothing at all is plottable.
    """
    prepared = []
    for s in series:
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(f"series {s.label!r} needs matching 1-d x and y")
        keep = np.isfinite(y) & (y > _Y_FLOOR) & np.isfinite(x)
        if np.any(keep):
            prepared.append((s.label, x, y, keep))
    if not prepared:
        raise ValueError("no positive values to plot")

    x_min = min(float(x[keep].min()) for _, x, _, keep in prepared)
    x_max = max(float(x[keep].max()) for _, x, _, keep in prepared)
    if x_max == x_min:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    y_lo = math.floor(math.log10(min(float(y[keep].min()) for _, _, y, keep in prepared)))
    y_hi = math.ceil(math.log10(max(float(y[keep].max()) for _, _, y, keep in prepared)))
    if y_hi == y_lo:
        y_hi += 1

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - math.log10(y)) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:g}" y="20" text-anchor="middle" font-size="14">'
            f"{html.escape(title, quote=False)}</text>"
        )

    # Decade gridlines and y tick labels (thinned when the range is deep).
    decade_step = 1 if y_hi - y_lo <= 12 else 2
    for exponent in range(y_lo, y_hi + 1, decade_step):
        yy = py(10.0**exponent)
        parts.append(
            f'<line x1="{_MARGIN_LEFT:g}" y1="{yy:.2f}" x2="{_MARGIN_LEFT + plot_w:g}" '
            f'y2="{yy:.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6:g}" y="{yy + 4:.2f}" text-anchor="end">1e{exponent}</text>'
        )

    x_step = _nice_step(x_max - x_min)
    tick = math.ceil(x_min / x_step) * x_step
    while tick <= x_max + 1e-9:
        xx = px(tick)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{_MARGIN_TOP:g}" x2="{xx:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h:g}" stroke="#eeeeee"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{_MARGIN_TOP + plot_h + 18:g}" text-anchor="middle">'
            f"{_format_tick(tick)}</text>"
        )
        tick += x_step

    # Axis frame and labels.
    parts.append(
        f'<rect x="{_MARGIN_LEFT:g}" y="{_MARGIN_TOP:g}" width="{plot_w:g}" height="{plot_h:g}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:g}" y="{_HEIGHT - 14:g}" text-anchor="middle">'
        f"{html.escape(_X_LABEL, quote=False)}</text>"
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:g}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:g})">'
        f"{html.escape(_Y_LABEL, quote=False)}</text>"
    )

    # Curves, split into segments at dropped points.
    for index, (label, x, y, keep) in enumerate(prepared):
        color = _PALETTE[index % len(_PALETTE)]
        segment: list[str] = []
        segments: list[list[str]] = []
        for xi, yi, ok in zip(x, y, keep):
            if ok:
                segment.append(f"{px(float(xi)):.2f},{py(float(yi)):.2f}")
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" '
                    f'stroke-width="1.6"/>'
                )

    # Legend, top-right corner of the plot area.
    legend_x = _MARGIN_LEFT + plot_w - 150
    legend_y = _MARGIN_TOP + 10
    parts.append(
        f'<rect x="{legend_x - 8:g}" y="{legend_y - 4:g}" width="150" '
        f'height="{16 * len(prepared) + 8:g}" fill="white" fill-opacity="0.85" stroke="#cccccc"/>'
    )
    for index, (label, _, _, _) in enumerate(prepared):
        color = _PALETTE[index % len(_PALETTE)]
        yy = legend_y + 16 * index + 8
        parts.append(
            f'<line x1="{legend_x:g}" y1="{yy:g}" x2="{legend_x + 22:g}" y2="{yy:g}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{legend_x + 28:g}" y="{yy + 4:g}">{html.escape(label, quote=False)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, series: list[CurveSeries], title: str = "") -> None:
    """Render and write the SVG document to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_svg(series, title))
