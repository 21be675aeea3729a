"""Minimal deterministic SVG plotting for bound curves and data points.

Matplotlib is deliberately avoided here: figure output must be
byte-identical across runs and library versions, and the figures needed
are simple (linear axes, a handful of curves, points with rectangular
error bars).  Everything is rendered with fixed-precision coordinates and
no timestamps, ids, or environment-dependent metadata.

Curves falling below the floor, the y axis's lower end (dB axes diverge
to -inf), are clipped at the floor crossing and the clipped end is
marked with an open circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

_WIDTH, _HEIGHT = 640.0, 440.0
_ML, _MR, _MT, _MB = 64.0, 18.0, 30.0, 48.0
_TICKS = 6  # at most this many tick intervals per axis

# stroke-dasharray attribute of each stroke style
_DASHES = {
    "solid": "",
    "dashed": ' stroke-dasharray="8,5"',
    "dotted": ' stroke-dasharray="2.5,3.5"',
}


@dataclass(frozen=True)
class CurveTrace:
    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    style: str = "solid"
    color: str = "#000000"
    width: float = 1.4


@dataclass(frozen=True)
class PointSet:
    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    x_err: tuple[float, ...] = ()
    y_err: tuple[float, ...] = ()

    def __post_init__(self):
        # a negative or NaN half-width would draw a rectangle of negative size
        for name in ("x_err", "y_err"):
            bad = [e for e in getattr(self, name) if not e >= 0.0]
            if bad:
                raise ValueError(f"{name} must be non-negative, got {bad[0]!r}")


@dataclass
class PlotSpec:
    title: str
    x_label: str
    y_label: str
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    curves: list[CurveTrace] = field(default_factory=list)
    points: list[PointSet] = field(default_factory=list)
    legend: bool = True

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("axis ranges must be finite and increasing")
        for trace in self.curves:
            if trace.style not in _DASHES:
                raise ValueError(f"unknown stroke style {trace.style!r}")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= _TICKS:
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    def __init__(self, spec: PlotSpec):
        self.parts: list[str] = []
        self.x0, self.x1 = spec.x_range
        self.y0, self.y1 = spec.y_range

    def px(self, x: float) -> float:
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_WIDTH - _ML - _MR)

    def py(self, y: float) -> float:
        return _HEIGHT - _MB - (y - self.y0) / (self.y1 - self.y0) * (_HEIGHT - _MT - _MB)

    def add(self, element: str) -> None:
        self.parts.append(element)

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0):
        self.add(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                 f'stroke="{color}" stroke-width="{width:g}" fill="none"/>')

    def text(self, x, y, s, size=12.0, anchor="middle", rotate=None):
        tr = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
        self.add(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="Helvetica,Arial,sans-serif" '
                 f'font-size="{size:g}" text-anchor="{anchor}" fill="#000000"{tr}>{s}</text>')


def _clip_segments(xs, ys, floor: float, x0: float, x1: float):
    """Split a trace into in-range polyline segments.

    Returns (segments, open_markers): each segment is a list of (x, y);
    markers sit where a segment was cut by the floor.
    """
    segments, markers = [], []
    current: list[tuple[float, float]] = []
    prev = None
    for x, y in zip(xs, ys):
        if not (x0 - 1e-12 <= x <= x1 + 1e-12):
            prev = (x, y)
            continue
        visible = math.isfinite(y) and y >= floor
        if visible:
            if not current and prev is not None and math.isfinite(prev[1]) and prev[1] < floor:
                # entering from below: start at the floor crossing
                cx = _cross(prev, (x, y), floor)
                current.append((cx, floor))
                markers.append((cx, floor))
            current.append((x, y))
        else:
            if current:
                px, py = current[-1]
                if math.isfinite(y):
                    cx = _cross((px, py), (x, y), floor)
                    current.append((cx, floor))
                    markers.append((cx, floor))
                segments.append(current)
                current = []
        prev = (x, y)
    if current:
        segments.append(current)
    return segments, markers


def _cross(p, q, floor: float) -> float:
    (x1, y1), (x2, y2) = p, q
    if y2 == y1:
        return x2
    t = (floor - y1) / (y2 - y1)
    return x1 + t * (x2 - x1)


def render_svg(spec: PlotSpec) -> str:
    c = _Canvas(spec)
    c.add(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
          f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">')
    c.add(f'<rect x="0" y="0" width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="#ffffff"/>')

    left, right = c.px(c.x0), c.px(c.x1)
    top, bottom = c.py(c.y1), c.py(c.y0)

    # tick marks, labels, light grid
    for t in _ticks(c.x0, c.x1):
        x = c.px(t)
        c.line(x, bottom, x, top, color="#dddddd", width=0.6)
        c.line(x, bottom, x, bottom + 5)
        c.text(x, bottom + 18, _tick_label(t), size=11)
    for t in _ticks(c.y0, c.y1):
        y = c.py(t)
        c.line(left, y, right, y, color="#dddddd", width=0.6)
        c.line(left - 5, y, left, y)
        c.text(left - 8, y + 4, _tick_label(t), size=11, anchor="end")

    for trace in spec.curves:
        d = _DASHES[trace.style]
        segments, markers = _clip_segments(trace.x, trace.y, c.y0, c.x0, c.x1)
        for seg in segments:
            pts = " ".join(f"{_fmt(c.px(x))},{_fmt(c.py(y))}" for x, y in seg)
            c.add(f'<polyline points="{pts}" fill="none" stroke="{trace.color}" '
                  f'stroke-width="{trace.width:g}"{d}/>')
        for mx, my in markers:
            c.add(f'<circle cx="{_fmt(c.px(mx))}" cy="{_fmt(c.py(my))}" r="3" '
                  f'fill="#ffffff" stroke="{trace.color}" stroke-width="1"/>')

    for ps in spec.points:
        xe = ps.x_err if ps.x_err else (0.0,) * len(ps.x)
        ye = ps.y_err if ps.y_err else (0.0,) * len(ps.y)
        for x, y, ex, ey in zip(ps.x, ps.y, xe, ye):
            if not (c.x0 <= x <= c.x1 and c.y0 <= y <= c.y1):
                continue
            if ex > 0 or ey > 0:
                rx0, rx1 = c.px(max(x - ex, c.x0)), c.px(min(x + ex, c.x1))
                ry0, ry1 = c.py(min(y + ey, c.y1)), c.py(max(y - ey, c.y0))
                c.add(f'<rect x="{_fmt(rx0)}" y="{_fmt(ry0)}" width="{_fmt(rx1 - rx0)}" '
                      f'height="{_fmt(ry1 - ry0)}" fill="none" stroke="#000000" '
                      f'stroke-width="0.8"/>')
            c.add(f'<circle cx="{_fmt(c.px(x))}" cy="{_fmt(c.py(y))}" r="3.2" '
                  f'fill="#000000" stroke="none"/>')

    # frame above grid/curve overshoot
    c.add(f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(right - left)}" '
          f'height="{_fmt(bottom - top)}" fill="none" stroke="#000000" stroke-width="1"/>')

    c.text((left + right) / 2, _MT - 10, spec.title, size=13)
    c.text((left + right) / 2, _HEIGHT - 12, spec.x_label)
    c.text(16, (top + bottom) / 2, spec.y_label, rotate=True)

    labeled = [t for t in spec.curves if t.label] + [p for p in spec.points if p.label]
    if spec.legend and 0 < len(labeled) <= 8:
        lx, ly = right - 176, top + 12
        for i, item in enumerate(labeled):
            y = ly + 16 * i
            if isinstance(item, CurveTrace):
                d = _DASHES[item.style]
                c.add(f'<line x1="{_fmt(lx)}" y1="{_fmt(y - 4)}" x2="{_fmt(lx + 24)}" '
                      f'y2="{_fmt(y - 4)}" stroke="{item.color}" '
                      f'stroke-width="{item.width:g}"{d}/>')
            else:
                c.add(f'<circle cx="{_fmt(lx + 12)}" cy="{_fmt(y - 4)}" r="3.2" '
                      'fill="#000000"/>')
            c.text(lx + 30, y, item.label, size=11, anchor="start")

    c.add("</svg>")
    return "\n".join(c.parts) + "\n"


def save_svg(spec: PlotSpec, path: str | Path) -> None:
    Path(path).write_text(render_svg(spec), encoding="utf-8")
