"""Deterministic SVG rendering of the box-and-ellipse validation plot.

The plot shows the bootstrapped (intercept, slope) cloud, the coverage
ellipses at the 5% and 1% levels, the rectangle spanned by the classical
confidence intervals, the null point, and the robust center.  Output is a
pure function of the payload, so identical inputs give identical bytes;
geometry values are also embedded as data attributes at the same precision
as the JSON report, which keeps the two artifacts diffable against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .jetest import H0, ValidationReport
from .resampling import IntervalPair
from .robustcov import EllipseGeometry, ellipse_points

MAX_MARKS = 5000
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 24, 42, 52


@dataclass(frozen=True)
class PlotPayload:
    """Everything the renderer needs, already computed upstream."""

    points: np.ndarray                 # (B, 2) intercept, slope
    ellipse05: EllipseGeometry
    ellipse01: EllipseGeometry
    intervals: IntervalPair
    h0: Tuple[float, float]
    center: Tuple[float, float]
    title: str


def payload_from_report(report: ValidationReport) -> PlotPayload:
    return PlotPayload(
        points=report.ensemble.pairs,
        ellipse05=report.ellipse05,
        ellipse01=report.ellipse01,
        intervals=report.intervals,
        h0=H0,
        center=tuple(float(v) for v in report.je.model.center),
        title=f"{report.label} [{report.ensemble.point.label}, cov {report.cov_method}]".strip(),
    )


def _escape(text: str) -> str:
    """``text`` as XML character data: ``&``, ``>`` and ``<`` as entities, in
    the order of ``xml.sax.saxutils.escape``, without loading xml.sax."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _sig6(v: float) -> str:
    return f"{float(v):.6g}"


def _ellipse_bbox(e: EllipseGeometry):
    a, b = e.semi_axes
    c, s = np.cos(e.rotation), np.sin(e.rotation)
    hx = np.hypot(a * c, b * s)
    hy = np.hypot(a * s, b * c)
    return (e.center[0] - hx, e.center[0] + hx, e.center[1] - hy, e.center[1] + hy)


def render_box_ellipse(p: PlotPayload) -> str:
    """Render the payload to an SVG document string."""
    pts = np.asarray(p.points, float)
    if len(pts) > MAX_MARKS:
        pts = pts[np.linspace(0, len(pts) - 1, MAX_MARKS).astype(int)]

    xs = [pts[:, 0].min(), pts[:, 0].max(), p.intervals.int_lo, p.intervals.int_hi,
          p.h0[0], p.center[0]]
    ys = [pts[:, 1].min(), pts[:, 1].max(), p.intervals.slope_lo, p.intervals.slope_hi,
          p.h0[1], p.center[1]]
    for e in (p.ellipse05, p.ellipse01):
        x0, x1, y0, y1 = _ellipse_bbox(e)
        xs += [x0, x1]
        ys += [y0, y1]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xpad = 0.1 * (xmax - xmin) or 1e-6
    ypad = 0.1 * (ymax - ymin) or 1e-6
    xmin, xmax = xmin - xpad, xmax + xpad
    ymin, ymax = ymin - ypad, ymax + ypad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x - xmin) / (xmax - xmin) * pw

    def py(y):
        return _MT + (ymax - y) / (ymax - ymin) * ph

    def fmt(v):
        return f"{v:.2f}"

    def pixels(xy):
        """``px`` and ``py`` of every (x, y) row, in the same operation order,
        as a tuple of Python floats: x0, y0, x1, y1, ..."""
        return tuple(np.column_stack([_ML + (xy[:, 0] - xmin) / (xmax - xmin) * pw,
                                      _MT + (ymax - xy[:, 1]) / (ymax - ymin) * ph]).ravel().tolist())

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>')
    out.append(
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(p.title)}</text>'
    )
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in np.linspace(xmin, xmax, 5):
        X = px(tx)
        out.append(f'<line x1="{fmt(X)}" y1="{_MT + ph}" x2="{fmt(X)}" y2="{_MT + ph + 5}" stroke="black"/>')
        out.append(
            f'<text x="{fmt(X)}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.4g}</text>'
        )
    for ty in np.linspace(ymin, ymax, 5):
        Y = py(ty)
        out.append(f'<line x1="{_ML - 5}" y1="{fmt(Y)}" x2="{_ML}" y2="{fmt(Y)}" stroke="black"/>')
        out.append(
            f'<text x="{_ML - 8}" y="{fmt(Y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.4g}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">Intercept</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {_MT + ph / 2:.1f})">Slope</text>'
    )

    marks = " ".join(['<circle cx="%.2f" cy="%.2f" r="1.5"/>'] * len(pts)) % pixels(pts)
    out.append(f'<g fill="#4682b4" fill-opacity="0.35" stroke="none">{marks}</g>')

    iv = p.intervals
    out.append(
        f'<rect x="{fmt(px(iv.int_lo))}" y="{fmt(py(iv.slope_hi))}" '
        f'width="{fmt(px(iv.int_hi) - px(iv.int_lo))}" height="{fmt(py(iv.slope_lo) - py(iv.slope_hi))}" '
        f'fill="none" stroke="#444444" stroke-width="1.2" '
        f'data-int-lo="{_sig6(iv.int_lo)}" data-int-hi="{_sig6(iv.int_hi)}" '
        f'data-slope-lo="{_sig6(iv.slope_lo)}" data-slope-hi="{_sig6(iv.slope_hi)}"/>'
    )

    for e, dash, tag in ((p.ellipse05, "", "ellipse05"), (p.ellipse01, ' stroke-dasharray="6,4"', "ellipse01")):
        outline = ellipse_points(e)
        d = "M " + " L ".join(["%.2f,%.2f"] * len(outline)) % pixels(outline) + " Z"
        out.append(
            f'<path d="{d}" fill="none" stroke="#b22222" stroke-width="1.4"{dash} '
            f'data-role="{tag}" data-center="{_sig6(e.center[0])},{_sig6(e.center[1])}" '
            f'data-semi-axes="{_sig6(e.semi_axes[0])},{_sig6(e.semi_axes[1])}" '
            f'data-rotation="{_sig6(e.rotation)}" data-level="{_sig6(e.level)}"/>'
        )

    hx, hy = px(p.h0[0]), py(p.h0[1])
    out.append(
        f'<g stroke="black" stroke-width="1.6" data-role="h0" '
        f'data-h0="{_sig6(p.h0[0])},{_sig6(p.h0[1])}">'
        f'<line x1="{fmt(hx - 6)}" y1="{fmt(hy)}" x2="{fmt(hx + 6)}" y2="{fmt(hy)}"/>'
        f'<line x1="{fmt(hx)}" y1="{fmt(hy - 6)}" x2="{fmt(hx)}" y2="{fmt(hy + 6)}"/></g>'
    )
    out.append(
        f'<circle cx="{fmt(px(p.center[0]))}" cy="{fmt(py(p.center[1]))}" r="3" fill="#b22222" '
        f'data-role="center" data-center="{_sig6(p.center[0])},{_sig6(p.center[1])}"/>'
    )

    lx, ly = _ML + pw - 160, _MT + 14
    legend = [
        ("#4682b4", "bootstrap pairs"),
        ("#b22222", "ellipse 5% (solid), 1% (dashed)"),
        ("#444444", "CI box"),
        ("#000000", "null point"),
    ]
    for i, (color, label) in enumerate(legend):
        out.append(
            f'<circle cx="{lx}" cy="{ly + 16 * i}" r="4" fill="{color}"/>'
            f'<text x="{lx + 10}" y="{ly + 16 * i + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
