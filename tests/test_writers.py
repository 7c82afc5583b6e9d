"""The validate writers against the code they replaced.

``render_box_ellipse`` below is the shipped renderer as it stood when it
placed every mark and ellipse vertex with the scalar ``px``/``py`` and
formatted numpy scalars, and ``ensemble_rows`` the rows ``ensemble.csv``
was written from, frozen as the references.  ``plot.svg`` and
``ensemble.csv`` must come out byte for byte the same.
"""

import csv
import io
from dataclasses import replace
from xml.sax.saxutils import escape

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import cli, svgplot
from mcjoint.jetest import validate
from mcjoint.resampling import IntervalPair
from mcjoint.robustcov import EllipseGeometry, ellipse_points
from mcjoint.svgplot import MAX_MARKS, PlotPayload, _ellipse_bbox, _sig6

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 24, 42, 52


def frame(p):
    """The marks drawn and the plotted data ranges."""
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
    return pts, xmin - xpad, xmax + xpad, ymin - ypad, ymax + ypad


def render_box_ellipse(p):
    pts, xmin, xmax, ymin, ymax = frame(p)
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x - xmin) / (xmax - xmin) * pw

    def py(y):
        return _MT + (ymax - y) / (ymax - ymin) * ph

    def fmt(v):
        return f"{v:.2f}"

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>')
    if p.title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(p.title)}</text>'
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

    marks = " ".join(
        f'<circle cx="{fmt(px(x))}" cy="{fmt(py(y))}" r="1.5"/>' for x, y in pts
    )
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
        ring = ellipse_points(e)
        d = "M " + " L ".join(f"{fmt(px(x))},{fmt(py(y))}" for x, y in ring) + " Z"
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


def ensemble_rows(pairs):
    return [["intercept", "slope"]] + [[repr(float(b0)), repr(float(b1))] for b0, b1 in pairs]


def csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def hemoglobin_payload():
    report = validate(mj.load_hemoglobin(), "paba", mj.DemingConfig(), cov_method="mcd",
                      B=2000, seed=0)
    return svgplot.payload_from_report(report)


def with_points(p, points):
    return replace(p, points=np.asarray(points, float))


def signed_zero_payload():
    # a cloud around the origin with -0.0 coordinates on both axes
    p = hemoglobin_payload()
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=1e-3, size=(500, 2))
    pts[:3] = (-0.0, 0.25), (0.5, -0.0), (-0.0, -0.0)
    return with_points(p, pts)


def constant_payload():
    # every extent collapses to one point: both paddings fall back to 1e-6
    e = EllipseGeometry(center=np.array([1.5, 0.75]), semi_axes=np.array([0.0, 0.0]),
                        rotation=0.0, level=9.21)
    iv = IntervalPair(slope_lo=0.75, slope_hi=0.75, int_lo=1.5, int_hi=1.5, alpha=0.05)
    return PlotPayload(points=np.tile([1.5, 0.75], (40, 1)), ellipse05=e, ellipse01=e,
                       intervals=iv, h0=(1.5, 0.75), center=(1.5, 0.75), title="constant")


def many_marks_payload():
    p = hemoglobin_payload()
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.normal(p.center[0], 0.05, MAX_MARKS + 1234),
                           rng.normal(p.center[1], 0.02, MAX_MARKS + 1234)])
    return with_points(p, pts)


def boundary_payload():
    # marks whose pixel positions sit on either side of a rounding boundary
    # of the 2-decimal format, where px and py in another operation order
    # (for example (x - xmin) * pw / (xmax - xmin)) print a different digit
    p = hemoglobin_payload()
    _, xmin, xmax, ymin, ymax = frame(p)
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    orders = [(lambda x: _ML + (x - xmin) / (xmax - xmin) * pw,
               lambda x: _ML + (x - xmin) * pw / (xmax - xmin),
               lambda x: _ML + (x - xmin) * (pw / (xmax - xmin)),
               lambda pix: xmin + (pix - _ML) / pw * (xmax - xmin)),
              (lambda y: _MT + (ymax - y) / (ymax - ymin) * ph,
               lambda y: _MT + (ymax - y) * ph / (ymax - ymin),
               lambda y: _MT + (ymax - y) * (ph / (ymax - ymin)),
               lambda pix: ymax - (pix - _MT) / ph * (ymax - ymin))]
    picked = [[], []]
    for axis, (shipped, *others, inverse) in enumerate(orders):
        for pix in np.arange(150.005, 380.0, 1.01):
            v = inverse(pix) - 200 * np.spacing(inverse(pix))
            for _ in range(400):
                v = np.nextafter(v, np.inf)
                if any(f"{shipped(v):.2f}" != f"{other(v):.2f}" for other in others):
                    picked[axis].append(float(v))
    assert len(picked[0]) >= 4 and len(picked[1]) >= 4
    cx, cy = p.center
    marks = [(x, cy) for x in picked[0]] + [(cx, y) for y in picked[1]]
    q = with_points(p, np.vstack([p.points, marks]))
    assert frame(q)[1:] == frame(p)[1:]
    return q


PAYLOADS = {"hemoglobin": hemoglobin_payload, "signed-zero": signed_zero_payload,
            "constant-range": constant_payload, "subsampled": many_marks_payload,
            "rounding-boundary": boundary_payload}


@pytest.mark.parametrize("name", list(PAYLOADS))
def test_plot_matches_reference(name):
    p = PAYLOADS[name]()
    got = svgplot.render_box_ellipse(p)
    assert got == render_box_ellipse(p)
    assert got.count("<circle") == min(len(p.points), MAX_MARKS) + 1 + 4


@pytest.mark.parametrize("name", ["hemoglobin", "signed-zero", "subsampled"])
def test_ensemble_csv_matches_reference(name, tmp_path):
    pairs = PAYLOADS[name]().points
    cli._atomic_write(tmp_path / "ensemble.csv", cli._pairs_csv(pairs))
    assert (tmp_path / "ensemble.csv").read_bytes() == csv_text(ensemble_rows(pairs)).encode()


# floats whose shortest repr is easy to get wrong: signed zero, the extremes,
# subnormals, sums that do not round-trip short, long mantissas, huge integers
TRICKY = [-0.0, 0.0, 1e-300, 1e300, -1e300, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
          0.1 + 0.2, 1.0 / 3.0, -2.5e-17, 2.675, 1e16, 1e22, 9007199254740993.0, 123456789.12345679,
          0.30000000000000004, 1e-05, 0.0001, 1e15 + 0.3, np.nan, np.inf, -np.inf]


def test_ensemble_csv_special_values(tmp_path):
    pairs = np.array(TRICKY + TRICKY[::-1]).reshape(-1, 2)
    assert csv_text([["intercept", "slope"]] + pairs.tolist()) == csv_text(ensemble_rows(pairs))
    # the one-pass writer against csv.writer itself, through the file it writes
    cli._atomic_write(tmp_path / "ensemble.csv", cli._pairs_csv(pairs))
    want = csv_text([["intercept", "slope"]] + pairs.tolist()).encode()
    assert (tmp_path / "ensemble.csv").read_bytes() == want
    assert cli._pairs_csv(pairs[:0]) == csv_text([["intercept", "slope"]])


def test_validate_writes_the_reference_artifacts(tmp_path, capsys):
    argv = ["validate", "--input", str(mj.dataset.hemoglobin_path()), "--method", "paba",
            "--cov", "sde", "--b", "1999", "--seed", "3", "--out", str(tmp_path)]
    cli.main(argv)
    capsys.readouterr()
    report = validate(mj.load_hemoglobin(), "paba", mj.DemingConfig(), cov_method="sde",
                      B=1999, seed=3, je_alpha=0.01, ci_alpha=0.05)
    p = svgplot.payload_from_report(report)
    assert (tmp_path / "plot.svg").read_text() == render_box_ellipse(p)
    assert (tmp_path / "ensemble.csv").read_bytes() == csv_text(ensemble_rows(report.ensemble.pairs)).encode()
