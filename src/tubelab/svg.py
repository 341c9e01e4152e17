"""Minimal self-contained SVG rendering for log-log scaling plots.

One public function draws measured (scale, value) samples on log2 axes
together with their least-squares line and a fitted-slope annotation.
No plotting dependency: the output is a plain SVG string.
"""

from __future__ import annotations

import math

__all__ = ["svg_loglog"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 24, 42, 56  # margins: left, right, top, bottom


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _ticks(lo: float, hi: float) -> list[float]:
    """Integer-ish tick positions covering [lo, hi], about six of them."""
    if hi <= lo:
        hi = lo + 1.0
    step = max(1, round((hi - lo) / 6))
    first = math.ceil(lo)
    return [t for t in range(first, math.floor(hi) + 1, step)]


def svg_loglog(samples, title: str = "", ylabel: str = "log2(value)") -> str:
    """Render (delta, value) samples on log2-log2 axes with their OLS line.

    The x coordinate is log2(1/delta) (so scale refinement runs left to
    right) and the y coordinate is log2(value). The fitted slope beta of
    log(value) against log(1/delta) is annotated on the plot. Values must
    be positive; at least two samples are required.
    """
    pts = [(float(d), float(v)) for d, v in samples]
    if len(pts) < 2:
        raise ValueError("need at least 2 samples to plot")
    if any(d <= 0 or v <= 0 for d, v in pts):
        raise ValueError("samples must have positive delta and value")

    xs = [math.log2(1.0 / d) for d, _ in pts]
    ys = [math.log2(v) for _, v in pts]

    # least squares in the plotted coordinates (slope is the delta-exponent)
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("need at least 2 distinct delta values")
    beta = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    c0 = my - beta * mx

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    xpad = 0.05 * (x_hi - x_lo) or 0.5
    ypad = 0.08 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - xpad, x_hi + xpad
    y_lo, y_hi = y_lo - ypad, y_hi + ypad

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def X(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def Y(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )

    for t in _ticks(x_lo, x_hi):
        px = X(t)
        out.append(
            f'<line x1="{px:.1f}" y1="{_MT + ph}" x2="{px:.1f}" '
            f'y2="{_MT + ph + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{_MT + ph + 20}" '
            f'text-anchor="middle">{t}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = Y(t)
        out.append(
            f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
            f'y2="{py:.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_ML - 9}" y="{py + 4:.1f}" text-anchor="end">{t}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 14}" '
        'text-anchor="middle">log2(1/delta)</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ph / 2:.1f})">{ylabel}</text>'
    )

    # fitted line across the padded x-range (y = beta*x + c0 in log2 axes)
    fy = lambda x: beta * x + c0  # noqa: E731
    out.append(
        f'<line x1="{X(x_lo):.1f}" y1="{Y(fy(x_lo)):.1f}" '
        f'x2="{X(x_hi):.1f}" y2="{Y(fy(x_hi)):.1f}" '
        'stroke="steelblue" stroke-width="1.5"/>'
    )
    for x, y in zip(xs, ys):
        out.append(f'<circle cx="{X(x):.1f}" cy="{Y(y):.1f}" r="3.5" fill="crimson"/>')
    out.append(
        f'<text x="{_ML + 10}" y="{_MT + 18}" fill="steelblue">'
        f"fitted slope = {_fmt(beta)}</text>"
    )
    out.append("</svg>")
    return "\n".join(out)
