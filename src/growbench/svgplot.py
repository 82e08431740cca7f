"""Self-contained SVG line charts for training curves.

No plotting library: the chart is assembled as text with fixed geometry
and fixed-precision coordinates, so identical inputs produce identical
bytes (snapshot-friendly).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

WIDTH, HEIGHT = 800.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64.0, 20.0, 30.0, 46.0
XLABEL = "epoch"

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class Series:
    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(f"series {self.name!r}: x/y length mismatch")
        if not self.xs:
            raise ValueError(f"series {self.name!r} is empty")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round ticks inside [lo, hi], strictly increasing, at most 2 * target of them.

    The ticks are multiples of a step of 1, 2 or 5 times a power of ten.
    Each is taken by its integer index, so a step below the float spacing
    at `lo` cannot stall the walk, and a tick that rounds to the float of
    the one before it is dropped. A width too small to divide gives none.
    """
    raw = (hi - lo) / target
    if not raw >= sys.float_info.min:
        return []
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step)
    ticks: list[float] = []
    for i in range(2 * target):
        t = (first + i) * step
        if t > hi + 1e-9 * step:
            break
        t = round(t, 10)
        if lo <= t <= hi and (not ticks or t > ticks[-1]):
            ticks.append(t)
    return ticks


def _fit(lo: float, hi: float, pad: float) -> tuple[float, float]:
    """An axis range around data in [lo, hi], `pad` of its width wider at each end.

    The range's width is finite and positive and its two ends are distinct
    floats, so every data point maps to a finite coordinate. Flat data
    spans 1, or one float spacing where 1 is below it; data too wide to pad
    is not padded; and data wider than the largest float gets the range
    from its midpoint up, half the largest float wide.
    """
    if hi <= lo:
        step = max(1.0, math.ulp(lo))
        lo, hi = (lo - step, lo) if lo + step > sys.float_info.max else (lo, lo + step)
    width = hi - lo
    if not math.isfinite(width):
        mid = lo / 2 + hi / 2
        return mid, mid + sys.float_info.max / 2
    padded = lo - pad * width, hi + pad * width
    return padded if math.isfinite(padded[1] - padded[0]) else (lo, hi)


def escape(text: str) -> str:
    """Escape `&`, `<` and `>` for XML character data.

    The same replacements as `xml.sax.saxutils.escape`, which is not
    imported because it loads `urllib.request` and with it Python's
    network stack (about 3 MB of resident memory) into every process.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:g}"


def render_chart(series: list[Series], *, title: str = "", ylabel: str = "",
                 events_x: tuple[float, ...] = (),
                 x_range: tuple[float, float] | None = None,
                 y_range: tuple[float, float] | None = None) -> str:
    """Render line series (plus optional vertical event markers) to SVG text."""
    if not series:
        raise ValueError("nothing to plot")

    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    x_lo, x_hi = _fit(*(x_range or (min(xs_all), max(xs_all))), 0.0)
    # breathing room when the range is auto-fit
    y_lo, y_hi = _fit(*(y_range or (min(ys_all), max(ys_all))), 0.0 if y_range else 0.05)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH:g} {HEIGHT:g}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:g}" y="20" text-anchor="middle" font-size="15">'
            f"{escape(title)}</text>"
        )

    # gridlines + axis labels
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_T)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(MARGIN_T + plot_h)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(MARGIN_T + plot_h + 16)}" '
            f'text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_fmt(MARGIN_L)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_L + plot_w)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_L - 6)}" y="{_fmt(y + 4)}" '
            f'text-anchor="end">{_fmt_tick(t)}</text>'
        )

    # frame and axis captions
    parts.append(
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{_fmt(MARGIN_L + plot_w / 2)}" y="{_fmt(HEIGHT - 8)}" '
        f'text-anchor="middle">{XLABEL}</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_fmt(MARGIN_T + plot_h / 2)}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_fmt(MARGIN_T + plot_h / 2)})">{escape(ylabel)}</text>'
        )

    for ev in events_x:
        if not x_lo <= ev <= x_hi:
            continue
        x = px(ev)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_T)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(MARGIN_T + plot_h)}" stroke="#999999" stroke-width="1" '
            f'stroke-dasharray="4 3"/>'
        )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )

    # legend, top-right inside the frame
    lx = MARGIN_L + plot_w - 180
    ly = MARGIN_T + 10
    parts.append(
        f'<rect x="{_fmt(lx - 8)}" y="{_fmt(ly - 12)}" width="186" '
        f'height="{_fmt(18 * len(series) + 8)}" fill="white" fill-opacity="0.85" '
        f'stroke="#cccccc"/>'
    )
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = ly + 18 * i
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(y)}" x2="{_fmt(lx + 22)}" y2="{_fmt(y)}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 28)}" y="{_fmt(y + 4)}">{escape(s.name)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
