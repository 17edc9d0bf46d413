"""Deterministic SVG rendering of the chart data structures.

Pure string building: no clock, no ids, no randomness, fixed float
formatting, so the same input always yields byte-identical output.  Fixed
800x500 viewBox, embedded CSS, no external fonts.  Per-point marks (polyline
vertices, circles, bars and stems) become text a whole coordinate array at
a time: the numpy digit kernel of :mod:`catseries.io` (``_fixed_text``)
writes the ``{:.2f}`` text of every coordinate into a byte template of the
mark, and Python's ``format`` takes over only for a non-finite coordinate or
one of magnitude 2**40 or more.  A polyline keeps only the M4 points of
its pixel columns (``_pixel_columns``): in each run of consecutive vertices
that share a column, the first, the last, the lowest and the highest.  The
line covers the same pixels at the chart's own size, but a reader who zooms
into a long one sees less detail than the data holds; the ``--table`` CSV
keeps every point.  ``CHARTS`` maps each chart-data type to its renderer and
to the header and columns of its ``--table`` CSV (``plot_table``).
"""

from __future__ import annotations

import numpy as np

from .graphics import ControlChart, FractalSeries, PatternHistogram, RateEvolution
from .inference import TestReport
from .io import _fixed_text
from .series import CategoricalSeries
from .spectral import SpectralEnvelope

__all__ = ["render_svg", "plot_table"]

WIDTH, HEIGHT = 800, 500
MARGIN = {"left": 64.0, "right": 20.0, "top": 40.0, "bottom": 48.0}

_PALETTE = ("#1f6fb4", "#d9541e", "#2e8b57", "#8444b4", "#b4a21e", "#16a3a3", "#b41e5a", "#555555")

_CSS = (
    "text{font-family:monospace;font-size:12px;fill:#222}"
    ".title{font-size:14px}"
    ".caveat{font-size:11px;fill:#884400}"
    ".axis{stroke:#222;stroke-width:1;fill:none}"
    ".grid{stroke:#cccccc;stroke-width:0.5}"
    ".limit{stroke:#aa2222;stroke-width:1;stroke-dasharray:6 4;fill:none}"
    ".alarm{fill:#cc1111}"
)


def _num(x: float) -> str:
    return f"{float(x):.2f}"


def _label(x: float) -> str:
    return f"{float(x):.5g}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _el(tag: str, content: str | None = None, **attrs) -> str:
    parts = "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    if content is None:
        return f"<{tag}{parts}/>"
    return f"<{tag}{parts}>{content}</{tag}>"


class _Frame:
    """Maps data coordinates into the fixed plot rectangle."""

    def __init__(self, x0, x1, y0, y1):
        if x1 <= x0:
            x0, x1 = x0 - 0.5, x0 + 0.5
        if y1 <= y0:
            y0, y1 = y0 - 0.5, y0 + 0.5
        self.x0, self.x1, self.y0, self.y1 = float(x0), float(x1), float(y0), float(y1)
        self.px0 = MARGIN["left"]
        self.px1 = WIDTH - MARGIN["right"]
        self.py0 = HEIGHT - MARGIN["bottom"]
        self.py1 = MARGIN["top"]

    def x(self, v):
        """Pixel x of a value or of an array of values."""
        return self.px0 + (np.asarray(v, dtype=float) - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def y(self, v):
        """Pixel y of a value or of an array of values."""
        return self.py0 + (np.asarray(v, dtype=float) - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)

    def marks(self, template: str, xs, ys) -> list[str]:
        """``template`` filled with the pixel coordinates of each point (its
        two ``{}`` take x and y at two decimals), one point a line, as one
        block of text; no block when there is no point, so that the
        document gains no empty line."""
        text = _fixed_text(template, (self.x(xs), self.y(ys)), "\n")
        return [text] if text else []

    def axes(self, xlab: str, ylab: str, yticks=None, xticks=None) -> list[str]:
        out = [
            _el("rect", x=_num(self.px0), y=_num(self.py1), width=_num(self.px1 - self.px0),
                height=_num(self.py0 - self.py1), **{"class": "axis"}),
        ]
        if xticks is None:
            xticks = np.linspace(self.x0, self.x1, 5)
        if yticks is None:
            yticks = np.linspace(self.y0, self.y1, 5)
        for t in xticks:
            px = self.x(t)
            out.append(_el("line", x1=_num(px), y1=_num(self.py0), x2=_num(px), y2=_num(self.py0 + 4), **{"class": "axis"}))
            out.append(_el("text", _label(t), x=_num(px), y=_num(self.py0 + 16), text_anchor="middle"))
        for t in yticks:
            py = self.y(t)
            out.append(_el("line", x1=_num(self.px0 - 4), y1=_num(py), x2=_num(self.px0), y2=_num(py), **{"class": "axis"}))
            out.append(_el("text", _label(t), x=_num(self.px0 - 8), y=_num(py + 4), text_anchor="end"))
        out.append(_el("text", _esc(xlab), x=_num((self.px0 + self.px1) / 2), y=_num(HEIGHT - 8), text_anchor="middle"))
        out.append(_el("text", _esc(ylab), x=_num(14.0), y=_num((self.py0 + self.py1) / 2),
                       transform=f"rotate(-90 {_num(14.0)} {_num((self.py0 + self.py1) / 2)})", text_anchor="middle"))
        return out

    def hline(self, v, cls="limit") -> str:
        return _el("line", x1=_num(self.px0), y1=_num(self.y(v)), x2=_num(self.px1), y2=_num(self.y(v)), **{"class": cls})

    def polyline(self, xs, ys, color) -> str:
        pts = _fixed_text("{},{}", _pixel_columns(self.x(xs), self.y(ys)), " ")
        return _el("polyline", points=pts, fill="none", stroke=color, stroke_width="1.5")


def _pixel_columns(px, py):
    """The M4 points of a line (Jugel et al., PVLDB 7(10), 2014): in each run
    of consecutive points in one pixel column (``floor(px)``), the first and
    the last point and the first to reach the run's lowest and its highest
    ``py``, in their order.  The line through them covers the same pixels.
    A line with a non-finite coordinate keeps every point."""
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        return px, py
    col = np.floor(px)
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    run = np.repeat(np.arange(starts.size), np.diff(np.r_[starts, px.size]))
    index = np.arange(px.size)
    keep = np.zeros(px.size, bool)
    keep[starts] = keep[np.r_[starts[1:] - 1, px.size - 1]] = True
    for extreme in (np.minimum, np.maximum):
        reached = extreme.reduceat(py, starts)[run] == py
        keep[np.minimum.reduceat(np.where(reached, index, px.size), starts)] = True
    return px[keep], py[keep]


def _document(body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" version="1.1">',
        _el("style", _CSS),
        _el("rect", x="0", y="0", width=str(WIDTH), height=str(HEIGHT), fill="#ffffff"),
        _el("text", _esc(title), x=_num(WIDTH / 2), y=_num(22.0), text_anchor="middle", **{"class": "title"}),
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _legend(frame: _Frame, labels) -> list[str]:
    out = []
    x = frame.px1 - 110.0
    for i, lab in enumerate(labels):
        y = frame.py1 + 14.0 + 16.0 * i
        color = _PALETTE[i % len(_PALETTE)]
        out.append(_el("rect", x=_num(x), y=_num(y - 9), width="10", height="10", fill=color))
        out.append(_el("text", _esc(str(lab)), x=_num(x + 16), y=_num(y), text_anchor="start"))
    return out


def _series_plot(series: CategoricalSeries, title) -> str:
    codes = series.codes
    T = codes.size
    frame = _Frame(1, T + 1, 0.5, series.alphabet.size + 0.5)
    body = frame.axes("t", "category", yticks=np.arange(1, series.alphabet.size + 1))
    # step plot: horizontal run at each code with vertical connectors
    starts = np.arange(1, T + 1)
    body.append(frame.polyline(np.column_stack([starts, starts + 1]).ravel(), np.repeat(codes, 2), _PALETTE[0]))
    for i, lab in enumerate(series.alphabet.symbols, start=1):
        body.append(_el("text", _esc(lab), x=_num(frame.px1 + 4), y=_num(frame.y(i) + 4), text_anchor="start"))
    body.append(_el("text", "note: categories are nominal; the vertical order is an arbitrary coding",
                    x=_num(frame.px0), y=_num(HEIGHT - 26), text_anchor="start", **{"class": "caveat"}))
    return _document(body, title or "categorical series")


def _series_table(series: CategoricalSeries):
    return ["t", "code", "symbol"], [np.arange(1, len(series) + 1), series.codes, series.to_symbols()]


def _rate_plot(data: RateEvolution, title) -> str:
    T, r = data.counts.shape
    frame = _Frame(1, T, 0, data.counts.max())
    body = frame.axes("t", "cumulated count")
    ts = np.arange(1, T + 1)
    for i in range(r):
        body.append(frame.polyline(ts, data.counts[:, i], _PALETTE[i % len(_PALETTE)]))
    body.extend(_legend(frame, data.labels))
    return _document(body, title or "rate evolution")


def _rate_table(data: RateEvolution):
    return ["t", *[f"count_{s}" for s in data.labels]], [np.arange(1, data.counts.shape[0] + 1), *data.counts.T]


def _pattern_plot(data: PatternHistogram, title) -> str:
    if not data.counts:
        raise ValueError(f"empty data: category {data.label!r} closes no cycle: "
                         f"needs at least two occurrences, has {data.occurrences}")
    lengths = sorted(data.counts)
    top = max(data.counts.values())
    frame = _Frame(min(lengths) - 0.5, max(lengths) + 0.5, 0, top)
    body = frame.axes("cycle length", "count", xticks=lengths if len(lengths) <= 12 else None)
    x_left, x_right = frame.x(np.array(lengths) - 0.4), frame.x(np.array(lengths) + 0.4)
    y_top = frame.y([data.counts[length] for length in lengths])
    bar = _el("rect", x="{}", y="{}", width="{}", height="{}", fill=_PALETTE[0], stroke="#ffffff")
    body.append(_fixed_text(bar, (x_left, y_top, x_right - x_left, frame.py0 - y_top), "\n"))
    return _document(body, title or f"cycle lengths of category {data.label}")


def _pattern_table(data: PatternHistogram):
    return ["length", "count"], [np.array(list(data.counts)), np.array(list(data.counts.values()))]


def _window(window) -> list[float]:
    """``window`` as four finite numbers, x0 < x1 and y0 < y1, with a finite width and height."""
    try:
        bounds = np.asarray(window, dtype=float)
    except (TypeError, ValueError):
        bounds = np.empty(0)
    if bounds.shape != (4,) or not np.all(np.isfinite(bounds)) or not (bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        raise ValueError(f"window must be four finite numbers with x0 < x1 and y0 < y1, got {window!r}")
    x0, x1, y0, y1 = bounds.tolist()
    if not np.isfinite([x1 - x0, y1 - y0]).all():  # the frame divides by both
        raise ValueError(f"window {window!r} must have a finite width x1 - x0 and height y1 - y0")
    return [x0, x1, y0, y1]


def _ifs_plot(data: FractalSeries, title, window=None) -> str:
    pts = data.points
    if window is not None:
        x0, x1, y0, y1 = _window(window)
        keep = (pts[:, 0] >= x0) & (pts[:, 0] <= x1) & (pts[:, 1] >= y0) & (pts[:, 1] <= y1)
        pts = pts[keep]
    else:
        lim = data.beta / (1.0 - data.alpha)
        x0, x1, y0, y1 = -lim, lim, -lim, lim
    frame = _Frame(x0, x1, y0, y1)
    body = frame.axes("x", "y")
    # the marks inherit their fill from one group; each is still painted on its own
    circle = _el("circle", cx="{}", cy="{}", r="1.6")
    body.append(f'<g fill="{_PALETTE[0]}" fill-opacity="0.7">')
    body.extend(frame.marks(circle, pts[:, 0], pts[:, 1]))
    body.append("</g>")
    note = f"alpha={_label(data.alpha)} beta={_label(data.beta)} points={pts.shape[0]}"
    body.append(_el("text", _esc(note), x=_num(frame.px0), y=_num(HEIGHT - 26), text_anchor="start"))
    return _document(body, title or "IFS circle transformation")


def _ifs_table(data: FractalSeries):
    return ["t", "x", "y"], [np.arange(1, data.points.shape[0] + 1), *data.points.T]


def _dependence_plot(data: TestReport, title) -> str:
    lo = data.lower_critical if data.lower_critical is not None else 0.0
    ymin = min(0.0, float(data.estimates.min()), lo) - 0.05
    ymax = max(float(data.estimates.max()), data.upper_critical, 0.0) + 0.05
    frame = _Frame(0, int(data.lags.max()) + 1, ymin, ymax)
    body = frame.axes("lag", "estimate", xticks=data.lags)
    body.append(frame.hline(0.0, cls="grid"))
    body.append(frame.hline(data.upper_critical))
    if data.lower_critical is not None:
        body.append(frame.hline(data.lower_critical))
    px, py = frame.x(data.lags), frame.y(data.estimates)
    stem = _el("line", x1="{}", y1="{}", x2="{}", y2="{}", stroke=_PALETTE[0], stroke_width="2")
    dot = _el("circle", cx="{}", cy="{}", r="3", fill=_PALETTE[0])
    body.append(_fixed_text(f"{stem}\n{dot}", (px, np.full(px.size, frame.y(0.0)), px, py, px, py), "\n"))
    return _document(body, title or f"serial dependence ({data.family})")


def _dependence_table(data: TestReport):
    n = data.lags.size
    lower = [""] * n if data.lower_critical is None else np.full(n, data.lower_critical)
    header = ["lag", "estimate", "lower_critical", "upper_critical"]
    return header, [data.lags.astype(np.int64), data.estimates, lower, np.full(n, data.upper_critical)]


def _control_plot(chart: ControlChart, title) -> str:
    stats = chart.statistics if chart.statistics.ndim == 2 else chart.statistics[:, None]
    ymin = min(-1.3, float(stats.min()) - 0.1)
    ymax = max(1.3, float(stats.max()) + 0.1)
    frame = _Frame(float(chart.times.min()), float(chart.times.max()), ymin, ymax)
    body = frame.axes("t", "standardized statistic")
    body.append(frame.hline(0.0, cls="grid"))
    body.append(frame.hline(1.0))
    body.append(frame.hline(-1.0))
    alarms = chart.alarms if chart.alarms.ndim == 2 else chart.alarms[:, None]
    circle = _el("circle", cx="{}", cy="{}", r="3.5", **{"class": "alarm"})
    for i in range(stats.shape[1]):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(frame.polyline(chart.times, stats[:, i], color))
        body.extend(frame.marks(circle, chart.times[alarms[:, i]], stats[:, i][alarms[:, i]]))
    if stats.shape[1] > 1:
        body.extend(_legend(frame, chart.labels))
    return _document(body, title or f"control chart ({chart.kind})")


def _control_table(chart: ControlChart):
    stats = chart.statistics if chart.statistics.ndim == 2 else chart.statistics[:, None]
    return ["t", *[f"T_{lab}" for lab in chart.labels]], [chart.times.astype(np.int64), *stats.T]


def _envelope_plot(data: SpectralEnvelope, title) -> str:
    frame = _Frame(0.0, 0.5, 0.0, float(data.envelope.max()) * 1.05)
    body = frame.axes("frequency", "envelope")
    body.append(frame.polyline(data.frequencies, data.envelope, _PALETTE[0]))
    peak = int(np.argmax(data.envelope))
    body.append(_el("circle", cx=_num(frame.x(data.frequencies[peak])), cy=_num(frame.y(data.envelope[peak])),
                    r="3.5", fill=_PALETTE[1]))
    note = f"peak at frequency {_label(data.frequencies[peak])} (window {data.window})"
    body.append(_el("text", _esc(note), x=_num(frame.px0), y=_num(HEIGHT - 26), text_anchor="start"))
    return _document(body, title or "spectral envelope")


def _envelope_table(data: SpectralEnvelope):
    header = ["frequency", "envelope", *[f"gamma_{i + 1}" for i in range(data.scalings.shape[1])]]
    return header, [data.frequencies, data.envelope, *data.scalings.T]


CHARTS = {  # chart-data type -> (SVG renderer, ``--table`` header and columns)
    CategoricalSeries: (_series_plot, _series_table),
    RateEvolution: (_rate_plot, _rate_table),
    PatternHistogram: (_pattern_plot, _pattern_table),
    FractalSeries: (_ifs_plot, _ifs_table),
    TestReport: (_dependence_plot, _dependence_table),
    ControlChart: (_control_plot, _control_table),
    SpectralEnvelope: (_envelope_plot, _envelope_table),
}


def _chart(data):
    if type(data) not in CHARTS:
        raise ValueError(f"no renderer for {type(data).__name__}")
    return CHARTS[type(data)]


def render_svg(data, *, title: str | None = None, window=None) -> str:
    """Render any chart-data object to an SVG 1.1 document string.

    ``window`` (x0, x1, y0, y1) restricts an IFS scatter to a coordinate
    window, which is how string frequencies are read off by zooming.
    """
    render, _ = _chart(data)
    if window is not None and render is not _ifs_plot:
        raise ValueError(f"window {window!r} applies only to the IFS scatter, not to {type(data).__name__}")
    return render(data, title, window) if render is _ifs_plot else render(data, title)


def plot_table(data) -> tuple[list[str], list]:
    """Header and columns of a chart's data table: numeric arrays, or lists
    of text such as symbols."""
    return _chart(data)[1](data)
