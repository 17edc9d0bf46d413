"""Data behind the exploratory and monitoring plots for categorical series.

Each function returns a small structured object that the SVG renderer (and
the CSV export in the CLI) consumes; nothing here draws.  Monitoring charts
follow the standardized-statistic convention: deviations are scaled by the
distance from the center to the control limit on the relevant side, so an
out-of-control alarm is flagged exactly when |T| > 1 (the boundary itself
does not alarm).

The control limits require an in-control model.  The defaults assume an
i.i.d. process with a given (estimated or hypothesized) marginal: cycle
lengths are then geometric, and the EWMA variance follows in closed form
from the recursion.  Both are stated defaults, overridable through the
``p`` / ``c`` arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .inference import TEST_FAMILIES
from .series import CategoricalSeries, binarize

__all__ = [
    "RateEvolution",
    "CycleRecord",
    "PatternHistogram",
    "FractalSeries",
    "DependenceTable",
    "ControlChart",
    "rate_evolution",
    "cycle_lengths",
    "ifs_circle_transform",
    "dependence_plot_data",
    "cycle_length_chart",
    "ewma_marginal_chart",
]


@dataclass(frozen=True, eq=False)
class RateEvolution:
    """Cumulated one-hot counts; row t sums to t, final row holds the totals."""

    counts: np.ndarray  # (T, r) integer prefix sums
    labels: tuple[str, ...]


def rate_evolution(series: CategoricalSeries) -> RateEvolution:
    """Running occurrence counts of every category; linear growth indicates
    a stable marginal distribution."""
    counts = np.cumsum(binarize(series).astype(np.int64), axis=0)
    return RateEvolution(counts, series.alphabet.symbols)


class CycleRecord(NamedTuple):
    """One return of a category to itself: starts at time ``start`` (1-based)
    and closes ``length`` steps later, with no occurrence in between."""

    category: int
    start: int
    length: int


@dataclass(frozen=True, eq=False)
class PatternHistogram:
    """Cycle-length counts for one category."""

    category: int
    label: str
    counts: dict[int, int]  # length -> number of cycles, keys sorted


def _resolve_category(series: CategoricalSeries, category) -> int:
    if isinstance(category, str):
        return series.alphabet.code(category)
    code = int(category)
    if not 1 <= code <= series.alphabet.size:
        raise ValueError(f"category code {code} outside 1..{series.alphabet.size}")
    return code


def cycle_lengths(series: CategoricalSeries, category) -> tuple[list[CycleRecord], PatternHistogram]:
    """All cycles of one category, plus their length histogram.

    ``category`` may be a label or a 1-based code.  A category occurring
    fewer than two times closes no cycle; the result is then empty.
    """
    code = _resolve_category(series, category)
    positions = np.flatnonzero(series.codes == code) + 1  # 1-based times
    records = [
        CycleRecord(code, int(t1), int(t2 - t1)) for t1, t2 in zip(positions[:-1], positions[1:])
    ]
    counts: dict[int, int] = {}
    for rec in records:
        counts[rec.length] = counts.get(rec.length, 0) + 1
    hist = PatternHistogram(code, series.alphabet.label(code), dict(sorted(counts.items())))
    return records, hist


def _recursion(inputs: np.ndarray, start: np.ndarray, step) -> np.ndarray:
    """Path of ``prev = step(prev, x)`` down each column of ``inputs`` from
    ``start[j]``, same shape as ``inputs``.  One C-driven
    :func:`itertools.accumulate` per column over Python floats does the same
    IEEE operations in the same order as a per-step numpy loop."""
    columns = zip(inputs.T.tolist(), start.tolist())
    return np.column_stack([list(accumulate(col, step, initial=s))[1:] for col, s in columns])


@dataclass(frozen=True, eq=False)
class FractalSeries:
    """Planar embedding of a series by an iterated function system.

    Categories sit on the unit circle (category i at angle 2 pi (i-1)/r);
    the embedded point contracts toward the current category's corner:
    F_k = alpha * F_{k-1} + beta * phi(X_k).  Equal strings of recent
    symbols land in the same small disc, so string frequencies become point
    densities.
    """

    points: np.ndarray  # (T, 2)
    alpha: float
    beta: float
    f0: tuple[float, float]


def circle_corners(r: int) -> np.ndarray:
    """Unit-circle images of the r categories, shape (r, 2)."""
    angles = 2.0 * np.pi * np.arange(r) / r
    return np.column_stack([np.cos(angles), np.sin(angles)])


def ifs_circle_transform(
    series: CategoricalSeries, alpha: float, beta: float, f0: tuple[float, float] = (0.0, 0.0)
) -> FractalSeries:
    """Iterated-function-system embedding of the series into the plane."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    start = np.asarray(f0, dtype=float)
    if start.shape != (2,) or not np.all(np.isfinite(start)):
        raise ValueError("f0 must be a finite 2-D point")
    targets = circle_corners(series.alphabet.size)[series.codes - 1]
    points = _recursion(targets, start, lambda p, x: alpha * p + beta * x)
    return FractalSeries(points, alpha, beta, (float(f0[0]), float(f0[1])))


@dataclass(frozen=True, eq=False)
class DependenceTable:
    """Per-lag estimates with their test critical values (one row per lag)."""

    family: str
    alpha: float
    lags: np.ndarray
    estimates: np.ndarray
    lower: float | None
    upper: float


def dependence_plot_data(
    series: CategoricalSeries, family: str = "cramers_v", max_lag: int = 10, alpha: float = 0.05
) -> DependenceTable:
    """Estimates of v or kappa at lags 1..max_lag plus critical limits."""
    report = TEST_FAMILIES[family](series, max_lag, alpha)
    return DependenceTable(
        report.family, alpha, report.lags, report.estimates, report.lower_critical, report.upper_critical
    )


@dataclass(frozen=True, eq=False)
class ControlChart:
    """Standardized monitoring statistics with their alarm flags.

    ``kind`` is one of ``cycle_length``, ``ewma_marginal`` (statistics has
    one column per category) or ``ewma_minmax`` (two columns: min, max).
    ``statistics`` is standardized so the alarm rule is |T| > 1; ``alarms``
    has the same shape and flags every out-of-control statistic.
    Kind-specific raw material (cycle values and limits, or the EWMA path)
    is kept for rendering and inspection.
    """

    kind: str
    times: np.ndarray
    statistics: np.ndarray
    alarms: np.ndarray
    labels: tuple[str, ...]
    values: np.ndarray | None = None  # cycle chart: observed lengths C_t
    center: float | None = None
    lcl: float | None = None
    ucl: float | None = None
    ewma_path: np.ndarray | None = None
    in_control: np.ndarray | None = None
    lam: float | None = None
    k_factor: float | None = None


def geometric_quantile(u: float, p: float) -> int:
    """Smallest k >= 1 with P(C <= k) >= u for C geometric on {1, 2, ...}."""
    if not 0.0 < p < 1.0:
        raise ValueError("success probability must lie in (0, 1)")
    if u <= 0.0:
        return 1
    if u >= 1.0:
        raise ValueError("quantile level must be below 1")
    return max(1, math.ceil(math.log1p(-u) / math.log1p(-p)))


def cycle_length_chart(
    series: CategoricalSeries, category, alpha: float = 0.01, p: float | None = None
) -> ControlChart:
    """Control chart of the cycle lengths of one category.

    In-control model: occurrences are i.i.d. with probability ``p``
    (default: the estimated marginal), so cycle lengths are geometric with
    mean 1/p; the limits are the alpha/2 and 1-alpha/2 geometric quantiles.
    The monitoring time of a cycle is the time at which it closes.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    code = _resolve_category(series, category)
    records, _ = cycle_lengths(series, code)
    if not records:
        raise ValueError("category closes no cycle: needs at least two occurrences")
    if p is None:
        p = float(np.count_nonzero(series.codes == code) / len(series))
    if not 0.0 < p < 1.0:
        raise ValueError("in-control probability must lie in (0, 1)")
    times = np.array([rec.start + rec.length for rec in records])
    values = np.array([rec.length for rec in records], dtype=float)
    mu = 1.0 / p
    lcl = float(geometric_quantile(alpha / 2.0, p))
    ucl = float(geometric_quantile(1.0 - alpha / 2.0, p))
    stats = standardized_statistics(values, mu, lcl, ucl)
    return ControlChart(
        kind="cycle_length",
        times=times,
        statistics=stats,
        alarms=np.abs(stats) > 1.0,
        labels=(series.alphabet.label(code),),
        values=values,
        center=mu,
        lcl=lcl,
        ucl=ucl,
    )


def standardized_statistics(values: np.ndarray, center: float, lcl: float, ucl: float) -> np.ndarray:
    """Deviation from center scaled per side by the limit distance.

    A zero-width side (limit equal to the center) cannot absorb deviations:
    values beyond it map straight to an alarming +/-2.
    """
    dev = values - center
    lower_width = abs(lcl - center)
    upper_width = abs(ucl - center)
    t_low = np.where(dev < 0, -2.0 if lower_width == 0 else dev / lower_width, 0.0)
    t_up = np.where(dev > 0, 2.0 if upper_width == 0 else dev / upper_width, 0.0)
    return np.minimum(t_low, 0.0) + np.maximum(t_up, 0.0)


def ewma_marginal_chart(
    series: CategoricalSeries,
    lam: float = 0.9,
    c=None,
    k: float = 3.0,
    collapse: bool = False,
) -> ControlChart:
    """EWMA monitoring of the marginal distribution.

    The EWMA estimator pi_t = lam * pi_{t-1} + (1 - lam) * Y_t starts at the
    in-control marginal ``c`` (default: the estimated marginal; every entry
    must be strictly inside (0, 1)).  Under an i.i.d. in-control model with
    marginal c its variance is
    sigma_{t,i}^2 = c_i (1 - c_i) (1 - lam) (1 - lam^{2t}) / (1 + lam),
    and T_{t,i} = (pi_{t,i} - c_i) / (k sigma_{t,i}).  With ``collapse``
    only min_i T_{t,i} and max_i T_{t,i} are reported, which keeps charts
    readable for large alphabets.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if not 0.0 < k < np.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    r = series.alphabet.size
    if c is None:
        c = np.bincount(series.codes, minlength=r + 1)[1:] / len(series)
    c = np.asarray(c, dtype=float)
    if c.shape != (r,) or not np.all(np.isfinite(c)) or abs(c.sum() - 1.0) > 1e-9:
        raise ValueError("c must be a finite probability vector over the alphabet")
    if np.any(c <= 0.0) or np.any(c >= 1.0):
        raise ValueError("every in-control probability must lie strictly inside (0, 1)")

    T = len(series)
    pi = _recursion(binarize(series), c, lambda p, x: lam * p + (1.0 - lam) * x)

    t_idx = np.arange(1, T + 1)[:, None]
    sigma = np.sqrt(c * (1.0 - c) * (1.0 - lam) * (1.0 - lam ** (2 * t_idx)) / (1.0 + lam))
    stats = (pi - c) / (k * sigma)

    labels = series.alphabet.symbols
    if collapse:
        stats = np.column_stack([stats.min(axis=1), stats.max(axis=1)])
        labels = ("min", "max")
        kind = "ewma_minmax"
    else:
        kind = "ewma_marginal"
    return ControlChart(
        kind=kind,
        times=np.arange(1, T + 1),
        statistics=stats,
        alarms=np.abs(stats) > 1.0,
        labels=labels,
        ewma_path=pi,
        in_control=c,
        lam=lam,
        k_factor=k,
    )
