"""Data behind the exploratory and monitoring plots for categorical series.

Each function returns a small structured object that ``svg`` turns into a
chart (``render_svg``) and into the ``--table`` CSV columns (``plot_table``);
nothing here draws.  Monitoring charts follow the standardized-statistic
convention: deviations are scaled by the distance from the center to the
control limit on the relevant side, so an out-of-control alarm is flagged
exactly when |T| > 1 (the boundary itself does not alarm).

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

from .inference import TEST_FAMILIES, TestReport
from .series import CategoricalSeries, _is_integer, marginal_probabilities

__all__ = [
    "RateEvolution",
    "CycleRecord",
    "PatternHistogram",
    "FractalSeries",
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
    counts = np.cumsum(np.eye(series.alphabet.size, dtype=np.int64)[series.codes - 1], axis=0)
    return RateEvolution(counts, series.alphabet.symbols)


class CycleRecord(NamedTuple):
    """One return of a category to itself: starts at time ``start`` (1-based)
    and closes ``length`` steps later, with no occurrence in between."""

    category: int
    start: int
    length: int


@dataclass(frozen=True, eq=False)
class PatternHistogram:
    """Cycle-length counts for one category, which occurs ``occurrences``
    times and so closes ``max(occurrences - 1, 0)`` cycles."""

    category: int
    label: str
    counts: dict[int, int]  # length -> number of cycles, keys sorted
    occurrences: int


def _occurrences(series: CategoricalSeries, category) -> tuple[int, np.ndarray]:
    """The code of ``category`` (a label or a 1-based code) and the 1-based
    times at which it occurs; each two consecutive times bound one cycle."""
    if isinstance(category, str):
        code = series.alphabet.code(category)
    elif _is_integer(category):
        code = int(category)
    else:
        raise ValueError(f"category {category!r} is neither a label nor an integer code")
    if not 1 <= code <= series.alphabet.size:
        raise ValueError(f"category code {code} outside 1..{series.alphabet.size}")
    return code, np.flatnonzero(series.codes == code) + 1


def cycle_lengths(series: CategoricalSeries, category) -> tuple[list[CycleRecord], PatternHistogram]:
    """All cycles of one category, plus their length histogram.

    ``category`` may be a label or a 1-based code.  A category occurring
    fewer than two times closes no cycle; the result is then empty.
    """
    code, positions = _occurrences(series, category)
    lengths = np.diff(positions)
    records = [CycleRecord(code, *cycle) for cycle in zip(positions[:-1].tolist(), lengths.tolist())]
    keys, counts = np.unique(lengths, return_counts=True)
    histogram = dict(zip(keys.tolist(), counts.tolist()))
    return records, PatternHistogram(code, series.alphabet.label(code), histogram, positions.size)


def _warm_steps(scale: float) -> int:
    """Steps a span of :func:`_recursion` walks from its guessed start before
    its first row: twice the steps after which ``scale ** n`` falls below
    2**-64, plus 32."""
    return 2 * math.ceil(64 * math.log(2) / -math.log(scale)) + 32


def _walk(inputs: np.ndarray, start: np.ndarray, scale: float) -> np.ndarray:
    """Path of ``prev = scale * prev + x`` down each column, one C-driven
    :func:`itertools.accumulate` per column over Python floats."""
    columns = zip(inputs.T.tolist(), start.tolist())
    return np.column_stack([list(accumulate(col, lambda p, x: scale * p + x, initial=s))[1:] for col, s in columns])


def _recursion(inputs: np.ndarray, start: np.ndarray, scale: float) -> np.ndarray:
    """Path of ``prev = scale * prev + x`` down each column of ``inputs``
    (T, m) from ``start[j]``, as a fresh (T, m) array with the same bits as
    the per-step loop.

    A long path is cut into spans of ``span`` rows.  Every span but the
    first starts from the guess ``start`` ``warm`` rows before its first
    row; the first starts at row 0 from the true ``start``.  All spans walk
    together, one multiply and one add per step over a (spans, m) array.
    Then, in order, each span's guessed state at its entry is compared, bit
    for bit, with the state the span before it ends on; a span whose bits
    differ is walked again from that state, one step at a time.  Each step
    is the same IEEE multiply and add as in the per-step loop, so a span
    that enters on the true bits yields the true bits, and by induction
    over the spans the whole path is exact.  The warm-up only makes a
    mismatch rare.  A short path, or a ``scale`` so close to 1 that the
    warm-up is long, is walked one step at a time throughout.
    """
    T = inputs.shape[0]
    warm = _warm_steps(scale)
    span = max(warm, 512)
    if T < 4 * (warm + span):
        return _walk(inputs, start, scale)
    spans = -(-T // span)
    # the warm-up of spans 1.. ends on their guessed entries: span i reads
    # row (i - 1) * span + j at step j
    guessed = np.tile(start, (spans - 1, 1))
    for j in range(span - warm, span):
        np.multiply(guessed, scale, out=guessed)
        np.add(guessed, inputs[j:(spans - 1) * span:span], out=guessed)
    path = np.empty(inputs.shape)
    prev = np.vstack([start, guessed])
    for j in range(span):
        row = path[j::span]  # step j of every span that reaches it
        np.multiply(prev[:row.shape[0]], scale, out=row)
        np.add(row, inputs[j::span], out=row)
        prev = row
    for i in range(1, spans):
        entry = path[i * span - 1]
        if not np.array_equal(guessed[i - 1].view(np.uint64), entry.view(np.uint64)):
            path[i * span:(i + 1) * span] = _walk(inputs[i * span:(i + 1) * span], entry, scale)
    return path


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
    if not math.isfinite(2.0 * beta / (1.0 - alpha)):
        raise ValueError(f"alpha={alpha} and beta={beta} give the points' bound beta / (1 - alpha) "
                         f"= {beta / (1.0 - alpha)}, whose span 2 beta / (1 - alpha) is not finite")
    start = np.asarray(f0, dtype=float)
    if start.shape != (2,) or not np.all(np.isfinite(start)):
        raise ValueError("f0 must be a finite 2-D point")
    # beta * x is formed once per corner in numpy, with the same rounding as per step
    points = _recursion((beta * circle_corners(series.alphabet.size))[series.codes - 1], start, alpha)
    return FractalSeries(points, alpha, beta, (float(f0[0]), float(f0[1])))


def dependence_plot_data(
    series: CategoricalSeries, family: str = "cramers_v", max_lag: int = 10, alpha: float = 0.05
) -> TestReport:
    """The test report of v or kappa at lags 1..max_lag: the estimates the
    dependence plot draws and the critical limits it draws them against."""
    return TEST_FAMILIES[family](series, max_lag, alpha)


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
    code, positions = _occurrences(series, category)
    if positions.size < 2:
        raise ValueError(f"category {series.alphabet.label(code)!r} closes no cycle: "
                         f"needs at least two occurrences, has {positions.size}")
    if p is None:
        p = float(marginal_probabilities(series)[code - 1])
    if not 0.0 < p < 1.0:
        raise ValueError("in-control probability must lie in (0, 1)")
    times = positions[1:]
    values = np.diff(positions).astype(float)
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
        c = marginal_probabilities(series)
    c = np.asarray(c, dtype=float)
    if c.shape != (r,) or not np.all(np.isfinite(c)) or abs(c.sum() - 1.0) > 1e-9:
        raise ValueError("c must be a finite probability vector over the alphabet")
    if np.any(c <= 0.0) or np.any(c >= 1.0):
        raise ValueError("every in-control probability must lie strictly inside (0, 1)")

    T = len(series)
    # (1 - lam) * Y_t is formed once per category in numpy, with the same rounding as per step
    pi = _recursion(((1.0 - lam) * np.eye(r))[series.codes - 1], c, lam)

    # lam ** (2t) is exactly 0 for every t > cut (below 2**-1076): those rows share the factor 1.0 = 1 - 0
    cut = min(T, math.ceil(1076 / (-2 * math.log2(lam))))
    factor = np.append(1.0 - lam ** (2 * np.arange(1, cut + 1)), 1.0)[:, None]
    scale = k * np.sqrt(c * (1.0 - c) * (1.0 - lam) * factor / (1.0 + lam))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        stats = pi - c
        stats[:cut] /= scale[:cut]
        stats[cut:] /= scale[cut]
    if not np.all(np.isfinite(stats)):
        raise ValueError(f"k={k} makes the standardized statistics (pi - c) / (k * sigma) non-finite")

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
