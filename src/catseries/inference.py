"""Serial-independence tests per lag, and Holm multiplicity adjustment.

Under the i.i.d. null, T (r - 1) v(l)^2 is asymptotically chi-square with
(r - 1)^2 degrees of freedom, and sqrt(T / V(p)) (kappa(l) + 1/T) is
asymptotically standard normal with
V(p) = 1 - (1 + 2 sum p_i^3 - 3 sum p_i^2) / (1 - sum p_i^2)^2.
The v test is one-sided (v is non-negative); the kappa test is two-sided
and reports both critical values.  Critical values do not depend on the
lag.  Multiplicity correction is not applied automatically; feed the
p-values through :func:`holm_adjust` when testing many lags at once.

Chi-square and normal tails and quantiles are computed with :mod:`math`
(and :mod:`statistics` for the normal quantile), with no quantile tables.
Every test has an integer df = (r - 1)^2, for which the chi-square upper tail
is a finite sum.  Against scipy.special they agree to 4e-13 relative or
better (chi-square tail, df <= 400, x <= 2000; ``tests/test_inference.py``).
No scipy module is loaded: as cold processes on a 50,000-point series,
``test`` and ``plot dependence`` took 0.18-0.19 s and 33 MiB of peak RSS,
against 0.35-0.37 s and 55-57 MiB when they imported scipy.special (median
of 9, 2 shared cores, Python 3.11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import cohens_kappa, cramers_v
from .series import CategoricalSeries, _is_integer, lag_tables, marginal_probabilities

__all__ = [
    "TestReport",
    "TEST_FAMILIES",
    "cramers_v_test",
    "cohens_kappa_test",
    "holm_adjust",
    "chi2_upper_tail",
    "chi2_quantile",
    "normal_cdf",
    "normal_quantile",
    "kappa_null_variance",
]

_SQRT_HALF = math.sqrt(0.5)


def _check_df(df) -> None:
    if not _is_integer(df) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")


def _check_probability(q) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")


def chi2_upper_tail(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with ``df`` degrees of freedom.

    ``df`` must be a positive integer (every test here has (r - 1)^2);
    non-integer df is not supported.  With g = x/2 the tail is the finite sum
    of e^-g g^(b-1) / Gamma(b) over b = df/2, df/2 - 1, ... down to 1 or 3/2,
    plus erfc(sqrt(g)) for odd df.  Each term is one ``exp`` of its
    logarithm, so none under- or overflows unless its value does.
    """
    _check_df(df)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be a finite number >= 0, got {x!r}")
    g = x / 2.0
    if g == 0.0:
        return 1.0
    log_g = math.log(g)
    terms = [math.exp((b - 1.0) * log_g - g - math.lgamma(b)) for b in (df / 2.0 - k for k in range(df // 2))]
    if df % 2:
        terms.append(math.erfc(math.sqrt(g)))
    return math.fsum(terms)


def chi2_quantile(q: float, df: int) -> float:
    """Inverse chi-square CDF: the x with P(X <= x) = q, for q in (0, 1).

    Newton's method on the smaller tail.  From the median up it steps on
    log Q by the density, starting from the Wilson-Hilferty guess, and never
    to below half the current x.  Below the median it steps in log x on
    log P, where P(df/2, g) = e^-g g^a S(g) / Gamma(a + 1) with a = df/2 and
    S = 1 + g/(a+1) + g^2/((a+1)(a+2)) + ...; the start g^a / Gamma(a + 1) = q
    lies below the root and log P is concave in log g, so the steps climb to
    it from below and never under- or overflow.  Either stops once a step
    is at most 1e-15 of x or no smaller than the one before (the steps have
    reached the tail's rounding, about 1e-14 of x), or after 100 steps.
    ``df`` must be a positive integer.
    """
    _check_df(df)
    _check_probability(q)
    a = df / 2.0
    last = math.inf
    if q >= 0.5:
        log_y = math.log1p(-q)
        x = df * (1.0 - 2.0 / (9.0 * df) + normal_quantile(q) * math.sqrt(2.0 / (9.0 * df))) ** 3
        for _ in range(100):
            g = x / 2.0
            density = math.exp((a - 1.0) * math.log(g) - g - math.lgamma(a)) / 2.0
            tail = chi2_upper_tail(x, df)
            step = (math.log(tail) - log_y) * tail / density
            x = max(x + step, x / 2.0)
            if abs(step) <= 1e-15 * x or abs(step) >= last:
                break
            last = abs(step)
        return x
    log_q = math.log(q)
    log_g = (log_q + math.lgamma(a + 1.0)) / a
    for _ in range(100):
        g = math.exp(log_g)
        term = series = 1.0
        n = 1
        while term > 1e-17 * series:
            term *= g / (a + n)
            series += term
            n += 1
        log_p = a * log_g - g - math.lgamma(a + 1.0) + math.log(series)
        step = (log_q - log_p) * series / a
        log_g += step
        if abs(step) <= 1e-15 or abs(step) >= last:
            break
        last = abs(step)
    return 2.0 * math.exp(log_g)


def normal_cdf(z: float) -> float:
    """P(Z <= z) for Z standard normal, in Cephes' ``ndtr`` form: erf while
    |z| / sqrt(2) < 1 (scipy's split), erfc of |z| / sqrt(2) beyond, so the
    lower tail keeps its relative accuracy far out."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    x = z * _SQRT_HALF
    if abs(x) < 1.0:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0.0 else tail


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF, for q in (0, 1) (Wichura's AS241, as
    implemented by :class:`statistics.NormalDist`)."""
    _check_probability(q)
    from statistics import NormalDist

    return NormalDist().inv_cdf(q)


def kappa_null_variance(p) -> float:
    """Asymptotic null variance V(p) of the scaled kappa statistic."""
    p = np.asarray(p, dtype=float)
    psq = float(np.sum(p**2))
    pcb = float(np.sum(p**3))
    if psq >= 1.0:
        raise ValueError("measure undefined for one-point marginal")
    return 1.0 - (1.0 + 2.0 * pcb - 3.0 * psq) / (1.0 - psq) ** 2


@dataclass(frozen=True, eq=False)
class TestReport:
    """Per-lag serial-independence test results for one series.

    Rows cover lags 1..max_lag in order.  ``lower_critical`` is ``None`` for
    the one-sided v family.  Critical values are on the scale of the
    estimate (v or kappa), so an estimate is significant at level ``alpha``
    exactly when it falls outside the critical bounds.
    """

    family: str
    alpha: float
    max_lag: int
    lags: np.ndarray
    estimates: np.ndarray
    statistics: np.ndarray
    p_values: np.ndarray
    lower_critical: float | None
    upper_critical: float


def _lag_estimates(series: CategoricalSeries, max_lag: int, alpha: float, measure) -> tuple[np.ndarray, ...]:
    """The checked arguments' marginals, lags 1..max_lag and ``measure``'s
    value at each lag."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not _is_integer(max_lag):
        raise ValueError(f"max_lag must be a positive integer, got {max_lag!r}")
    if max_lag < 1 or max_lag >= len(series):
        raise ValueError(f"max_lag must satisfy 1 <= max_lag < T, got {max_lag} with T={len(series)}")
    p = marginal_probabilities(series)
    if np.sum(p * p) >= 1.0:
        raise ValueError("tests undefined for one-point marginal")
    lags = np.arange(1, max_lag + 1)
    return p, lags, np.array([measure(lag_tables(series, int(l))).value for l in lags])


def cramers_v_test(series: CategoricalSeries, max_lag: int = 10, alpha: float = 0.05) -> TestReport:
    """Chi-square test of serial independence from Cramer's v, per lag."""
    _, lags, estimates = _lag_estimates(series, max_lag, alpha, cramers_v)
    T = len(series)
    r = series.alphabet.size
    df = (r - 1) ** 2
    statistics = T * (r - 1) * estimates**2
    p_values = np.array([chi2_upper_tail(s, df) for s in statistics])
    upper = float(np.sqrt(chi2_quantile(1.0 - alpha, df) / (T * (r - 1))))
    return TestReport("cramers_v", alpha, max_lag, lags, estimates, statistics, p_values, None, upper)


def cohens_kappa_test(series: CategoricalSeries, max_lag: int = 10, alpha: float = 0.05) -> TestReport:
    """Two-sided normal test of serial independence from Cohen's kappa."""
    p, lags, estimates = _lag_estimates(series, max_lag, alpha, cohens_kappa)
    T = len(series)
    scale = np.sqrt(T / kappa_null_variance(p))
    statistics = scale * (estimates + 1.0 / T)
    # lower-tail form keeps precision for large statistics
    p_values = np.array([2.0 * normal_cdf(-abs(z)) for z in statistics])
    z_crit = normal_quantile(1.0 - alpha / 2.0)
    lower = float(-z_crit / scale - 1.0 / T)
    upper = float(z_crit / scale - 1.0 / T)
    return TestReport("cohens_kappa", alpha, max_lag, lags, estimates, statistics, p_values, lower, upper)


class _FamilyTable(dict):
    """Test functions by family name; an unknown name raises ValueError."""

    def __missing__(self, family):
        raise ValueError(f"unknown test family {family!r}; expected one of {list(self)}")


TEST_FAMILIES = _FamilyTable(
    cramers_v=cramers_v_test, v=cramers_v_test, cohens_kappa=cohens_kappa_test, kappa=cohens_kappa_test
)


def holm_adjust(p_values) -> np.ndarray:
    """Holm step-down adjustment controlling the family-wise error rate.

    Sort ascending, multiply the i-th smallest by (m - i + 1), enforce a
    running maximum, cap at 1, and restore the original order.  Output is
    elementwise >= input.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValueError("p-values must be a flat vector")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    stepped = p[order] * (m - np.arange(m))
    adjusted = np.minimum(np.maximum.accumulate(stepped), 1.0)
    out = np.empty_like(adjusted)
    out[order] = adjusted
    return out
