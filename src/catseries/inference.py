"""Serial-independence tests per lag, and Holm multiplicity adjustment.

Under the i.i.d. null, T (r - 1) v(l)^2 is asymptotically chi-square with
(r - 1)^2 degrees of freedom, and sqrt(T / V(p)) (kappa(l) + 1/T) is
asymptotically standard normal with
V(p) = 1 - (1 + 2 sum p_i^3 - 3 sum p_i^2) / (1 - sum p_i^2)^2.
The v test is one-sided (v is non-negative); the kappa test is two-sided
and reports both critical values.  Critical values do not depend on the
lag.  Multiplicity correction is not applied automatically; feed the
p-values through :func:`holm_adjust` when testing many lags at once.

Chi-square and normal tails/quantiles are evaluated through the regularized
incomplete gamma function and the error function (via scipy.special), whose
relative accuracy is far below the 1e-10 target; no quantile tables are
baked in.
"""

from __future__ import annotations

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


def chi2_upper_tail(x: float, df: float) -> float:
    """P(X >= x) for X chi-square with df degrees of freedom."""
    from scipy import special

    return float(special.gammaincc(df / 2.0, x / 2.0))


def chi2_quantile(q: float, df: float) -> float:
    """Inverse chi-square CDF."""
    from scipy import special

    return float(2.0 * special.gammaincinv(df / 2.0, q))


def normal_cdf(z: float) -> float:
    from scipy import special

    return float(special.ndtr(z))


def normal_quantile(q: float) -> float:
    from scipy import special

    return float(special.ndtri(q))


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
