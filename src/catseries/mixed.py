"""Cross-dependence between a categorical series and a numeric series.

The two series must be aligned index by index.  For lag l >= 0 the
category indicator at time t is paired with the numeric value at t - l;
negative lags mirror the alignment.  Marginal probabilities and the numeric
variance/quantiles are estimated from the full series (variance with
divisor T); covariances are taken over the overlapping window with the
window length as divisor.
"""

from __future__ import annotations

import numpy as np

from .series import CategoricalSeries, _is_integer, binarize, marginal_probabilities

__all__ = [
    "DEFAULT_RHO_GRID",
    "mixed_cross_correlation",
    "mixed_quantile_cross_correlation",
    "total_mixed_cor",
    "total_mixed_qcor",
    "quantile_level_integral",
]

# 19 equispaced quantile levels; the open-interval integral over (0, 1) is
# closed by holding the integrand constant on [0, 0.05] and [0.95, 1].
DEFAULT_RHO_GRID = np.round(np.linspace(0.05, 0.95, 19), 10)


def _checked_numeric(cat: CategoricalSeries, num) -> np.ndarray:
    z = np.asarray(num, dtype=float)
    if z.ndim != 1 or z.size != len(cat):
        raise ValueError("numeric series must be one-dimensional and aligned with the categorical series")
    if not np.all(np.isfinite(z)):
        raise ValueError("numeric series must be finite")
    return z


def _levels(rho) -> np.ndarray:
    """``rho`` as a 1-D float array of quantile levels; a level outside
    (0, 1), NaN included, is rejected by value."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size == 0:
        raise ValueError(f"rho grid must be a non-empty list of levels, got shape {rho.shape}")
    outside = rho[~((rho > 0.0) & (rho < 1.0))]
    if outside.size:
        raise ValueError(f"rho grid must lie strictly inside (0, 1), got level {outside[0]}")
    return rho


def _correlations(cat: CategoricalSeries, rows: np.ndarray, lag: int, variance_factors) -> np.ma.MaskedArray:
    """Entry (i, k): cov(Y_{t,i}, rows[k]_{t-lag}) over the overlapping window,
    divided by sqrt(p_i (1 - p_i) f_1[k] f_2[k] ...), the rows f_j of
    ``variance_factors`` multiplied in order; categories with p_i 0 or 1 masked."""
    T = len(cat)
    if not _is_integer(lag):
        raise ValueError(f"lag must be an integer, got {lag!r}")
    if abs(lag) >= T:
        raise ValueError("lag exceeds series length")
    y = binarize(cat)
    y, rows = (y[lag:], rows[:, : T - lag]) if lag >= 0 else (y[: T + lag], rows[:, -lag:])
    yc = y - y.mean(axis=0)  # centred rows too: no cancellation at a large offset
    p = marginal_probabilities(cat)
    var = p * (1.0 - p)
    scale = var[:, None]
    for factor in variance_factors:
        scale = scale * factor
    values = np.column_stack([(yc.T @ (row - row.mean())) / row.size for row in rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        values = values / np.sqrt(scale)
    mask = np.broadcast_to((var == 0.0)[:, None], values.shape)
    return np.ma.MaskedArray(np.where(mask, 0.0, values), mask=mask)


def mixed_cross_correlation(cat: CategoricalSeries, num, lag: int = 0) -> np.ma.MaskedArray:
    """Correlation of each category indicator with the lagged numeric series.

    Entry i is cov(Y_{t,i}, Z_{t-lag}) / sqrt(p_i (1 - p_i) var(Z)).
    Categories whose marginal probability is 0 or 1 have a constant
    indicator; their entries are masked.  Raises for a constant numeric
    series.
    """
    z = _checked_numeric(cat, num)
    sigma2 = float(np.var(z))
    if sigma2 <= 0.0:
        raise ValueError("degenerate numeric series: zero sample variance")
    return _correlations(cat, z[None, :], lag, [[sigma2]])[:, 0]


def mixed_quantile_cross_correlation(
    cat: CategoricalSeries, num, lag: int = 0, rho_grid=None
) -> np.ma.MaskedArray:
    """Quantile analogue: indicators against threshold exceedances of Z.

    For each level rho, Z is reduced to the indicator of Z <= q(rho) with
    q the full-series sample quantile (linear interpolation of order
    statistics), and entry (i, k) is
    cov(Y_{t,i}, 1(Z_{t-lag} <= q(rho_k))) / sqrt(p_i (1 - p_i) rho_k (1 - rho_k)).
    Returns a masked (r, len(rho_grid)) array, masked rows as above.
    """
    z = _checked_numeric(cat, num)
    rho = _levels(DEFAULT_RHO_GRID if rho_grid is None else rho_grid)
    exceed = (z <= np.quantile(z, rho)[:, None]).astype(float)
    return _correlations(cat, exceed, lag, [rho, 1.0 - rho])


def total_mixed_cor(cat: CategoricalSeries, num, lag: int = 0) -> float:
    """Mean squared mixed cross-correlation over categories."""
    psi = mixed_cross_correlation(cat, num, lag)
    if psi.mask.any():
        raise ValueError("total mixed correlation undefined: a category has degenerate marginal probability")
    values = np.asarray(psi)
    return float(np.mean(values * values))


def quantile_level_integral(values, rho) -> float:
    """Integral of a function of the quantile level over (0, 1).

    Trapezoid rule on the grid, extended by holding the first and last
    values constant down to 0 and up to 1; a level-constant integrand
    therefore integrates exactly.
    """
    f = np.asarray(values, dtype=float)
    rho = _levels(rho)
    if rho.size < 2:
        raise ValueError("rho grid needs at least two levels")
    if np.any(np.diff(rho) <= 0):
        raise ValueError("rho grid must be strictly increasing")
    if f.shape[-1] != rho.size:
        raise ValueError("values and rho grid must have matching length")
    return np.trapezoid(f, rho, axis=-1) + f[..., 0] * rho[0] + f[..., -1] * (1.0 - rho[-1])


def total_mixed_qcor(cat: CategoricalSeries, num, lag: int = 0, rho_grid=None) -> float:
    """Mean over categories of the integrated squared quantile correlation.

    The integral over rho in (0, 1) uses :func:`quantile_level_integral`.
    """
    rho = DEFAULT_RHO_GRID if rho_grid is None else np.asarray(rho_grid, dtype=float)
    psi = mixed_quantile_cross_correlation(cat, num, lag, rho)
    if psi.mask.any():
        raise ValueError("total mixed q-correlation undefined: a category has degenerate marginal probability")
    integrals = quantile_level_integral(np.asarray(psi) ** 2, rho)
    return float(np.mean(integrals))
