"""Lag-indexed association measures for a categorical series.

Every function takes the :class:`~catseries.series.LagTables` of one series
at one lag and returns a :class:`SerialMeasureResult` holding the scalar
estimate plus, where meaningful, the per-component terms the estimate is
built from.  The component layout and how the scalar is recovered from the
components are documented per function; results never clamp sample values
into the population range (small-sample estimates may fall outside it).

Given the tables of a corpus (:func:`~catseries.series.corpus_lag_tables`),
they measure every series at once, row k with the bits series k alone gives,
and raise when the measure is undefined for any series.

Throughout, ``p`` denotes the marginal probability vector (full-series
counts over T) and ``p_ij`` the lagged joint table (pair counts over
T - lag); cells whose independence factorization ``p_i p_j`` is zero cannot
deviate from it and contribute 0 to the chi-square style sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import _masked_sums
from .series import LagTables

__all__ = [
    "SerialMeasureResult",
    "PsiMatrix",
    "gk_tau",
    "gk_lambda",
    "uncertainty_coefficient",
    "pearson_measure",
    "phi2_measure",
    "sakoda_measure",
    "cramers_v",
    "cohens_kappa",
    "psi_matrix",
    "total_correlation",
]

@dataclass(frozen=True, eq=False)
class SerialMeasureResult:
    """Scalar association estimate at one lag, with optional components.

    ``components`` is a flat vector; ``component_labels`` names each entry
    with 1-based category indices ("j=2" for per-category terms, "i=1,j=2"
    for per-cell terms, rows = current category, columns = past category).
    Measures for which no component expansion is defined carry ``None``.
    For the tables of a corpus, ``value`` is an (n,) array and
    ``components`` an (n, k) array with one row per series.
    """

    measure: str
    lag: int
    value: float | np.ndarray
    components: np.ndarray | None = None
    component_labels: tuple[str, ...] | None = None


@dataclass(frozen=True, eq=False)
class PsiMatrix:
    """Correlations between current and lagged one-hot components.

    ``values`` is a masked r x r array (n x r x r for the tables of a
    corpus); entry (i, j) correlates the indicator of category i now with
    the indicator of category j ``lag`` steps back.  Entries involving a
    category with marginal probability 0 or 1 are masked (the indicator is
    constant, so the correlation is undefined).
    """

    lag: int
    values: np.ma.MaskedArray


def _cell_labels(r: int) -> tuple[str, ...]:
    return tuple(f"i={i},j={j}" for i in range(1, r + 1) for j in range(1, r + 1))


def _col_labels(r: int) -> tuple[str, ...]:
    return tuple(f"j={j}" for j in range(1, r + 1))


def _result(measure: str, tables: LagTables, value, components=None, labels=None) -> SerialMeasureResult:
    """The result of one series (float value) or of a corpus (array value)."""
    return SerialMeasureResult(measure, tables.lag, value if np.ndim(value) else float(value), components, labels)


def _outer(p: np.ndarray) -> np.ndarray:
    """p_i p_j over the last axis: (..., r) -> (..., r, r)."""
    return p[..., :, None] * p[..., None, :]


def _cells(values: np.ndarray) -> np.ndarray:
    """(..., r, r) -> (..., r * r), rows of the table one after the other."""
    return values.reshape(values.shape[:-2] + (-1,))


def _require_dispersed(p: np.ndarray) -> None:
    if np.any(np.sum(p * p, axis=-1) >= 1.0):
        raise ValueError("measure undefined for one-point marginal")


def gk_tau(tables: LagTables) -> SerialMeasureResult:
    """Goodman and Kruskal's tau.

    value = (sum(components) - sum(p^2)) / (1 - sum(p^2)), where component j
    is sum_i p_ij^2 / p_j (0 for never-observed past categories).
    """
    p = tables.marginals
    _require_dispersed(p)
    # each column summed as a contiguous row, so numpy groups its pairwise sum as for one series
    squares = np.ascontiguousarray(np.swapaxes(tables.joint, -1, -2)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        per_j = np.where(p > 0, squares.sum(axis=-1) / p, 0.0)
    psq = np.sum(p * p, axis=-1)
    value = (per_j.sum(axis=-1) - psq) / (1.0 - psq)
    return _result("gk_tau", tables, value, per_j, _col_labels(tables.n_categories))


def gk_lambda(tables: LagTables) -> SerialMeasureResult:
    """Goodman and Kruskal's lambda.

    value = (sum(components) - max(p)) / (1 - max(p)), component j being the
    largest joint entry in column j.
    """
    p_max = tables.marginals.max(axis=-1)
    if np.any(p_max >= 1.0):
        raise ValueError("measure undefined for one-point marginal")
    col_max = tables.joint.max(axis=-2)
    value = (col_max.sum(axis=-1) - p_max) / (1.0 - p_max)
    return _result("gk_lambda", tables, value, col_max, _col_labels(tables.n_categories))


def uncertainty_coefficient(tables: LagTables) -> SerialMeasureResult:
    """Uncertainty coefficient: mutual information over marginal entropy.

    Zero joint cells contribute 0 (0 ln 0 convention).  No component
    expansion is defined for this measure.
    """
    p = tables.marginals
    _require_dispersed(p)
    joint = _cells(tables.joint)
    with np.errstate(divide="ignore", invalid="ignore"):
        mutual = _masked_sums(joint * np.log(joint / _cells(_outer(p))), joint > 0)
        denom = -_masked_sums(p * np.log(p), p > 0)
    return _result("uncertainty", tables, mutual / denom)


def _phi2_cells(tables: LagTables) -> np.ndarray:
    expected = _outer(tables.marginals)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = np.where(expected > 0, (tables.joint - expected) ** 2 / expected, 0.0)
    return _cells(cells)


def pearson_measure(tables: LagTables) -> SerialMeasureResult:
    """Pearson chi-square style measure X^2.

    value = n * sum(components) with n the number of lagged pairs (T - lag);
    components are the r^2 cell terms (p_ij - p_i p_j)^2 / (p_i p_j).
    """
    cells = _phi2_cells(tables)
    value = tables.n_pairs * cells.sum(axis=-1)
    return _result("pearson", tables, value, cells, _cell_labels(tables.n_categories))


def phi2_measure(tables: LagTables) -> SerialMeasureResult:
    """Phi-square: the Pearson measure per lagged pair, value = sum(components)."""
    cells = _phi2_cells(tables)
    return _result("phi2", tables, cells.sum(axis=-1), cells, _cell_labels(tables.n_categories))


def sakoda_measure(tables: LagTables) -> SerialMeasureResult:
    """Sakoda measure sqrt(r phi2 / ((r-1)(1 + phi2))).  No components."""
    phi2 = phi2_measure(tables).value
    r = tables.n_categories
    return _result("sakoda", tables, np.sqrt(r * phi2 / ((r - 1) * (1.0 + phi2))))


def cramers_v(tables: LagTables) -> SerialMeasureResult:
    """Cramer's v, value = sqrt(sum(components) / (r - 1)).

    Components are the unscaled cell terms (p_ij - p_i p_j)^2 / (p_i p_j),
    the natural per-pair description of deviation from serial independence.
    """
    cells = _phi2_cells(tables)
    r = tables.n_categories
    return _result("cramers_v", tables, np.sqrt(cells.sum(axis=-1) / (r - 1)), cells, _cell_labels(r))


def cohens_kappa(tables: LagTables) -> SerialMeasureResult:
    """Cohen's kappa, the one signed measure; value = sum(components).

    Component j is (p_jj - p_j^2) / (1 - sum(p^2)): the excess probability of
    staying in category j after ``lag`` steps, against the independence
    baseline.
    """
    p = tables.marginals
    _require_dispersed(p)
    psq = np.sum(p * p, axis=-1)
    terms = (np.diagonal(tables.joint, axis1=-2, axis2=-1) - p * p) / (1.0 - psq)[..., None]
    return _result("cohens_kappa", tables, terms.sum(axis=-1), terms, _col_labels(tables.n_categories))


def psi_matrix(tables: LagTables) -> PsiMatrix:
    """Correlation matrix of current vs lagged one-hot components.

    psi_ij = (p_ij - p_i p_j) / sqrt(p_i (1 - p_i) p_j (1 - p_j)), masked
    wherever a marginal is 0 or 1.  Sample values may exceed 1 in magnitude
    on short series; they are reported as computed.
    """
    p = tables.marginals
    var = p * (1.0 - p)
    constant = var == 0.0
    mask = constant[..., :, None] | constant[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = (tables.joint - _outer(p)) / np.sqrt(_outer(var))
    return PsiMatrix(tables.lag, np.ma.MaskedArray(np.where(mask, 0.0, values), mask=mask))


def total_correlation(tables: LagTables) -> SerialMeasureResult:
    """Mean squared entry of the psi matrix: value = sum(components^2) / r^2.

    Components are the r^2 unsquared psi values (signed correlations), the
    per-pair description used when comparing dependence structures between
    series.  Raises if any psi entry is undefined.
    """
    psi = psi_matrix(tables)
    if psi.values.mask.any():
        raise ValueError("total correlation undefined: a category has degenerate marginal probability")
    values = _cells(np.asarray(psi.values))
    r = tables.n_categories
    return _result("total_correlation", tables, np.sum(values * values, axis=-1) / r**2, values, _cell_labels(r))


MEASURE_FUNCTIONS = {
    "gk_tau": gk_tau,
    "gk_lambda": gk_lambda,
    "uncertainty": uncertainty_coefficient,
    "pearson": pearson_measure,
    "phi2": phi2_measure,
    "sakoda": sakoda_measure,
    "cramers_v": cramers_v,
    "cohens_kappa": cohens_kappa,
    "total_correlation": total_correlation,
}
