"""Feature vectors, dissimilarities, 2-D scaling and outlier scoring.

Two dissimilarities between categorical series are provided, both squared
Euclidean distances between per-series feature vectors:

* ``dcc``: per lag, the r^2 Cramer-style cells (p_ij - p_i p_j)^2/(p_i p_j)
  and the r signed Cohen terms (p_ii - p_i^2)/(1 - sum p^2), then the r
  marginals.
* ``db``: per lag, the r^2 signed correlations of the one-hot components,
  then the r marginals.

Feature matrices can feed any external clustering or classification tool.
A :class:`DistanceMatrix`, which scaling and outlier scoring also build from
a bare array, is square, finite, non-negative, exactly symmetric, zero on
the diagonal, and has one id per row (``series_1``, ... by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .association import MEASURE_FUNCTIONS
from .dispersion import chebycheff_dispersion, entropy, gini_index
from .series import CategoricalSeries, _is_integer, corpus_lag_tables

__all__ = [
    "FeatureVector",
    "DistanceMatrix",
    "Embedding",
    "BoxplotOutliers",
    "dcc_features",
    "db_features",
    "distance_matrix",
    "two_dimensional_scaling",
    "outlier_scores",
    "boxplot_outlier_count",
]


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Flat numeric features with one descriptor string per entry."""

    values: np.ndarray
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.schema) != self.values.size:
            raise ValueError("schema length must match the number of features")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise dissimilarities over a corpus.

    The constructor is the one place that decides what a distance matrix
    is, and checks in this order: ``values`` is a square 2-D matrix with one
    id per row, no id given twice; ``metric`` is a key of :data:`METRICS` or
    ``"euclidean-on-features"``; ``max_lag`` is a non-negative integer, not
    a bool; every value is finite and non-negative; the matrix is exactly
    symmetric with a zero diagonal.  A failure raises ``ValueError``.  The
    values are stored as a read-only float64 copy and the ids as a tuple;
    ids left out become ``series_1`` .. ``series_n``.
    """

    values: np.ndarray
    metric: str
    max_lag: int
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)  # a copy, so freezing it leaves the caller's array alone
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {values.shape}")
        n = values.shape[0]
        ids = tuple(f"series_{i}" for i in range(1, n + 1)) if self.ids is None else tuple(self.ids)
        if len(ids) != n:
            raise ValueError(f"distance matrix has {len(ids)} ids for {n} rows")
        _check_unique_ids(ids)
        metrics = (*METRICS, "euclidean-on-features")
        if self.metric not in metrics:
            raise ValueError(f"unknown metric {self.metric!r}; expected one of {list(metrics)}")
        if not _is_integer(self.max_lag) or self.max_lag < 0:
            raise ValueError(f"max_lag must be a non-negative integer, got {self.max_lag!r}")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("distances must be finite and non-negative")
        if np.any(values != values.T) or np.any(np.diag(values) != 0.0):
            raise ValueError("distance matrix must be symmetric with a zero diagonal")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", ids)

    @property
    def size(self) -> int:
        return int(self.values.shape[0])


def _check_unique_ids(ids: Sequence[str]) -> None:
    """Raise naming the first id given twice and the 1-based positions of both."""
    first: dict[str, int] = {}
    for position, ident in enumerate(ids, start=1):
        if first.setdefault(ident, position) != position:
            raise ValueError(f"distance matrix id {ident!r} is repeated at positions {first[ident]} and {position}")


def _marginals(p: np.ndarray) -> np.ndarray:
    """The marginal frequencies themselves, one column per category."""
    return p


# measure -> function of the (n, r) marginals (the first four) or of a
# corpus's lag tables (the rest)
MEASURES = {"gini": gini_index, "entropy": entropy, "chebycheff": chebycheff_dispersion, "marginals": _marginals,
            **MEASURE_FUNCTIONS}


def feature_matrix(
    corpus: Sequence[CategoricalSeries], columns: Sequence[tuple[str, int, str]], expand: bool
) -> tuple[list[str], np.ndarray]:
    """Schema and (n, k) feature matrix of a corpus sharing one alphabet.

    ``columns`` lists blocks as (measure, lag, title).  At lag 0 a measure of
    the marginals gives the column ``title``, or ``title.<symbol>`` per
    category for an (n, r) result.  At lag >= 1 a measure of the lag tables
    gives, with ``expand``, its components where defined (``title.<a>_<b>``,
    ``title.<a>``), else its value ``title``.  All lag tables are counted
    before any measure runs; the marginals come from them, else from lag 0.
    """
    symbols = corpus[0].alphabet.symbols
    names = {f"j={j}": b for j, b in enumerate(symbols, 1)}
    names.update({f"i={i},j={j}": f"{a}_{b}" for i, a in enumerate(symbols, 1) for j, b in enumerate(symbols, 1)})
    lags = sorted({lag for _, lag, _ in columns if lag > 0}) or [0]
    tables = {lag: corpus_lag_tables(corpus, lag) for lag in lags}
    p = tables[lags[0]].marginals
    schema: list[str] = []
    blocks = []
    for name, lag, title in columns:
        if lag == 0:
            block = MEASURES[name](p)
            schema.extend([f"{title}.{s}" for s in symbols] if block.ndim == 2 else [title])
        else:
            result = MEASURES[name](tables[lag])
            if expand and result.components is not None:
                block = result.components
                schema.extend(f"{title}.{names[label]}" for label in result.component_labels)
            else:
                block = result.value
                schema.append(title)
        blocks.append(block.reshape(len(corpus), -1))
    return schema, np.concatenate(blocks, axis=1)


def run_corpus(compute, corpus: Sequence[CategoricalSeries], ids: Sequence[str] | None = None):
    """``compute(corpus)``.  When that fails, check each series alone, in
    order, for the first series' alphabet and then with ``compute([series])``,
    and raise the first failure naming the series by its id (when given) and
    1-based index; when no series fails alone, the corpus error stands."""
    try:
        return compute(corpus)
    except ValueError:
        for index, series in enumerate(corpus, start=1):
            name = f"series {ids[index - 1]!r} (index {index})" if ids is not None else f"series (index {index})"
            if series.alphabet != corpus[0].alphabet:
                raise ValueError(f"{name} does not share the corpus alphabet") from None
            try:
                compute([series])
            except ValueError as err:
                raise ValueError(f"{name}: {err}") from None
        raise


def _dcc_marginals(p: np.ndarray) -> None:
    """Every category occurs, which for r >= 2 keeps the Cohen terms' 1 - sum p^2 positive."""
    if np.any(p == 0.0):
        raise ValueError("degenerate marginals: every declared category must occur")


def _db_marginals(p: np.ndarray) -> None:
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("degenerate marginals: component correlations undefined")


def _metric_features(corpus: Sequence[CategoricalSeries], metric: str, max_lag: int) -> tuple[list[str], np.ndarray]:
    """Schema and (n, k) features of ``metric``: per lag its measures'
    components, then the marginals.  The marginal check comes before any
    lag table is counted."""
    features = METRICS[metric]
    features.check(corpus_lag_tables(corpus, 0).marginals)
    columns = [(name, lag, f"{prefix}.l{lag}") for lag in range(1, max_lag + 1) for name, prefix in features.measures]
    return feature_matrix(corpus, [*columns, ("marginals", 0, "p")], expand=True)


def dcc_features(series: CategoricalSeries, max_lag: int = 1) -> FeatureVector:
    """Features whose squared-difference norm is the ``dcc`` dissimilarity."""
    schema, matrix = _metric_features([series], "dcc", max_lag)
    return FeatureVector(matrix[0], tuple(schema))


def db_features(series: CategoricalSeries, max_lag: int = 1) -> FeatureVector:
    """Features whose squared-difference norm is the ``db`` dissimilarity."""
    schema, matrix = _metric_features([series], "db", max_lag)
    return FeatureVector(matrix[0], tuple(schema))


# metric -> its per-series features, which carry the metric's marginal check
# and the (measure, schema prefix) pairs whose components fill each lag
METRICS = {"dcc": dcc_features, "db": db_features}
dcc_features.check, dcc_features.measures = _dcc_marginals, (("cramers_v", "v"), ("cohens_kappa", "kappa"))
db_features.check, db_features.measures = _db_marginals, (("total_correlation", "psi"),)


def distance_matrix(
    corpus: Sequence[CategoricalSeries],
    metric: str = "db",
    max_lag: int = 1,
    ids: Sequence[str] | None = None,
) -> DistanceMatrix:
    """Pairwise dissimilarity matrix over a corpus sharing one alphabet.

    Each unordered pair is evaluated once; the result has an exactly zero
    diagonal and exact symmetry.  A series whose features are undefined, or
    whose alphabet differs from the first series', is named in the error by
    its id (when given) and 1-based index.  Ids of the wrong count, or one
    given twice, are rejected before any feature is computed.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {list(METRICS)}")
    if not _is_integer(max_lag) or max_lag < 1:
        raise ValueError(f"max_lag must be a positive integer, got {max_lag!r}")
    if ids is not None:
        if len(ids) != len(corpus):
            raise ValueError(f"{len(ids)} ids given for {len(corpus)} series")
        _check_unique_ids(ids)
    features = run_corpus(lambda batch: _metric_features(batch, metric, max_lag)[1], corpus, ids)
    n = len(corpus)
    values = np.zeros((n, n))
    for a in range(n - 1):
        diff = features[a + 1 :] - features[a]
        values[a, a + 1 :] = values[a + 1 :, a] = np.einsum("ij,ij->i", diff, diff)
    return DistanceMatrix(values, metric, max_lag, ids)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Classical 2-D scaling of a dissimilarity matrix.

    ``clamped_mass`` is the share of total eigenvalue magnitude lost to
    clamping negative eigenvalues at zero: 0 for exactly plane-embeddable
    distances, larger when the embedding is a rougher approximation.
    """

    coordinates: np.ndarray  # (n, 2), centered at the origin
    eigenvalues: np.ndarray  # all n, descending
    clamped_mass: float


def two_dimensional_scaling(dm: DistanceMatrix | np.ndarray) -> Embedding:
    """Classical metric scaling onto the plane.

    Double-centers -D^2/2, takes the top two eigenpairs and scales the
    eigenvectors by the square roots of the (zero-clamped) eigenvalues.
    Column signs are fixed so the largest-magnitude coordinate in each
    column is positive.
    """
    d = (dm if isinstance(dm, DistanceMatrix) else DistanceMatrix(dm, "euclidean-on-features", 0)).values
    if len(d) < 3:
        raise ValueError(f"need at least three objects for 2-D scaling, got {len(d)}")
    centered = -0.5 * d**2
    centered = centered - centered.mean(axis=0) - centered.mean(axis=1)[:, None] + centered.mean()
    eigvals, eigvecs = np.linalg.eigh((centered + centered.T) / 2.0)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    coords = eigvecs[:, :2] * np.sqrt(np.maximum(eigvals[:2], 0.0))
    for col in range(2):
        top = np.argmax(np.abs(coords[:, col]))
        if coords[top, col] < 0:
            coords[:, col] = -coords[:, col]
    magnitude = float(np.sum(np.abs(eigvals)))
    clamped = float(np.sum(np.maximum(-eigvals, 0.0)) / magnitude) if magnitude > 0 else 0.0
    return Embedding(coords, eigvals, clamped)


def outlier_scores(dm: DistanceMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance-sum outlyingness of every object, plus the ranking.

    The score of an object is the sum of its distances to all others; the
    returned order lists indices by decreasing score, ties broken by
    ascending index.
    """
    d = (dm if isinstance(dm, DistanceMatrix) else DistanceMatrix(dm, "euclidean-on-features", 0)).values
    scores = d.sum(axis=1)
    order = np.lexsort((np.arange(scores.size), -scores))
    return scores, order


@dataclass(frozen=True)
class BoxplotOutliers:
    """Objects whose score clears the upper boxplot fence."""

    count: int
    indices: tuple[int, ...]
    q1: float
    q3: float
    threshold: float
    range_factor: float


def boxplot_outlier_count(scores, range_factor: float = 1.0) -> BoxplotOutliers:
    """Count scores above Q3 + range_factor * IQR (quartiles by linear
    interpolation).  The default factor 1.0 is deliberately sensitive; use
    1.5 for the conventional fence."""
    s = np.asarray(scores, dtype=float)
    if s.size < 4:
        raise ValueError("need at least four scores for the boxplot rule")
    if not np.all(finite := np.isfinite(s)):
        raise ValueError(f"scores must be finite, got {s[~finite][0]} at index {np.argmin(finite)}")
    if not 0.0 <= range_factor < np.inf:
        raise ValueError(f"range factor must be non-negative and finite, got {range_factor}")
    q1, q3 = np.quantile(s, [0.25, 0.75])
    threshold = q3 + range_factor * (q3 - q1)
    flagged = tuple(int(i) for i in np.flatnonzero(s > threshold))
    return BoxplotOutliers(len(flagged), flagged, float(q1), float(q3), float(threshold), range_factor)
