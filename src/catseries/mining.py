"""Feature vectors, dissimilarities, 2-D scaling and outlier scoring.

Two dissimilarities between categorical series are provided, both squared
Euclidean distances between per-series feature vectors:

* ``dcc``: per lag, the r^2 Cramer-style cells (p_ij - p_i p_j)^2/(p_i p_j)
  and the r signed Cohen terms (p_ii - p_i^2)/(1 - sum p^2), then the r
  marginals.
* ``db``: per lag, the r^2 signed correlations of the one-hot components,
  then the r marginals.

Because the distance is the squared norm of a feature difference, feature
matrices can be handed to any external clustering or classification tool
while the distance matrix feeds medoid methods, scaling and outlier
scoring directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .association import cohens_kappa, cramers_v, total_correlation
from .series import CategoricalSeries, corpus_lag_tables

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
    """Symmetric pairwise dissimilarities over a corpus."""

    values: np.ndarray
    metric: str  # "dcc" | "db" | "euclidean-on-features"
    max_lag: int
    ids: tuple[str, ...] | None = None

    @property
    def size(self) -> int:
        return int(self.values.shape[0])


def _schema(metric: str, symbols, max_lag: int) -> tuple[str, ...]:
    schema: list[str] = []
    for lag in range(1, max_lag + 1):
        prefix = "v" if metric == "dcc" else "psi"
        schema.extend(f"{prefix}.l{lag}.{a}_{b}" for a in symbols for b in symbols)
        if metric == "dcc":
            schema.extend(f"kappa.l{lag}.{s}" for s in symbols)
    schema.extend(f"p.{s}" for s in symbols)
    return tuple(schema)


def _feature_matrix(corpus: Sequence[CategoricalSeries], metric: str, max_lag: int) -> np.ndarray:
    """(n, k) feature rows of every series of a corpus sharing one alphabet.

    Raises when the features of any series are undefined, with the message
    that series alone would raise: marginal checks come before lag tables.
    """
    p = corpus_lag_tables(corpus, 0).marginals
    if metric == "dcc":
        if np.any(p == 0.0):
            raise ValueError("degenerate marginals: every declared category must occur")
        if np.any(np.sum(p * p, axis=-1) >= 1.0):
            raise ValueError("degenerate marginals: series is constant")
    elif np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("degenerate marginals: component correlations undefined")
    blocks = []
    for lag in range(1, max_lag + 1):
        tables = corpus_lag_tables(corpus, lag)
        if metric == "dcc":
            blocks.extend((cramers_v(tables).components, cohens_kappa(tables).components))
        else:
            blocks.append(total_correlation(tables).components)
    blocks.append(p)
    return np.concatenate(blocks, axis=1)


def dcc_features(series: CategoricalSeries, max_lag: int = 1) -> FeatureVector:
    """Features whose squared-difference norm is the ``dcc`` dissimilarity."""
    return FeatureVector(_feature_matrix([series], "dcc", max_lag)[0], _schema("dcc", series.alphabet.symbols, max_lag))


def db_features(series: CategoricalSeries, max_lag: int = 1) -> FeatureVector:
    """Features whose squared-difference norm is the ``db`` dissimilarity."""
    return FeatureVector(_feature_matrix([series], "db", max_lag)[0], _schema("db", series.alphabet.symbols, max_lag))


_METRIC_FEATURES = {"dcc": dcc_features, "db": db_features}


def raise_first_failure(corpus: Sequence[CategoricalSeries], ids: Sequence[str] | None, compute) -> None:
    """After a computation over a whole corpus failed: check each series
    alone, in order, for the first series' alphabet and then with
    ``compute``, and raise the first failure naming the series by its id
    (when given) and 1-based index.  Returns if none fails."""
    for index, series in enumerate(corpus, start=1):
        name = f"series {ids[index - 1]!r} (index {index})" if ids is not None else f"series (index {index})"
        if series.alphabet != corpus[0].alphabet:
            raise ValueError(f"{name} does not share the corpus alphabet")
        try:
            compute(series)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None


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
    its id (when given) and 1-based index.
    """
    if metric not in _METRIC_FEATURES:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(_METRIC_FEATURES)}")
    if not corpus:
        raise ValueError("empty corpus")
    if isinstance(max_lag, bool) or not isinstance(max_lag, (int, np.integer)) or max_lag < 1:
        raise ValueError(f"max_lag must be a positive integer, got {max_lag!r}")
    if ids is not None and len(ids) != len(corpus):
        raise ValueError(f"{len(ids)} ids given for {len(corpus)} series")
    try:
        features = _feature_matrix(corpus, metric, max_lag)
    except ValueError:
        raise_first_failure(corpus, ids, lambda series: _METRIC_FEATURES[metric](series, max_lag))
        raise
    n = len(corpus)
    values = np.zeros((n, n))
    for a in range(n - 1):
        diff = features[a + 1 :] - features[a]
        values[a, a + 1 :] = values[a + 1 :, a] = np.einsum("ij,ij->i", diff, diff)
    return DistanceMatrix(values, metric, max_lag, tuple(ids) if ids is not None else None)


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
    d = dm.values if isinstance(dm, DistanceMatrix) else np.asarray(dm, dtype=float)
    n = d.shape[0]
    if n < 3:
        raise ValueError("need at least three objects for 2-D scaling")
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
    d = dm.values if isinstance(dm, DistanceMatrix) else np.asarray(dm, dtype=float)
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
    if range_factor < 0:
        raise ValueError("range factor must be non-negative")
    q1, q3 = np.quantile(s, [0.25, 0.75])
    threshold = q3 + range_factor * (q3 - q1)
    flagged = tuple(int(i) for i in np.flatnonzero(s > threshold))
    return BoxplotOutliers(len(flagged), flagged, float(q1), float(q3), float(threshold), range_factor)
