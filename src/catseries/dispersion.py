"""Dispersion measures of a marginal categorical distribution.

All three measures live in [0, 1]: 0 for a one-point distribution and 1 for
the uniform one.  They take a probability vector, so they can be applied to
either estimated or hypothetical marginals, or to an (n, r) array of them,
giving n values with the bits each row alone gives.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gini_index", "entropy", "chebycheff_dispersion"]


def _checked(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] < 2:
        raise ValueError("need at least two categories")
    if np.any(p < 0) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("not a probability vector")
    return p


def _masked_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``np.sum(terms[keep])`` per row of the last axis; summing zeros in place
    of the dropped terms would regroup numpy's pairwise sum."""
    rows, kept = terms.reshape(-1, terms.shape[-1]), keep.reshape(-1, keep.shape[-1])
    return np.array([np.sum(row[k]) for row, k in zip(rows, kept)]).reshape(terms.shape[:-1])


def _value(x):
    """A float for one distribution, the array for several."""
    return x if np.ndim(x) else float(x)


def gini_index(p):
    """Gini index r/(r-1) * (1 - sum(p_i^2))."""
    p = _checked(p)
    r = p.shape[-1]
    return _value(r / (r - 1) * (1.0 - np.sum(p * p, axis=-1)))


def entropy(p):
    """Normalized entropy -1/ln(r) * sum(p_i ln p_i), with 0 ln 0 = 0."""
    p = _checked(p)
    r = p.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p)
    return _value(-_masked_sums(terms, p > 0) / np.log(r))


def chebycheff_dispersion(p):
    """Chebycheff dispersion r/(r-1) * (1 - max_i p_i)."""
    p = _checked(p)
    r = p.shape[-1]
    return _value(r / (r - 1) * (1.0 - p.max(axis=-1)))
