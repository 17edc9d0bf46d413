"""Alphabets, integer-coded categorical series and lagged count tables.

A nominal series over ``r`` categories is stored as a vector of 1-based
integer codes: the i-th symbol of its alphabet has code ``i``.  Symbols are
interned to codes once, when a series is constructed; every statistic in the
package operates on the integer codes and on the count tables built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Alphabet",
    "CategoricalSeries",
    "LagTables",
    "binarize",
    "marginal_probabilities",
    "lag_tables",
    "corpus_lag_tables",
    "conditional_probabilities",
]


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_lag(lag) -> None:
    if not _is_integer(lag):
        raise ValueError(f"lag must be an integer, got {lag!r}")
    if lag < 0:
        raise ValueError(f"lag must be non-negative, got {lag!r}")


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct category labels.

    The order is significant: ``symbols[i - 1]`` is the category with code
    ``i``.  Declaring a label that never occurs in a particular series is
    allowed and meaningful (the category then has estimated probability 0).
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        symbols = tuple(str(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) < 2:
            raise ValueError("need at least two categories")
        lookup: dict[str, int] = {}
        for code, symbol in enumerate(symbols, start=1):
            if symbol in lookup:
                raise ValueError(f"duplicate category labels in alphabet: {symbol!r} at positions "
                                 f"{lookup[symbol]} and {code}")
            lookup[symbol] = code
        object.__setattr__(self, "_lookup", lookup)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def code(self, symbol: str) -> int:
        """1-based code of ``symbol``; raises for unknown labels."""
        try:
            return self._lookup[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown symbol {symbol!r}; not in alphabet {self.symbols}") from None

    def label(self, code: int) -> str:
        if not 1 <= code <= self.size:
            raise ValueError(f"code {code} outside 1..{self.size}")
        return self.symbols[code - 1]

    @classmethod
    def of_size(cls, r: int) -> "Alphabet":
        """Alphabet with labels '1', '2', ..., 'r'."""
        return cls(tuple(str(i) for i in range(1, r + 1)))


@dataclass(frozen=True, eq=False)
class CategoricalSeries:
    """A length-T realization of a categorical process, as 1-based codes."""

    codes: np.ndarray
    alphabet: Alphabet

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        if codes.size == 0:
            raise ValueError("empty series")
        r = self.alphabet.size
        if codes.min() < 1 or codes.max() > r:
            raise ValueError(f"codes must lie in 1..{r}")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return int(self.codes.size)

    @classmethod
    def from_symbols(cls, symbols: Iterable[str], alphabet: Alphabet) -> "CategoricalSeries":
        codes = np.fromiter((alphabet.code(s) for s in symbols), dtype=np.int64)
        return cls(codes, alphabet)

    def to_symbols(self) -> list[str]:
        return np.array(self.alphabet.symbols, dtype=object)[self.codes - 1].tolist()


def binarize(series: CategoricalSeries) -> np.ndarray:
    """One-hot representation of a series.

    Returns a (T, r) array whose row t is the unit vector with a 1 at the
    position of ``codes[t]``.  ``argmax`` along rows recovers the 0-based
    codes, so the mapping is invertible.
    """
    eye = np.eye(series.alphabet.size)
    return eye[series.codes - 1]


def marginal_probabilities(series: CategoricalSeries) -> np.ndarray:
    """Relative frequency of each category, length r, summing to 1."""
    return np.bincount(series.codes, minlength=series.alphabet.size + 1)[1:] / len(series)


@dataclass(frozen=True, eq=False)
class LagTables:
    """Marginal and lagged-joint frequency tables of one series or a corpus.

    ``joint[i - 1, j - 1]`` estimates the probability that the series equals
    ``i`` now and ``j`` exactly ``lag`` steps earlier; rows index the current
    value, columns the past one.  Marginals are divided by the full length T
    while the joint table is divided by the number of observed pairs T - lag,
    so joint rows do not sum exactly to the marginals in finite samples.

    For a corpus of n series, ``marginals``, ``joint`` and ``T`` gain a
    leading axis of length n: row k holds the tables of series k.

    ``counts``/``pair_counts`` hold the raw integer counts when the tables
    were built from a series; tables built directly from probabilities (e.g.
    exact population tables in tests) carry ``None`` there.
    """

    lag: int
    T: int | np.ndarray
    marginals: np.ndarray
    joint: np.ndarray
    counts: np.ndarray | None = None
    pair_counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.marginals, dtype=float)
        joint = np.asarray(self.joint, dtype=float)
        if p.ndim == 0 or joint.shape != p.shape + p.shape[-1:]:
            raise ValueError("joint table must be r x r")
        _check_lag(self.lag)
        if np.any(p < 0) or np.any(p > 1) or np.any(joint < 0) or np.any(joint > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9) or np.any(np.abs(joint.sum(axis=(-2, -1)) - 1.0) > 1e-9):
            raise ValueError(f"probability tables must sum to 1, got marginal {p.sum(-1)}, joint {joint.sum((-2, -1))}")
        p.flags.writeable = False
        joint.flags.writeable = False
        object.__setattr__(self, "marginals", p)
        object.__setattr__(self, "joint", joint)
        if self.counts is not None:
            n = np.asarray(self.counts, dtype=np.int64)
            nij = np.asarray(self.pair_counts, dtype=np.int64)
            if np.any(n.sum(axis=-1) != self.T) or np.any(nij.sum(axis=(-2, -1)) != self.T - self.lag):
                raise ValueError("count tables inconsistent with series length")
            n.flags.writeable = False
            nij.flags.writeable = False
            object.__setattr__(self, "counts", n)
            object.__setattr__(self, "pair_counts", nij)

    @property
    def n_categories(self) -> int:
        return int(self.marginals.shape[-1])

    @property
    def n_pairs(self) -> int | np.ndarray:
        """Number of lagged pairs behind the joint table."""
        return self.T - self.lag

    @classmethod
    def from_probabilities(
        cls,
        marginals: Sequence[float],
        joint: np.ndarray,
        lag: int = 1,
        n_pairs: int = 1,
    ) -> "LagTables":
        """Tables fixed directly from probabilities (no underlying counts)."""
        return cls(lag=lag, T=lag + n_pairs, marginals=np.asarray(marginals, float), joint=np.asarray(joint, float))


def corpus_lag_tables(corpus: Sequence[CategoricalSeries], lag: int) -> LagTables:
    """:func:`lag_tables` of every series of a corpus sharing one alphabet,
    as one :class:`LagTables` with a leading series axis; lengths may differ.

    One ``np.bincount`` over ``series * r * r + current * r + past`` counts
    every pair; the pairs that straddle two series are then taken out again.
    """
    _check_lag(lag)
    if not corpus:
        raise ValueError("empty corpus")
    alphabet = corpus[0].alphabet
    if any(series.alphabet != alphabet for series in corpus):
        raise ValueError("series do not share one alphabet")
    lengths = np.fromiter(map(len, corpus), dtype=np.int64, count=len(corpus))
    if lag >= lengths.min():
        raise ValueError("lag exceeds series length")
    n, r = lengths.size, alphabet.size
    # 0-based codes in the narrowest dtype that holds r (each series checked its
    # codes), so that `key` is the one 8-byte array as long as the corpus
    codes = np.concatenate([series.codes for series in corpus], dtype=np.min_scalar_type(r), casting="unsafe")
    codes -= 1
    key = np.repeat(np.arange(0, n * r, r, dtype=np.int64), lengths)
    key += codes  # series * r + current
    counts = np.bincount(key, minlength=n * r).reshape(n, r)
    key *= r
    key[lag:] += codes[: codes.size - lag]  # series * r * r + current * r + past
    pair_counts = np.bincount(key[lag:], minlength=n * r * r)
    straddling = (np.cumsum(lengths[:-1])[:, None] + np.arange(lag)).ravel()
    pair_counts -= np.bincount(key[straddling], minlength=n * r * r)
    return LagTables(
        lag=lag,
        T=lengths,
        marginals=counts / lengths[:, None],
        joint=pair_counts.reshape(n, r, r) / (lengths - lag)[:, None, None],
        counts=counts,
        pair_counts=pair_counts.reshape(n, r, r),
    )


def lag_tables(series: CategoricalSeries, lag: int) -> LagTables:
    """Count-based marginal and lag-``lag`` joint tables for a series.

    Pairs (current, past) are enumerated for t = lag+1 .. T; at lag 0 the
    joint table is diagonal with the marginal frequencies.
    """
    tables = corpus_lag_tables([series], lag)
    return LagTables(lag, len(series), tables.marginals[0], tables.joint[0], tables.counts[0], tables.pair_counts[0])


def conditional_probabilities(tables: LagTables) -> np.ma.MaskedArray:
    """Lagged conditional table: entry (i, j) estimates P(now = i | past = j).

    Each column j is the joint column divided by the marginal of j.  Columns
    whose category never occurs are masked rather than filled with 0 or NaN;
    consumers must treat masked entries as undefined.  Because the marginal
    uses the full series while the joint uses only overlapping pairs, defined
    columns sum to 1 only up to an O(lag/T) edge effect (exact at lag 0).
    """
    p = tables.marginals
    joint = tables.joint
    r = tables.n_categories
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = joint / p[np.newaxis, :]
    mask = np.broadcast_to(p == 0.0, (r, r))
    return np.ma.MaskedArray(np.where(mask, 0.0, cond), mask=mask)
