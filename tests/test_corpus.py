"""The corpus kernels agree bit for bit with the per-series oracles.

Lag tables, association and dispersion measures, dcc/db features, distances
and the ``features`` matrix are computed for a whole corpus at once; each
series' values, components and error messages must be exactly those its
per-series numpy reference in ``oracles`` gives, over ragged lengths, absent
categories and lags 1..3.
"""

import contextlib
import io as textio
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catseries import (
    CategoricalSeries,
    chebycheff_dispersion,
    corpus_lag_tables,
    db_features,
    dcc_features,
    distance_matrix,
    entropy,
    gini_index,
    lag_tables,
)
from catseries.association import MEASURE_FUNCTIONS
from catseries.cli import _feature_layout, main
from catseries.io import write_corpus
from catseries.mining import _metric_features, feature_matrix

import oracles
from conftest import ragged_corpus, ragged_series

LAGS = st.integers(1, 3)
FEATURE_NAMES = ["gini", "entropy", "chebycheff", "marginals", *MEASURE_FUNCTIONS]


def large_alphabet_corpus():
    """Ragged r=20 corpus: full-alphabet series and one missing a letter."""
    rng = np.random.default_rng(20)
    corpus = [ragged_series(rng, 20, int(T)) for T in rng.integers(10, 301, size=6)]
    corpus.append(ragged_series(rng, 20, 250, np.arange(1, 20)))
    return corpus


def outcome(compute):
    """What a computation gives: ("ok", result) or ("error", message)."""
    try:
        return "ok", compute()
    except ValueError as err:
        return "error", str(err)


def assert_same_result(result, expected, row=None):
    """A single-series result, or row ``row`` of a corpus result, equals the
    oracle's bit for bit."""
    value, components = result.value, result.components
    if row is None:
        assert type(value) is float
    else:
        value, components = value[row], None if components is None else components[row]
    assert np.array_equal(value, expected.value)
    assert result.component_labels == expected.component_labels
    assert (components is None) == (expected.components is None)
    if components is not None:
        assert np.array_equal(components, expected.components)


def check_tables(corpus, lag):
    tables = corpus_lag_tables(corpus, lag)
    for k, series in enumerate(corpus):
        expected = oracles.series_lag_tables(series, lag)
        one = lag_tables(series, lag)
        assert tables.T[k] == one.T == expected.T
        for field in ("counts", "pair_counts", "marginals", "joint"):
            assert np.array_equal(getattr(tables, field)[k], getattr(expected, field)), field
            assert np.array_equal(getattr(one, field), getattr(expected, field)), field


def check_measures(corpus, lag):
    tables = corpus_lag_tables(corpus, lag)
    for name, measure in MEASURE_FUNCTIONS.items():
        oracle = oracles.SERIES_MEASURES[name]
        expected = [outcome(lambda: oracle(oracles.series_lag_tables(s, lag))) for s in corpus]
        for series, want in zip(corpus, expected):
            got = outcome(lambda: measure(lag_tables(series, lag)))
            assert got[0] == want[0], name
            if want[0] == "ok":
                assert_same_result(got[1], want[1])
            else:
                assert got[1] == want[1]
        errors = [message for kind, message in expected if kind == "error"]
        if errors:
            with pytest.raises(ValueError) as err:
                measure(tables)
            assert str(err.value) == errors[0]
        else:
            result = measure(tables)
            for k, (_, want) in enumerate(expected):
                assert_same_result(result, want, k)


def check_dispersion(corpus):
    p = corpus_lag_tables(corpus, 0).marginals
    for function, name in ((gini_index, "gini"), (entropy, "entropy"), (chebycheff_dispersion, "chebycheff")):
        batch = function(p)
        for k, row in enumerate(p):
            expected = oracles.SERIES_DISPERSION[name](row)
            assert batch[k] == expected and function(row) == expected
            assert type(function(row)) is float


def check_features(corpus, max_lag):
    for metric, single in (("dcc", dcc_features), ("db", db_features)):
        oracle = oracles.SERIES_FEATURES[metric]
        expected = [outcome(lambda: oracle(s, max_lag)) for s in corpus]
        for series, want in zip(corpus, expected):
            got = outcome(lambda: single(series, max_lag))
            assert got[0] == want[0]
            if want[0] == "ok":
                assert np.array_equal(got[1].values, want[1][0]) and got[1].schema == want[1][1]
            else:
                assert got[1] == want[1]
        ids = [f"s{k}" for k in range(len(corpus))]
        want = outcome(lambda: oracles.series_distance_matrix(corpus, metric, max_lag, ids))
        got = outcome(lambda: distance_matrix(corpus, metric, max_lag, ids))
        assert got[0] == want[0]
        if want[0] == "ok":
            assert np.array_equal(got[1].values, want[1])
            _, matrix = _metric_features(corpus, metric, max_lag)
            assert np.array_equal(matrix, np.vstack([values for _, (values, _) in expected]))
        else:
            assert got[1] == want[1]


@given(ragged_corpus(), LAGS)
@settings(max_examples=150, deadline=None)
def test_lag_tables_equal_the_per_series_oracle(corpus, lag):
    check_tables(corpus, lag)


@given(ragged_corpus(), LAGS)
@settings(max_examples=150, deadline=None)
def test_measures_equal_the_per_series_oracle(corpus, lag):
    check_measures(corpus, lag)


@given(ragged_corpus())
@settings(max_examples=150, deadline=None)
def test_dispersion_equals_the_per_series_oracle(corpus):
    check_dispersion(corpus)


@given(ragged_corpus(), LAGS)
@settings(max_examples=100, deadline=None)
def test_features_and_distances_equal_the_per_series_oracle(corpus, max_lag):
    check_features(corpus, max_lag)


@given(ragged_corpus(), st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, max_size=4),
       st.sets(LAGS, min_size=1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_feature_columns_equal_the_per_series_rows(corpus, measures, lags, expand):
    lags = sorted(lags)
    expected = [outcome(lambda: oracles.series_feature_row(s, measures, lags, expand)) for s in corpus]
    if any(kind == "error" for kind, _ in expected):
        with pytest.raises(ValueError):
            feature_matrix(corpus, _feature_layout(measures, lags), expand)
        return
    schema, matrix = feature_matrix(corpus, _feature_layout(measures, lags), expand)
    assert schema == expected[0][1][1]
    assert np.array_equal(matrix, np.array([values for _, (values, _) in expected]))


def test_a_large_alphabet_equals_the_per_series_oracle():
    corpus = large_alphabet_corpus()
    for lag in (1, 2, 3):
        check_tables(corpus, lag)
        check_measures(corpus, lag)
        check_measures(corpus[:-1], lag)
    check_dispersion(corpus)
    check_features(corpus, 2)
    check_features(corpus[:-1], 2)
    measures = ["entropy", "marginals", "gk_tau", "gk_lambda", "uncertainty", "cramers_v", "cohens_kappa"]
    schema, matrix = feature_matrix(corpus, _feature_layout(measures, [1, 2, 3]), True)
    rows = [oracles.series_feature_row(s, measures, [1, 2, 3], True) for s in corpus]
    assert schema == rows[0][1]
    assert np.array_equal(matrix, np.array([values for values, _ in rows]))


def oracle_loop_message(corpus, command, ids):
    """The message the per-series loop raises for ``command``."""
    name, args = command
    if name == "dist":
        metric, max_lag = args
        return outcome(lambda: oracles.series_distance_matrix(corpus, metric, max_lag, ids))[1]
    measures, lags = args
    for index, series in enumerate(corpus, start=1):
        kind, message = outcome(lambda: oracles.series_feature_row(series, measures, lags, True))
        if kind == "error":
            return f"series {ids[index - 1]!r} (index {index}): {message}"
    return None


COMMANDS = [
    ("dist", ("db", 1)),
    ("dist", ("dcc", 2)),
    ("features", (["gini", "total_correlation"], [1])),
    ("features", (["marginals", "gk_tau", "cohens_kappa"], [1, 3])),
]


@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_one_degenerate_series_raises_the_oracle_loop_message(seed, r, n, data):
    rng = np.random.default_rng(seed)
    corpus = [ragged_series(rng, r, int(T)) for T in rng.integers(10, 301, size=n)]
    position = data.draw(st.integers(0, n - 1))
    used = data.draw(st.lists(st.integers(1, r), min_size=1, max_size=r - 1, unique=True))
    corpus[position] = ragged_series(rng, r, len(corpus[position]), sorted(used))
    command = data.draw(st.sampled_from(COMMANDS))
    ids = [f"series_{k}" for k in range(1, n + 1)]
    expected = oracle_loop_message(corpus, command, ids)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        write_corpus(path, corpus)
        name, args = command
        options = (["--metric", args[0], "--max-lag", str(args[1])] if name == "dist"
                   else ["--measures", ",".join(args[0]), "--lags", ",".join(map(str, args[1])), "--expand"])
        stderr = textio.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([name, "--input", str(path), "--alphabet", ",".join(map(str, range(1, r + 1))),
                         *options, "--out", str(Path(tmp) / "out.csv")])
    if expected is None:  # the series misses a category that this command does not need
        assert code == 0
    else:
        assert code == 2
        assert stderr.getvalue() == f"error: {expected}\n"


def test_a_series_shorter_than_the_lags_fails_its_marginal_check_first():
    rng = np.random.default_rng(3)
    full = ragged_series(rng, 3, 50)
    for short in ([2], [1, 2, 2], [1, 2, 3]):
        corpus = [full, CategoricalSeries(np.array(short), full.alphabet)]
        for metric in ("dcc", "db"):
            want = outcome(lambda: oracles.series_distance_matrix(corpus, metric, 3, ["a", "b"]))
            assert want[0] == "error"
            assert outcome(lambda: distance_matrix(corpus, metric, 3, ["a", "b"])) == want
