import numpy as np
import pytest

from catseries import Alphabet, CategoricalSeries, binarize, conditional_probabilities, lag_tables, marginal_probabilities
from catseries.series import LagTables, corpus_lag_tables

import oracles
from conftest import random_series


def test_alphabet_rejects_duplicates_and_singletons():
    with pytest.raises(ValueError, match="^duplicate category labels in alphabet: 'a' at positions 1 and 2$"):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError, match="^duplicate category labels in alphabet: 'a' at positions 1 and 3$"):
        Alphabet(("a", "b", "a", "b"))
    with pytest.raises(ValueError):
        Alphabet(("a",))


def test_alphabet_order_defines_codes():
    alpha = Alphabet(("a", "c", "g", "t"))
    series = CategoricalSeries.from_symbols(list("atggc"), alpha)
    assert series.codes.tolist() == [1, 4, 3, 3, 2]
    assert series.to_symbols() == list("atggc")


def test_series_validation():
    alpha = Alphabet.of_size(3)
    with pytest.raises(ValueError, match="empty series"):
        CategoricalSeries(np.array([], dtype=int), alpha)
    with pytest.raises(ValueError):
        CategoricalSeries(np.array([0, 1]), alpha)
    with pytest.raises(ValueError):
        CategoricalSeries(np.array([1, 4]), alpha)


@pytest.mark.parametrize("build, message", [
    (lambda: Alphabet(("a", "b")).code("z"), "unknown symbol 'z'; not in alphabet ('a', 'b')"),
    (lambda: Alphabet.of_size(2).label(3), "code 3 outside 1..2"),
    (lambda: CategoricalSeries(np.ones((2, 2)), Alphabet.of_size(2)), "codes must be one-dimensional"),
    (lambda: LagTables.from_probabilities([0.5, 0.5], np.full((3, 3), 1 / 9)), "joint table must be r x r"),
    (lambda: LagTables.from_probabilities([1.5, -0.5], np.full((2, 2), 0.25)), "probabilities must lie in [0, 1]"),
    (lambda: LagTables(1, 5, np.array([0.6, 0.4]), np.full((2, 2), 0.25), [3, 1], [[1, 1], [1, 1]]),
     "count tables inconsistent with series length"),
    (lambda: corpus_lag_tables([], 1), "empty corpus"),
])
def test_bad_labels_codes_and_tables_are_named(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_binarize_unit_vectors():
    assert binarize(CategoricalSeries(np.array([1]), Alphabet.of_size(3))).tolist() == [[1, 0, 0]]


def test_binarize_s1(s1):
    expected = [[1, 0], [0, 1], [1, 0], [1, 0], [0, 1]]
    assert binarize(s1).tolist() == expected


def test_binarize_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        series = random_series(rng)
        assert (np.argmax(binarize(series), axis=1) + 1 == series.codes).all()


def test_marginals_s1(s1):
    assert marginal_probabilities(s1).tolist() == [0.6, 0.4]


def test_marginals_constant_and_periodic():
    const = CategoricalSeries(np.array([2, 2, 2]), Alphabet.of_size(3))
    assert marginal_probabilities(const).tolist() == [0.0, 1.0, 0.0]
    per = CategoricalSeries(np.tile([1, 2, 3], 200), Alphabet.of_size(3))
    assert np.allclose(marginal_probabilities(per), 1 / 3, atol=1e-15)


def test_lag_tables_s1(s1):
    t = lag_tables(s1, 1)
    assert t.pair_counts.tolist() == [[1, 1], [2, 0]]
    assert t.joint.tolist() == [[0.25, 0.25], [0.5, 0.0]]
    assert t.pair_counts.sum() == 4


def test_lag_zero_is_diagonal():
    rng = np.random.default_rng(2)
    series = random_series(rng)
    t = lag_tables(series, 0)
    assert np.allclose(t.joint, np.diag(marginal_probabilities(series)))


@pytest.mark.parametrize("lag", [1.5, np.float64(1.0), True, 1.0])
def test_lags_must_be_integers(s1, lag):
    """A fraction used to fail as a slice TypeError, True to count lag 1
    and from_probabilities to build tables with T = lag + 1 = 2.5."""
    for build in (lambda: lag_tables(s1, lag), lambda: corpus_lag_tables([s1, s1], lag),
                  lambda: LagTables.from_probabilities([0.5, 0.5], np.full((2, 2), 0.25), lag=lag),
                  lambda: LagTables(lag, 6, [0.5, 0.5], np.full((2, 2), 0.25))):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"lag must be an integer, got {lag!r}"


def test_lag_table_errors(s1):
    with pytest.raises(ValueError, match="lag exceeds series length"):
        lag_tables(s1, 5)
    with pytest.raises(ValueError, match="lag must be non-negative, got -1"):
        lag_tables(s1, -1)
    with pytest.raises(ValueError, match="lag must be non-negative, got -1"):
        LagTables.from_probabilities([0.5, 0.5], np.full((2, 2), 0.25), lag=-1)
    with pytest.raises(ValueError, match="probability tables must sum to 1, got marginal 0.9, joint 1.0"):
        LagTables.from_probabilities([0.5, 0.4], np.full((2, 2), 0.25))


def test_counts_match_double_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        series = random_series(rng, r=int(rng.integers(2, 5)), T=int(rng.integers(5, 51)))
        lag = int(rng.integers(0, len(series)))
        t = lag_tables(series, lag)
        assert t.pair_counts.tolist() == oracles.count_pairs(series.codes.tolist(), series.alphabet.size, lag)
        assert t.counts.tolist() == oracles.count_categories(series.codes.tolist(), series.alphabet.size)


def test_table_invariants():
    rng = np.random.default_rng(4)
    for _ in range(30):
        series = random_series(rng)
        lag = int(rng.integers(0, len(series)))
        t = lag_tables(series, lag)
        assert abs(t.marginals.sum() - 1.0) < 1e-12
        assert abs(t.joint.sum() - 1.0) < 1e-12
        assert (t.joint >= 0).all() and (t.joint <= 1).all()
        assert t.counts.sum() == t.T
        assert t.pair_counts.sum() == t.T - lag


def test_conditional_s1(s1):
    cond = conditional_probabilities(lag_tables(s1, 1))
    assert np.allclose(np.asarray(cond)[:, 0], [0.25 / 0.6, 0.5 / 0.6])
    assert not cond.mask.any()


def test_conditional_masks_absent_categories():
    series = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(3))
    cond = conditional_probabilities(lag_tables(series, 1))
    assert cond.mask[:, 2].all()
    assert not cond.mask[:, :2].any()


def test_conditional_columns_sum_to_one_at_lag_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        series = random_series(rng)
        cond = conditional_probabilities(lag_tables(series, 0))
        sums = np.asarray(cond).sum(axis=0)
        defined = ~cond.mask.any(axis=0)
        assert np.allclose(sums[defined], 1.0, atol=1e-12)


def test_conditional_columns_sum_to_one_for_population_tables():
    # joint built as conditional * marginal factorizes exactly
    p = np.array([0.5, 0.3, 0.2])
    cond = np.array([[0.6, 0.1, 0.3], [0.3, 0.8, 0.3], [0.1, 0.1, 0.4]])
    tables = LagTables.from_probabilities(p, cond * p, lag=1)
    out = conditional_probabilities(tables)
    assert np.allclose(np.asarray(out).sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(np.asarray(out), cond)


def test_conditional_of_independent_population_is_marginal():
    p = np.array([0.5, 0.3, 0.2])
    tables = LagTables.from_probabilities(p, np.outer(p, p), lag=1)
    out = np.asarray(conditional_probabilities(tables))
    assert np.allclose(out, p[:, None], atol=1e-15)
