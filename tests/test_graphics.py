import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catseries import (
    Alphabet,
    CategoricalSeries,
    cycle_length_chart,
    cycle_lengths,
    dependence_plot_data,
    ewma_marginal_chart,
    ifs_circle_transform,
    rate_evolution,
)
from catseries.graphics import circle_corners, geometric_quantile, standardized_statistics
from catseries.series import binarize

from conftest import random_series, series_with_every_category

unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def test_rate_evolution_s1(s1):
    counts = rate_evolution(s1).counts
    assert counts[:, 0].tolist() == [1, 1, 2, 3, 3]
    assert counts[:, 1].tolist() == [0, 1, 1, 1, 2]


def test_rate_evolution_constant_series():
    series = CategoricalSeries(np.full(6, 2), Alphabet.of_size(3))
    counts = rate_evolution(series).counts
    assert counts[:, 1].tolist() == [1, 2, 3, 4, 5, 6]
    assert counts[:, 0].sum() == 0 and counts[:, 2].sum() == 0


def test_rate_evolution_properties():
    rng = np.random.default_rng(0)
    for _ in range(15):
        series = random_series(rng)
        counts = rate_evolution(series).counts
        assert (counts.sum(axis=1) == np.arange(1, len(series) + 1)).all()
        assert (np.diff(counts, axis=0) >= 0).all()
        assert (counts[-1] == np.bincount(series.codes, minlength=series.alphabet.size + 1)[1:]).all()


def test_cycle_lengths_s1(s1):
    records, hist = cycle_lengths(s1, 1)
    assert [(r.start, r.length) for r in records] == [(1, 2), (3, 1)]
    assert hist.counts == {1: 1, 2: 1}
    records2, hist2 = cycle_lengths(s1, 2)
    assert [r.length for r in records2] == [3]
    assert hist2.counts == {3: 1}


def test_cycle_lengths_periodic(periodic3):
    records, hist = cycle_lengths(periodic3, 1)
    assert len(records) == 199
    assert hist.counts == {3: 199}


def test_cycle_lengths_rare_category_empty():
    series = CategoricalSeries(np.array([1, 2, 1, 1]), Alphabet.of_size(3))
    records, hist = cycle_lengths(series, 3)
    assert records == [] and hist.counts == {}
    records_once, _ = cycle_lengths(series, 2)
    assert records_once == []


def test_cycle_scan_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(15):
        series = random_series(rng)
        for code in range(1, series.alphabet.size + 1):
            records, _ = cycle_lengths(series, code)
            expected = []
            positions = [t + 1 for t, c in enumerate(series.codes) if c == code]
            for a, b in zip(positions, positions[1:]):
                expected.append((code, a, b - a))
            assert [(r.category, r.start, r.length) for r in records] == expected


def test_circle_corners_r4():
    corners = circle_corners(4)
    assert np.allclose(corners, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)


def test_ifs_two_steps():
    series = CategoricalSeries(np.array([1, 1]), Alphabet.of_size(2))
    out = ifs_circle_transform(series, 0.17, 0.10)
    assert np.allclose(out.points, [[0.1, 0.0], [0.117, 0.0]], atol=1e-12)


def test_ifs_recursion_residual_and_fixed_point():
    rng = np.random.default_rng(2)
    series = random_series(rng, r=4, T=200)
    out = ifs_circle_transform(series, 0.4, 0.2)
    targets = circle_corners(4)[series.codes - 1]
    prev = np.vstack([[0.0, 0.0], out.points[:-1]])
    residual = out.points - (0.4 * prev + 0.2 * targets)
    assert np.abs(residual).max() <= 1e-12

    constant = CategoricalSeries(np.ones(80, dtype=int), Alphabet.of_size(2))
    fixed = ifs_circle_transform(constant, 0.17, 0.10)
    limit = 0.10 / (1 - 0.17)
    assert fixed.points[-1, 0] == pytest.approx(limit, abs=1e-8)
    assert (fixed.points[:, 0] <= limit + 1e-12).all()


def test_ifs_validation():
    series = CategoricalSeries(np.array([1, 2]), Alphabet.of_size(2))
    for bad_alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            ifs_circle_transform(series, bad_alpha, 0.1)
    with pytest.raises(ValueError):
        ifs_circle_transform(series, 0.5, 0.0)
    for beta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            ifs_circle_transform(series, 0.5, beta)
    for f0 in ((float("nan"), 0.0), (0.0, float("-inf"))):
        with pytest.raises(ValueError, match="f0 must be a finite 2-D point"):
            ifs_circle_transform(series, 0.5, 0.1, f0)


def test_dependence_iid_within_limits_probability():
    # per lag an iid series stays inside the limit with probability 1 - alpha,
    # so all L lags stay inside with probability near (1 - alpha)^L
    rng = np.random.default_rng(17)
    L, alpha, runs = 5, 0.05, 300
    all_within = 0
    for _ in range(runs):
        series = CategoricalSeries(rng.integers(1, 4, 400), Alphabet.of_size(3))
        table = dependence_plot_data(series, "cramers_v", L, alpha)
        all_within += bool((table.estimates <= table.upper).all())
    expected = (1 - alpha) ** L
    assert all_within / runs == pytest.approx(expected, abs=0.08)


def test_dependence_table_contract(periodic3):
    table = dependence_plot_data(periodic3, "cramers_v", 10, 0.05)
    assert len(table.lags) == 10
    assert table.lower is None
    assert table.estimates[2] == pytest.approx(1.0, abs=1e-12)  # lag 3 hits the ceiling
    assert table.estimates[2] > table.upper
    kappa_table = dependence_plot_data(periodic3, "kappa", 5, 0.05)
    assert kappa_table.lower is not None


def test_geometric_quantile_matches_cdf_inversion():
    for p in (0.02, 0.2, 0.5, 0.9):
        for u in (0.005, 0.05, 0.5, 0.95, 0.995):
            k = geometric_quantile(u, p)
            cdf = lambda m: 1.0 - (1.0 - p) ** m
            assert cdf(k) >= u - 1e-12
            assert k == 1 or cdf(k - 1) < u


def test_standardized_statistics_boundaries():
    stats = standardized_statistics(np.array([5.0, 2.0, 8.0]), 5.0, 2.0, 8.0)
    assert stats.tolist() == [0.0, -1.0, 1.0]


def test_cycle_chart_s1_like_inputs():
    series = CategoricalSeries(np.tile([1, 2, 2, 2, 2], 40), Alphabet.of_size(2))
    chart = cycle_length_chart(series, 1, alpha=0.05)
    assert chart.kind == "cycle_length"
    assert chart.center == pytest.approx(1 / 0.2)
    assert len(chart.times) == len(chart.values) == 39
    # all observed cycles have length 5 = mean; statistics stay inside the limits
    assert (np.abs(chart.statistics) <= 1.0).all()
    assert not chart.alarms.any()


def test_cycle_chart_exact_alarm_rate():
    # compare simulated alarm frequency against the exact geometric tail mass;
    # discrete quantiles keep the exact rate at or below alpha
    p, alpha = 0.02, 0.1
    lcl = geometric_quantile(alpha / 2, p)
    ucl = geometric_quantile(1 - alpha / 2, p)
    exact = (1 - (1 - p) ** (lcl - 1)) + (1 - p) ** ucl
    assert exact <= alpha + 1e-12
    rng = np.random.default_rng(3)
    lengths = rng.geometric(p, size=100_000).astype(float)
    stats = standardized_statistics(lengths, 1.0 / p, float(lcl), float(ucl))
    empirical = (np.abs(stats) > 1.0).mean()
    assert empirical == pytest.approx(exact, abs=0.005)


def test_cycle_chart_errors():
    series = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(3))
    with pytest.raises(ValueError, match="two occurrences"):
        cycle_length_chart(series, 3)
    with pytest.raises(ValueError):
        cycle_length_chart(series, 1, alpha=1.2)


def test_ewma_constant_series_closed_form_and_alarm():
    T, lam = 60, 0.9
    series = CategoricalSeries(np.ones(T, dtype=int), Alphabet.of_size(2))
    c = np.array([0.5, 0.5])
    chart = ewma_marginal_chart(series, lam, c, 3.0)
    t = np.arange(1, T + 1)
    expected = 1.0 - lam**t * (1.0 - 0.5)
    assert np.allclose(chart.ewma_path[:, 0], expected, atol=1e-12)
    assert chart.alarms[:, 0].any()  # drifting marginal eventually alarms


def test_ewma_variance_formula_and_limit():
    lam, c = 0.7, np.array([0.3, 0.7])
    series = CategoricalSeries(np.tile([1, 2], 200), Alphabet.of_size(2))
    chart = ewma_marginal_chart(series, lam, c, 2.0)
    # back out sigma from the statistic of the first component
    sigma = (chart.ewma_path[:, 0] - 0.3) / (2.0 * chart.statistics[:, 0])
    t = np.arange(1, 401)
    expected = np.sqrt(0.3 * 0.7 * (1 - lam) * (1 - lam ** (2 * t)) / (1 + lam))
    assert np.allclose(np.abs(sigma), expected, atol=1e-12)
    limit = np.sqrt(0.3 * 0.7 * (1 - lam) / (1 + lam))
    assert expected[-1] == pytest.approx(limit, abs=1e-9)


def test_ewma_simplex_preserved():
    rng = np.random.default_rng(4)
    series = random_series(rng, r=4, T=300, require_all=True)
    chart = ewma_marginal_chart(series, 0.9, None, 3.0)
    assert np.abs(chart.ewma_path.sum(axis=1) - 1.0).max() < 1e-12


def test_ewma_collapse_min_max():
    rng = np.random.default_rng(5)
    series = random_series(rng, r=4, T=120, require_all=True)
    full = ewma_marginal_chart(series, 0.9, None, 3.0)
    collapsed = ewma_marginal_chart(series, 0.9, None, 3.0, collapse=True)
    assert collapsed.kind == "ewma_minmax"
    assert np.allclose(collapsed.statistics[:, 0], full.statistics.min(axis=1))
    assert np.allclose(collapsed.statistics[:, 1], full.statistics.max(axis=1))


def test_ewma_in_control_alarm_rate_below_one_percent():
    rng = np.random.default_rng(6)
    rates = []
    c = np.full(3, 1 / 3)
    for _ in range(10):
        series = CategoricalSeries(rng.integers(1, 4, 2000), Alphabet.of_size(3))
        chart = ewma_marginal_chart(series, 0.9, c, 3.0)
        rates.append(chart.alarms.mean())
    assert np.mean(rates) < 0.01


def test_ewma_validation():
    series = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(2))
    with pytest.raises(ValueError):
        ewma_marginal_chart(series, 1.5, None, 3.0)
    with pytest.raises(ValueError):
        ewma_marginal_chart(series, 0.9, np.array([0.7, 0.7]), 3.0)
    with pytest.raises(ValueError, match="strictly inside"):
        ewma_marginal_chart(series, 0.9, np.array([1.0, 0.0]), 3.0)
    with pytest.raises(ValueError):
        ewma_marginal_chart(series, 0.9, None, 0.0)
    for k in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="k must be positive and finite"):
            ewma_marginal_chart(series, 0.9, None, k)
    with pytest.raises(ValueError, match="c must be a finite probability vector"):
        ewma_marginal_chart(series, 0.9, np.array([float("nan"), 0.5]), 3.0)


@given(series_with_every_category(), unit_open, unit_open, st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
@settings(max_examples=100, deadline=None)
def test_ifs_is_bit_identical_to_the_per_step_oracle(series, alpha, beta, f0):
    targets = circle_corners(series.alphabet.size)[series.codes - 1]
    out = ifs_circle_transform(series, alpha, beta, f0)
    assert np.array_equal(out.points, oracles.ifs_points(targets, alpha, beta, f0))


@given(series_with_every_category(), unit_open, st.data())
@settings(max_examples=100, deadline=None)
def test_ewma_path_is_bit_identical_to_the_per_step_oracle(series, lam, data):
    r = series.alphabet.size
    weights = data.draw(st.none() | st.lists(st.floats(0.05, 1.0), min_size=r, max_size=r), label="weights")
    c = None if weights is None else np.asarray(weights) / sum(weights)
    chart = ewma_marginal_chart(series, lam, c, 3.0)
    assert np.array_equal(chart.ewma_path, oracles.ewma_path(binarize(series), lam, chart.in_control))
