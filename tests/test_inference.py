import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catseries import Alphabet, CategoricalSeries, cohens_kappa_test, cramers_v_test, dependence_plot_data, holm_adjust
from catseries.inference import (
    chi2_quantile,
    chi2_upper_tail,
    kappa_null_variance,
    normal_cdf,
    normal_quantile,
)

from conftest import random_series

# standard distribution table entries
REFERENCE_QUANTILES = [
    (chi2_quantile, (0.95, 4), 9.4877),
    (chi2_quantile, (0.99, 1), 6.6349),
    (chi2_quantile, (0.95, 9), 16.9190),
    (normal_quantile, (0.975,), 1.959964),
    (normal_quantile, (0.995,), 2.575829),
    (normal_quantile, (0.5,), 0.0),
]


@pytest.mark.parametrize("func,args,expected", REFERENCE_QUANTILES)
def test_reference_quantiles(func, args, expected):
    assert func(*args) == pytest.approx(expected, abs=1e-4)


def test_quantile_tail_round_trip():
    for df in (1, 4, 9):
        for q in (0.5, 0.9, 0.99):
            x = chi2_quantile(q, df)
            assert chi2_upper_tail(x, df) == pytest.approx(1 - q, rel=1e-10)
    for q in (0.6, 0.975, 0.999):
        assert normal_cdf(normal_quantile(q)) == pytest.approx(q, rel=1e-12)


def test_kappa_null_variance_uniform():
    assert kappa_null_variance([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(0.5, abs=1e-12)


def balanced_series(r=3, T=600, seed=0):
    codes = np.tile(np.arange(1, r + 1), T // r)
    return CategoricalSeries(np.random.default_rng(seed).permutation(codes), Alphabet.of_size(r))


def test_critical_values_r3_t600():
    series = balanced_series()
    v_report = cramers_v_test(series, 5, 0.05)
    assert v_report.upper_critical == pytest.approx(0.0889, abs=5e-4)
    k_report = cohens_kappa_test(series, 5, 0.05)
    assert k_report.lower_critical == pytest.approx(-0.0582, abs=5e-4)
    assert k_report.upper_critical == pytest.approx(0.0549, abs=5e-4)


def test_reports_cover_requested_lags():
    series = balanced_series()
    for report in (cramers_v_test(series, 10, 0.05), cohens_kappa_test(series, 10, 0.05)):
        assert report.lags.tolist() == list(range(1, 11))
        assert (report.p_values >= 0).all() and (report.p_values <= 1).all()
        assert np.isfinite(report.statistics).all()


def test_zero_v_gives_p_one():
    # the four lag-4 pairs of this series hit every cell exactly once, so the
    # joint factorizes and v(4) is exactly zero
    series = CategoricalSeries(np.array([1, 2, 1, 2, 1, 1, 2, 2]), Alphabet.of_size(2))
    report = cramers_v_test(series, 4, 0.05)
    assert report.estimates[3] == pytest.approx(0.0, abs=1e-12)
    assert report.p_values[3] == pytest.approx(1.0, abs=1e-12)


def test_centered_kappa_gives_p_one():
    # the statistic is sqrt(T/V) (kappa + 1/T): an estimate of exactly -1/T
    # centers it at zero, where the two-sided p-value is 1
    series = balanced_series(r=2, T=40, seed=3)
    report = cohens_kappa_test(series, 3, 0.05)
    T = len(series)
    v_hat = kappa_null_variance([0.5, 0.5])
    expected = np.sqrt(T / v_hat) * (report.estimates + 1.0 / T)
    assert np.allclose(report.statistics, expected, atol=1e-12)
    centered = np.sqrt(T / v_hat) * (-1.0 / T + 1.0 / T)
    assert 2.0 * (1.0 - normal_cdf(abs(centered))) == pytest.approx(1.0, abs=1e-15)


def test_duality_statistic_vs_p_value():
    rng = np.random.default_rng(8)
    for _ in range(25):
        series = random_series(rng, r=3, T=120, require_all=True)
        alpha = float(rng.uniform(0.01, 0.2))
        v_report = cramers_v_test(series, 5, alpha)
        for est, p in zip(v_report.estimates, v_report.p_values):
            assert (est > v_report.upper_critical) == (p < alpha) or abs(p - alpha) < 1e-10
        k_report = cohens_kappa_test(series, 5, alpha)
        for est, p in zip(k_report.estimates, k_report.p_values):
            outside = est > k_report.upper_critical or est < k_report.lower_critical
            assert outside == (p < alpha) or abs(p - alpha) < 1e-10


def test_size_calibration_monte_carlo():
    rng = np.random.default_rng(99)
    T, reps, alpha = 600, 400, 0.05
    rejections_v = rejections_k = 0
    for _ in range(reps):
        series = CategoricalSeries(rng.integers(1, 4, T), Alphabet.of_size(3))
        rejections_v += cramers_v_test(series, 1, alpha).p_values[0] < alpha
        rejections_k += cohens_kappa_test(series, 1, alpha).p_values[0] < alpha
    assert rejections_v / reps == pytest.approx(alpha, abs=0.025)
    assert rejections_k / reps == pytest.approx(alpha, abs=0.025)


def test_test_argument_validation():
    series = balanced_series()
    with pytest.raises(ValueError):
        cramers_v_test(series, 0, 0.05)
    with pytest.raises(ValueError):
        cramers_v_test(series, 5, 1.5)
    constant = CategoricalSeries(np.ones(50, dtype=int), Alphabet.of_size(2))
    with pytest.raises(ValueError, match="one-point"):
        cohens_kappa_test(constant, 5, 0.05)
    with pytest.raises(ValueError, match="measure undefined for one-point marginal"):
        kappa_null_variance([1.0, 0.0])


@pytest.mark.parametrize("max_lag", [2.5, True, np.float64(3.0), 3.0, "3"])
@pytest.mark.parametrize("run", [
    cramers_v_test,
    cohens_kappa_test,
    lambda series, max_lag: dependence_plot_data(series, "cohens_kappa", max_lag),
], ids=["cramers_v_test", "cohens_kappa_test", "dependence_plot_data"])
def test_max_lag_must_be_an_integer(run, max_lag):
    """A fraction used to test the lags up to its ceiling, and True lag 1."""
    with pytest.raises(ValueError) as err:
        run(balanced_series(), max_lag)
    assert str(err.value) == f"max_lag must be a positive integer, got {max_lag!r}"


def test_holm_worked_example():
    assert holm_adjust([0.01, 0.04, 0.03]).tolist() == pytest.approx([0.03, 0.06, 0.06], abs=1e-12)


def test_holm_ten_lag_example():
    # ten per-lag p-values with ties; the tied pair inherits the running max
    raw = [0.00, 0.00, 0.00, 0.07, 0.62, 0.15, 0.01, 0.24, 0.04, 0.04]
    expected = [0.00, 0.00, 0.00, 0.28, 0.62, 0.45, 0.07, 0.48, 0.24, 0.24]
    assert np.round(holm_adjust(raw), 2).tolist() == expected


def test_holm_edge_cases():
    assert holm_adjust([1.0, 1.0, 1.0]).tolist() == [1.0, 1.0, 1.0]
    assert holm_adjust([0.2]).tolist() == [0.2]
    with pytest.raises(ValueError):
        holm_adjust([0.5, 1.2])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        holm_adjust([0.01, float("nan"), 0.2])
    with pytest.raises(ValueError, match="p-values must be a flat vector"):
        holm_adjust([[0.01, 0.2]])


@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_holm_monotone_and_dominates_input(p_values):
    adjusted = holm_adjust(p_values)
    assert (adjusted >= np.asarray(p_values) - 1e-15).all()
    assert (adjusted <= 1.0).all()


@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=10), st.randoms())
@settings(max_examples=100, deadline=None)
def test_holm_permutation_equivariant(p_values, rnd):
    perm = list(range(len(p_values)))
    rnd.shuffle(perm)
    base = holm_adjust(p_values)
    shuffled = holm_adjust([p_values[i] for i in perm])
    assert np.allclose(shuffled, base[perm])
