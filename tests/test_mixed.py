import numpy as np
import pytest

from catseries import (
    Alphabet,
    CategoricalSeries,
    binarize,
    mixed_cross_correlation,
    mixed_quantile_cross_correlation,
    total_mixed_cor,
    total_mixed_qcor,
)
from catseries.mixed import DEFAULT_RHO_GRID, quantile_level_integral

import oracles
from conftest import random_series


def test_indicator_self_correlation_is_one():
    rng = np.random.default_rng(0)
    series = random_series(rng, r=3, T=200, require_all=True)
    z = binarize(series)[:, 0]
    psi = mixed_cross_correlation(series, z, 0)
    assert np.asarray(psi)[0] == pytest.approx(1.0, abs=1e-10)


def test_alternating_pair():
    cat = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(2))
    num = [1.0, 0.0, 1.0, 0.0]
    psi = np.asarray(mixed_cross_correlation(cat, num, 0))
    assert psi[0] == pytest.approx(1.0, abs=1e-12)
    assert psi[1] == pytest.approx(-1.0, abs=1e-12)
    assert total_mixed_cor(cat, num, 0) == pytest.approx(1.0, abs=1e-12)


def test_independent_pair_is_small():
    rng = np.random.default_rng(1)
    T = 10_000
    cat = CategoricalSeries(rng.integers(1, 4, T), Alphabet.of_size(3))
    num = rng.normal(size=T)
    psi = np.asarray(mixed_cross_correlation(cat, num, 1))
    assert np.abs(psi).max() < 0.05
    qpsi = np.asarray(mixed_quantile_cross_correlation(cat, num, 1, [0.25, 0.5, 0.75]))
    assert np.abs(qpsi).max() < 0.05


def test_zero_variance_errors():
    cat = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(2))
    with pytest.raises(ValueError, match="degenerate numeric series"):
        mixed_cross_correlation(cat, [3.0, 3.0, 3.0, 3.0], 0)


def test_degenerate_category_masked():
    cat = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(3))
    num = [0.1, 0.9, 0.2, 0.8]
    psi = mixed_cross_correlation(cat, num, 0)
    assert psi.mask[2]
    with pytest.raises(ValueError, match="undefined"):
        total_mixed_cor(cat, num, 0)


def test_median_split_quantile_correlation():
    rng = np.random.default_rng(2)
    z = rng.normal(size=1000)
    cat = CategoricalSeries(np.where(z <= np.quantile(z, 0.5), 1, 2), Alphabet.of_size(2))
    psi = np.asarray(mixed_quantile_cross_correlation(cat, z, 0, [0.5]))
    assert psi[0, 0] == pytest.approx(1.0, abs=0.02)
    psi_wide = np.asarray(mixed_quantile_cross_correlation(cat, z, 0, [0.5, 0.9]))
    assert abs(psi_wide[0, 1]) < psi_wide[0, 0]


_CAT = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(2))
_NUM = [0.1, 0.9, 0.2, 0.8]


@pytest.mark.parametrize("build, message", [
    (lambda: mixed_cross_correlation(_CAT, _NUM[:3]),
     "numeric series must be one-dimensional and aligned with the categorical series"),
    (lambda: mixed_cross_correlation(_CAT, [_NUM]),
     "numeric series must be one-dimensional and aligned with the categorical series"),
    (lambda: mixed_cross_correlation(_CAT, [0.1, float("inf"), 0.2, 0.8]), "numeric series must be finite"),
    (lambda: mixed_cross_correlation(_CAT, _NUM, 4), "lag exceeds series length"),
    (lambda: mixed_quantile_cross_correlation(_CAT, _NUM, -4), "lag exceeds series length"),
    (lambda: quantile_level_integral([1.0, 2.0], [0.5, 0.2]), "rho grid must be strictly increasing"),
    (lambda: quantile_level_integral([1.0, 2.0, 3.0], [0.2, 0.5]), "values and rho grid must have matching length"),
    (lambda: total_mixed_qcor(CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(3)), _NUM),
     "total mixed q-correlation undefined: a category has degenerate marginal probability"),
])
def test_bad_mixed_input_is_named(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("lag", [1.5, np.float64(1.0), True])
def test_mixed_lags_must_be_integers(lag):
    for build in (mixed_cross_correlation, mixed_quantile_cross_correlation, total_mixed_cor, total_mixed_qcor):
        with pytest.raises(ValueError) as err:
            build(_CAT, _NUM, lag)
        assert str(err.value) == f"lag must be an integer, got {lag!r}"


@pytest.mark.parametrize("grid, level", [
    ([0.1, 1.5], "1.5"), ([0.1, float("nan")], "nan"), ([-0.2, 0.5], "-0.2"),
    ([0.2, float("inf")], "inf"), ([0.0, 0.5], "0.0"), ([0.5, 1.0], "1.0"),
])
def test_quantile_levels_lie_inside_the_unit_interval(grid, level):
    """[0.1, 1.5] used to integrate with a negative end weight and a NaN
    level to give NaN or numpy's own quantile error."""
    message = f"rho grid must lie strictly inside (0, 1), got level {level}"
    for build in (lambda: quantile_level_integral([1.0, 2.0], grid),
                  lambda: mixed_quantile_cross_correlation(_CAT, _NUM, 0, grid),
                  lambda: total_mixed_qcor(_CAT, _NUM, 0, grid)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    with pytest.raises(ValueError, match=r"rho grid must be a non-empty list of levels, got shape \(0,\)"):
        mixed_quantile_cross_correlation(_CAT, _NUM, 0, [])


def test_rho_grid_validation():
    cat = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(2))
    num = [0.1, 0.9, 0.2, 0.8]
    with pytest.raises(ValueError):
        mixed_quantile_cross_correlation(cat, num, 0, [0.0, 0.5])
    with pytest.raises(ValueError, match="at least two"):
        total_mixed_qcor(cat, num, 0, [0.5])


def test_total_mixed_cor_is_mean_of_squares():
    rng = np.random.default_rng(3)
    for _ in range(10):
        series = random_series(rng, r=3, T=50, require_all=True)
        num = rng.normal(size=50)
        psi = np.asarray(mixed_cross_correlation(series, num, 1))
        assert total_mixed_cor(series, num, 1) == pytest.approx(np.mean(psi**2), abs=1e-12)


def test_trapezoid_exact_on_constants():
    c2 = 0.4375
    for grid in ([0.25, 0.5, 0.75], np.linspace(0.05, 0.95, 19), [0.1, 0.9]):
        grid = np.asarray(grid, dtype=float)
        value = quantile_level_integral(np.full(grid.size, c2), grid)
        assert value == pytest.approx(c2, abs=1e-14)


def test_grid_refinement_converges():
    rng = np.random.default_rng(4)
    T = 4000
    z = rng.normal(size=T)
    noisy = np.where(z + 0.5 * rng.normal(size=T) <= 0, 1, 2)
    cat = CategoricalSeries(noisy, Alphabet.of_size(2))
    coarse = total_mixed_qcor(cat, z, 0, np.linspace(0.05, 0.95, 19))
    fine = total_mixed_qcor(cat, z, 0, np.linspace(0.05, 0.95, 37))
    assert abs(coarse - fine) < 1e-3


def test_affine_invariance_of_linear_correlation():
    rng = np.random.default_rng(5)
    series = random_series(rng, r=3, T=80, require_all=True)
    z = rng.normal(size=80)
    base = np.asarray(mixed_cross_correlation(series, z, 2))
    scaled = np.asarray(mixed_cross_correlation(series, 3.7 * z + 11.0, 2))
    assert np.allclose(base, scaled, atol=1e-10)


def test_monotone_invariance_of_quantile_correlation():
    rng = np.random.default_rng(6)
    series = random_series(rng, r=3, T=200, require_all=True)
    z = rng.normal(size=200)
    grid = [0.2, 0.5, 0.8]
    base = np.asarray(mixed_quantile_cross_correlation(series, z, 1, grid))
    for transform in (np.exp, lambda x: x**3, lambda x: np.arctan(x) * 2):
        mapped = np.asarray(mixed_quantile_cross_correlation(series, transform(z), 1, grid))
        assert np.allclose(base, mapped, atol=1e-10)


def test_negative_lag_mirrors_positive():
    rng = np.random.default_rng(7)
    series = random_series(rng, r=2, T=60, require_all=True)
    z = rng.normal(size=60)
    # lag -2 pairs Y_t with Z_{t+2}; compare against the oracle's alignment
    psi = np.asarray(mixed_cross_correlation(series, z, -2))
    expected = oracles.mixed_psi(series.codes.tolist(), 2, z.tolist(), -2)
    assert np.allclose(psi, expected, atol=1e-10)


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        series = random_series(rng, r=3, T=40, require_all=True)
        z = rng.normal(size=40)
        lag = int(rng.integers(0, 5))
        codes = series.codes.tolist()
        assert np.allclose(
            np.asarray(mixed_cross_correlation(series, z, lag)),
            oracles.mixed_psi(codes, 3, z.tolist(), lag),
            atol=1e-10,
        )
        grid = [0.2, 0.4, 0.6, 0.8]
        assert np.allclose(
            np.asarray(mixed_quantile_cross_correlation(series, z, lag, grid)),
            oracles.mixed_qpsi(codes, 3, z.tolist(), lag, grid),
            atol=1e-10,
        )
        assert total_mixed_qcor(series, z, lag, grid) == pytest.approx(
            oracles.total_mixed_qcor(codes, 3, z.tolist(), lag, grid), abs=1e-10
        )


def _mixed_case(seed, r, T, offset=0.0, used=None):
    rng = np.random.default_rng(seed)
    series = CategoricalSeries(rng.integers(1, (used or r) + 1, T), Alphabet.of_size(r))
    return series, offset + rng.normal(size=T)


def _assert_same_bits(result, values, mask):
    data = np.asarray(result)
    assert data.dtype == values.dtype and data.shape == values.shape
    assert data.tobytes() == values.tobytes()
    assert np.array_equal(np.ma.getmaskarray(result), mask)


@pytest.mark.parametrize("case, lag, rho", [
    (lambda: _mixed_case(1, 3, 60), -3, [0.2, 0.5, 0.8]),
    (lambda: _mixed_case(2, 3, 30), 29, [0.25, 0.75]),
    (lambda: _mixed_case(3, 3, 30), -29, [0.25, 0.75]),
    (lambda: _mixed_case(4, 4, 200), 2, [0.5]),
    (lambda: _mixed_case(5, 3, 500, offset=1e9), 1, None),
    (lambda: _mixed_case(6, 4, 80, used=3), -1, None),
], ids=["negative lag", "lag T-1", "lag -(T-1)", "one-level grid", "large offset", "absent category"])
def test_one_pass_matches_the_per_level_windows_exactly(case, lag, rho):
    """Both cross-correlations give the bits of one window covariance per
    numeric level, masks included."""
    series, z = case()
    _assert_same_bits(mixed_cross_correlation(series, z, lag), *oracles.mixed_cross_correlation(series, z, lag))
    grid = DEFAULT_RHO_GRID if rho is None else np.asarray(rho)
    _assert_same_bits(mixed_quantile_cross_correlation(series, z, lag, rho),
                      *oracles.mixed_quantile_cross_correlation(series, z, lag, grid))


def test_totals_match_the_per_level_windows_exactly():
    rng = np.random.default_rng(9)
    for _ in range(40):
        T = int(rng.integers(20, 400))
        lag = int(rng.integers(-5, 6))
        series = random_series(rng, r=int(rng.integers(2, 6)), T=T, require_all=True)
        z = rng.normal(size=T) * rng.uniform(0.1, 10.0) + rng.uniform(-1e6, 1e6)
        grid = np.sort(rng.choice(np.arange(1, 20) / 20, size=int(rng.integers(2, 8)), replace=False))
        values, _ = oracles.mixed_cross_correlation(series, z, lag)
        qvalues, _ = oracles.mixed_quantile_cross_correlation(series, z, lag, grid)
        assert total_mixed_cor(series, z, lag) == float(np.mean(values * values))
        assert total_mixed_qcor(series, z, lag, grid) == float(np.mean(quantile_level_integral(qvalues**2, grid)))
        _assert_same_bits(mixed_quantile_cross_correlation(series, z, lag, grid), qvalues, np.zeros(qvalues.shape, bool))
