import warnings

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catseries import Alphabet, CategoricalSeries, scaled_series, spectral_envelope
from catseries.series import binarize
from catseries.spectral import default_window, envelope_from_indicators, smoothed_spectrum

from conftest import random_series, series_with_every_category


def test_scaled_series_lookup(s1):
    assert scaled_series(s1, [2.0, -1.0]).tolist() == [2.0, -1.0, 2.0, 2.0, -1.0]


def test_scaled_series_identity_and_constant():
    rng = np.random.default_rng(0)
    series = random_series(rng, r=4, T=30)
    r = series.alphabet.size
    assert (scaled_series(series, np.arange(1, r + 1)) == series.codes).all()
    assert np.ptp(scaled_series(series, np.ones(r))) == 0.0
    with pytest.raises(ValueError):
        scaled_series(series, np.ones(r + 1))


def test_period_two_peaks_at_half():
    series = CategoricalSeries(np.tile([1, 2], 512), Alphabet.of_size(2))
    env = spectral_envelope(series)
    peak = env.frequencies[np.argmax(env.envelope)]
    assert abs(peak - 0.5) <= 1.0 / len(series)


def test_period_three_peaks_at_one_third():
    series = CategoricalSeries(np.tile([1, 2, 3], 341), Alphabet.of_size(3))
    env = spectral_envelope(series)
    peak = env.frequencies[np.argmax(env.envelope)]
    assert abs(peak - 1.0 / 3.0) <= 1.0 / len(series)
    # cross-check the peak location against the raw spectrum of a fixed scaling
    x = scaled_series(series, [1.0, -0.5, -0.5])
    dft = np.abs(np.fft.fft(x - x.mean())) ** 2
    assert np.argmax(dft[: len(series) // 2 + 1]) == 341


def test_iid_envelope_is_flat():
    rng = np.random.default_rng(42)
    series = CategoricalSeries(rng.integers(1, 4, 2048), Alphabet.of_size(3))
    env = spectral_envelope(series)
    assert env.envelope.max() / np.median(env.envelope) < 3.0


def test_envelope_nonnegative_and_shapes():
    rng = np.random.default_rng(1)
    series = random_series(rng, r=3, T=256, require_all=True)
    env = spectral_envelope(series)
    assert (env.envelope >= -1e-12).all()
    assert env.frequencies.shape == env.envelope.shape
    assert env.scalings.shape == (env.frequencies.size, 2)
    assert env.frequencies[0] > 0 and env.frequencies[-1] == pytest.approx(0.5)


def test_scalings_normalized_to_unit_variance():
    rng = np.random.default_rng(2)
    series = random_series(rng, r=4, T=300, require_all=True)
    env = spectral_envelope(series)
    y = binarize(series)[:, :-1]
    yc = y - y.mean(axis=0)
    cov = yc.T @ yc / len(series)
    norms = np.einsum("fi,ij,fj->f", env.scalings, cov, env.scalings)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    series = random_series(rng, r=3, T=400, require_all=True)
    y = binarize(series)[:, :-1]
    base = envelope_from_indicators(y, 21)
    scaled = envelope_from_indicators(7.3 * y, 21)
    assert np.allclose(base.envelope, scaled.envelope, atol=1e-8)


def test_self_consistency_with_scaled_series():
    rng = np.random.default_rng(4)
    series = random_series(rng, r=3, T=512, require_all=True)
    env = spectral_envelope(series)
    for k in (3, 50, 200):
        gamma = np.append(env.scalings[k], 0.0)
        x = scaled_series(series, gamma)
        ratio = smoothed_spectrum(x, env.window)[k] / np.var(x)
        assert ratio == pytest.approx(env.envelope[k], rel=0.05)


def test_eigenvalue_dominance():
    rng = np.random.default_rng(5)
    series = random_series(rng, r=4, T=256, require_all=True)
    env = spectral_envelope(series)
    y = binarize(series)[:, :-1]
    yc = y - y.mean(axis=0)
    cov = yc.T @ yc / len(series)
    for k in (0, 40, 100):
        gamma_opt = env.scalings[k]
        for _ in range(100):
            gamma = rng.normal(size=3)
            x_all = yc @ gamma
            num = smoothed_spectrum(x_all + np.asarray(y @ gamma).mean(), env.window)[k]
            quotient = num / (gamma @ cov @ gamma)
            assert env.envelope[k] >= quotient - 1e-8


def test_errors():
    rng = np.random.default_rng(6)
    series = random_series(rng, r=3, T=100, require_all=True)
    with pytest.raises(ValueError, match="odd"):
        spectral_envelope(series, window=4)
    with pytest.raises(ValueError, match="T/2"):
        spectral_envelope(series, window=51)
    short = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(2))
    with pytest.raises(ValueError, match="too short"):
        spectral_envelope(short, window=1)
    constant_cat = CategoricalSeries(np.tile([1, 2], 50), Alphabet.of_size(3))
    with pytest.raises(ValueError, match="drop unused categories"):
        spectral_envelope(constant_cat)


@pytest.mark.parametrize("window, message", [
    (0, "smoothing window must be a positive odd integer, got 0 with T=40"),
    (-3, "smoothing window must be a positive odd integer, got -3 with T=40"),
    (2.5, "smoothing window must be a positive odd integer, got 2.5 with T=40"),
    (5.0, "smoothing window must be a positive odd integer, got 5.0 with T=40"),
    (True, "smoothing window must be a positive odd integer, got True with T=40"),
    (4, "smoothing window must be a positive odd integer, got 4 with T=40"),
    (21, "smoothing window must be shorter than T/2, got 21 with T=40"),
    (41, "smoothing window must be shorter than T/2, got 41 with T=40"),
    (80, "smoothing window must be a positive odd integer, got 80 with T=40"),
])
def test_spectrum_and_envelope_reject_the_same_windows(window, message):
    y = binarize(random_series(np.random.default_rng(8), r=3, T=40, require_all=True))[:, :-1]
    for smooth in (lambda: smoothed_spectrum(y[:, 0], window), lambda: envelope_from_indicators(y, window)):
        with pytest.raises(ValueError) as err:
            smooth()
        assert str(err.value) == message
    assert smoothed_spectrum(y[:, 0], 19).shape == (20,)


@pytest.mark.parametrize("c", [1e-7, 1e3])
def test_rescaled_indicators_give_the_same_envelope(c):
    rng = np.random.default_rng(16)
    y = binarize(random_series(rng, r=3, T=400, require_all=True))[:, :-1]
    base = envelope_from_indicators(y, 21)
    scaled = envelope_from_indicators(c * y, 21)
    np.testing.assert_allclose(scaled.envelope, base.envelope, rtol=1e-12)
    np.testing.assert_allclose(c * scaled.scalings, base.scalings, rtol=1e-9)


@pytest.mark.parametrize("c", [1e-7, 1.0, 1e3])
def test_a_constant_category_is_singular_at_any_scale(c):
    y = binarize(CategoricalSeries(np.tile([1, 2], 200), Alphabet.of_size(3)))[:, [0, 2]]
    with pytest.raises(ValueError, match="indicator covariance is singular"):
        envelope_from_indicators(c * y, 21)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_indicator_is_named_before_any_arithmetic(bad):
    rng = np.random.default_rng(7)
    y = binarize(random_series(rng, r=3, T=100, require_all=True))[:, :-1]
    y[4, 1] = bad
    y[9, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"row 5, column 2 \(1-based\) is not finite: {bad}"):
            envelope_from_indicators(y, 5)


def test_overflowing_indicators_are_rejected_by_name():
    rng = np.random.default_rng(7)
    y = binarize(random_series(rng, r=3, T=100, require_all=True))[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="covariance is not finite"):
        envelope_from_indicators(1e160 * y, 5)


def _assert_agrees_with_the_per_frequency_oracle(y, window):
    """The batched envelope against ``oracles.spectral_envelope``, one
    generalized ``eigh`` per frequency.  Whitening once by the covariance's
    Cholesky factor reorders the arithmetic, so the bits may differ; the
    envelope, the eigen-equation, the normalization and the sign convention
    hold within rounding, and the scaling agrees wherever it is well defined
    (top eigenvalue separated from the next)."""
    T = len(y)
    envelope, scalings = oracles.spectral_envelope(y, window)
    env = envelope_from_indicators(y, window)
    np.testing.assert_allclose(env.envelope, envelope, rtol=0, atol=1e-12 * envelope.max())

    yc = y - y.mean(axis=0)
    cov = yc.T @ yc / T
    dft = np.fft.fft(yc, axis=0)
    f = (dft[:, :, None] * dft.conj()[:, None, :] / T).real
    for _ in range(2):
        f = scipy.ndimage.uniform_filter1d(f, window, axis=0, mode="wrap")
    f = f[1 : T // 2 + 1]
    f = (f + f.transpose(0, 2, 1)) / 2.0
    gamma = env.scalings
    residual = np.einsum("nij,nj->ni", f, gamma) - env.envelope[:, None] * (gamma @ cov)
    scale = np.linalg.norm(f, axis=(1, 2)) * np.linalg.norm(gamma, axis=1)
    assert (np.linalg.norm(residual, axis=1) <= 1e-10 * scale).all()
    np.testing.assert_allclose(np.einsum("ni,ij,nj->n", gamma, cov, gamma), 1.0, rtol=0, atol=1e-12)
    magnitudes = np.abs(gamma)
    largest = magnitudes.max(axis=1, keepdims=True)
    top = (magnitudes >= largest - 1e-9 * largest).argmax(axis=1)
    assert (gamma[np.arange(len(gamma)), top] > 0).all()

    whiten = np.linalg.inv(np.linalg.cholesky(cov))
    values = np.column_stack([np.full(len(f), -np.inf), np.linalg.eigvalsh(whiten @ f @ whiten.T)])
    separated = values[:, -1] - values[:, -2] >= 1e-6 * np.abs(values[:, -1])
    np.testing.assert_allclose(gamma[separated], scalings[separated], rtol=0, atol=1e-9)


@given(series_with_every_category(), st.data())
@settings(max_examples=60, deadline=None)
def test_envelope_agrees_with_the_per_frequency_oracle(series, data):
    T = len(series)
    window = 2 * data.draw(st.integers(0, -(-(T - 2) // 4) - 1), label="half_window") + 1
    _assert_agrees_with_the_per_frequency_oracle(binarize(series)[:, :-1], window)


def test_envelope_agrees_with_the_oracle_for_a_large_alphabet():
    # above k = 32 indicators LAPACK blocks its tridiagonal reduction
    rng = np.random.default_rng(8)
    y = binarize(random_series(rng, r=36, T=200, require_all=True))[:, :-1]
    _assert_agrees_with_the_per_frequency_oracle(y, 11)


def test_scalings_tied_in_magnitude_make_the_first_entry_positive():
    # categories 1 and 2 occur once each and play near-symmetric roles: at
    # every frequency the two entries of gamma have the same magnitude, so
    # the larger of them is a matter of rounding and cannot fix the sign
    series = CategoricalSeries(np.r_[1, 2, np.full(14, 3)], Alphabet.of_size(3))
    y = binarize(series)[:, :-1]
    scalings = envelope_from_indicators(y, 3).scalings
    assert np.allclose(np.abs(scalings[:, 0]), np.abs(scalings[:, 1]), rtol=1e-12, atol=0)
    assert (scalings[:, 0] > 0).all() and (scalings[4:, 1] < 0).all()
    _assert_agrees_with_the_per_frequency_oracle(y, 3)


def test_envelope_agrees_with_the_oracle_for_a_flat_iid_series():
    # no frequency stands out: every envelope value is of the same small size
    rng = np.random.default_rng(9)
    y = binarize(random_series(rng, r=4, T=1000, require_all=True))[:, :-1]
    _assert_agrees_with_the_per_frequency_oracle(y, default_window(1000))


def test_a_one_dimensional_indicator_is_one_column():
    rng = np.random.default_rng(10)
    y = binarize(random_series(rng, r=2, T=120, require_all=True))[:, 0]
    flat, column = envelope_from_indicators(y, 7), envelope_from_indicators(y[:, None], 7)
    assert np.array_equal(flat.envelope, column.envelope)
    assert np.array_equal(flat.scalings, column.scalings)
    assert np.array_equal(flat.frequencies, column.frequencies)


def test_default_window_is_odd_and_reasonable():
    for T in (64, 600, 1024, 4096):
        w = default_window(T)
        assert w % 2 == 1 and 1 <= w < T / 2
