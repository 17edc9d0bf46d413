import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from catseries import Alphabet, CategoricalSeries, scaled_series, spectral, spectral_envelope
from catseries.series import binarize
from catseries.simulate import NdarmaModel, generate_series
from catseries.spectral import (
    _daniell2,
    _dft_rows,
    _periodogram_column,
    _smoothed_lower,
    _symmetric,
    _top_eigenpairs3,
    default_window,
    envelope_from_indicators,
    smoothed_spectrum,
)

from conftest import random_series, series_with_every_category, traced_peak_mib


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


@pytest.mark.parametrize("codes, absent", [
    ([1, 2], "'3'"),  # the last category, whose indicator is dropped: the others sum to 1
    ([1, 3], "'2'"),
    ([3, 3, 3, 1], "'2'"),
    ([4, 4], "'1', '2', '3'"),
])
def test_the_envelope_names_the_categories_the_series_never_takes(codes, absent):
    series = CategoricalSeries(np.tile(codes, 60), Alphabet.of_size(max(3, *codes)))
    with pytest.raises(ValueError) as err:
        spectral_envelope(series)
    assert str(err.value) == (f"indicator covariance is singular: the series never takes {absent}; "
                              "drop unused categories from the alphabet and retry")


@given(st.integers(8, 300), st.integers(1, 4), st.floats(1e-150, 1e150), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_smoothed_cross_periodogram_is_exactly_symmetric(T, k, scale, indicators, data):
    """No symmetrization is needed before the solve: the smoothed real
    cross-periodogram equals its transpose bit for bit, for indicators or
    any centred values at any scale.  Its lower triangle, smoothed a column
    at a time, has the bits of the whole (T, k, k) broadcast product's lower
    triangle smoothed at once."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    y = scale * (rng.integers(0, 2, (T, k)) if indicators else rng.normal(size=(T, k)))
    window = data.draw(st.integers(0, (T - 3) // 4), label="half") * 2 + 1  # odd and below T/2
    yc = y - y.mean(axis=0)
    lower = _smoothed_lower(_dft_rows(yc), window)
    smooth = _symmetric(lower, k)
    assert smooth.shape == (T // 2, k, k)
    assert (smooth.view(np.uint64) == smooth.transpose(0, 2, 1).view(np.uint64)).all()
    dft = np.fft.fft(yc, axis=0)
    rows, columns = np.tril_indices(k)
    full = (dft[:, :, None] * dft.conj()[:, None, :] / T).real
    assert (lower.view(np.uint64) == _daniell2(full[:, rows, columns], window).view(np.uint64)).all()


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
    f = oracles.daniell2((dft[:, :, None] * dft.conj()[:, None, :] / T).real, window)[1 : T // 2 + 1]
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

    # Each solver returns the exact top eigenvector of a whitened matrix A = W f W' off by about
    # k eps cond(V) ||A||: forming W f W' costs k eps ||W||^2 ||f||, and ||A|| >= ||f|| / ||V||.
    # By Davis and Kahan (1970) that turns the unit eigenvector u by at most k eps cond(V) / g,
    # where g <= 1 is the top eigenvalue's gap relative to it (1 for a lone eigenvalue: the
    # vector still carries its own rounding), and gamma = W'u stretches the turn by
    # ||W|| <= sqrt(cond(V)) ||gamma||.  So two solvers differ by c eps ||gamma|| / g with
    # c = 2 k cond(V)^1.5.  Over 600 random series (r 2..6, T up to 400, mostly one category)
    # the differences stayed below 1.3 cond(V) eps ||gamma|| / g.
    whiten = np.linalg.inv(np.linalg.cholesky(cov))
    values = np.column_stack([np.full(len(f), -np.inf), np.linalg.eigvalsh(whiten @ f @ whiten.T)])
    gap = np.minimum((values[:, -1] - values[:, -2]) / np.abs(values[:, -1]), 1.0)
    separated = gap >= 1e-6
    c = 2 * y.shape[1] * np.linalg.cond(cov) ** 1.5
    bound = c * np.finfo(float).eps * np.linalg.norm(scalings, axis=1) / gap
    difference = np.linalg.norm(gamma - scalings, axis=1)
    assert (difference[separated] <= bound[separated]).all(), np.max(difference[separated] / bound[separated])


@given(series_with_every_category(), st.data())
@settings(max_examples=60, deadline=None)
def test_envelope_agrees_with_the_per_frequency_oracle(series, data):
    T = len(series)
    window = 2 * data.draw(st.integers(0, -(-(T - 2) // 4) - 1), label="half_window") + 1
    _assert_agrees_with_the_per_frequency_oracle(binarize(series)[:, :-1], window)


def test_envelope_agrees_with_the_oracle_for_three_lone_categories():
    # at frequency index 65 (0-based) the top two whitened eigenvalues lie 7.8e-6 apart relative;
    # the scalings there differ by 1.8e-9 in one entry, which is rounding at that gap
    codes = np.ones(353, dtype=np.int64)
    codes[[100, 200, 300]] = [2, 3, 4]
    _assert_agrees_with_the_per_frequency_oracle(binarize(CategoricalSeries(codes, Alphabet.of_size(4)))[:, :-1], 161)


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


def test_envelope_agrees_with_the_oracle_for_a_long_four_letter_series():
    # r = 4, the DNA case, is the one the closed-form 3x3 solver takes: held here whatever hypothesis draws
    model = NdarmaModel(p=2, q=1, selection=[0.5, 0.2, 0.2, 0.1], innovation=[0.1, 0.4, 0.3, 0.2], burn_in=50)
    series = generate_series(model, 2000, 28, Alphabet(("A", "C", "G", "T")))
    _assert_agrees_with_the_per_frequency_oracle(binarize(series)[:, :-1], default_window(2000))


def test_three_indicators_are_solved_without_eigh(monkeypatch):
    rng = np.random.default_rng(11)
    y = binarize(random_series(rng, r=4, T=300, require_all=True))[:, :-1]
    expected = envelope_from_indicators(y, 17)
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: pytest.fail("eigh called"))
    env = envelope_from_indicators(y, 17)
    assert np.array_equal(env.envelope, expected.envelope) and np.array_equal(env.scalings, expected.scalings)
    with pytest.raises(pytest.fail.Exception, match="eigh called"):
        envelope_from_indicators(y[:, :2], 17)


_KINDS = ["separated", "top pair tied", "bottom pair tied", "scalar", "diagonal"]


@given(st.sampled_from(_KINDS), st.sampled_from([1e-150, 1e-9, 1.0, 1e9, 1e150]), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_the_3x3_solver_agrees_with_eigh(kind, scale, n, seed):
    """Batches of symmetric positive semidefinite 3x3 matrices of one kind: eigenvalues apart,
    the top or the bottom two within 1e-15 relative, c I (c = 0 for about half), or diagonal.  The
    eigenvalue, the residual and the vector's length hold to rounding in units of ||A||, and the
    vector agrees with eigh's up to sign wherever the top eigenvalue's relative gap g is at least
    1e-6, within 16 eps / g (Davis and Kahan: both solvers err by a few eps ||A|| / gap)."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.uniform(0.0, 1.0, (n, 3)), axis=1)
    if kind == "top pair tied":
        values[:, 1] = values[:, 2] * (1 - 1e-15 * rng.uniform(0.0, 1.0, n))
    elif kind == "bottom pair tied":
        values[:, 0] = values[:, 1] * (1 - 1e-15 * rng.uniform(0.0, 1.0, n))
    elif kind == "scalar":
        values[:] = values[:, 2:] * (rng.uniform(0.0, 1.0, (n, 1)) < 0.5)
    if kind in ("scalar", "diagonal"):
        a = np.zeros((n, 3, 3))
        a[:, [0, 1, 2], [0, 1, 2]] = rng.permuted(values, axis=1)
    else:
        rotations = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        a = np.einsum("nij,nj,nkj->nik", rotations, values, rotations)
        a = (a + a.transpose(0, 2, 1)) / 2
    a *= scale

    envelope, vectors = _top_eigenpairs3(a)
    reference, basis = np.linalg.eigh(a)
    size = np.abs(reference).max(axis=1)
    size[size == 0] = 1.0
    eps = np.finfo(float).eps
    assert (np.abs(envelope - reference[:, -1]) <= 16 * eps * size).all()
    residual = np.einsum("nij,nj->ni", a / size[:, None, None], vectors) - (envelope / size)[:, None] * vectors
    assert (np.linalg.norm(residual, axis=1) <= 8 * eps).all()
    assert (np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= 4 * eps).all()
    gap = (reference[:, -1] - reference[:, -2]) / size
    separated = gap >= 1e-6
    top = basis[:, :, -1]
    turn = np.minimum(np.linalg.norm(vectors - top, axis=1), np.linalg.norm(vectors + top, axis=1))
    assert (turn[separated] <= 16 * eps / gap[separated]).all(), np.max(turn[separated] * gap[separated] / eps)


def test_a_multiple_of_the_identity_gets_a_unit_vector():
    # where q = tr A / 3 is exact, B = 0 and every cross product vanishes: e3 stands in for them;
    # where it is not (c = 0.1), B is a tiny multiple of I and any vector it gives is an eigenvector
    c = np.array([0.0, 1.0, 2.0**-1000, 0.1, 1e-300])
    envelope, vectors = _top_eigenpairs3(c[:, None, None] * np.eye(3))
    np.testing.assert_allclose(envelope, c, rtol=np.finfo(float).eps, atol=0)
    assert (vectors[:3] == [0.0, 0.0, 1.0]).all()
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=0, atol=np.finfo(float).eps)


def test_the_envelope_of_a_long_four_letter_series_holds_at_most_7_5_mib():
    """T = 50,000 and k = 3: no (T, k, k) periodogram is formed, one lower-triangle column at a
    time is, and the 3x3 solve runs over blocks of frequencies.  The peak is about 5.9 MiB, most
    of it the 3x3 kernel's temporaries over one block with the smoothed columns.  The (T, 3, 3)
    periodograms and the whole-array solve held 16.4 MiB."""
    rng = np.random.default_rng(12)
    y = binarize(CategoricalSeries(rng.integers(1, 5, 50_000), Alphabet.of_size(4)))[:, :-1]
    envelope_from_indicators(y, default_window(50_000))
    _, peak = traced_peak_mib(lambda: envelope_from_indicators(y, default_window(50_000)))
    assert peak <= 7.5, peak


def test_the_envelope_of_a_very_long_four_letter_series_holds_at_most_24_mib():
    """T = 200,000, r = 4, from the codes: no one-hot matrix, the centred indicators dropped once
    transformed, and the frequencies whitened and solved a block at a time.  The peak is about
    19 MiB; building the envelope from the one-hot matrix with (T/2, 3, 3) arrays held 33.6."""
    series = CategoricalSeries(np.random.default_rng(14).integers(1, 5, 200_000), Alphabet.of_size(4))
    spectral_envelope(series)
    _, peak = traced_peak_mib(lambda: spectral_envelope(series))
    assert peak <= 24, peak


@given(st.integers(8, 300), st.integers(1, 6), st.floats(1e-150, 1e150), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_lower_periodogram_has_the_bits_of_the_full_product(T, k, scale, indicators, data):
    """Each of the k(k+1)/2 columns, formed in one reused buffer from the DFT rows, is the (i, j)
    entry of the (T, k, k) broadcast product of the DFT with its conjugate, bit for bit, for
    indicators or any centred values at any scale."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    y = scale * (rng.integers(0, 2, (T, k)) if indicators else rng.normal(size=(T, k)))
    yc = y - y.mean(axis=0)
    dft = np.fft.fft(yc, axis=0)
    full = (dft[:, :, None] * dft.conj()[:, None, :] / T).real
    dft_rows = _dft_rows(yc)
    assert dft_rows.shape == (k, T) and dft_rows.flags.c_contiguous
    buffer = np.empty(T, complex)
    for i, j in zip(*np.tril_indices(k)):
        column = _periodogram_column(dft_rows, i, j, buffer)
        assert column.shape == (T,)
        assert (column.view(np.uint64) == full[:, i, j].view(np.uint64)).all()


@pytest.mark.parametrize("r, solver", [(4, "3x3"), (5, "eigh")])
def test_the_blocked_solve_has_the_bits_of_one_whole_call(r, solver):
    """T // 2 = 2 * 8192 + 5 frequencies: three blocks, the last of five, give the bits that one
    call over every frequency gives, for the 3x3 kernel (r = 4) and for ``eigh`` (r = 5)."""
    T = 2 * (2 * spectral._SOLVE_BLOCK + 5)
    y = binarize(random_series(np.random.default_rng(13), r=r, T=T, require_all=True))[:, :-1]
    sizes = []
    target, name = (spectral, "_top_eigenpairs3") if solver == "3x3" else (np.linalg, "eigh")
    original = getattr(target, name)

    def solve(a):
        sizes.append(len(a))
        return original(a)

    with mock.patch.object(target, name, solve):
        blocked = envelope_from_indicators(y, 101)
        assert sizes == [8192, 8192, 5]
        with mock.patch.object(spectral, "_SOLVE_BLOCK", T):
            whole = envelope_from_indicators(y, 101)
        assert sizes[3:] == [T // 2]
    assert (blocked.envelope.view(np.uint64) == whole.envelope.view(np.uint64)).all()
    assert (blocked.scalings.view(np.uint64) == whole.scalings.view(np.uint64)).all()


@given(st.integers(2, 6), st.integers(8, 400), st.none() | st.integers(0, 200), st.integers(0, 2**32 - 1))
@example(r=2, T=8, half=None, seed=0)
@example(r=4, T=2001, half=None, seed=1)
@example(r=20, T=600, half=7, seed=2)
@example(r=5, T=2 * spectral._SOLVE_BLOCK + 41, half=None, seed=3)
@settings(max_examples=100, deadline=None)
def test_the_envelope_of_a_series_has_the_bits_of_its_indicators_envelope(r, T, half, seed):
    """Centred indicators gathered from the codes, with counts / T as their mean, give the bits
    that the one-hot matrix gives through ``envelope_from_indicators``, for both solvers and
    across solve blocks."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(1, r + 1, T)
    codes[rng.choice(T, r, replace=False)] = np.arange(1, r + 1)
    series = CategoricalSeries(codes, Alphabet.of_size(r))
    window = None if half is None else 2 * (half % ((T - 3) // 4 + 1)) + 1
    env = spectral_envelope(series, window)
    expected = envelope_from_indicators(binarize(series)[:, :-1], env.window)
    for name in ("frequencies", "envelope", "scalings"):
        got, want = getattr(env, name), getattr(expected, name)
        assert got.shape == want.shape and (got.view(np.uint64) == want.view(np.uint64)).all(), name


@pytest.mark.parametrize("values, message", [
    (np.ones((40, 2)), r"series must be 1-D, got shape \(40, 2\)"),
    (np.ones((1, 40)), r"series must be 1-D, got shape \(1, 40\)"),
    (np.r_[1.0, np.nan, np.inf, np.zeros(37)], r"value at position 2 \(1-based\) is not finite: nan"),
    (np.r_[np.zeros(39), -np.inf], r"value at position 40 \(1-based\) is not finite: -inf"),
    (np.r_[np.full(20, 1e308), np.full(20, -1e308)], r"smoothed spectrum is not finite \(values too large\)"),
    (np.r_[np.full(20, 1e200), np.zeros(20)], r"smoothed spectrum is not finite \(values too large\)"),
])
def test_the_smoothed_spectrum_names_bad_input(values, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            smoothed_spectrum(values, 5)


def test_scaled_series_names_a_category_whose_scaling_is_not_finite():
    series = CategoricalSeries(np.array([1, 2, 3, 1]), Alphabet(("a", "b", "c")))
    for gamma, name in (([1.0, np.nan, 2.0], "'b'"), ([np.inf, 0.0, -np.inf], "'a'")):
        with pytest.raises(ValueError, match=f"scaling of category {name} is not finite"):
            scaled_series(series, gamma)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_the_smoother_has_the_bits_of_two_scipy_uniform_filters(data):
    T = data.draw(st.integers(5, 3000), label="T")
    window = 2 * data.draw(st.integers(0, -(-(T - 2) // 4) - 1), label="half_window") + 1
    shape = data.draw(st.sampled_from([(T,), (T, 1, 1), (T, 2, 2), (T, 3, 3)]), label="shape")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = 10.0 ** rng.uniform(-10, 9, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    assert np.array_equal(_daniell2(values, window), oracles.daniell2(values, window)[1 : T // 2 + 1])


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
