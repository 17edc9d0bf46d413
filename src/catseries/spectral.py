"""Spectral envelope and optimal scalings of a categorical series.

Assigning a numeric value to each category turns the series into a
real-valued one whose spectrum can be analyzed; for every Fourier frequency
the envelope is the largest proportion of variance any such scaling can
concentrate there, and the maximizing scaling is reported alongside it.

Computation works on the one-hot representation with the last category
dropped (the r indicators are linearly dependent; the dropped category
implicitly receives scaling 0).  The cross-periodogram matrix is smoothed
with two circular passes of a flat (Daniell) window over the Fourier
frequencies, with the zeroed mean term at frequency 0 taking part in the
wrap-around.  Iterating the flat window gives the effective kernel a single
peak, so a line spectrum keeps a unique maximum at its line instead of a
flat-topped plateau.  Envelope values are normalized so that a flat
spectrum sits near 1: the average of the smoothed spectrum over all
Fourier ordinates equals the indicator covariance matrix.

Only the real part of the cross-periodogram is smoothed: the envelope is a
symmetric-definite generalized eigenproblem f(w) gamma = lambda V gamma in
the real part alone.  The covariance V is the same at every frequency, so it
is reduced once: with V = L L' (Cholesky) and W = inv(L), the top eigenpair
(lambda, u) of the symmetric W f(w) W' gives the envelope lambda and the
scaling gamma = W' u, and gamma' V gamma = u' u = 1 by construction.  One
batched ``numpy.linalg.eigh`` solves all frequencies at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import CategoricalSeries, _is_integer, binarize

__all__ = [
    "SpectralEnvelope",
    "spectral_envelope",
    "envelope_from_indicators",
    "scaled_series",
    "smoothed_spectrum",
    "default_window",
]


@dataclass(frozen=True, eq=False)
class SpectralEnvelope:
    """Envelope over the Fourier frequencies in (0, 1/2].

    ``scalings[k]`` maximizes the smoothed spectrum-to-variance ratio at
    ``frequencies[k]`` and is normalized to unit variance of the scaled
    series (gamma' V gamma = 1), with sign fixed so its largest-magnitude
    entry is positive; of entries within 1e-9 relative of the largest
    magnitude, the first is made positive.  It has length r - 1; the
    dropped last category has implicit scaling 0.
    """

    frequencies: np.ndarray
    envelope: np.ndarray
    scalings: np.ndarray
    window: int


def default_window(T: int) -> int:
    """Default Daniell smoothing span, roughly sqrt(T) and always odd."""
    return 2 * int(np.sqrt(T) / 2) + 1


def _circular_mean(x: np.ndarray, window: int, rows: int) -> np.ndarray:
    """Rows 0..rows-1 of the circular moving average of ``x`` along axis 0 over an odd ``window``
    below len(x)/2, with the bits of ``scipy.ndimage.uniform_filter1d(x, window, axis=0,
    mode="wrap")``: a running sum that starts at the sum of the first ``window`` wrapped rows and
    adds ``new - old`` per row (a sequential ``np.cumsum``), each row divided by ``window``."""
    n, h = len(x), window // 2
    out = np.empty((rows, *x.shape[1:]))
    out[0] = np.cumsum(np.concatenate([x[n - h :], x[: h + 1]]), axis=0)[-1]
    cuts = [1, *(cut for cut in (h + 1, n - h) if cut < rows), rows]  # where new or old wraps around
    for lo, hi in zip(cuts, cuts[1:]):
        new, old = (lo + h) % n, (lo - 1 - h) % n
        np.subtract(x[new : new + hi - lo], x[old : old + hi - lo], out=out[lo:hi])
    np.cumsum(out, axis=0, out=out)
    return np.divide(out, window, out=out)


def _daniell2(values: np.ndarray, window: int) -> np.ndarray:
    """Rows 1..T//2 of two circular flat-window passes along axis 0 (iterated Daniell); the
    second pass runs only as far as the rows it returns."""
    once = _circular_mean(values, window, len(values))
    return _circular_mean(once, window, len(values) // 2 + 1)[1:]


def _check_window(window, T: int) -> None:
    """The smoothing span must be a positive odd integer below T/2."""
    if not _is_integer(window) or window % 2 == 0 or window < 1:
        raise ValueError(f"smoothing window must be a positive odd integer, got {window} with T={T}")
    if window >= T / 2:
        raise ValueError(f"smoothing window must be shorter than T/2, got {window} with T={T}")


def smoothed_spectrum(values, window: int) -> np.ndarray:
    """Smoothed periodogram of one numeric series at frequencies 1/T..1/2.

    Uses the same centering, normalization and iterated Daniell smoothing as
    the envelope computation, and rejects the windows it rejects, so the
    spectrum of a scaled series divided by its variance can be compared
    against the envelope directly.
    """
    z = np.asarray(values, dtype=float)
    _check_window(window, z.size)
    zc = z - z.mean()
    dft = np.fft.fft(zc)
    period = (dft * dft.conj()).real / z.size
    return _daniell2(period, window)


def envelope_from_indicators(indicators: np.ndarray, window: int) -> SpectralEnvelope:
    """Envelope of an already rank-reduced (T, k) indicator matrix."""
    y = np.asarray(indicators, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    T = len(y)
    if T < 8:
        raise ValueError("series too short for spectral analysis (need T >= 8)")
    _check_window(window, T)
    bad = np.argwhere(~np.isfinite(y))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"indicator at row {row + 1}, column {col + 1} (1-based) is not finite: {y[row, col]}")

    yc = y - y.mean(axis=0)
    cov = (yc.T @ yc) / T
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= 1e-12 * eigvals[-1]:  # relative to the covariance's scale: rescaled indicators agree
        raise ValueError(
            "indicator covariance is singular (a category is constant over the series); "
            "drop unused categories from the alphabet and retry"
        )

    dft = np.fft.fft(yc, axis=0)
    period = (dft[:, :, None] * dft.conj()[:, None, :] / T).real
    smooth = _daniell2(period, window)
    smooth = (smooth + smooth.transpose(0, 2, 1)) / 2.0
    if not (np.isfinite(smooth).all() and np.isfinite(cov).all()):
        raise ValueError("smoothed spectrum or indicator covariance is not finite (indicators too large)")

    n_freq = T // 2
    frequencies = np.arange(1, n_freq + 1) / T
    whiten = np.linalg.inv(np.linalg.cholesky(cov))
    values, vectors = np.linalg.eigh(whiten @ smooth @ whiten.T)
    envelope = values[:, -1]
    scalings = vectors[:, :, -1] @ whiten
    magnitudes = np.abs(scalings)
    largest = magnitudes.max(axis=1, keepdims=True)
    top = (magnitudes >= largest - 1e-9 * largest).argmax(axis=1)  # the first of entries tied within rounding
    scalings[scalings[np.arange(n_freq), top] < 0] *= -1.0
    return SpectralEnvelope(frequencies, envelope, scalings, window)


def spectral_envelope(series: CategoricalSeries, window: int | None = None) -> SpectralEnvelope:
    """Sample spectral envelope of a categorical series.

    ``window`` is the odd length of the flat smoothing span; defaults to
    :func:`default_window`.  Raises when some declared category is constant
    over the series (the covariance of the indicators is then singular).
    """
    if window is None:
        window = default_window(len(series))
    return envelope_from_indicators(binarize(series)[:, :-1], window)


def scaled_series(series: CategoricalSeries, gamma) -> np.ndarray:
    """Numeric series obtained by mapping category i to gamma[i - 1]."""
    g = np.asarray(gamma, dtype=float)
    if g.shape != (series.alphabet.size,):
        raise ValueError("scaling vector length must equal the alphabet size")
    return g[series.codes - 1]
