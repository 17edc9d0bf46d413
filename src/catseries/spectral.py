"""Spectral envelope and optimal scalings of a categorical series.

Assigning a numeric value to each category turns the series into a
real-valued one whose spectrum can be analyzed; for every Fourier frequency
the envelope is the largest proportion of variance any such scaling can
concentrate there, and the maximizing scaling is reported alongside it.

Computation works on the centred indicators of the categories with the
last one dropped (the r indicators are linearly dependent; the dropped
category implicitly receives scaling 0).  The cross-periodogram matrix is
smoothed with two circular passes of a flat (Daniell) window over the Fourier
frequencies, the zeroed mean term at frequency 0 taking part in the
wrap-around; the iterated window has a single peak, so a line spectrum keeps
a unique maximum at its line.  Envelope values are normalized so that a flat
spectrum sits near 1: the average of the smoothed spectrum over all Fourier
ordinates equals the indicator covariance matrix.

Only the real part of the cross-periodogram is smoothed: the envelope is a
symmetric-definite generalized eigenproblem f(w) gamma = lambda V gamma in
the real part alone.  The centred indicators are gathered from the codes
(counts / T is their mean to the bit) and dropped once their covariance and
k DFT rows are taken.  Only the k(k+1)/2 lower-triangle periodogram columns
are formed, one at a time, and smoothed, with the (T, k, k) product's bits.
With V = L L' (Cholesky) and W = inv(L), once for all frequencies, the top
eigenpair (lambda, u) of the symmetric W f(w) W' gives the envelope lambda
and the scaling gamma = W' u, and gamma' V gamma = u' u = 1 by construction.

The symmetric matrices are built, whitened and solved ``_SOLVE_BLOCK``
frequencies at a time, which bounds the temporaries and keeps the bits.
With k = 3 (r = 4, the DNA case) each top eigenpair is found in closed form
(:func:`_top_eigenpairs3`); ``numpy.linalg.eigh``, four to seven times as
slow, solves every other k.  One envelope's traced peak is 5.9 MiB at
T = 50,000 (mostly the 3x3 block) and 19.1 MiB at T = 200,000 (mostly the
DFT rows and smoothed columns), against 8.4 and 33.6 MiB from the one-hot
matrix.  A real FFT or whitening before the transform would change the bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import CategoricalSeries, _is_integer

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


def _dft_rows(yc: np.ndarray) -> np.ndarray:
    """The DFT of each column of (T, k) values as contiguous (k, T) rows, one row at a time."""
    dft = np.empty((yc.shape[1], len(yc)), complex)
    for i, row in enumerate(dft):
        np.fft.fft(yc[:, i], out=row)
    return dft


def _periodogram_column(dft: np.ndarray, i: int, j: int, out: np.ndarray) -> np.ndarray:
    """Real cross-periodogram entry (i, j) of (k, T) DFT rows, formed in ``out`` with the bits of the
    (T, k, k) product's; the real-arithmetic ``re_i re_j + im_i im_j`` does not have them."""
    np.multiply(dft[i], np.conjugate(dft[j], out=out), out=out)
    return np.divide(out, dft.shape[1], out=out).real


def _smoothed_lower(dft: np.ndarray, window: int) -> np.ndarray:
    """Rows 1..T//2 of the smoothed real cross-periodogram of (k, T) DFT rows: its lower triangle's
    k(k+1)/2 columns, (0, 0), (1, 0), (1, 1), (2, 0), ..., each formed and smoothed in turn."""
    k, T = dft.shape
    buffer, smooth = np.empty(T, complex), np.empty((T // 2, k * (k + 1) // 2))
    for column, (i, j) in enumerate(zip(*np.tril_indices(k))):
        smooth[:, column] = _daniell2(_periodogram_column(dft, i, j, buffer), window)
    return smooth


def _symmetric(lower: np.ndarray, k: int) -> np.ndarray:
    """The exactly symmetric (n, k, k) matrices with the lower triangles of (n, k(k+1)/2) rows."""
    rows, columns = np.tril_indices(k)
    full = np.empty((len(lower), k, k))
    full[:, rows, columns] = full[:, columns, rows] = lower
    return full


def _check_window(window, T: int, shortest: int = 0) -> None:
    """At least ``shortest`` values, and a smoothing span that is a positive odd integer below T/2."""
    if T < shortest:
        raise ValueError(f"series too short for spectral analysis (need T >= {shortest})")
    if not _is_integer(window) or window % 2 == 0 or window < 1:
        raise ValueError(f"smoothing window must be a positive odd integer, got {window} with T={T}")
    if window >= T / 2:
        raise ValueError(f"smoothing window must be shorter than T/2, got {window} with T={T}")


def smoothed_spectrum(values, window: int) -> np.ndarray:
    """Smoothed periodogram of one numeric series at frequencies 1/T..1/2.

    Uses the same centering, normalization and iterated Daniell smoothing as
    the envelope computation, and rejects the windows it rejects, so the
    spectrum of a scaled series divided by its variance can be compared
    against the envelope directly.  Raises, naming it, on input that is
    not 1-D, on the first value that is not finite, and on values so large
    that the spectrum overflows.
    """
    z = np.asarray(values, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {z.shape}")
    _check_window(window, z.size)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise ValueError(f"value at position {bad[0] + 1} (1-based) is not finite: {z[bad[0]]}")
    with np.errstate(over="ignore", invalid="ignore"):
        zc = z - z.mean()
        dft = np.fft.fft(zc)
        spectrum = _daniell2((dft * dft.conj()).real / z.size, window)
    if not np.isfinite(spectrum).all():
        raise ValueError("smoothed spectrum is not finite (values too large)")
    return spectrum


_SOLVE_BLOCK = 8192  # frequencies whitened and solved at a time; bounds the solvers' temporaries


def _top_eigenpairs3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue (n,) and unit eigenvector (n, 3) of each symmetric 3x3 matrix A of ``a``
    (n, 3, 3), read from its lower triangle, in numpy arithmetic over all n at once.

    B = A - q I, with q = tr A / 3, is scaled by a power of two to a largest entry in [1/2, 1), so
    no square under- or overflows, and C = B / p with p = ||B||_F / sqrt(6) has the eigenvalues
    2 cos(phi + 2 pi j / 3), phi = acos(det C / 2) / 3 (Smith 1961).  Of the top and bottom ones,
    the one farther from the middle one is well conditioned, and its vector s is the largest cross
    product of two rows of C - mu I.  When that is the bottom one, the top vector is the top
    eigenvector of C's 2x2 block in an orthonormal basis (u, w) of s's complement, reached by the
    angle atan2(2 u'Cw, u'Cu - w'Cw) / 2.  The eigenvalue is the Rayleigh quotient
    q + p v'Cv, which holds to rounding near a tie where the trigonometric one does not.  Where
    every cross product vanishes, as where A = q I exactly, s is e3, never a zero vector."""
    diagonal = a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]
    q = sum(diagonal) / 3
    b = np.array([diagonal[0] - q, diagonal[1] - q, diagonal[2] - q, a[:, 1, 0], a[:, 2, 0], a[:, 2, 1]])
    exponent = np.frexp(np.abs(b).max(axis=0))[1]
    b = np.ldexp(b, -exponent)
    p = np.sqrt((_dot(b[:3], b[:3]) + 2 * _dot(b[3:], b[3:])) / 6)
    c00, c11, c22, c10, c20, c21 = b / np.where(p > 0, p, 1.0)
    c = (c00, c10, c20), (c10, c11, c21), (c20, c21, c22)  # rows of C
    phi = np.arccos(np.clip(_dot(c[0], _cross(c[1], c[2])) / 2, -1.0, 1.0)) / 3
    mu1, mu3 = 2 * np.cos(phi), 2 * np.cos(phi + 2 * np.pi / 3)
    mu2 = -mu1 - mu3
    top_apart = (mu1 - mu2 >= mu2 - mu3) | (p == 0)

    mu = np.where(top_apart, mu1, mu3) * (p > 0)  # 0 where C = 0, so every cross product vanishes there
    rows = (c00 - mu, c10, c20), (c10, c11 - mu, c21), (c20, c21, c22 - mu)
    s = _cross(rows[0], rows[1])
    norm = _dot(s, s)
    for i, j in (0, 2), (1, 2):
        other = _cross(rows[i], rows[j])
        larger = _dot(other, other)
        larger, norm = larger > norm, np.maximum(larger, norm)
        s = [np.where(larger, x, y) for x, y in zip(other, s)]
    flat = norm == 0
    s[2] = np.where(flat, 1.0, s[2])
    scale = 1 / np.sqrt(np.where(flat, 1.0, norm))
    s = [x * scale for x in s]

    # u is the axis of s's smaller-magnitude entry of 0 and 2, crossed with s: |u|^2 > 1/2
    first = np.abs(s[0]) > np.abs(s[2])
    u = np.where(first, -s[1], 0.0), np.where(first, s[0], -s[2]), np.where(first, 0.0, s[1])
    scale = 1 / np.sqrt(_dot(u, u))
    u = [x * scale for x in u]
    w = _cross(s, u)
    cu, cw = [_dot(row, u) for row in c], [_dot(row, w) for row in c]
    theta = np.arctan2(2 * _dot(u, cw), _dot(u, cu) - _dot(w, cw)) / 2
    cos, sin = np.cos(theta), np.sin(theta)
    v = np.empty((len(a), 3))
    for i in range(3):
        v[:, i] = np.where(top_apart, s[i], cos * u[i] + sin * w[i])
    return q + np.ldexp(p * _dot(v.T, [_dot(row, v.T) for row in c]), exponent), v


def _cross(x, y):
    """The cross product of 3-vectors given as sequences of three arrays of their entries."""
    return x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]


def _dot(x, y):
    """The dot product of 3-vectors given as sequences of three arrays of their entries."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _envelope(yc: np.ndarray, window: int) -> SpectralEnvelope:
    """Envelope of centred (T, k) indicators.  ``yc`` is dropped once its covariance and DFT rows
    are taken, so a caller passes a temporary and no (T, k) array outlives the transform."""
    T, k = yc.shape
    cov = (yc.T @ yc) / T
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= 1e-12 * eigvals[-1]:  # relative to the covariance's scale: rescaled indicators agree
        raise ValueError("indicator covariance is singular (a category is constant over the series); "
                         "drop unused categories from the alphabet and retry")
    dft = _dft_rows(yc)
    del yc
    smooth = _smoothed_lower(dft, window)
    del dft
    if not (np.isfinite(smooth).all() and np.isfinite(cov).all()):
        raise ValueError("smoothed spectrum or indicator covariance is not finite (indicators too large)")
    n_freq = T // 2
    whiten = np.linalg.inv(np.linalg.cholesky(cov))
    envelope, u = np.empty(n_freq), np.empty((n_freq, k))
    for start in range(0, n_freq, _SOLVE_BLOCK):
        block = slice(start, start + _SOLVE_BLOCK)
        whitened = whiten @ _symmetric(smooth[block], k) @ whiten.T
        if k == 3:
            envelope[block], u[block] = _top_eigenpairs3(whitened)
        else:
            values, vectors = np.linalg.eigh(whitened)
            envelope[block], u[block] = values[:, -1], vectors[:, :, -1]
    scalings = u @ whiten
    magnitudes = np.abs(scalings)
    largest = magnitudes.max(axis=1, keepdims=True)
    top = (magnitudes >= largest - 1e-9 * largest).argmax(axis=1)  # the first of entries tied within rounding
    scalings[scalings[np.arange(n_freq), top] < 0] *= -1.0
    return SpectralEnvelope(np.arange(1, n_freq + 1) / T, envelope, scalings, window)


def envelope_from_indicators(indicators: np.ndarray, window: int) -> SpectralEnvelope:
    """Envelope of an already rank-reduced (T, k) indicator matrix."""
    y = np.asarray(indicators, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    _check_window(window, len(y), shortest=8)
    bad = np.argwhere(~np.isfinite(y))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"indicator at row {row + 1}, column {col + 1} (1-based) is not finite: {y[row, col]}")
    return _envelope(y - y.mean(axis=0), window)


def spectral_envelope(series: CategoricalSeries, window: int | None = None) -> SpectralEnvelope:
    """Sample spectral envelope of a categorical series.

    ``window`` is the odd length of the flat smoothing span; defaults to
    :func:`default_window`.  Raises, naming them, when declared categories
    never occur: exactly when the indicators' covariance is singular.
    """
    r, T = series.alphabet.size, len(series)
    counts = np.bincount(series.codes, minlength=r + 1)[1:]
    if not counts.all():
        absent = ", ".join(repr(symbol) for symbol, count in zip(series.alphabet.symbols, counts) if not count)
        raise ValueError(f"indicator covariance is singular: the series never takes {absent}; "
                         "drop unused categories from the alphabet and retry")
    window = default_window(T) if window is None else window
    _check_window(window, T, shortest=8)
    return _envelope((np.eye(r)[:, :-1] - counts[:-1] / T)[series.codes - 1], window)


def scaled_series(series: CategoricalSeries, gamma) -> np.ndarray:
    """Numeric series obtained by mapping category i to gamma[i - 1]."""
    g = np.asarray(gamma, dtype=float)
    if g.shape != (series.alphabet.size,):
        raise ValueError("scaling vector length must equal the alphabet size")
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise ValueError(f"scaling of category {series.alphabet.symbols[bad[0]]!r} is not finite: {g[bad[0]]}")
    return g[series.codes - 1]
