"""Brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops over raw counts,
independent of the numpy code paths under test.  Keep it slow and obvious.
"""

import bisect
import csv
import itertools
import math
import re


def count_pairs(codes, r, lag):
    """N_ij(lag) by enumerating every t; codes are 1-based."""
    n = [[0] * r for _ in range(r)]
    for t in range(lag, len(codes)):
        n[codes[t] - 1][codes[t - lag] - 1] += 1
    return n


def count_categories(codes, r):
    n = [0] * r
    for c in codes:
        n[c - 1] += 1
    return n


def tables(codes, r, lag):
    """(p, pij) estimated from raw counts."""
    T = len(codes)
    p = [c / T for c in count_categories(codes, r)]
    nij = count_pairs(codes, r, lag)
    pij = [[nij[i][j] / (T - lag) for j in range(r)] for i in range(r)]
    return p, pij


def gini(p):
    r = len(p)
    return r / (r - 1) * (1 - sum(x * x for x in p))


def entropy(p):
    r = len(p)
    return -sum(x * math.log(x) for x in p if x > 0) / math.log(r)


def chebycheff(p):
    r = len(p)
    return r / (r - 1) * (1 - max(p))


def gk_tau(p, pij):
    r = len(p)
    acc = 0.0
    for i in range(r):
        for j in range(r):
            if p[j] > 0:
                acc += pij[i][j] ** 2 / p[j]
    psq = sum(x * x for x in p)
    return (acc - psq) / (1 - psq)


def gk_lambda(p, pij):
    r = len(p)
    acc = sum(max(pij[i][j] for i in range(r)) for j in range(r))
    return (acc - max(p)) / (1 - max(p))


def uncertainty(p, pij):
    r = len(p)
    mutual = 0.0
    for i in range(r):
        for j in range(r):
            if pij[i][j] > 0:
                mutual += pij[i][j] * math.log(pij[i][j] / (p[i] * p[j]))
    return mutual / -sum(x * math.log(x) for x in p if x > 0)


def phi2(p, pij):
    r = len(p)
    acc = 0.0
    for i in range(r):
        for j in range(r):
            e = p[i] * p[j]
            if e > 0:
                acc += (pij[i][j] - e) ** 2 / e
    return acc


def pearson(p, pij, n_pairs):
    return n_pairs * phi2(p, pij)


def sakoda(p, pij):
    r = len(p)
    f2 = phi2(p, pij)
    return math.sqrt(r * f2 / ((r - 1) * (1 + f2)))


def cramers_v(p, pij):
    r = len(p)
    return math.sqrt(phi2(p, pij) / (r - 1))


def cohens_kappa(p, pij):
    r = len(p)
    psq = sum(x * x for x in p)
    return sum(pij[j][j] - p[j] ** 2 for j in range(r)) / (1 - psq)


def psi_from_binarization(codes, r, lag):
    """Component correlations computed from the one-hot rows themselves."""
    T = len(codes)
    rows = [[1 if codes[t] - 1 == i else 0 for i in range(r)] for t in range(T)]
    p = [sum(row[i] for row in rows) / T for i in range(r)]
    out = [[0.0] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            cnt = sum(rows[t][i] * rows[t - lag][j] for t in range(lag, T))
            pij = cnt / (T - lag)
            out[i][j] = (pij - p[i] * p[j]) / math.sqrt(p[i] * (1 - p[i]) * p[j] * (1 - p[j]))
    return out


def total_correlation(codes, r, lag):
    psi = psi_from_binarization(codes, r, lag)
    return sum(psi[i][j] ** 2 for i in range(r) for j in range(r)) / r**2


def quantile(values, rho):
    """Linear interpolation of order statistics."""
    data = sorted(values)
    h = (len(data) - 1) * rho
    lo = math.floor(h)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (h - lo) * (data[hi] - data[lo])


def _cov(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n


def mixed_psi(codes, r, zs, lag):
    """psi*_i(lag) for every category, window covariance over aligned pairs."""
    T = len(codes)
    p = [c / T for c in count_categories(codes, r)]
    mz = sum(zs) / T
    sigma2 = sum((z - mz) ** 2 for z in zs) / T
    out = []
    for i in range(r):
        ind = [1.0 if c - 1 == i else 0.0 for c in codes]
        if lag >= 0:
            pairs = [(ind[t], zs[t - lag]) for t in range(lag, T)]
        else:
            pairs = [(ind[t], zs[t - lag]) for t in range(0, T + lag)]
        cov = _cov([a for a, _ in pairs], [b for _, b in pairs])
        out.append(cov / math.sqrt(p[i] * (1 - p[i]) * sigma2))
    return out


def mixed_qpsi(codes, r, zs, lag, rho_grid):
    T = len(codes)
    p = [c / T for c in count_categories(codes, r)]
    out = [[0.0] * len(rho_grid) for _ in range(r)]
    for k, rho in enumerate(rho_grid):
        thr = quantile(zs, rho)
        flags = [1.0 if z <= thr else 0.0 for z in zs]
        for i in range(r):
            ind = [1.0 if c - 1 == i else 0.0 for c in codes]
            if lag >= 0:
                pairs = [(ind[t], flags[t - lag]) for t in range(lag, T)]
            else:
                pairs = [(ind[t], flags[t - lag]) for t in range(0, T + lag)]
            cov = _cov([a for a, _ in pairs], [b for _, b in pairs])
            out[i][k] = cov / math.sqrt(p[i] * (1 - p[i]) * rho * (1 - rho))
    return out


def total_mixed_cor(codes, r, zs, lag):
    psi = mixed_psi(codes, r, zs, lag)
    return sum(x * x for x in psi) / r


def total_mixed_qcor(codes, r, zs, lag, rho_grid):
    """Trapezoid over the grid with constant extension to the interval ends."""
    qpsi = mixed_qpsi(codes, r, zs, lag, rho_grid)
    total = 0.0
    for i in range(r):
        sq = [v * v for v in qpsi[i]]
        integral = sq[0] * rho_grid[0] + sq[-1] * (1 - rho_grid[-1])
        for k in range(len(rho_grid) - 1):
            integral += 0.5 * (sq[k] + sq[k + 1]) * (rho_grid[k + 1] - rho_grid[k])
        total += integral
    return total / r


def dcc_distance(codes_a, codes_b, r, max_lag):
    """Explicit double-sum form of the dcc dissimilarity."""

    def cells(codes):
        v_cells, k_cells = [], []
        for lag in range(1, max_lag + 1):
            p, pij = tables(codes, r, lag)
            psq = sum(x * x for x in p)
            for i in range(r):
                for j in range(r):
                    v_cells.append((pij[i][j] - p[i] * p[j]) ** 2 / (p[i] * p[j]))
            for i in range(r):
                k_cells.append((pij[i][i] - p[i] ** 2) / (1 - psq))
        return v_cells, k_cells, [c / len(codes) for c in count_categories(codes, r)]

    va, ka, pa = cells(codes_a)
    vb, kb, pb = cells(codes_b)
    return (
        sum((x - y) ** 2 for x, y in zip(va, vb))
        + sum((x - y) ** 2 for x, y in zip(ka, kb))
        + sum((x - y) ** 2 for x, y in zip(pa, pb))
    )


def db_distance(codes_a, codes_b, r, max_lag):
    """Explicit double-sum form of the db dissimilarity."""
    total = 0.0
    for lag in range(1, max_lag + 1):
        psi_a = psi_from_binarization(codes_a, r, lag)
        psi_b = psi_from_binarization(codes_b, r, lag)
        for i in range(r):
            for j in range(r):
                total += (psi_a[i][j] - psi_b[i][j]) ** 2
    pa = [c / len(codes_a) for c in count_categories(codes_a, r)]
    pb = [c / len(codes_b) for c in count_categories(codes_b, r)]
    return total + sum((x - y) ** 2 for x, y in zip(pa, pb))


# -- Per-step references for the plot kernels --------------------------------
#
# These are the step-by-step numpy/scipy forms the plot kernels had before
# they were rewritten for speed.  The EWMA and IFS kernels must reproduce them
# bit for bit (np.array_equal, not a tolerance): the arithmetic and its order
# are the same.  The envelope whitens once for all frequencies instead of once
# per frequency, so it is held to rounding bounds against its reference.


def ewma_path(y, lam, c):
    """EWMA path pi_t = lam * pi_{t-1} + (1 - lam) * Y_t from pi_0 = c, one
    numpy step per time point; y is the (T, r) one-hot matrix."""
    import numpy as np

    pi = np.empty(y.shape)
    prev = np.asarray(c, dtype=float)
    for t in range(y.shape[0]):
        prev = lam * prev + (1.0 - lam) * y[t]
        pi[t] = prev
    return pi


def ifs_points(targets, alpha, beta, f0):
    """IFS path F_k = alpha * F_{k-1} + beta * targets[k] from F_0 = f0, one
    numpy step per time point; targets is (T, 2)."""
    import numpy as np

    points = np.empty((len(targets), 2))
    prev = np.asarray(f0, dtype=float)
    for k in range(len(targets)):
        prev = alpha * prev + beta * targets[k]
        points[k] = prev
    return points


def daniell2(values, window):
    """Two circular flat-window passes of ``scipy.ndimage.uniform_filter1d``
    along axis 0, over every row."""
    import scipy.ndimage

    once = scipy.ndimage.uniform_filter1d(values, window, axis=0, mode="wrap")
    return scipy.ndimage.uniform_filter1d(once, window, axis=0, mode="wrap")


def spectral_envelope(indicators, window):
    """(envelope, scalings) of a (T, k) indicator matrix: the full complex
    cross-periodogram is smoothed (real and imaginary parts), and every
    frequency gets its own ``scipy.linalg.eigh`` call for the top
    generalized eigenpair, with the sign of the eigenvector fixed per call:
    the first entry within 1e-9 relative of the largest magnitude is
    positive."""
    import numpy as np
    import scipy.linalg

    y = np.asarray(indicators, dtype=float)
    T, k = y.shape
    yc = y - y.mean(axis=0)
    cov = (yc.T @ yc) / T
    dft = np.fft.fft(yc, axis=0)
    period = dft[:, :, None] * dft.conj()[:, None, :] / T
    smooth = daniell2(period.real, window) + 1j * daniell2(period.imag, window)
    envelope = np.empty(T // 2)
    scalings = np.empty((T // 2, k))
    for idx in range(T // 2):
        f_re = smooth[idx + 1].real
        f_re = (f_re + f_re.T) / 2.0
        vals, vecs = scipy.linalg.eigh(f_re, cov, subset_by_index=[k - 1, k - 1])
        gamma = vecs[:, 0]
        largest = max(abs(g) for g in gamma)
        top = next(i for i, g in enumerate(gamma) if abs(g) >= largest - 1e-9 * largest)
        if gamma[top] < 0:
            gamma = -gamma
        envelope[idx] = vals[0]
        scalings[idx] = gamma
    return envelope, scalings


# -- Per-level and per-cycle references for the merged paths -----------------
#
# The mixed cross-correlations as they were computed one window covariance
# per numeric level, and the cycles of a category as one record per pair of
# occurrences counted into a dict.  The package now derives both in one pass;
# its values, masks, record fields and histogram keys must equal these exactly
# (bit patterns and Python types, not a tolerance).


def _window_cov(y, z):
    """Columns of ``y`` against ``z``, centred, divided by the window length."""
    yc = y - y.mean(axis=0)
    zc = z - z.mean()
    return (yc.T @ zc) / z.size


def _mixed_windows(series, z, lag):
    from catseries.series import binarize

    T = z.size
    if abs(lag) >= T:
        raise ValueError("lag exceeds series length")
    if lag >= 0:
        return binarize(series)[lag:], z[: T - lag]
    return binarize(series)[: T + lag], z[-lag:]


def mixed_cross_correlation(series, num, lag):
    """(values, mask) of the linear mixed cross-correlation: one window
    covariance, over sqrt(p (1 - p) var(Z))."""
    import numpy as np

    from catseries.series import marginal_probabilities

    z = np.asarray(num, dtype=float)
    sigma2 = float(np.var(z))
    p = marginal_probabilities(series)
    var = p * (1.0 - p)
    y_win, z_win = _mixed_windows(series, z, lag)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _window_cov(y_win, z_win) / np.sqrt(var * sigma2)
    mask = var == 0.0
    return np.where(mask, 0.0, values), mask


def mixed_quantile_cross_correlation(series, num, lag, rho):
    """(values, mask) of the quantile mixed cross-correlation: one window
    covariance per level of ``rho``, over sqrt(p (1 - p) rho (1 - rho))."""
    import numpy as np

    from catseries.series import marginal_probabilities

    z = np.asarray(num, dtype=float)
    rho = np.asarray(rho, dtype=float)
    p = marginal_probabilities(series)
    var = p * (1.0 - p)
    thresholds = np.quantile(z, rho)
    y_win, z_win = _mixed_windows(series, z, lag)
    values = np.empty((p.size, rho.size))
    for k, (level, thr) in enumerate(zip(rho, thresholds)):
        exceed = (z_win <= thr).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            values[:, k] = _window_cov(y_win, exceed) / np.sqrt(var * level * (1.0 - level))
    mask = np.broadcast_to((var == 0.0)[:, None], values.shape)
    return np.where(mask, 0.0, values), mask


def cycle_records(codes, code):
    """((code, start, length) of every cycle, {length: count} in length order)
    of one category of 1-based ``codes``, one record per pair of consecutive
    occurrences."""
    import numpy as np

    positions = np.flatnonzero(np.asarray(codes) == code) + 1
    records = [(code, int(t1), int(t2 - t1)) for t1, t2 in zip(positions[:-1], positions[1:])]
    counts = {}
    for _, _, length in records:
        counts[length] = counts.get(length, 0) + 1
    return records, dict(sorted(counts.items()))


def cycle_chart_points(records):
    """(times, values) of a cycle-length chart: each cycle's closing time and
    its length as a float."""
    import numpy as np

    times = np.array([start + length for _, start, length in records])
    values = np.array([length for _, _, length in records], dtype=float)
    return times, values


# -- Per-series numpy references for the corpus kernels -----------------------
#
# The one-series-at-a-time numpy forms of the lag tables, the association and
# dispersion measures and the dcc/db feature vectors, as they were before the
# package computed them for a whole corpus at once.  The corpus kernels must
# reproduce them bit for bit (np.array_equal): every value and component of a
# series, and every error message, is the one these give.


def series_lag_tables(series, lag):
    """LagTables of one series from one np.bincount of its own pairs."""
    import numpy as np

    from catseries.series import LagTables

    T = len(series)
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag >= T:
        raise ValueError("lag exceeds series length")
    r = series.alphabet.size
    counts = np.bincount(series.codes, minlength=r + 1)[1:]
    rows = series.codes[lag:] - 1
    cols = series.codes[: T - lag] - 1
    pair_counts = np.bincount(rows * r + cols, minlength=r * r).reshape(r, r)
    return LagTables(lag=lag, T=T, marginals=counts / T, joint=pair_counts / (T - lag),
                     counts=counts, pair_counts=pair_counts)


def _series_result(name, tables, value, components=None, labels=None):
    from catseries.association import SerialMeasureResult

    return SerialMeasureResult(name, tables.lag, float(value), components, labels)


def _series_cell_labels(r):
    return tuple(f"i={i},j={j}" for i in range(1, r + 1) for j in range(1, r + 1))


def _series_col_labels(r):
    return tuple(f"j={j}" for j in range(1, r + 1))


def _series_require_dispersed(p):
    import numpy as np

    if np.sum(p * p) >= 1.0:
        raise ValueError("measure undefined for one-point marginal")


def series_gk_tau(tables):
    import numpy as np

    p = tables.marginals
    _series_require_dispersed(p)
    joint = tables.joint
    per_j = np.zeros(tables.n_categories)
    seen = p > 0
    per_j[seen] = np.sum(joint[:, seen] ** 2, axis=0) / p[seen]
    psq = float(np.sum(p * p))
    value = (per_j.sum() - psq) / (1.0 - psq)
    return _series_result("gk_tau", tables, value, per_j, _series_col_labels(p.size))


def series_gk_lambda(tables):
    p = tables.marginals
    if p.max() >= 1.0:
        raise ValueError("measure undefined for one-point marginal")
    col_max = tables.joint.max(axis=0)
    value = (col_max.sum() - p.max()) / (1.0 - p.max())
    return _series_result("gk_lambda", tables, value, col_max, _series_col_labels(p.size))


def series_uncertainty(tables):
    import numpy as np

    p = tables.marginals
    _series_require_dispersed(p)
    joint = tables.joint
    expected = np.outer(p, p)
    nz = joint > 0
    mutual = float(np.sum(joint[nz] * np.log(joint[nz] / expected[nz])))
    nzp = p[p > 0]
    denom = -float(np.sum(nzp * np.log(nzp)))
    return _series_result("uncertainty", tables, mutual / denom)


def _series_phi2_cells(tables):
    import numpy as np

    p = tables.marginals
    expected = np.outer(p, p)
    cells = np.zeros_like(expected)
    ok = expected > 0
    cells[ok] = (tables.joint[ok] - expected[ok]) ** 2 / expected[ok]
    return cells


def series_pearson(tables):
    cells = _series_phi2_cells(tables)
    value = tables.n_pairs * float(cells.sum())
    return _series_result("pearson", tables, value, cells.ravel(), _series_cell_labels(tables.n_categories))


def series_phi2(tables):
    cells = _series_phi2_cells(tables)
    return _series_result("phi2", tables, cells.sum(), cells.ravel(), _series_cell_labels(tables.n_categories))


def series_sakoda(tables):
    import numpy as np

    phi2 = series_phi2(tables).value
    r = tables.n_categories
    return _series_result("sakoda", tables, np.sqrt(r * phi2 / ((r - 1) * (1.0 + phi2))))


def series_cramers_v(tables):
    import numpy as np

    cells = _series_phi2_cells(tables)
    r = tables.n_categories
    return _series_result("cramers_v", tables, np.sqrt(cells.sum() / (r - 1)), cells.ravel(), _series_cell_labels(r))


def series_cohens_kappa(tables):
    import numpy as np

    p = tables.marginals
    _series_require_dispersed(p)
    psq = float(np.sum(p * p))
    terms = (np.diag(tables.joint) - p * p) / (1.0 - psq)
    return _series_result("cohens_kappa", tables, terms.sum(), terms, _series_col_labels(p.size))


def series_psi_values(tables):
    """(values, mask) of the psi matrix of one series."""
    import numpy as np

    p = tables.marginals
    var = p * (1.0 - p)
    denom = np.sqrt(np.outer(var, var))
    mask = np.broadcast_to((var == 0.0)[:, None], denom.shape) | np.broadcast_to(var == 0.0, denom.shape)
    num = tables.joint - np.outer(p, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = num / denom
    return np.where(mask, 0.0, values), mask


def series_total_correlation(tables):
    import numpy as np

    values, mask = series_psi_values(tables)
    if mask.any():
        raise ValueError("total correlation undefined: a category has degenerate marginal probability")
    r = tables.n_categories
    return _series_result("total_correlation", tables, np.sum(values * values) / r**2, values.ravel(),
                          _series_cell_labels(r))


SERIES_MEASURES = {
    "gk_tau": series_gk_tau,
    "gk_lambda": series_gk_lambda,
    "uncertainty": series_uncertainty,
    "pearson": series_pearson,
    "phi2": series_phi2,
    "sakoda": series_sakoda,
    "cramers_v": series_cramers_v,
    "cohens_kappa": series_cohens_kappa,
    "total_correlation": series_total_correlation,
}


def series_gini(p):
    import numpy as np

    r = p.size
    return float(r / (r - 1) * (1.0 - np.sum(p * p)))


def series_entropy(p):
    import numpy as np

    r = p.size
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)) / np.log(r))


def series_chebycheff(p):
    r = p.size
    return float(r / (r - 1) * (1.0 - p.max()))


SERIES_DISPERSION = {"gini": series_gini, "entropy": series_entropy, "chebycheff": series_chebycheff}


def series_dcc_features(series, max_lag=1):
    """(values, schema) of the dcc features of one series."""
    import numpy as np

    p = np.bincount(series.codes, minlength=series.alphabet.size + 1)[1:] / len(series)
    if np.any(p == 0.0):
        raise ValueError("degenerate marginals: every declared category must occur")
    if np.sum(p * p) >= 1.0:
        raise ValueError("degenerate marginals: series is constant")
    symbols = series.alphabet.symbols
    blocks, schema = [], []
    for lag in range(1, max_lag + 1):
        tables = series_lag_tables(series, lag)
        blocks.append(series_cramers_v(tables).components)
        schema.extend(f"v.l{lag}.{a}_{b}" for a in symbols for b in symbols)
        blocks.append(series_cohens_kappa(tables).components)
        schema.extend(f"kappa.l{lag}.{s}" for s in symbols)
    blocks.append(p)
    schema.extend(f"p.{s}" for s in symbols)
    return np.concatenate(blocks), tuple(schema)


def series_db_features(series, max_lag=1):
    """(values, schema) of the db features of one series."""
    import numpy as np

    p = np.bincount(series.codes, minlength=series.alphabet.size + 1)[1:] / len(series)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("degenerate marginals: component correlations undefined")
    symbols = series.alphabet.symbols
    blocks, schema = [], []
    for lag in range(1, max_lag + 1):
        blocks.append(series_total_correlation(series_lag_tables(series, lag)).components)
        schema.extend(f"psi.l{lag}.{a}_{b}" for a in symbols for b in symbols)
    blocks.append(p)
    schema.extend(f"p.{s}" for s in symbols)
    return np.concatenate(blocks), tuple(schema)


SERIES_FEATURES = {"dcc": series_dcc_features, "db": series_db_features}


def series_distance_matrix(corpus, metric, max_lag, ids=None):
    """Distance values of a corpus from per-series features, filled one row
    of pairs at a time; errors name the first failing series."""
    import numpy as np

    rows = []
    for index, series in enumerate(corpus):
        name = f"series {ids[index]!r} (index {index + 1})" if ids is not None else f"series (index {index + 1})"
        if series.alphabet.symbols != corpus[0].alphabet.symbols:
            raise ValueError(f"{name} does not share the corpus alphabet")
        try:
            rows.append(SERIES_FEATURES[metric](series, max_lag)[0])
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
    features = np.vstack(rows)
    n = len(corpus)
    values = np.zeros((n, n))
    for a in range(n - 1):
        diff = features[a + 1:] - features[a]
        values[a, a + 1:] = values[a + 1:, a] = np.einsum("ij,ij->i", diff, diff)
    return values



def two_dimensional_scaling(d):
    """(coordinates, eigenvalues, clamped mass) of classical scaling as the
    package first computed it, one whole-matrix temporary at each step:
    -D^2/2 double-centred, symmetrised as (c + c.T) / 2, every eigenpair
    reordered by decreasing eigenvalue, each coordinate column's sign fixed
    so that its largest-magnitude entry is positive."""
    import numpy as np

    centered = -0.5 * d**2
    centered = centered - centered.mean(axis=0) - centered.mean(axis=1)[:, None] + centered.mean()
    eigvals, eigvecs = np.linalg.eigh((centered + centered.T) / 2.0)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    coords = eigvecs[:, :2] * np.sqrt(np.maximum(eigvals[:2], 0.0))
    for col in range(2):
        top = np.argmax(np.abs(coords[:, col]))
        if coords[top, col] < 0:
            coords[:, col] = -coords[:, col]
    magnitude = float(np.sum(np.abs(eigvals)))
    clamped = float(np.sum(np.maximum(-eigvals, 0.0)) / magnitude) if magnitude > 0 else 0.0
    return coords, eigvals, clamped

def series_feature_row(series, measures, lags, expand):
    """(values, schema) of one series as ``catseries features`` writes its
    row: dispersion and marginal columns, then each measure at each lag."""
    import numpy as np

    values, schema = [], []
    symbols = series.alphabet.symbols
    p = np.bincount(series.codes, minlength=series.alphabet.size + 1)[1:] / len(series)
    needs_tables = any(name in SERIES_MEASURES for name in measures)
    tables = [series_lag_tables(series, lag) for lag in lags] if needs_tables else []
    for name in measures:
        if name in SERIES_DISPERSION:
            values.append(SERIES_DISPERSION[name](p))
            schema.append(name)
        elif name == "marginals":
            values.extend(p)
            schema.extend(f"p.{s}" for s in symbols)
        else:
            for lag, table in zip(lags, tables):
                result = SERIES_MEASURES[name](table)
                if expand and result.components is not None:
                    values.extend(result.components)
                    for label in result.component_labels:
                        parts = dict(item.split("=") for item in label.split(","))
                        cell = "_".join(symbols[int(parts[k]) - 1] for k in ("i", "j") if k in parts)
                        schema.append(f"{name}.l{lag}.{cell}")
                else:
                    values.append(result.value)
                    schema.append(f"{name}.l{lag}")
    return values, schema


# -- Sequential samplers ---------------------------------------------------------
#
# The per-step loops the simulators ran before NDARMA copy chains were
# resolved by pointer doubling.  They consume the generator exactly as the
# package does, so the package's codes must equal theirs (np.array_equal)
# for every model and seed.


def _cumulative(probabilities):
    cum = list(itertools.accumulate(float(x) for x in probabilities))
    cum[-1] = 1.0
    return cum


def _uniform_list(rng, n):
    import numpy as np

    return (rng.integers(0, 1 << 53, size=n, dtype=np.int64) / float(1 << 53)).tolist()


def walk(transition, initial, us):
    """0-based states of a first-order chain, one uniform of the list ``us``
    per step: inverse CDF by bisect over the initial law, then over the
    previous state's row."""
    rows = [_cumulative(row) for row in transition]
    states = [bisect.bisect_right(_cumulative(initial), us[0])]
    for u in us[1:]:
        states.append(bisect.bisect_right(rows[states[-1]], u))
    return states


def mc_sample(model, length, rng):
    """Codes of a MarkovChainModel: the :func:`walk` of one uniform per step."""
    import numpy as np

    return np.array(walk(model.transition, model.initial, _uniform_list(rng, length)), dtype=np.int64) + 1


def hmm_sample(model, length, rng):
    """Codes of a HiddenMarkovModel: the whole hidden path first, the
    :func:`walk` of one uniform per step; then one uniform per step, by
    bisect over the emission row of that step's hidden state."""
    import numpy as np

    hidden = walk(model.transition, model.initial, _uniform_list(rng, length))
    emission = [_cumulative(row) for row in model.emission]
    us = _uniform_list(rng, length)
    return np.array([bisect.bisect_right(emission[h], u) + 1 for h, u in zip(hidden, us)], dtype=np.int64)


def ndarma_sample(model, length, rng):
    """Codes of an NdarmaModel from most-recent-first histories of values
    and innovations: p presample values, q presample innovations, then per
    step an innovation uniform and a selection uniform."""
    import numpy as np

    cum_innov = _cumulative(model.innovation)
    cum_sel = _cumulative(model.selection)
    x_hist = [bisect.bisect_right(cum_innov, u) + 1 for u in _uniform_list(rng, model.p)]
    e_hist = [bisect.bisect_right(cum_innov, u) + 1 for u in _uniform_list(rng, model.q)]
    x_hist.reverse()
    e_hist.reverse()
    total = model.burn_in + length
    us = _uniform_list(rng, 2 * total)
    codes = np.empty(length, dtype=np.int64)
    for t in range(total):
        eps = bisect.bisect_right(cum_innov, us[2 * t]) + 1
        choice = bisect.bisect_right(cum_sel, us[2 * t + 1])
        if choice < model.p:
            value = x_hist[choice]
        elif choice == model.p:
            value = eps
        else:
            value = e_hist[choice - model.p - 1]
        if model.q > 0:
            e_hist.insert(0, eps)
            e_hist.pop()
        if model.p > 0:
            x_hist.insert(0, value)
            x_hist.pop()
        if t >= model.burn_in:
            codes[t - model.burn_in] = value
    return codes


def svg_marks(template, pixel_xs, pixel_ys):
    """Point marks as the SVG renderer wrote them with one format call per
    point: each "{}" of ``template`` takes the "{:.2f}" text of the point's
    pixel x, then y.  One string per point, so no points give no string."""
    fill = template.replace("{}", "{:.2f}").format
    return [fill(float(x), float(y)) for x, y in zip(pixel_xs, pixel_ys)]


def pixel_columns(pixel_xs, pixel_ys):
    """Indices, in order, of the points a polyline keeps at its pixel columns
    (M4): for each run of consecutive points whose x has one floor, the first
    and the last point and the first to reach the run's lowest and its
    highest y."""
    xs, ys = list(map(float, pixel_xs)), list(map(float, pixel_ys))
    keep, start = set(), 0
    for end in range(1, len(xs) + 1):
        if end == len(xs) or math.floor(xs[end]) != math.floor(xs[start]):
            run = range(start, end)
            keep.update({start, end - 1, min(run, key=ys.__getitem__), max(run, key=ys.__getitem__)})
            start = end
    return sorted(keep)


def fixed_text(template, columns, sep):
    """``sep.join`` of ``template`` filled row by row from ``columns``, every
    "{}" taking the "{:.2f}" text of its column's value."""
    fill = template.replace("{}", "{:.2f}").format
    return sep.join(fill(*map(float, row)) for row in zip(*columns))


def parse_cell(cell):
    """A distance cell as the package's reader documents it: stripped, then
    read by float.fromhex when it starts, after an optional sign, with 0x or
    0X, and by float otherwise.  A "_" is no digit, though float reads PEP 515
    digit grouping ("1_0" as 10.0)."""
    cell = cell.strip()
    if "_" in cell:
        raise ValueError(f"not a number: {cell!r}")
    return (float.fromhex if re.match("[+-]?0[xX]", cell) else float)(cell)


def read_distance_csv(path):
    """(ids, rows of values) of a distance file, read as the package's
    reader documents it: every row by a strict csv.reader, then every cell
    by :func:`parse_cell`.  Raises the package's ValueError messages, in
    the package's order: the file's shape, then the first bad cell, then
    the first id given twice, then the values."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, strict=True)
        try:
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as err:
            raise ValueError(f"malformed CSV ({err}) at line {reader.line_num} of {path}") from None
    if len(rows) < 2 or rows[0][1][0] != "id":
        raise ValueError(f"not a distance matrix file: {path}")
    ids = tuple(rows[0][1][1:])
    body = rows[1:]
    if len(body) != len(ids) or any(len(row) != len(ids) + 1 for _, row in body):
        raise ValueError(f"distance matrix is not square: {path}")
    if tuple(row[0] for _, row in body) != ids:
        raise ValueError(f"row ids do not match the header ids: {path}")
    values = []
    for line, row in body:
        values.append([])
        for column, cell in enumerate(row[1:], start=2):
            try:
                values[-1].append(parse_cell(cell))
            except (ValueError, OverflowError):
                raise ValueError(f"not a number: {cell.strip()!r} at line {line}, column {column} of {path}") from None
    for second, ident in enumerate(ids, start=1):
        if ident in ids[:second - 1]:
            first = ids.index(ident) + 1
            raise ValueError(f"distance matrix id {ident!r} is repeated at positions {first} and {second}: {path}")
    cells = [x for row in values for x in row]
    if not all(map(math.isfinite, cells)) or any(x < 0.0 for x in cells):
        raise ValueError(f"distances must be finite and non-negative: {path}")
    symmetric = all(values[i][j] == values[j][i] for i in range(len(ids)) for j in range(i))
    if not symmetric or any(values[i][i] != 0.0 for i in range(len(ids))):
        raise ValueError(f"distance matrix must be symmetric with a zero diagonal: {path}")
    return ids, values


def write_corpus(path, corpus, labels=None):
    """Write series as symbol-csv as the package's writer wrote them, one
    text line per series: its symbols joined by ",", then ``|label`` when
    labels are given, then "\\n", encoded as UTF-8.  No checks."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for idx, series in enumerate(corpus):
            line = ",".join(series.alphabet.symbols[code - 1] for code in series.codes.tolist())
            if labels is not None:
                line += f"|{labels[idx]}"
            handle.write(line + "\n")
