"""Brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops over raw counts,
independent of the numpy code paths under test.  Keep it slow and obvious.
"""

import math


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
# they were rewritten for speed.  The kernels must reproduce them bit for bit
# (np.array_equal, not a tolerance): the arithmetic and its order are the same.


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


def spectral_envelope(indicators, window):
    """(envelope, scalings) of a (T, k) indicator matrix: the full complex
    cross-periodogram is smoothed (real and imaginary parts), and every
    frequency gets its own ``scipy.linalg.eigh`` call for the top
    generalized eigenpair, with the sign of the eigenvector fixed per call."""
    import numpy as np
    import scipy.linalg
    import scipy.ndimage

    def daniell2(values):
        once = scipy.ndimage.uniform_filter1d(values, window, axis=0, mode="wrap")
        return scipy.ndimage.uniform_filter1d(once, window, axis=0, mode="wrap")

    y = np.asarray(indicators, dtype=float)
    T, k = y.shape
    yc = y - y.mean(axis=0)
    cov = (yc.T @ yc) / T
    dft = np.fft.fft(yc, axis=0)
    period = dft[:, :, None] * dft.conj()[:, None, :] / T
    smooth = daniell2(period.real) + 1j * daniell2(period.imag)
    envelope = np.empty(T // 2)
    scalings = np.empty((T // 2, k))
    for idx in range(T // 2):
        f_re = smooth[idx + 1].real
        f_re = (f_re + f_re.T) / 2.0
        vals, vecs = scipy.linalg.eigh(f_re, cov, subset_by_index=[k - 1, k - 1])
        gamma = vecs[:, 0]
        top = np.argmax(np.abs(gamma))
        if gamma[top] < 0:
            gamma = -gamma
        envelope[idx] = vals[0]
        scalings[idx] = gamma
    return envelope, scalings
