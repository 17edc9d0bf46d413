"""Output checks for every benchmark command.

Three kinds of check, all reported per command label:

* structural invariants (shapes, ids, symmetry, permutations, XML);
* independent oracles: the benchmark recomputes each output from its own
  inputs with textbook formulas written here, not with catseries code;
* recorded references (``reference.json``): per-output sums and a fixed
  sample of cells, stored for the seeds and sizes they were recorded at.

Values are compared with a relative tolerance (``RTOL``) that allows
reordered floating-point sums but catches a wrong result.  Raw bytes are
never compared across versions.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET
from bisect import bisect_right
from pathlib import Path

import numpy as np
import scipy.ndimage
import scipy.signal
from scipy import special
from scipy.spatial.distance import pdist, squareform

from workloads import AMINO, CORPUS_MEASURES, CORPUS_SYMBOLS, FASTA_MEASURES, FEATURE_LAGS, NUCLEOTIDES

RTOL = 1e-8
SAMPLE_CELLS = 16
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    pass


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected, what: str, rtol: float = RTOL, atol: float = 0.0) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    _require(np.all(np.isfinite(actual)), f"{what}: non-finite values")
    err = np.abs(actual - expected)
    limit = rtol * np.abs(expected) + atol
    if np.any(err > limit):
        worst = np.unravel_index(np.argmax(err - limit), err.shape)
        raise CheckFailed(f"{what}: {float(actual[worst])!r} != {float(expected[worst])!r} at {tuple(map(int, worst))}")


def _attempt(results: dict[str, list[str]], label: str, check) -> None:
    """Run one command's check and record its problems under its label.

    Any exception while reading or checking an output is that output's
    failure, so the run goes on and reports it.
    """
    try:
        check()
        results[label] = []
    except CheckFailed as err:
        results[label] = [str(err)]
    except Exception as err:  # a malformed output can break a reader in any way
        results[label] = [f"{type(err).__name__}: {err}"]


# -- readers -----------------------------------------------------------------

def number(cell) -> float:
    if isinstance(cell, str):
        cell = cell.strip()
        return float.fromhex(cell) if cell.startswith(("0x", "-0x")) else float(cell)
    return float(cell)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    _require(rows, f"{path.name}: empty")
    return rows[0], rows[1:]


def numeric(rows: list[list[str]], start: int = 0, stop: int | None = None) -> np.ndarray:
    return np.array([[number(c) for c in row[start:stop]] for row in rows], dtype=float)


def read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_distance(path: Path) -> tuple[list[str], np.ndarray]:
    header, rows = read_csv(path)
    _require(header[0] == "id", f"{path.name}: first header cell is not 'id'")
    ids = header[1:]
    _require([row[0] for row in rows] == ids, f"{path.name}: row ids do not match the header")
    values = numeric(rows, 1)
    return ids, values


# -- textbook estimators (0-based codes) --------------------------------------

def marginals(codes: np.ndarray, r: int) -> np.ndarray:
    return np.bincount(codes, minlength=r) / codes.size


def lag_tables(codes: np.ndarray, r: int, lag: int) -> tuple[np.ndarray, np.ndarray]:
    T = codes.size
    joint = np.bincount(codes[lag:] * r + codes[: T - lag], minlength=r * r).reshape(r, r) / (T - lag)
    return marginals(codes, r), joint


def _cells(symbols) -> list[str]:
    return [f"{a}_{b}" for a in symbols for b in symbols]


def _measure(name: str, p: np.ndarray, joint: np.ndarray, symbols):
    """(components, labels) or (scalar, None) of one association measure."""
    r = p.size
    psq = float(np.sum(p * p))
    expected = np.outer(p, p)
    if name == "cramers_v":
        cells = np.where(expected > 0, (joint - expected) ** 2 / np.where(expected > 0, expected, 1), 0.0)
        return cells.ravel(), _cells(symbols)
    if name == "cohens_kappa":
        return (np.diag(joint) - p * p) / (1.0 - psq), list(symbols)
    if name == "total_correlation":
        var = p * (1.0 - p)
        return ((joint - expected) / np.sqrt(np.outer(var, var))).ravel(), _cells(symbols)
    if name == "gk_tau":
        per_j = np.where(p > 0, np.sum(joint**2, axis=0) / np.where(p > 0, p, 1), 0.0)
        return per_j, list(symbols)
    if name == "gk_lambda":
        return joint.max(axis=0), list(symbols)
    if name == "uncertainty":
        nz = joint > 0
        mutual = np.sum(joint[nz] * np.log(joint[nz] / expected[nz]))
        return mutual / -np.sum(p[p > 0] * np.log(p[p > 0])), None
    raise ValueError(name)


def feature_row(codes: np.ndarray, symbols, measures: str, lags=FEATURE_LAGS) -> tuple[list[str], list[float]]:
    r = len(symbols)
    p = marginals(codes, r)
    schema: list[str] = []
    values: list[float] = []
    for name in measures.split(","):
        if name == "gini":
            schema.append(name)
            values.append(r / (r - 1) * (1.0 - np.sum(p * p)))
        elif name == "entropy":
            schema.append(name)
            values.append(-np.sum(p[p > 0] * np.log(p[p > 0])) / np.log(r))
        elif name == "marginals":
            schema.extend(f"p.{s}" for s in symbols)
            values.extend(p)
        else:
            for lag in lags:
                result, labels = _measure(name, *lag_tables(codes, r, lag), symbols)
                if labels is None:
                    schema.append(f"{name}.l{lag}")
                    values.append(result)
                else:
                    schema.extend(f"{name}.l{lag}.{label}" for label in labels)
                    values.extend(result)
    return schema, [float(v) for v in values]


def distance_features(codes: np.ndarray, r: int, metric: str, max_lag: int) -> np.ndarray:
    blocks = []
    for lag in range(1, max_lag + 1):
        p, joint = lag_tables(codes, r, lag)
        if metric == "db":
            blocks.append(_measure("total_correlation", p, joint, range(r))[0])
        else:
            blocks.append(_measure("cramers_v", p, joint, range(r))[0])
            blocks.append(_measure("cohens_kappa", p, joint, range(r))[0])
    blocks.append(marginals(codes, r))
    return np.concatenate(blocks)


# -- checks shared by the corpus workloads -----------------------------------

def check_features(path: Path, ids, labels, corpus, symbols, measures: str) -> None:
    header, rows = read_csv(path)
    schema = feature_row(corpus[0], symbols, measures)[0]
    expected_header = ["id", *schema] + (["label"] if labels is not None else [])
    _require(header == expected_header, f"{path.name}: unexpected columns")
    _require(len(rows) == len(corpus), f"{path.name}: {len(rows)} rows for {len(corpus)} series")
    _require([row[0] for row in rows] == list(ids), f"{path.name}: ids out of order")
    if labels is not None:
        _require([row[-1] for row in rows] == list(labels), f"{path.name}: labels out of order")
    stop = -1 if labels is not None else None
    actual = numeric(rows, 1, stop)
    expected = np.array([feature_row(codes, symbols, measures)[1] for codes in corpus])
    _close(actual, expected, path.name, atol=1e-12)


def check_distance(path: Path, ids, corpus, r: int, metric: str, max_lag: int) -> np.ndarray:
    got_ids, d = read_distance(path)
    n = len(corpus)
    _require(got_ids == list(ids), f"{path.name}: ids differ from the corpus")
    _require(d.shape == (n, n), f"{path.name}: not {n} x {n}")
    _require(np.all(np.isfinite(d)), f"{path.name}: non-finite entries")
    _require(np.all(d >= 0.0), f"{path.name}: negative entries")
    _require(np.all(np.diag(d) == 0.0), f"{path.name}: non-zero diagonal")
    _require(np.array_equal(d, d.T), f"{path.name}: not symmetric")
    features = np.array([distance_features(codes, r, metric, max_lag) for codes in corpus])
    expected = squareform(pdist(features, "sqeuclidean"))
    _close(d, expected, path.name, atol=1e-10 * float(expected.max()))
    return d


def check_mds(path: Path, ids, d: np.ndarray) -> None:
    header, rows = read_csv(path)
    _require(header == ["id", "x", "y"], f"{path.name}: unexpected columns")
    _require([row[0] for row in rows] == list(ids), f"{path.name}: ids differ from the distance file")
    coords = numeric(rows, 1)
    _require(coords.shape == (len(ids), 2) and np.all(np.isfinite(coords)), f"{path.name}: not n x 2 finite")
    b = -0.5 * d**2
    b = b - b.mean(axis=0) - b.mean(axis=1)[:, None] + b.mean()
    vals, vecs = np.linalg.eigh((b + b.T) / 2.0)
    top = np.argsort(vals)[::-1][:2]
    expected = vecs[:, top] * np.sqrt(np.maximum(vals[top], 0.0))
    for col in range(2):
        if expected[np.argmax(np.abs(expected[:, col])), col] < 0:
            expected[:, col] = -expected[:, col]
    _close(coords, expected, path.name, atol=1e-8 * float(np.abs(expected).max()))


def check_outliers(path: Path, ids, d: np.ndarray, range_factor: float = 1.0) -> None:
    report = read_json(path)
    n = len(ids)
    _require(report["n"] == n, f"{path.name}: n = {report['n']}, expected {n}")
    _require(sorted(report["ranking"]) == sorted(ids) and len(report["ranking"]) == n,
             f"{path.name}: ranking is not a permutation of the ids")
    _require(list(report["scores"]) == list(ids), f"{path.name}: scores not keyed by id in order")
    scores = np.array([number(report["scores"][i]) for i in ids])
    expected = d.sum(axis=1)
    _close(scores, expected, f"{path.name} scores")
    position = {name: k for k, name in enumerate(ids)}
    ranked = scores[[position[name] for name in report["ranking"]]]
    _require(np.all(np.diff(ranked) <= 0.0), f"{path.name}: ranking is not by decreasing score")
    q1, q3 = np.quantile(expected, [0.25, 0.75])
    threshold = q3 + range_factor * (q3 - q1)
    _close([number(report[k]) for k in ("q1", "q3", "threshold")], [q1, q3, threshold], f"{path.name} fences")
    clear = np.abs(expected - threshold) > RTOL * abs(threshold)
    flagged = {ids[i] for i in np.flatnonzero((expected > threshold) & clear)}
    undecided = {ids[i] for i in np.flatnonzero(~clear)}
    _require(flagged <= set(report["flagged_ids"]) <= flagged | undecided, f"{path.name}: wrong flagged ids")
    _require(report["outlier_count"] == len(report["flagged_ids"]), f"{path.name}: count != flagged ids")


def _distance_for_dependents(out: Path, state: dict, results: dict, dependents) -> bool:
    """Make the program's distance matrix available to the commands that read
    it, even when it failed its own check; if it cannot be read at all,
    those commands fail too."""
    if "d" in state:
        return True
    try:
        state["d"] = read_distance(out / "dist.csv")[1]
        return True
    except Exception as err:  # the distance file already failed its own check
        for label in dependents:
            results[label] = [f"distance file unusable: {type(err).__name__}"]
        return False


# -- simulate oracle (documented PCG64 inverse-CDF draw order) ---------------

def _uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << 53, size=n, dtype=np.int64) / float(1 << 53)


def _cumulative(row) -> list[float]:
    c = np.cumsum(np.asarray(row, dtype=float))
    c[-1] = 1.0
    return c.tolist()


def _markov(transition, initial, length: int, rng) -> np.ndarray:
    us = _uniforms(rng, length).tolist()
    rows = [_cumulative(row) for row in transition]
    codes = np.empty(length, dtype=np.int64)
    state = bisect_right(_cumulative(initial), us[0])
    codes[0] = state
    for t in range(1, length):
        state = bisect_right(rows[state], us[t])
        codes[t] = state
    return codes


def simulate_series(group: dict, length: int, seed: int) -> np.ndarray:
    """0-based codes of one series of a corpus spec group."""
    rng = np.random.Generator(np.random.PCG64(seed))
    family = group["family"]
    if family == "mc":
        return _markov(group["transition"], group["initial"], length, rng)
    if family == "hmm":
        hidden = _markov(group["hidden_transition"], group["hidden_initial"], length, rng)
        us = _uniforms(rng, length)
        cum = np.array([_cumulative(row) for row in group["emission"]])
        return np.sum(cum[hidden] <= us[:, None], axis=1)
    p, q, burn_in = group["p"], group["q"], group["burn_in"]
    innov, sel = _cumulative(group["innovation"]), _cumulative(group["selection"])
    x_hist = [bisect_right(innov, u) for u in _uniforms(rng, p)][::-1]
    e_hist = [bisect_right(innov, u) for u in _uniforms(rng, q)][::-1]
    us = _uniforms(rng, 2 * (burn_in + length)).tolist()
    codes = np.empty(length, dtype=np.int64)
    for t in range(burn_in + length):
        eps = bisect_right(innov, us[2 * t])
        choice = bisect_right(sel, us[2 * t + 1])
        value = x_hist[choice] if choice < p else eps if choice == p else e_hist[choice - p - 1]
        if q:
            e_hist = [eps, *e_hist[:-1]]
        if p:
            x_hist = [value, *x_hist[:-1]]
        if t >= burn_in:
            codes[t - burn_in] = value
    return codes


def read_symbol_corpus(path: Path, symbols) -> tuple[list[np.ndarray], list[str]]:
    code = {s: i for i, s in enumerate(symbols)}
    corpus, labels = [], []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        body, _, label = line.rpartition("|")
        cells = body.split(",")
        _require(all(c in code for c in cells), f"{path.name}: unknown symbol on line {line_no}")
        corpus.append(np.array([code[c] for c in cells], dtype=np.int64))
        labels.append(label)
    return corpus, labels


def check_corpus_mining(inputs, out: Path) -> dict[str, list[str]]:
    spec = inputs.facts["spec"]
    results: dict[str, list[str]] = {}

    state = {}

    def simulate():
        corpus, labels = read_symbol_corpus(out / "corpus.csv", CORPUS_SYMBOLS)
        n, per = inputs.facts["n_series"], spec["groups"][0]["count"]
        _require(len(corpus) == n, f"corpus.csv: {len(corpus)} series, expected {n}")
        _require(all(c.size == spec["length"] for c in corpus), "corpus.csv: wrong series length")
        _require(labels == [str(g) for g in (1, 2, 3) for _ in range(per)], "corpus.csv: wrong group labels")
        for g, group in enumerate(spec["groups"]):
            for i in (g * per, g * per + per - 1):
                expected = simulate_series(group, spec["length"], spec["seed"] + i)
                _require(np.array_equal(corpus[i], expected), f"corpus.csv: series {i + 1} differs from its spec")
        state["corpus"], state["labels"] = corpus, labels
        state["ids"] = [f"series_{i + 1}" for i in range(n)]

    def features():
        check_features(out / "features.csv", state["ids"], state["labels"], state["corpus"],
                       CORPUS_SYMBOLS, CORPUS_MEASURES)

    def dist():
        state["d"] = check_distance(out / "dist.csv", state["ids"], state["corpus"], len(CORPUS_SYMBOLS), "db", 1)

    _attempt(results, "simulate", simulate)
    if "corpus" not in state:  # every later output depends on the corpus
        return {label: results.get(label, ["simulate output unusable"]) for label in
                ("simulate", "features", "dist", "mds", "outliers")}
    _attempt(results, "features", features)
    _attempt(results, "dist", dist)
    if not _distance_for_dependents(out, state, results, ("mds", "outliers")):
        return results
    _attempt(results, "mds", lambda: check_mds(out / "mds.csv", state["ids"], state["d"]))
    _attempt(results, "outliers", lambda: check_outliers(out / "outliers.json", state["ids"], state["d"]))
    return results


def check_fasta_protein(inputs, out: Path) -> dict[str, list[str]]:
    corpus = inputs.facts["records"]
    ids = [f"prot_{i:04d}" for i in range(1, len(corpus) + 1)]
    results: dict[str, list[str]] = {}
    state = {}

    def dist():
        state["d"] = check_distance(out / "dist.csv", ids, corpus, len(AMINO), "dcc", 2)

    _attempt(results, "features", lambda: check_features(out / "features.csv", ids, None, corpus, AMINO, FASTA_MEASURES))
    _attempt(results, "dist", dist)
    if not _distance_for_dependents(out, state, results, ("outliers",)):
        return results
    _attempt(results, "outliers", lambda: check_outliers(out / "outliers.json", ids, state["d"]))
    return results


# -- long-series-monitoring --------------------------------------------------

def cramers_v_estimates(codes: np.ndarray, r: int, max_lag: int) -> np.ndarray:
    return np.array([np.sqrt(_measure("cramers_v", *lag_tables(codes, r, lag), range(r))[0].sum() / (r - 1))
                     for lag in range(1, max_lag + 1)])


def kappa_estimates(codes: np.ndarray, r: int, max_lag: int) -> np.ndarray:
    return np.array([_measure("cohens_kappa", *lag_tables(codes, r, lag), range(r))[0].sum()
                     for lag in range(1, max_lag + 1)])


def holm(p: np.ndarray) -> np.ndarray:
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.minimum(np.maximum.accumulate(p[order] * (m - np.arange(m))), 1.0)
    out = np.empty_like(adjusted)
    out[order] = adjusted
    return out


def _test_report(path: Path, codes: np.ndarray, r: int, family: str, alpha: float = 0.05, max_lag: int = 10):
    report = read_json(path)
    T = codes.size
    _require(report["series_length"] == T and report["n_categories"] == r, f"{path.name}: wrong series facts")
    _require([row["lag"] for row in report["rows"]] == list(range(1, max_lag + 1)), f"{path.name}: wrong lags")
    est = np.array([number(row["estimate"]) for row in report["rows"]])
    stat = np.array([number(row["statistic"]) for row in report["rows"]])
    pval = np.array([number(row["p_value"]) for row in report["rows"]])
    if family == "v":
        df = (r - 1) ** 2
        expected_est = cramers_v_estimates(codes, r, max_lag)
        expected_stat = T * (r - 1) * expected_est**2
        expected_p = special.chdtrc(df, expected_stat)
        lower = None
        upper = np.sqrt(special.chdtri(df, alpha) / (T * (r - 1)))
    else:
        p = marginals(codes, r)
        psq, pcb = np.sum(p**2), np.sum(p**3)
        scale = np.sqrt(T / (1.0 - (1.0 + 2.0 * pcb - 3.0 * psq) / (1.0 - psq) ** 2))
        expected_est = kappa_estimates(codes, r, max_lag)
        expected_stat = scale * (expected_est + 1.0 / T)
        expected_p = 2.0 * special.ndtr(-np.abs(expected_stat))
        z = special.ndtri(1.0 - alpha / 2.0)
        lower, upper = -z / scale - 1.0 / T, z / scale - 1.0 / T
    _close(est, expected_est, f"{path.name} estimates", atol=1e-14)
    _close(stat, expected_stat, f"{path.name} statistics", atol=1e-10)
    _close(pval, expected_p, f"{path.name} p-values", rtol=1e-6, atol=1e-300)
    _close(number(report["upper_critical"]), upper, f"{path.name} upper critical")
    if lower is None:
        _require(report["lower_critical"] is None, f"{path.name}: v test has a lower critical value")
    else:
        _close(number(report["lower_critical"]), lower, f"{path.name} lower critical")
    holm_p = np.array([number(v) for v in report["holm_adjusted_p_values"]])
    _close(holm_p, holm(pval), f"{path.name} Holm p-values", atol=1e-300)
    return expected_est, lower, upper


def _svg(path: Path) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as err:
        raise CheckFailed(f"{path.name}: not XML ({err})") from None
    _require(root.tag.endswith("svg"), f"{path.name}: root element is {root.tag}")


def envelope_oracle(codes: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Envelope by whitening with the Cholesky factor and a batched eigh."""
    T = codes.size
    y = np.eye(r)[codes][:, :-1]
    yc = y - y.mean(axis=0)
    cov = yc.T @ yc / T
    window = 2 * int(np.sqrt(T) / 2) + 1
    dft = np.fft.fft(yc, axis=0)
    period = (dft[:, :, None] * dft.conj()[:, None, :]).real / T
    for _ in range(2):
        period = scipy.ndimage.uniform_filter1d(period, window, axis=0, mode="wrap")
    f = period[1 : T // 2 + 1]
    f = (f + np.swapaxes(f, 1, 2)) / 2.0
    inv = np.linalg.inv(np.linalg.cholesky(cov))
    whitened = inv @ f @ inv.T
    return np.linalg.eigvalsh(whitened)[:, -1], f, cov


def check_long_series(inputs, out: Path) -> dict[str, list[str]]:
    codes = inputs.facts["codes"]
    r, T = len(NUCLEOTIDES), codes.size
    results: dict[str, list[str]] = {}
    state = {}

    def table(kind: str, header: list[str], rows: int) -> np.ndarray:
        _svg(out / f"{kind}.svg")
        got_header, got_rows = read_csv(out / f"{kind}.csv")
        _require(got_header == header, f"{kind}.csv: unexpected columns {got_header[:4]}")
        _require(len(got_rows) == rows, f"{kind}.csv: {len(got_rows)} rows, expected {rows}")
        return got_rows

    def test_v():
        state["v"] = _test_report(out / "test_v.json", codes, r, "v")

    def dependence():
        est, _, upper = state["v"] if "v" in state else (cramers_v_estimates(codes, r, 10), None, None)
        rows = table("dependence", ["lag", "estimate", "lower_critical", "upper_critical"], 10)
        _require([int(row[0]) for row in rows] == list(range(1, 11)), "dependence.csv: wrong lags")
        _require(all(row[2] == "" for row in rows), "dependence.csv: v family has a lower critical value")
        _close(numeric(rows, 1, 2)[:, 0], est, "dependence.csv estimates", atol=1e-14)
        if upper is not None:
            _close(numeric(rows, 3)[:, 0], np.full(10, upper), "dependence.csv upper critical")

    def envelope():
        rows = numeric(table("envelope", ["frequency", "envelope", *[f"gamma_{i + 1}" for i in range(r - 1)]],
                             T // 2))
        expected, f, cov = envelope_oracle(codes, r)
        _close(rows[:, 0], np.arange(1, T // 2 + 1) / T, "envelope.csv frequencies")
        _close(rows[:, 1], expected, "envelope.csv envelope", atol=1e-12 * float(expected.max()))
        gamma = rows[:, 2:]
        residual = np.einsum("kij,kj->ki", f, gamma) - rows[:, 1:2] * (gamma @ cov)
        scale = np.linalg.norm(f, axis=(1, 2)) * np.linalg.norm(gamma, axis=1)
        _require(np.all(np.linalg.norm(residual, axis=1) <= 1e-7 * scale), "envelope.csv: scalings are not eigenvectors")
        _close(np.einsum("ki,ij,kj->k", gamma, cov, gamma), np.ones(T // 2), "envelope.csv scaling variance")
        top = np.abs(gamma).argmax(axis=1)
        _require(np.all(gamma[np.arange(gamma.shape[0]), top] > 0), "envelope.csv: scaling sign convention")

    def ewma():
        rows = numeric(table("ewma-chart", ["t", *[f"T_{s}" for s in NUCLEOTIDES]], T))
        lam, k = 0.9, 3.0
        c = marginals(codes, r)
        pi = scipy.signal.lfilter([1.0 - lam], [1.0, -lam], np.eye(r)[codes], axis=0, zi=lam * c[None, :])[0]
        t = np.arange(1, T + 1)[:, None]
        sigma = np.sqrt(c * (1.0 - c) * (1.0 - lam) * (1.0 - lam ** (2 * t)) / (1.0 + lam))
        _close(rows[:, 0], t[:, 0], "ewma-chart.csv times")
        _close(rows[:, 1:], (pi - c) / (k * sigma), "ewma-chart.csv statistics", atol=1e-9)

    def ifs():
        rows = numeric(table("ifs", ["t", "x", "y"], T))
        angles = 2.0 * np.pi * np.arange(r) / r
        targets = np.column_stack([np.cos(angles), np.sin(angles)])[codes]
        expected = scipy.signal.lfilter([0.5], [1.0, -0.5], targets, axis=0)
        _close(rows[:, 1:], expected, "ifs.csv points", atol=1e-12)

    def cycle_chart(alpha: float = 0.01):
        positions = np.flatnonzero(codes == 0) + 1
        rows = numeric(table("cycle-chart", ["t", "T_A"], positions.size - 1))
        p = positions.size / T
        lcl, ucl = (max(1, int(np.ceil(np.log1p(-u) / np.log1p(-p)))) for u in (alpha / 2, 1 - alpha / 2))
        dev = np.diff(positions) - 1.0 / p
        low, up = abs(lcl - 1.0 / p), abs(ucl - 1.0 / p)
        expected = np.where(dev < 0, -2.0 if low == 0 else dev / low, 0.0).clip(max=0.0) + \
            np.where(dev > 0, 2.0 if up == 0 else dev / up, 0.0).clip(min=0.0)
        _close(rows[:, 0], positions[1:], "cycle-chart.csv times")
        _close(rows[:, 1], expected, "cycle-chart.csv statistics", atol=1e-12)

    def rate():
        rows = numeric(table("rate", ["t", *[f"count_{s}" for s in NUCLEOTIDES]], T))
        _require(np.array_equal(rows[:, 1:], np.cumsum(np.eye(r)[codes], axis=0)), "rate.csv: wrong counts")

    _attempt(results, "test-v", test_v)
    _attempt(results, "test-kappa", lambda: _test_report(out / "test_kappa.json", codes, r, "kappa"))
    _attempt(results, "plot-dependence", dependence)
    _attempt(results, "plot-envelope", envelope)
    _attempt(results, "plot-ewma-chart", ewma)
    _attempt(results, "plot-ifs", ifs)
    _attempt(results, "plot-cycle-chart", cycle_chart)
    _attempt(results, "plot-rate", rate)
    return results


CHECKS = {
    "corpus-mining": check_corpus_mining,
    "long-series-monitoring": check_long_series,
    "fasta-protein": check_fasta_protein,
}


# -- recorded references -------------------------------------------------------

def fingerprint(path: Path) -> dict:
    """Count, sum, absolute sum and a fixed sample of an output's numbers."""
    if path.suffix == ".json":
        values: list[float] = []

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                values.append(float(node))
            elif isinstance(node, str) and node.startswith(("0x", "-0x")):
                values.append(number(node))

        walk(read_json(path))
        x = np.array(values)
    elif path.name == "corpus.csv":
        x = np.concatenate(read_symbol_corpus(path, CORPUS_SYMBOLS)[0]).astype(float)
    else:
        header, rows = read_csv(path)
        keep = [j for j, name in enumerate(header) if name not in ("id", "label")]
        x = np.array([number(row[j]) for row in rows for j in keep if row[j] != ""])
    picks = sorted({int(i) for i in np.linspace(0, x.size - 1, SAMPLE_CELLS)}) if x.size else []
    return {"n": int(x.size), "sum": float(x.sum()), "abs_sum": float(np.abs(x).sum()),
            "cells": {str(i): float(x[i]) for i in picks}}


def compare_fingerprint(actual: dict, expected: dict, name: str) -> list[str]:
    if actual["n"] != expected["n"]:
        return [f"{name}: {actual['n']} numbers, reference has {expected['n']}"]
    scale = expected["abs_sum"] / max(expected["n"], 1)
    problems = []
    if abs(actual["sum"] - expected["sum"]) > RTOL * expected["abs_sum"]:
        problems.append(f"{name}: sum {actual['sum']!r} != reference {expected['sum']!r}")
    for index, ref in expected["cells"].items():
        got = actual["cells"].get(index)
        if got is None or abs(got - ref) > RTOL * (abs(ref) + scale):
            problems.append(f"{name}: value #{index} {got!r} != reference {ref!r}")
    return problems


def load_references() -> dict:
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}
