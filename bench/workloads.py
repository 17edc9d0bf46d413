"""The three benchmark workloads: input generators and per-pass command lines.

Each workload turns a seed into input files (same seed, same bytes) and
lists the ``catseries`` command lines one pass runs on them.  Commands are
labelled; a command whose label appears in ``TIMED`` gets its own
end-to-end metric ``cmd.<label>_s``.  The cheap ones (``test``,
``plot dependence``, ``plot cycle-chart``) count only toward ``pipeline_s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

AMINO = tuple("ACDEFGHIKLMNPQRSTVWY")
NUCLEOTIDES = ("A", "C", "G", "T")
CORPUS_SYMBOLS = ("a", "b", "c")

TIMED = (
    "simulate", "features", "dist", "mds", "outliers",
    "plot-envelope", "plot-ewma-chart", "plot-ifs", "plot-rate",
)

SIZES = {
    "corpus-mining": {
        "full": {"per_family": 200, "length": 1000},
        "tiny": {"per_family": 4, "length": 200},
    },
    "long-series-monitoring": {
        "full": {"length": 50_000},
        "tiny": {"length": 2_000},
    },
    "fasta-protein": {
        "full": {"records": 300, "min_length": 300, "max_length": 3000},
        "tiny": {"records": 12, "min_length": 200, "max_length": 600},
    },
}

CORPUS_MEASURES = "gini,entropy,marginals,cramers_v,cohens_kappa,total_correlation"
FASTA_MEASURES = "entropy,marginals,gk_tau,gk_lambda,uncertainty,cramers_v,cohens_kappa"
FEATURE_LAGS = (1, 2, 3)


@dataclass(frozen=True)
class Inputs:
    """What setup produced: the files, their observation count and whatever
    the checks need to know about how they were generated."""

    directory: Path
    files: tuple[str, ...]
    obs: int
    facts: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, dict, Path], Inputs]
    commands: Callable[[Inputs, Path], list[tuple[str, list[str]]]]


def _probability_rows(rng: np.random.Generator, rows: int, r: int, floor: float) -> list[list[float]]:
    """Random stochastic rows with every entry at least ``floor``."""
    raw = rng.dirichlet(np.ones(r), size=rows) * (1.0 - r * floor) + floor
    return (raw / raw.sum(axis=1, keepdims=True)).tolist()


def _sticky_rows(rng: np.random.Generator, r: int, stay: float, floor: float) -> list[list[float]]:
    rows = np.asarray(_probability_rows(rng, r, r, floor)) * (1.0 - stay) + stay * np.eye(r)
    return (rows / rows.sum(axis=1, keepdims=True)).tolist()


# -- corpus-mining -----------------------------------------------------------

def corpus_spec(seed: int, size: dict) -> dict:
    """A three-family corpus spec (mc, hmm, ndarma) whose coefficients come
    from the seed; every category keeps probability >= 0.1 in every law."""
    rng = np.random.default_rng([seed, 1])
    r = len(CORPUS_SYMBOLS)
    count = size["per_family"]
    stay = float(rng.uniform(0.1, 0.3))
    return {
        "seed": seed,
        "length": size["length"],
        "alphabet": list(CORPUS_SYMBOLS),
        "groups": [
            {"family": "mc", "count": count,
             "transition": _sticky_rows(rng, r, stay, 0.1),
             "initial": _probability_rows(rng, 1, r, 0.1)[0]},
            {"family": "hmm", "count": count,
             "hidden_transition": _sticky_rows(rng, 2, 0.7, 0.1),
             "emission": _probability_rows(rng, 2, r, 0.1),
             "hidden_initial": [0.5, 0.5]},
            {"family": "ndarma", "count": count, "p": 1, "q": 0,
             "selection": [stay + 0.2, 0.8 - stay],
             "innovation": _probability_rows(rng, 1, r, 0.15)[0],
             "burn_in": 200},
        ],
    }


def _corpus_inputs(seed: int, size: dict, directory: Path) -> Inputs:
    spec = corpus_spec(seed, size)
    (directory / "spec.json").write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    n = 3 * size["per_family"]
    return Inputs(directory, ("spec.json",), n * size["length"], {"spec": spec, "n_series": n})


def _corpus_commands(inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    corpus = str(out / "corpus.csv")
    dist = str(out / "dist.csv")
    alphabet = ["--alphabet", ",".join(CORPUS_SYMBOLS)]
    lags = ",".join(map(str, FEATURE_LAGS))
    return [
        ("simulate", ["simulate", "--spec", str(inputs.directory / "spec.json"), "--out", corpus]),
        ("features", ["features", "--input", corpus, *alphabet, "--measures", CORPUS_MEASURES,
                      "--lags", lags, "--expand", "--out", str(out / "features.csv"), "--bitexact"]),
        ("dist", ["dist", "--input", corpus, *alphabet, "--metric", "db", "--max-lag", "1",
                  "--out", dist, "--bitexact"]),
        ("mds", ["mds", "--dist", dist, "--out", str(out / "mds.csv"), "--bitexact"]),
        ("outliers", ["outliers", "--dist", dist, "--out", str(out / "outliers.json"), "--bitexact"]),
    ]


# -- long-series-monitoring --------------------------------------------------

def ndarma_coefficients(seed: int) -> dict:
    """NDARMA(2,1) coefficients over A,C,G,T drawn from the seed."""
    rng = np.random.default_rng([seed, 2])
    selection = _probability_rows(rng, 1, 4, 0.1)[0]
    innovation = _probability_rows(rng, 1, 4, 0.1)[0]
    return {"p": 2, "q": 1, "selection": selection, "innovation": innovation, "burn_in": 500}


def _long_series_inputs(seed: int, size: dict, directory: Path) -> Inputs:
    from catseries import simulate
    from catseries.series import Alphabet

    model = simulate.NdarmaModel(**ndarma_coefficients(seed))
    series = simulate.generate_series(model, size["length"], seed, Alphabet(NUCLEOTIDES))
    symbols = np.asarray(NUCLEOTIDES)[series.codes - 1]
    (directory / "series.csv").write_text(",".join(symbols.tolist()) + "\n", encoding="utf-8")
    codes = np.asarray(series.codes - 1, dtype=np.int64)
    return Inputs(directory, ("series.csv",), int(codes.size), {"codes": codes})


def _long_series_commands(inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    series = str(inputs.directory / "series.csv")
    source = ["--input", series, "--alphabet", ",".join(NUCLEOTIDES)]

    def plot(kind: str, *extra: str) -> tuple[str, list[str]]:
        return (f"plot-{kind}", ["plot", kind, *source, *extra, "--out", str(out / f"{kind}.svg"),
                                 "--table", str(out / f"{kind}.csv"), "--bitexact"])

    return [
        ("test-v", ["test", *source, "--family", "v", "--max-lag", "10", "--holm",
                    "--out", str(out / "test_v.json"), "--bitexact"]),
        ("test-kappa", ["test", *source, "--family", "kappa", "--max-lag", "10", "--holm",
                        "--out", str(out / "test_kappa.json"), "--bitexact"]),
        plot("dependence"),
        plot("envelope"),
        plot("ewma-chart"),
        plot("ifs", "--alpha", "0.5", "--beta", "0.5"),
        plot("cycle-chart", "--category", "A"),
        plot("rate"),
    ]


# -- fasta-protein -----------------------------------------------------------

def _sticky_record(rng: np.random.Generator, length: int) -> np.ndarray:
    """A first-order chain that keeps its letter with probability ``stay``
    and otherwise draws afresh from a record-specific law; redrawn until
    every letter occurs, because ``dcc`` rejects absent categories."""
    r = len(AMINO)
    law = 0.5 / r + 0.5 * rng.dirichlet(np.ones(r))
    stay = rng.uniform(0.2, 0.5)
    for _ in range(1000):
        fresh = rng.choice(r, size=length, p=law / law.sum())
        moves = rng.random(length) >= stay
        moves[0] = True
        codes = fresh[np.maximum.accumulate(np.where(moves, np.arange(length), 0))]
        if np.unique(codes).size == r:
            return codes
    raise RuntimeError("could not draw a record in which every letter occurs")


def fasta_lengths(seed: int, size: dict) -> np.ndarray:
    """Record lengths: an evenly spaced grid over [min, max], shuffled by the
    seed, so the total observation count does not depend on the seed."""
    grid = np.linspace(size["min_length"], size["max_length"], size["records"]).round().astype(int)
    return np.random.default_rng([seed, 3]).permutation(grid)


def _fasta_inputs(seed: int, size: dict, directory: Path) -> Inputs:
    rng = np.random.default_rng([seed, 4])
    letters = np.asarray(AMINO)
    records, lines = [], []
    for index, length in enumerate(fasta_lengths(seed, size), start=1):
        codes = _sticky_record(rng, int(length))
        if np.unique(codes).size != len(AMINO):
            raise RuntimeError(f"record {index} misses a letter")
        records.append(codes)
        text = "".join(letters[codes].tolist())
        lines.append(f">prot_{index:04d}")
        lines.extend(text[i:i + 60] for i in range(0, len(text), 60))
    (directory / "proteins.fasta").write_text("\n".join(lines) + "\n", encoding="utf-8")
    obs = sum(int(c.size) for c in records)
    return Inputs(directory, ("proteins.fasta",), obs, {"records": records})


def _fasta_commands(inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    fasta = str(inputs.directory / "proteins.fasta")
    source = ["--input", fasta, "--alphabet", ",".join(AMINO)]
    dist = str(out / "dist.csv")
    return [
        ("features", ["features", *source, "--measures", FASTA_MEASURES,
                      "--lags", ",".join(map(str, FEATURE_LAGS)), "--expand",
                      "--out", str(out / "features.csv"), "--bitexact"]),
        ("dist", ["dist", *source, "--metric", "dcc", "--max-lag", "2", "--out", dist, "--bitexact"]),
        ("outliers", ["outliers", "--dist", dist, "--out", str(out / "outliers.json"), "--bitexact"]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-mining",
            "600 series (200 mc, 200 hmm, 200 ndarma), r=3, T=1000: simulate, features, dist db, mds, "
            "outliers; corpus layers (io, series, association, mining) do the work",
            _corpus_inputs, _corpus_commands),
        Workload(
            "long-series-monitoring",
            "one NDARMA(2,1) series over ACGT, T=50000: tests and six plots; spectral, graphics, svg and "
            "plot tables do the work, corpus layers idle",
            _long_series_inputs, _long_series_commands),
        Workload(
            "fasta-protein",
            "FASTA, 300 records over 20 amino acids, lengths 300-3000: features, dist dcc, outliers; "
            "same layers as corpus-mining at r=20 with ragged lengths",
            _fasta_inputs, _fasta_commands),
    )
}
