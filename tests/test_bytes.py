"""Byte-for-byte references for the charts, plot tables and decimal outputs.

``tests/data/bytes/`` holds, for one fixed short NDARMA(2,1) series over
A,C,G,T (``input.csv``, T=240), the SVG of every ``plot`` kind with its
``--table`` CSV in decimal and in ``--bitexact`` mode, and the decimal
(non-``--bitexact``) outputs of ``features``, ``dist``, ``mds`` and
``outliers`` on the criterion-10 corpus of ``tests/data/golden/``, and the
corpus ``simulate`` writes from :data:`SIMULATE_SPEC` (``simulate.csv``:
one mc, one hmm and two NDARMA groups, with and without burn-in).  Every
file must match its reference exactly.  Run this module as a script to
rewrite them; do so only from a commit whose outputs are trusted.
"""

import json
from pathlib import Path

import pytest

from catseries.cli import main

DATA = Path(__file__).parent / "data" / "bytes"
CORPUS = Path(__file__).parent / "data" / "golden" / "corpus.csv"

PLOTS = {
    "series": ["series"],
    "rate": ["rate"],
    "pattern": ["pattern", "--category", "A"],
    "ifs": ["ifs", "--alpha", "0.5", "--beta", "0.5"],
    "ifs-window": ["ifs", "--alpha", "0.17", "--beta", "0.1", "--window=-0.1,0.15,-0.12,0.12"],
    "dependence": ["dependence", "--max-lag", "6"],
    "dependence-kappa": ["dependence", "--family", "kappa", "--max-lag", "6"],
    "cycle-chart": ["cycle-chart", "--category", "A"],
    "ewma-chart": ["ewma-chart"],
    "ewma-collapse": ["ewma-chart", "--collapse"],
    "envelope": ["envelope"],
}

SIMULATE_SPEC = {
    "seed": 2024,
    "length": 90,
    "alphabet": ["a", "b", "c"],
    "groups": [
        {"family": "mc", "count": 3, "transition": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]],
         "initial": [0.5, 0.25, 0.25]},
        {"family": "hmm", "count": 3, "hidden_transition": [[0.9, 0.1], [0.3, 0.7]],
         "emission": [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]], "hidden_initial": [0.5, 0.5]},
        {"family": "ndarma", "count": 3, "p": 2, "q": 1, "selection": [0.4, 0.2, 0.3, 0.1],
         "innovation": [0.2, 0.5, 0.3], "burn_in": 37},
        {"family": "ndarma", "count": 3, "p": 0, "q": 2, "selection": [0.3, 0.4, 0.3],
         "innovation": [0.6, 0.1, 0.3], "burn_in": 0},
    ],
}


def _commands(out: Path) -> list[tuple[list[str], list[str]]]:
    """(reference files the command writes, command line) pairs."""
    source = ["--input", str(DATA / "input.csv"), "--alphabet", "A,C,G,T"]
    commands = []
    for name, (kind, *extra) in PLOTS.items():
        commands.append(([f"{name}.svg", f"{name}.csv"],
                         ["plot", kind, *source, *extra, "--out", str(out / f"{name}.svg"),
                          "--table", str(out / f"{name}.csv")]))
        commands.append(([f"{name}.hex.csv"],
                         ["plot", kind, *source, *extra, "--out", str(out / f"{name}.hex.svg"),
                          "--table", str(out / f"{name}.hex.csv"), "--bitexact"]))
    corpus = ["--input", str(CORPUS), "--alphabet", "1,2,3"]
    commands.append((["features.csv"], ["features", *corpus, "--lags", "1,2", "--expand", "--measures",
                                        "gini,entropy,marginals,cramers_v,cohens_kappa,total_correlation",
                                        "--out", str(out / "features.csv")]))
    for metric, lag in (("db", "1"), ("dcc", "2")):
        dist = str(out / f"dist_{metric}.csv")
        commands.append(([f"dist_{metric}.csv"], ["dist", *corpus, "--metric", metric, "--max-lag", lag,
                                                  "--out", dist]))
        commands.append(([f"mds_{metric}.csv"], ["mds", "--dist", dist, "--out", str(out / f"mds_{metric}.csv")]))
        commands.append(([f"outliers_{metric}.json"],
                         ["outliers", "--dist", dist, "--out", str(out / f"outliers_{metric}.json")]))
    spec = out / "simulate.json"
    commands.append((["simulate.csv"], ["simulate", "--spec", str(spec), "--out", str(out / "simulate.csv")]))
    return commands


def _run_all(out: Path) -> None:
    (out / "simulate.json").write_text(json.dumps(SIMULATE_SPEC))
    for names, args in _commands(out):
        assert main(args) == 0, names


NAMES = [name for names, _ in _commands(Path(".")) for name in names]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bytes")
    _run_all(out)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_output_bytes_match_reference(outputs, name):
    assert (outputs / name).read_bytes() == (DATA / name).read_bytes(), name


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _run_all(Path(tmp))
        for name in NAMES:
            shutil.copyfile(Path(tmp) / name, DATA / name)
