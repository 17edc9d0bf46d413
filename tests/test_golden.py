"""Corpus commands against recorded reference outputs.

``tests/data/golden/`` holds the ``--bitexact`` outputs of ``features``,
``dist`` (db at lag 1, dcc at max lag 2), ``mds`` and ``outliers`` on the
criterion-10 corpus (``corpus.csv``: five Markov chains, T=200, spec seed
1234), as written by the serial code before the corpus path was vectorized.
Run this module as a script to rewrite them; do so only from a commit whose
outputs are trusted.  Numbers must agree to a relative tolerance of 1e-12;
ids, labels, headers and rankings must agree exactly.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from catseries.cli import main

DATA = Path(__file__).parent / "data" / "golden"
RTOL = 1e-12


def _commands(out: Path) -> list[tuple[str, list[str]]]:
    corpus = ["--input", str(DATA / "corpus.csv"), "--alphabet", "1,2,3"]
    commands = [
        ("features.csv", ["features", *corpus, "--lags", "1,2,3", "--expand", "--measures",
                          "gini,entropy,marginals,cramers_v,cohens_kappa,total_correlation"]),
        ("dist_db.csv", ["dist", *corpus, "--metric", "db", "--max-lag", "1"]),
        ("dist_dcc.csv", ["dist", *corpus, "--metric", "dcc", "--max-lag", "2"]),
    ]
    for metric in ("db", "dcc"):
        dist = ["--dist", str(out / f"dist_{metric}.csv")]
        commands.append((f"mds_{metric}.csv", ["mds", *dist]))
        commands.append((f"outliers_{metric}.json", ["outliers", *dist]))
    return commands


def _run_all(out: Path) -> None:
    for name, args in _commands(out):
        assert main([*args, "--out", str(out / name), "--bitexact"]) == 0, name


def _number(cell):
    if isinstance(cell, str) and cell.startswith(("0x", "-0x")):
        return float.fromhex(cell)
    return None


def _assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif _number(want) is not None:
        g, w = _number(got), _number(want)
        assert g is not None and math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0), f"{where}: {g!r} vs {w!r}"
    else:
        assert got == want, where


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    _run_all(out)
    return out


@pytest.mark.parametrize("name", [name for name, _ in _commands(Path("."))])
def test_corpus_outputs_match_reference(outputs, name):
    _assert_close(_load(outputs / name), _load(DATA / name), name)


if __name__ == "__main__":
    _run_all(DATA)
