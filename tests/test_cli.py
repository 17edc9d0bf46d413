import argparse
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catseries
from catseries import cli
from catseries.cli import COMMANDS, PLOT_KINDS, build_parser, main
from catseries.inference import TEST_FAMILIES
from catseries.io import parse_corpus
from catseries.mining import MEASURES, METRICS
from catseries.series import Alphabet

SPEC = {
    "seed": 404,
    "length": 150,
    "alphabet": ["1", "2", "3"],
    "groups": [
        {
            "family": "mc",
            "count": 4,
            "transition": [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]],
            "initial": [0.34, 0.33, 0.33],
        },
        {"family": "ndarma", "count": 2, "p": 1, "q": 0, "selection": [0.6, 0.4], "innovation": [0.2, 0.3, 0.5]},
    ],
}


@pytest.fixture
def corpus_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "corpus.csv"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


@pytest.fixture
def fasta_file(tmp_path):
    rng = np.random.default_rng(33)
    lines = []
    for i in range(3):
        lines.append(f">seq{i}")
        lines.append("".join(rng.choice(list("acgt"), size=120)))
    path = tmp_path / "seqs.fa"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_simulate_then_parse_round_trip(corpus_file, tmp_path):
    from catseries.simulate import corpus_spec_from_dict, generate_corpus

    corpus = parse_corpus(corpus_file, Alphabet.of_size(3))
    assert len(corpus.series) == 6
    assert corpus.labels == ["1", "1", "1", "1", "2", "2"]
    regenerated, _ = generate_corpus(corpus_spec_from_dict(SPEC))
    for parsed, direct in zip(corpus.series, regenerated):
        assert (parsed.codes == direct.codes).all()
    # byte-stable across runs
    spec_path = tmp_path / "spec2.json"
    spec_path.write_text(json.dumps(SPEC))
    out2 = tmp_path / "corpus2.csv"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out2)]) == 0
    assert out2.read_bytes() == corpus_file.read_bytes()


def test_features_expand_on_fasta(fasta_file, tmp_path):
    out = tmp_path / "features.csv"
    code = main(
        ["features", "--input", str(fasta_file), "--alphabet", "a,c,g,t",
         "--measures", "gini,cramers_v", "--lag", "1", "--expand",
         "--out", str(out), "--bitexact"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "id"
    assert header[1] == "gini"
    assert len(header) == 1 + 1 + 16  # id + gini + 16 expanded v cells for r=4
    assert len(lines) == 1 + 3
    assert header[2] == "cramers_v.l1.a_a"


def test_features_byte_stable(corpus_file, tmp_path):
    args = ["features", "--input", str(corpus_file), "--alphabet", "1,2,3",
            "--measures", "gini,entropy,cohens_kappa,total_correlation", "--lags", "1,2",
            "--expand", "--bitexact"]
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_test_command_json(corpus_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["test", "--input", str(corpus_file), "--alphabet", "1,2,3",
         "--family", "kappa", "--max-lag", "10", "--alpha", "0.05", "--holm",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["family"] == "cohens_kappa"
    assert len(report["rows"]) == 10
    assert len(report["holm_adjusted_p_values"]) == 10
    assert all(0.0 <= row["p_value"] <= 1.0 for row in report["rows"])
    assert report["lower_critical"] < 0 < report["upper_critical"]


def test_dist_mds_outliers_pipeline(corpus_file, tmp_path):
    dist = tmp_path / "dist.csv"
    assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--metric", "db", "--max-lag", "1", "--out", str(dist), "--bitexact"]) == 0
    header = dist.read_text().splitlines()[0].split(",")
    assert header == ["id"] + [f"series_{i}" for i in range(1, 7)]

    coords = tmp_path / "coords.csv"
    assert main(["mds", "--dist", str(dist), "--out", str(coords)]) == 0
    lines = coords.read_text().splitlines()
    assert lines[0] == "id,x,y"
    assert len(lines) == 7

    outl = tmp_path / "outliers.json"
    assert main(["outliers", "--dist", str(dist), "--out", str(outl)]) == 0
    payload = json.loads(outl.read_text())
    assert set(payload["ranking"]) == {f"series_{i}" for i in range(1, 7)}
    assert payload["n"] == 6

    # byte stability of the whole pipeline in bitexact mode
    dist2 = tmp_path / "dist2.csv"
    main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3",
          "--metric", "db", "--max-lag", "1", "--out", str(dist2), "--bitexact"])
    assert dist2.read_bytes() == dist.read_bytes()


def test_plot_svg_and_table(corpus_file, tmp_path):
    svg_out = tmp_path / "ifs.svg"
    table_out = tmp_path / "ifs.csv"
    code = main(
        ["plot", "ifs", "--input", str(corpus_file), "--alphabet", "1,2,3",
         "--alpha", "0.17", "--beta", "0.10",
         "--window", "0.117,0.120,-0.025,0.025",
         "--out", str(svg_out), "--table", str(table_out)]
    )
    assert code == 0
    doc = svg_out.read_text()
    assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
    assert table_out.read_text().splitlines()[0] == "t,x,y"

    svg2 = tmp_path / "ifs2.svg"
    main(["plot", "ifs", "--input", str(corpus_file), "--alphabet", "1,2,3",
          "--alpha", "0.17", "--beta", "0.10",
          "--window", "0.117,0.120,-0.025,0.025", "--out", str(svg2)])
    assert svg2.read_bytes() == svg_out.read_bytes()


# the --table header README documents for each kind, on the corpus over 1,2,3
TABLE_HEADERS = {
    "series": "t,code,symbol",
    "rate": "t,count_1,count_2,count_3",
    "pattern": "length,count",
    "dependence": "lag,estimate,lower_critical,upper_critical",
    "cycle-chart": "t,T_1",
    "ewma-chart": "t,T_min,T_max",
    "envelope": "frequency,envelope,gamma_1,gamma_2",
    "ifs": "t,x,y",
}


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("series", ["--limit", "50"]),
        ("rate", []),
        ("pattern", ["--category", "2"]),
        ("dependence", ["--family", "cramers_v", "--max-lag", "5"]),
        ("cycle-chart", ["--category", "1", "--alpha", "0.05"]),
        ("ewma-chart", ["--collapse"]),
        ("envelope", []),
        ("ifs", ["--alpha", "0.17", "--beta", "0.1"]),
    ],
)
def test_all_plot_kinds(corpus_file, tmp_path, kind, extra):
    out = tmp_path / f"{kind}.svg"
    table = tmp_path / f"{kind}.csv"
    code = main(["plot", kind, "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--out", str(out), "--table", str(table), *extra])
    assert code == 0
    assert out.read_text().startswith("<svg")
    assert table.read_text().splitlines()[0] == TABLE_HEADERS[kind]


@pytest.mark.parametrize("command", [["test"], ["plot", "dependence"]])
def test_family_help_lists_the_family_table(capsys, command):
    with pytest.raises(SystemExit):
        main([*command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"one of {', '.join(TEST_FAMILIES)}" in help_text
    assert all(name in help_text for name in TEST_FAMILIES)


def test_features_help_and_unknown_measure_list_the_measure_table(corpus_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["features", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert all(name in help_text for name in MEASURES)
    assert main(["features", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--measures", "bogus", "--out", str(tmp_path / "x.csv")]) == 2
    assert f"unknown measure 'bogus'; expected one of {list(MEASURES)}" in capsys.readouterr().err


def test_dist_metric_choices_are_the_metric_table(corpus_file, tmp_path, capsys):
    for metric in METRICS:
        assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--metric", metric,
                     "--out", str(tmp_path / f"{metric}.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--metric", "bogus",
              "--out", str(tmp_path / "bogus.csv")])
    assert exc.value.code == 2
    assert f"choose from {', '.join(map(repr, METRICS))}" in capsys.readouterr().err


def test_validation_exit_codes(tmp_path, corpus_file, capsys):
    # unknown measure
    assert main(["features", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--measures", "bogus", "--out", str(tmp_path / "x.csv")]) == 2
    # missing file
    assert main(["features", "--input", str(tmp_path / "nope.csv"), "--alphabet", "1,2",
                 "--measures", "gini", "--out", str(tmp_path / "x.csv")]) == 2
    # unknown symbol in corpus
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,9\n")
    capsys.readouterr()
    assert main(["features", "--input", str(bad), "--alphabet", "1,2,3",
                 "--measures", "gini", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: unknown symbol '9' at line 1, position 3: {bad}\n"
    # bad series index
    assert main(["test", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--index", "99", "--out", str(tmp_path / "x.json")]) == 2
    # malformed spec JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    capsys.readouterr()
    assert main(["simulate", "--spec", str(broken), "--out", str(tmp_path / "y.csv")]) == 2
    assert capsys.readouterr().err == f"error: Expecting property name enclosed in double quotes: " \
                                      f"line 1 column 2 (char 1): {broken}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda spec: spec["groups"][1].update(innovation=[float("nan"), 0.5, 0.5]),
     "innovation marginal has non-finite entries"),
    (lambda spec: spec["groups"][0]["transition"].__setitem__(1, [float("nan"), 1.0, 0.0]),
     "transition matrix has non-finite entries"),
    (lambda spec: spec.update(groups="x"), "corpus spec key 'groups' must be a list of objects"),
    (lambda spec: spec["groups"].__setitem__(1, None), "corpus spec group 2 must be an object"),
    (lambda spec: spec.update(seed=-3), "corpus seed must be non-negative, got -3"),
    (lambda spec: spec.update(alphabet="123"), "corpus spec key 'alphabet' must be a list of labels, got '123'"),
    (lambda spec: spec["groups"][1].update(innovation="x"),
     "corpus spec group 2 key 'innovation' must be a list of numbers, got 'x'"),
    (lambda spec: spec["groups"][1].update(selection=None),
     "corpus spec group 2 key 'selection' must be a list of numbers, got None"),
    (lambda spec: spec["groups"][0].update(initial=[0.5, 0.5, 0.5]),
     "corpus spec group 1: initial distribution must be a probability vector"),
    (lambda spec: [1, 2], "corpus spec must be an object, got [1, 2]"),
])
def test_simulate_rejects_bad_specs_by_name(tmp_path, capsys, edit, message):
    """The error names what is wrong with the spec, then the spec file."""
    spec = json.loads(json.dumps(SPEC))
    spec = edit(spec) or spec  # an edit in place returns None
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))  # json writes a float NaN as the literal NaN, which json reads back
    assert main(["simulate", "--spec", str(path), "--out", str(tmp_path / "y.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.endswith(f": {path}\n")
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("command, options, message", [
    (["outliers"], ["--range-factor", "nan"], "range factor must be non-negative and finite, got nan"),
    (["plot", "ewma-chart"], ["--c", "nan,0.5,0.5"], "c must be a finite probability vector"),
    (["plot", "ewma-chart"], ["--k", "nan"], "k must be positive and finite, got nan"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "nan"], "beta must be positive and finite, got nan"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "0.1", "--f0", "nan", "0"], "f0 must be a finite 2-D point"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "0.1", "--window", "nan,1,0,1"],
     "--window expects finite x0,x1,y0,y1, got 'nan,1,0,1'"),
    (["features"], ["--measures", "gini", "--lags", "1,,2"],
     "--lags expects a comma list of positive integers, got '1,,2'"),
    (["features"], ["--measures", "gini", "--lags", "2,0"], "--lags expects a comma list of positive integers, got '2,0'"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "0.1", "--window", "x,1,0,1"],
     "--window expects finite x0,x1,y0,y1, got 'x,1,0,1'"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "0.1", "--window", "1,0,0,1"],
     "window must be four finite numbers with x0 < x1 and y0 < y1, got (1.0, 0.0, 0.0, 1.0)"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "0.1", "--window", "0,0,0,1"],
     "window must be four finite numbers with x0 < x1 and y0 < y1, got (0.0, 0.0, 0.0, 1.0)"),
    (["plot", "ewma-chart"], ["--c", "x,0.5,0.5"], "--c expects a comma list of numbers, got 'x,0.5,0.5'"),
    (["plot", "series"], ["--limit", "-5"], "--limit must be a positive integer, got -5"),
    (["plot", "series"], ["--limit", "0"], "--limit must be a positive integer, got 0"),
    (["plot", "dependence"], ["--max-lag", "1000"], "max_lag must satisfy 1 <= max_lag < T, got 1000 with T=150"),
    (["plot", "dependence"], ["--max-lag", "0"], "max_lag must satisfy 1 <= max_lag < T, got 0 with T=150"),
    (["test"], ["--max-lag", "1000"], "max_lag must satisfy 1 <= max_lag < T, got 1000 with T=150"),
    (["plot", "envelope"], ["--window-length", "4"],
     "smoothing window must be a positive odd integer, got 4 with T=150"),
    (["plot", "envelope"], ["--window-length", "75"], "smoothing window must be shorter than T/2, got 75 with T=150"),
    (["features"], ["--measures", " , "], "no measures selected"),
    (["plot", "cycle-chart"], ["--category", "9"], "unknown symbol '9'; not in alphabet ('1', '2', '3')"),
    (["plot", "cycle-chart"], ["--category", "1", "--p", "1"], "in-control probability must lie in (0, 1)"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "1e308"],
     "alpha=0.5 and beta=1e+308 give the points' bound beta / (1 - alpha) = inf"),
    (["plot", "ewma-chart"], ["--k", "5e-324"], "k=5e-324 makes the standardized statistics"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "0.5", "--window=-1e308,1e308,-1e308,1e308"],
     "window (-1e+308, 1e+308, -1e+308, 1e+308) must have a finite width x1 - x0 and height y1 - y0"),
    (["test"], ["--alphabet", "1,2,3,"], "--alphabet has an empty label at position 4, got '1,2,3,'"),
    (["features"], ["--measures", "gini", "--alphabet", "1,,2,3"],
     "--alphabet has an empty label at position 2, got '1,,2,3'"),
    (["plot", "rate"], ["--alphabet", " ,1,2,3"], "--alphabet has an empty label at position 1, got ' ,1,2,3'"),
    (["features"], ["--measures", "gini,cramers_v, gini"], "--measures names 'gini' twice, got 'gini,cramers_v, gini'"),
    (["test"], ["--alphabet", "1,2,3,2"], "duplicate category labels in alphabet: '2' at positions 2 and 4"),
    (["features"], ["--measures", "gini,,cramers_v"], "--measures has an empty label at position 2, got 'gini,,cramers_v'"),
    (["plot", "ewma-chart"], ["--c", ""], "--c expects a comma list of numbers, got ''"),
    (["plot", "ifs"], ["--alpha", "0.5", "--beta", "0.1", "--window", ""], "--window expects finite x0,x1,y0,y1, got ''"),
    (["test"], ["--alphabet", ""], "--alphabet has an empty label at position 1, got ''"),
])
def test_bad_parameters_exit_2_by_name(corpus_file, tmp_path, capsys, command, options, message):
    source = ["--input", str(corpus_file), "--alphabet", "1,2,3"]
    if command == ["outliers"]:
        source = ["--dist", str(tmp_path / "dist.csv")]
        assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--out", source[1]]) == 0
    out, table = tmp_path / "out", tmp_path / "table.csv"
    if command[0] == "plot":
        options = [*options, "--table", str(table)]
    assert main([*command, *source, *options, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not table.exists()


@pytest.mark.parametrize("kind, options, chart, message", [
    ("ifs", ["--alpha", "0.5", "--beta", "0.1", "--window", "0,1,x,1"], "ifs_circle_transform",
     "--window expects finite x0,x1,y0,y1, got '0,1,x,1'"),
    ("ewma-chart", ["--c", "0.5,,0.5"], "ewma_marginal_chart", "--c expects a comma list of numbers, got '0.5,,0.5'"),
])
def test_a_bad_plot_list_flag_exits_2_before_the_corpus_is_read(corpus_file, tmp_path, capsys, kind, options, chart,
                                                                 message):
    out = tmp_path / "out.svg"
    with mock.patch("catseries.io.parse_corpus", wraps=parse_corpus) as read, \
            mock.patch(f"catseries.graphics.{chart}") as build:
        assert main(["plot", kind, "--input", str(corpus_file), "--alphabet", "1,2,3", *options,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not read.called and not build.called and not out.exists()


@pytest.fixture(scope="module")
def shared_corpus(tmp_path_factory):
    """The SPEC corpus, made once for a test that draws many command lines."""
    folder = tmp_path_factory.mktemp("lists")
    (folder / "spec.json").write_text(json.dumps(SPEC))
    assert main(["simulate", "--spec", str(folder / "spec.json"), "--out", str(folder / "corpus.csv")]) == 0
    return folder / "corpus.csv"


_LABELS = st.lists(st.text(st.characters(blacklist_characters=",", blacklist_categories=("Cs",)), min_size=1)
                   .map(str.strip).filter(bool), min_size=1, max_size=8)
_SPACES = st.text(" \t", max_size=2)


def _spaced(parts, data):
    """``parts`` joined by commas, each part with spaces drawn around it."""
    return ",".join(data.draw(_SPACES) + part + data.draw(_SPACES) for part in parts)


@given(labels=_LABELS, data=st.data())
def test_a_list_of_names_parses_to_its_stripped_names(labels, data):
    text = _spaced(labels, data)
    assert cli._comma_list(text, "--alphabet") == cli._comma_list(text, "--measures") == tuple(labels)


# each list flag: the command line it goes on, and the parts of a value it accepts
_LIST_FLAGS = {
    "--alphabet": (["test"], ["1", "2", "3"]),
    "--measures": (["features"], ["gini", "cramers_v"]),
    "--lags": (["features", "--measures", "cramers_v"], ["1", "2"]),
    "--c": (["plot", "ewma-chart"], ["0.3", "0.3", "0.4"]),
    "--window": (["plot", "ifs", "--alpha", "0.5", "--beta", "0.1"], ["-1", "1", "-1", "1"]),
}


@pytest.mark.parametrize("flag", _LIST_FLAGS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_an_empty_part_in_a_list_flag_exits_2_by_name(shared_corpus, flag, data):
    command, parts = _LIST_FLAGS[flag]
    position = data.draw(st.integers(0, len(parts)), label="position")
    text = _spaced([*parts[:position], "", *parts[position:]], data)
    out, err = shared_corpus.parent / "out", io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([*command, "--input", str(shared_corpus), "--alphabet", "1,2,3", f"{flag}={text}",
                     "--out", str(out)]) == 2
    named = f"has an empty label at position {position + 1}" if flag in ("--alphabet", "--measures") else "expects"
    assert err.getvalue().startswith(f"error: {flag} {named}") and f"got {text!r}" in err.getvalue()
    assert not out.exists()


@pytest.mark.parametrize("command", ["mds", "outliers"])
@pytest.mark.parametrize("cells, message", [
    ({(1, 2): "nan", (2, 1): "nan"}, "distances must be finite and non-negative"),
    ({(1, 2): "0.5"}, "distance matrix must be symmetric with a zero diagonal"),
])
def test_mds_and_outliers_exit_2_on_bad_distances_naming_the_file(corpus_file, tmp_path, capsys, command, cells,
                                                                 message):
    dist, out = tmp_path / "dist.csv", tmp_path / "out"
    assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--out", str(dist)]) == 0
    rows = [line.split(",") for line in dist.read_text().splitlines()]
    for (row, column), cell in cells.items():
        rows[row][column] = cell
    dist.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    assert main([command, "--dist", str(dist), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}: {dist}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["mds", "outliers"])
@pytest.mark.parametrize("zero, one", [("0", "1"), ("0x0.0p+0", "0x1.0000000000000p+0")])
def test_mds_and_outliers_exit_2_on_a_repeated_id_naming_the_file(tmp_path, capsys, command, zero, one):
    """A header naming an id twice was read, and ``outliers`` dropped one of its scores."""
    dist, out = tmp_path / "dist.csv", tmp_path / "out"
    rows = [[ident, *(zero if i == j else one for j in range(4))] for i, ident in enumerate("aabc")]
    dist.write_text("".join(",".join(row) + "\n" for row in [["id", *"aabc"], *rows]))
    assert main([command, "--dist", str(dist), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: distance matrix id 'a' is repeated at positions 1 and 2: {dist}\n"
    assert not out.exists()



def test_outliers_of_three_series_exit_2_naming_the_count(tmp_path, capsys):
    """The boxplot rule needs four scores: a 3x3 file is read, and the
    error says how many series it holds."""
    dist, out = tmp_path / "dist.csv", tmp_path / "out.json"
    dist.write_text("id,a,b,c\na,0,1,2\nb,1,0,3\nc,2,3,0\n")
    assert main(["outliers", "--dist", str(dist), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need at least four scores for the boxplot rule, got 3\n"
    assert not out.exists()

@pytest.mark.parametrize("command, message", [
    ("mds", "distances too large for 2-D scaling: the double-centred matrix overflows; "
            "the largest distance is 1.5e+308 between 'b' and 'c'"),
    ("outliers", "the distance sum of 'b' overflows"),
], ids=["mds", "outliers"])
def test_mds_and_outliers_exit_2_on_huge_finite_distances_without_a_warning(tmp_path, capsys, command, message):
    dist, out = tmp_path / "dist.csv", tmp_path / "out"
    dist.write_text("id,a,b,c\na,0,5e307,1e308\nb,5e307,0,1.5e308\nc,1e308,1.5e308,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--dist", str(dist), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("max_lag", ["0", "-1"])
def test_dist_rejects_a_non_positive_max_lag(corpus_file, tmp_path, capsys, max_lag):
    assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--max-lag", max_lag,
                 "--out", str(tmp_path / "d.csv")]) == 2
    assert f"max_lag must be a positive integer, got {max_lag}" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


# every option each subcommand or plot kind requires, with a value that parses
_REQUIRED = {
    "features": ["--input", "c", "--measures", "gini"], "test": ["--input", "c"], "dist": ["--input", "c"],
    "mds": ["--dist", "d"], "outliers": ["--dist", "d"], "simulate": ["--spec", "s"],
    **{kind: ["--input", "c"] for kind in PLOT_KINDS},
    "pattern": ["--input", "c", "--category", "1"], "cycle-chart": ["--input", "c", "--category", "1"],
    "ifs": ["--input", "c", "--alpha", "0.5", "--beta", "0.1"],
}
_NAMED = [[name] for name in COMMANDS if name != "plot"] + [["plot", kind] for kind in PLOT_KINDS]
_UNKNOWN_FLAG = [[*named, *_REQUIRED[named[-1]], "--out", "o", "--frobnicate"] for named in _NAMED]
_PRUNED_ARGV = [
    *([*named, "--help"] for named in _NAMED),
    *_NAMED,
    *_UNKNOWN_FLAG,
    *([*named, *_REQUIRED[named[-1]], "--ou", "o", "--bit"] for named in _NAMED),
    ["dist", "--metric", "bogus"],
    ["test", "--al", "1"],
]
_FULL_ARGV = [[], ["-h"], ["bogus"], ["plot"], ["plot", "-h"], ["plot", "bogus"], ["-h", "mds"]]


def _parse(parser, argv, capsys):
    """The namespace or exit code of ``parser.parse_args(argv)``, with what it printed."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, *capsys.readouterr()


@pytest.mark.parametrize("argv", [*_PRUNED_ARGV, *_FULL_ARGV], ids=lambda argv: " ".join(argv) or "(empty)")
def test_the_parser_main_builds_parses_as_the_full_parser(argv, capsys):
    """``main`` builds only the subcommand (and plot kind) that the line names; its namespace,
    help, errors and usage lines must be the full parser's, byte for byte."""
    named = cli._named(argv)
    assert (named == (None, None)) == (argv in _FULL_ARGV)
    result = _parse(build_parser(*named), argv, capsys)
    assert result == _parse(build_parser(), argv, capsys)
    if argv in _UNKNOWN_FLAG:
        assert result[2].endswith("catseries: error: unrecognized arguments: --frobnicate\n")


def test_a_valid_line_builds_only_the_parsers_it_names(corpus_file, tmp_path, monkeypatch):
    dist = tmp_path / "dist.csv"
    assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--out", str(dist)]) == 0
    built, add_parser = [], argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kwargs: built.append(name) or add_parser(self, name, **kwargs))
    assert main(["mds", "--dist", str(dist), "--out", str(tmp_path / "mds.csv")]) == 0
    assert built == ["mds"]
    built.clear()
    assert main(["plot", "rate", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--out", str(tmp_path / "rate.svg")]) == 0
    assert built == ["plot", "rate"]


def test_main_reads_the_command_line_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["catseries", "mds", "--help"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert (exc.value.code, *capsys.readouterr()) == _parse(build_parser(), ["mds", "--help"], capsys)


def test_the_console_entry_and_the_module_guard_exit_with_the_status_of_main(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["catseries", "features", "--input", str(tmp_path / "missing.csv"),
                                      "--alphabet", "1,2", "--measures", "gini", "--out", str(tmp_path / "f.csv")])
    with pytest.raises(SystemExit) as exc:
        cli.console_entry()
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("error: ")
    # running the imported module again as a script warns that it is already imported
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), pytest.raises(SystemExit) as exc:
        runpy.run_module("catseries.cli", run_name="__main__")
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "f.csv").exists()


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["features", "--frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_internal_error_exit_1(corpus_file, tmp_path, monkeypatch, capsys):
    import catseries.cli as cli_module

    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module.mining, "distance_matrix", explode)
    code = main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 1
    assert "internal error" in capsys.readouterr().err


def test_series_plot_table(corpus_file, tmp_path):
    out = tmp_path / "series.svg"
    table = tmp_path / "series.csv"
    assert main(["plot", "series", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--limit", "10", "--out", str(out), "--table", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "t,code,symbol"
    assert len(lines) == 11


def test_infer_alphabet_flag(corpus_file, tmp_path):
    out = tmp_path / "inferred.csv"
    assert main(["features", "--input", str(corpus_file), "--infer-alphabet",
                 "--measures", "marginals", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "id,p.1,p.2,p.3,label"


def test_an_alphabet_and_infer_alphabet_together_exit_2(corpus_file, tmp_path, capsys):
    out = tmp_path / "features.csv"
    assert main(["features", "--input", str(corpus_file), "--alphabet", "1,2,3", "--infer-alphabet",
                 "--measures", "marginals", "--out", str(out)]) == 2
    assert "declare an alphabet or pass infer_alphabet=True, not both" in capsys.readouterr().err
    assert not out.exists()


def test_alphabet_labels_are_stripped(corpus_file, tmp_path):
    out = tmp_path / "features.csv"
    assert main(["features", "--input", str(corpus_file), "--alphabet", "1, 2 ,3",
                 "--measures", "marginals", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "id,p.1,p.2,p.3,label"


@pytest.mark.parametrize("command", [["dist", "--metric", "db"], ["features", "--measures", "total_correlation"]])
def test_degenerate_series_named_by_id_and_index(tmp_path, capsys, command):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("1,2,3,1,2,3,3\n2,2,2,2,2,2,2\n3,1,2,2,1,3,1\n")
    code = main([command[0], "--input", str(corpus), "--alphabet", "1,2,3", *command[1:],
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert "series 'series_2' (index 2)" in capsys.readouterr().err


def test_rate_table_counts_are_integers(corpus_file, tmp_path):
    table = tmp_path / "rate.csv"
    assert main(["plot", "rate", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--out", str(tmp_path / "rate.svg"), "--table", str(table), "--bitexact"]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "t,count_1,count_2,count_3"
    for t, line in enumerate(lines[1:], start=1):
        cells = [int(cell) for cell in line.split(",")]
        assert cells[0] == t and sum(cells[1:]) == t


def test_unknown_family_same_error_in_test_and_plot(corpus_file, tmp_path, capsys):
    from catseries import CategoricalSeries, dependence_plot_data

    series = CategoricalSeries([1, 2, 3, 1, 2, 3], Alphabet.of_size(3))
    with pytest.raises(ValueError) as err:
        dependence_plot_data(series, "bogus")
    assert main(["test", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--family", "bogus", "--out", str(tmp_path / "t.json")]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert "unknown test family 'bogus'" in str(err.value)


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports catseries from this checkout."""
    src = str(Path(catseries.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_leaves_slow_scipy_subpackages_unloaded():
    """Importing scipy adds about 0.35 s to every CLI call; no module of it may load at import."""
    for module in ("catseries", "catseries.cli"):
        assert _fresh_python(f"import sys, {module}; print(*{_SCIPY_LOADED})").split() == [], module


def test_no_command_loads_scipy(corpus_file, tmp_path):
    """Every subcommand and plot kind, ``test`` and ``plot dependence``
    included, runs in one fresh interpreter without loading scipy."""
    source = ["--input", str(corpus_file), "--alphabet", "1,2,3"]
    dist = str(tmp_path / "dist.csv")
    plots = {"series": [], "rate": [], "pattern": ["--category", "1"], "ifs": ["--alpha", "0.5", "--beta", "0.1"],
             "dependence": [], "cycle-chart": ["--category", "1"], "ewma-chart": [], "envelope": []}
    argvs = [
        ["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "again.csv")],
        ["features", *source, "--measures", ",".join(MEASURES), "--out", str(tmp_path / "features.csv")],
        ["dist", *source, "--out", dist],
        ["mds", "--dist", dist, "--out", str(tmp_path / "mds.csv")],
        ["outliers", "--dist", dist, "--out", str(tmp_path / "outliers.json")],
        *(["test", *source, "--family", family, "--out", str(tmp_path / f"test-{family}.json")]
          for family in ("v", "kappa")),
        *(["plot", kind, *source, *extra, "--out", str(tmp_path / f"{kind}.svg")] for kind, extra in plots.items()),
    ]
    assert {argv[0] for argv in argvs} == set(COMMANDS) and set(plots) == set(PLOT_KINDS)
    run = f"import json, sys; from catseries.cli import main\nfor argv in json.loads(sys.argv[1]): print(main(argv), *{_SCIPY_LOADED})"
    assert _fresh_python(run, json.dumps(argvs)).splitlines() == ["0"] * len(argvs)


def test_cli_import_leaves_statistics_unloaded():
    """``statistics`` is imported by the normal quantile when it is called, not by ``import catseries.cli``."""
    assert _fresh_python("import sys, catseries.cli; print('statistics' in sys.modules)").split() == ["False"]


def test_no_module_of_the_package_imports_scipy():
    import ast

    found = []
    for path in sorted(Path(catseries.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []
