import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catseries
from catseries.cli import main
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
    ],
)
def test_all_plot_kinds(corpus_file, tmp_path, kind, extra):
    out = tmp_path / f"{kind}.svg"
    code = main(["plot", kind, "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--out", str(out), *extra])
    assert code == 0
    assert out.read_text().startswith("<svg")


def test_features_help_and_unknown_measure_list_the_measure_table(corpus_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["features", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert all(name in help_text for name in MEASURES)
    assert main(["features", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--measures", "bogus", "--out", str(tmp_path / "x.csv")]) == 2
    assert f"unknown measure 'bogus'; expected one of {sorted(MEASURES)}" in capsys.readouterr().err


def test_dist_metric_choices_are_the_metric_table(corpus_file, tmp_path, capsys):
    for metric in METRICS:
        assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--metric", metric,
                     "--out", str(tmp_path / f"{metric}.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--metric", "bogus",
              "--out", str(tmp_path / "bogus.csv")])
    assert exc.value.code == 2
    assert f"choose from {', '.join(map(repr, METRICS))}" in capsys.readouterr().err


def test_validation_exit_codes(tmp_path, corpus_file):
    # unknown measure
    assert main(["features", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--measures", "bogus", "--out", str(tmp_path / "x.csv")]) == 2
    # missing file
    assert main(["features", "--input", str(tmp_path / "nope.csv"), "--alphabet", "1,2",
                 "--measures", "gini", "--out", str(tmp_path / "x.csv")]) == 2
    # unknown symbol in corpus
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,9\n")
    assert main(["features", "--input", str(bad), "--alphabet", "1,2,3",
                 "--measures", "gini", "--out", str(tmp_path / "x.csv")]) == 2
    # bad series index
    assert main(["test", "--input", str(corpus_file), "--alphabet", "1,2,3",
                 "--index", "99", "--out", str(tmp_path / "x.json")]) == 2
    # malformed spec JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["simulate", "--spec", str(broken), "--out", str(tmp_path / "y.csv")]) == 2


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
])
def test_simulate_rejects_bad_specs_by_name(tmp_path, capsys, edit, message):
    spec = json.loads(json.dumps(SPEC))
    edit(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))  # json writes a float NaN as the literal NaN, which json reads back
    assert main(["simulate", "--spec", str(path), "--out", str(tmp_path / "y.csv")]) == 2
    assert message in capsys.readouterr().err
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
])
def test_bad_parameters_exit_2_by_name(corpus_file, tmp_path, capsys, command, options, message):
    source = ["--input", str(corpus_file), "--alphabet", "1,2,3"]
    if command == ["outliers"]:
        source = ["--dist", str(tmp_path / "dist.csv")]
        assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--out", source[1]]) == 0
    out = tmp_path / "out"
    assert main([*command, *source, *options, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_lag", ["0", "-1"])
def test_dist_rejects_a_non_positive_max_lag(corpus_file, tmp_path, capsys, max_lag):
    assert main(["dist", "--input", str(corpus_file), "--alphabet", "1,2,3", "--max-lag", max_lag,
                 "--out", str(tmp_path / "d.csv")]) == 2
    assert f"max_lag must be a positive integer, got {max_lag}" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


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


def test_cli_import_leaves_slow_scipy_subpackages_unloaded():
    """Each of these adds hundreds of milliseconds to every CLI call."""
    slow = ("scipy.signal", "scipy.spatial", "scipy.stats", "scipy.sparse")
    src = str(Path(catseries.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, catseries.cli; print(*(m for m in {slow!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
