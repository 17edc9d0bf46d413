import numpy as np
import pytest

from catseries import Alphabet, distance_matrix
from catseries.io import (
    format_number,
    parse_corpus,
    read_distance_csv,
    write_corpus,
    write_distance_csv,
)

from conftest import random_series


def test_symbol_csv_round_trip(tmp_path):
    alpha = Alphabet(("a", "c", "g", "t"))
    path = tmp_path / "corpus.csv"
    path.write_text("a,t,g,g,c|virus1\nc,c,a,t|virus2\n")
    corpus = parse_corpus(path, alpha)
    assert corpus.series[0].codes.tolist() == [1, 4, 3, 3, 2]
    assert corpus.labels == ["virus1", "virus2"]
    assert corpus.ids == ["series_1", "series_2"]

    out = tmp_path / "round.csv"
    write_corpus(out, corpus.series, corpus.labels)
    again = parse_corpus(out, alpha)
    for a, b in zip(corpus.series, again.series):
        assert (a.codes == b.codes).all()
    assert again.labels == corpus.labels


def test_symbol_csv_without_labels(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2,1\n2,2,1\n")
    corpus = parse_corpus(path, Alphabet.of_size(2))
    assert corpus.labels is None


def test_fasta_round_trip(tmp_path):
    path = tmp_path / "seqs.fa"
    path.write_text(">v1 some header\nacgt\nacgt\n>v2\ntttt\n")
    corpus = parse_corpus(path, Alphabet(("a", "c", "g", "t")))
    assert corpus.ids == ["v1 some header", "v2"]
    assert len(corpus.series[0]) == 8
    assert len(corpus.series[1]) == 4
    assert corpus.labels is None


def test_fasta_length_contract(tmp_path):
    path = tmp_path / "one.fa"
    path.write_text(">rec\n" + "ac" * 10 + "\n")
    corpus = parse_corpus(path, Alphabet(("a", "c")))
    assert len(corpus.series[0]) == 20


def test_unknown_symbol_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,c,x,t\n")
    with pytest.raises(ValueError, match="line 1, position 3"):
        parse_corpus(path, Alphabet(("a", "c", "g", "t")))


def test_empty_file_errors(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="empty corpus"):
        parse_corpus(path, Alphabet.of_size(2))


def test_alphabet_must_be_declared_or_inferred(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("b,a,b\n")
    with pytest.raises(ValueError, match="declare an alphabet"):
        parse_corpus(path)
    corpus = parse_corpus(path, infer_alphabet=True)
    assert corpus.series[0].alphabet.symbols == ("a", "b")  # sorted order
    assert corpus.series[0].codes.tolist() == [2, 1, 2]


def test_format_number_modes():
    assert format_number(1 / 3) == "0.3333333333"
    assert format_number(0.05) == "0.05"
    assert format_number(1 / 3, bitexact=True) == (1 / 3).hex()
    assert format_number(7) == "7"
    assert format_number(np.int64(7), bitexact=True) == "7"


def test_distance_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    corpus = [random_series(rng, r=3, T=60, require_all=True) for _ in range(4)]
    dm = distance_matrix(corpus, "db", 1, ids=[f"s{i}" for i in range(4)])
    path = tmp_path / "dist.csv"
    write_distance_csv(path, dm, bitexact=True)
    back = read_distance_csv(path)
    assert back.ids == ("s0", "s1", "s2", "s3")
    assert np.array_equal(back.values, dm.values)  # hex floats are lossless


@pytest.mark.parametrize(
    "edits,message",
    [
        ({(2, 0): "s9"}, "row ids"),
        ({(1, 2): "nan", (2, 1): "nan"}, "finite"),
        ({(1, 2): "-0.5", (2, 1): "-0.5"}, "non-negative"),
        ({(1, 2): "0.5"}, "symmetric"),
        ({(3, 3): "0.5"}, "zero diagonal"),
    ],
)
def test_read_distance_csv_rejects_invalid_matrices(tmp_path, edits, message):
    rng = np.random.default_rng(0)
    corpus = [random_series(rng, r=3, T=60, require_all=True) for _ in range(3)]
    path = tmp_path / "dist.csv"
    write_distance_csv(path, distance_matrix(corpus, "db", 1, ids=["s0", "s1", "s2"]))
    rows = [line.split(",") for line in path.read_text().splitlines()]
    for (row, col), cell in edits.items():
        rows[row][col] = cell
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(ValueError, match=message) as err:
        read_distance_csv(path)
    assert str(path) in str(err.value)
