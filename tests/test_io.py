import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from catseries import (
    Alphabet,
    CategoricalSeries,
    CorpusSpec,
    DistanceMatrix,
    HiddenMarkovModel,
    MarkovChainModel,
    NdarmaModel,
    distance_matrix,
    generate_corpus,
)
from catseries.cli import main
from catseries.io import (
    _csv_cell,
    _distance_rows,
    _fixed_text,
    _hex_text,
    _hex_values,
    _integer_text,
    _jsonify,
    _parse_row,
    _read_canonical,
    _read_distance_text,
    format_number,
    format_numbers,
    parse_corpus,
    read_distance_csv,
    write_coordinates_csv,
    write_corpus,
    write_distance_csv,
    write_features_csv,
    write_json_report,
    write_table_csv,
)

import oracles
from conftest import random_series, traced_peak_mib


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


@pytest.mark.parametrize("text, fmt, message", [
    ("a,c\n", "xml", "unknown corpus format 'xml'"),
    ("ac\n>x\nac\n", "fasta", "sequence data before any '>' header at line 1"),
])
def test_an_unknown_format_or_headless_fasta_is_named(tmp_path, text, fmt, message):
    path = tmp_path / "corpus.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        parse_corpus(path, Alphabet(("a", "c")), fmt)
    assert str(err.value) == message


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
    with pytest.raises(ValueError, match="declare an alphabet or pass infer_alphabet=True, not both"):
        parse_corpus(path, Alphabet(("b", "a")), infer_alphabet=True)


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


def test_read_distance_csv_names_the_bad_cell(tmp_path, capsys):
    rng = np.random.default_rng(0)
    corpus = [random_series(rng, r=3, T=60, require_all=True) for _ in range(3)]
    path = tmp_path / "dist.csv"
    write_distance_csv(path, distance_matrix(corpus, "db", 1, ids=["s0", "s1", "s2"]), bitexact=True)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = "abc"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"'abc' at line 3, column 4") as err:
        read_distance_csv(path)
    assert str(path) in str(err.value)
    assert main(["mds", "--dist", str(path), "--out", str(tmp_path / "mds.csv")]) == 2
    assert f"'abc' at line 3, column 4 of {path}" in capsys.readouterr().err


def test_a_hex_cell_too_large_for_a_float_is_named(tmp_path, capsys):
    path = tmp_path / "dist.csv"
    path.write_text("id,a,b\na,0x0.0p+0,0x1.0000000000000p+1024\nb,0x1.0000000000000p+1024,0x0.0p+0\n")
    message = f"not a number: '0x1.0000000000000p+1024' at line 2, column 3 of {path}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_distance_csv(path)
    assert main(["mds", "--dist", str(path), "--out", str(tmp_path / "mds.csv")]) == 2
    assert message in capsys.readouterr().err


def test_digit_grouping_in_a_decimal_cell_is_not_a_number(tmp_path, capsys):
    """float reads "1_0" as 10.0; the distance reader names it instead."""
    path = tmp_path / "dist.csv"
    path.write_text("id,a,b\na,0,1_0\nb,1_0,0\n")
    message = f"not a number: '1_0' at line 2, column 3 of {path}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_distance_csv(path)
    with pytest.raises(ValueError, match=re.escape(message)):
        oracles.read_distance_csv(path)
    assert main(["mds", "--dist", str(path), "--out", str(tmp_path / "mds.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('id,a\na,"0', "malformed CSV (unexpected end of data) at line 2"),
    ('id,a\na,"0\n', "malformed CSV (unexpected end of data) at line 2"),
    ('"a" ,0', "malformed CSV (',' expected after '\"') at line 1"),
])
def test_a_malformed_quote_is_named_by_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "dist.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{message} of {path}")):
        read_distance_csv(path)
    assert main(["mds", "--dist", str(path), "--out", str(tmp_path / "mds.csv")]) == 2
    assert f"{message} of {path}" in capsys.readouterr().err


@pytest.mark.parametrize("quote", ["", '"'])
def test_a_field_over_the_csv_limit_is_named_by_its_line_quoted_or_not(tmp_path, quote):
    """An id longer than csv's field limit, read when the reader is called,
    raises what the reference reader raises, whether it is quoted or not."""
    path = tmp_path / "dist.csv"
    name = quote + "a" * 60 + quote
    path.write_text(f"id,{name}\n{name},0\n")
    limit = csv.field_size_limit(50)
    try:
        message = f"malformed CSV (field larger than field limit (50)) at line 1 of {path}"
        assert _read_outcome(oracles.read_distance_csv, path) == (ValueError, message)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_distance_csv(path)
    finally:
        csv.field_size_limit(limit)
    assert read_distance_csv(path).ids == ("a" * 60,)


def test_a_line_longer_than_the_csv_limit_of_short_fields_reads(tmp_path):
    rng = np.random.default_rng(3)
    upper = np.triu(rng.uniform(0.5, 40.0, (12, 12)), 1)
    dm = DistanceMatrix(upper + upper.T, "db", 1, tuple(f"s{i}" for i in range(12)))
    path = tmp_path / "dist.csv"
    write_distance_csv(path, dm, bitexact=True)
    limit = csv.field_size_limit(30)  # every line is longer, every field shorter
    try:
        back = read_distance_csv(path)
        assert _read_outcome(oracles.read_distance_csv, path) == (dm.ids, dm.values.view(np.uint64).tolist())
    finally:
        csv.field_size_limit(limit)
    assert back.ids == dm.ids
    assert back.values.view(np.uint64).tolist() == dm.values.view(np.uint64).tolist()


@pytest.mark.parametrize("symbol", ["x,y", "x|y", "x\ny", "x\r", " x", "x ", ">x", ""])
def test_write_corpus_rejects_symbols_that_do_not_read_back(tmp_path, symbol):
    series = CategoricalSeries(np.array([1, 2, 1]), Alphabet((symbol, "z")))
    path = tmp_path / "corpus.csv"
    with pytest.raises(ValueError, match="symbol") as err:
        write_corpus(path, [series])
    assert repr(symbol) in str(err.value)
    assert not path.exists()


@pytest.mark.parametrize("label", ["g|h", "g\nh", "g\u2028h", " g", "g\t"])
def test_write_corpus_rejects_class_labels_that_do_not_read_back(tmp_path, label):
    series = CategoricalSeries(np.array([1, 2, 1]), Alphabet.of_size(2))
    path = tmp_path / "corpus.csv"
    with pytest.raises(ValueError, match="class label") as err:
        write_corpus(path, [series, series], ["ok", label])
    assert repr(label) in str(err.value)
    assert not path.exists()


@pytest.mark.parametrize("count", [1, 3])
def test_write_corpus_rejects_a_label_count_that_is_not_the_series_count(tmp_path, count):
    series = CategoricalSeries(np.array([1, 2, 1]), Alphabet.of_size(2))
    path = tmp_path / "corpus.csv"
    with pytest.raises(ValueError, match=f"{count} class labels for 2 series"):
        write_corpus(path, [series, series], ["g"] * count)
    assert not path.exists()


@st.composite
def corpora(draw):
    # plain letters half the time keep most drawn corpora writable
    text = st.text(st.sampled_from("ab") | st.characters(), max_size=3)
    symbols = draw(st.lists(text.filter(bool), min_size=2, max_size=5, unique=True), label="symbols")
    alphabet = Alphabet(tuple(symbols))
    codes = st.lists(st.integers(1, len(symbols)), min_size=1, max_size=6).map(np.array)
    series = [CategoricalSeries(c, alphabet) for c in draw(st.lists(codes, min_size=1, max_size=4))]
    labels = draw(st.none() | st.lists(text, min_size=len(series), max_size=len(series)))
    return series, labels


@example(([CategoricalSeries(np.array([1]), Alphabet(("", "a")))], None))
@example(([CategoricalSeries(np.array([1, 2]), Alphabet.of_size(2))], [" g"]))
@example(([CategoricalSeries(np.array([1, 2]), Alphabet(("a,", "b")))], ["g,h"]))
@given(corpora())
@settings(max_examples=200, deadline=None)
def test_corpus_round_trips(corpus):
    """Every corpus that write_corpus accepts reads back as written; a
    class label is optional, so labels that are all empty read back as none."""
    series, labels = corpus
    alphabet = series[0].alphabet
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        try:
            write_corpus(path, series, labels)
        except ValueError:
            reject()
        back = parse_corpus(path, alphabet)
    assert [s.alphabet for s in back.series] == [alphabet] * len(series)
    assert [s.codes.tolist() for s in back.series] == [s.codes.tolist() for s in series]
    assert back.ids == [f"series_{i}" for i in range(1, len(series) + 1)]
    assert back.labels == (labels if labels and any(labels) else None)


@st.composite
def writable_corpora(draw):
    """Series over one or two alphabets that write_corpus accepts: of
    one-byte symbols, or of symbols that may take more bytes; of unequal
    lengths; with class labels or without."""
    one_byte = st.sampled_from("!#09AZaz~")
    longer = st.text(st.sampled_from("a\u00e9\u4e2d"), min_size=1, max_size=3)
    alphabets = [Alphabet(tuple(draw(st.lists(symbol, min_size=2, max_size=5, unique=True))))
                 for symbol in draw(st.lists(st.sampled_from([one_byte, longer]), min_size=1, max_size=2))]
    series = []
    for _ in range(draw(st.integers(1, 5))):
        alphabet = draw(st.sampled_from(alphabets))
        series.append(CategoricalSeries(np.array(draw(st.lists(st.integers(1, alphabet.size), min_size=1,
                                                               max_size=9))), alphabet))
    labels = draw(st.none() | st.lists(st.text(st.sampled_from("g1-\u00e9"), max_size=3),
                                       min_size=len(series), max_size=len(series)))
    return series, labels


@example(([CategoricalSeries(np.array([2, 1, 2]), Alphabet(("a", "\u00e9")))], ["x"]))
@given(writable_corpora())
@settings(max_examples=200, deadline=None)
def test_corpus_writer_writes_the_reference_writers_bytes(corpus):
    """One-byte series are written from a byte table and others as joined
    text, with the bytes of a writer that joins every series' symbols; a
    corpus over one alphabet reads back as written."""
    series, labels = corpus
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "corpus.csv", Path(tmp) / "reference.csv"
        write_corpus(path, series, labels)
        oracles.write_corpus(reference, series, labels)
        assert path.read_bytes() == reference.read_bytes()
        alphabets = {s.alphabet for s in series}
        if len(alphabets) == 1:
            back = parse_corpus(path, alphabets.pop())
            assert [s.codes.tolist() for s in back.series] == [s.codes.tolist() for s in series]
            assert back.labels == (labels if labels and any(labels) else None)


def test_a_fasta_id_given_twice_is_named_with_both_header_lines(tmp_path, capsys):
    path = tmp_path / "seqs.fa"
    path.write_text(">x\nac\n>y\nca\n\n>x\naa\n")
    message = "duplicate record id 'x' at lines 1 and 6"
    with pytest.raises(ValueError, match=message):
        parse_corpus(path, Alphabet(("a", "c")))
    out = tmp_path / "dist.csv"
    assert main(["dist", "--input", str(path), "--alphabet", "a,c", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_PRINTABLE = "".join(map(chr, range(0x21, 0x7F)))  # printable ASCII but the space
_ONE_BYTE_SYMBOLS = _PRINTABLE.replace(",", "").replace("|", "")  # 92 of them


@st.composite
def canonical_corpora(draw):
    """Declared one-byte symbols and a canonical symbol-csv text over them."""
    symbols = draw(st.lists(st.sampled_from(_ONE_BYTE_SYMBOLS), min_size=2, max_size=5, unique=True))
    bodies = st.lists(st.sampled_from(symbols), min_size=1, max_size=6).map(",".join)
    labels = st.none() | st.text(st.sampled_from(_PRINTABLE.replace("|", "")), max_size=3)
    lines = draw(st.lists(st.tuples(bodies, labels), min_size=1, max_size=4))
    return symbols, "".join(body + ("" if label is None else f"|{label}") + "\n" for body, label in lines)


def _inserted(piece):
    def mutate(text, symbols, k):
        at = k % (len(text) + 1)
        return text[:at] + piece + text[at:], symbols
    return mutate


def _replaced(old, pick):
    """The k-th (cyclically) of the characters of the text that ``old``
    accepts replaced by the one that ``pick`` gives for the symbols and k."""
    def mutate(text, symbols, k):
        places = [i for i, c in enumerate(text) if old(c, symbols)]
        at = places[k % len(places)] if places else len(text)
        return text[:at] + pick(symbols, k) + text[at + 1:], symbols
    return mutate


def _unknown(symbols, k):
    others = [c for c in _ONE_BYTE_SYMBOLS if c not in symbols]
    return others[k % len(others)]


# each turns a text and its declared symbols, given a drawn k, into ones that
# the canonical reader must read as the text reader does or hand back
_CORPUS_MUTATIONS = {
    **{f"insert {piece!r}": _inserted(piece)
       for piece in [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\n", "|", "\u00e9", "\ufeff"]},
    "CRLF": lambda text, symbols, k: (text.replace("\n", "\r\n"), symbols),
    "leading blank line": lambda text, symbols, k: ("\n" + text, symbols),
    "no final newline": lambda text, symbols, k: (text[:-1], symbols),
    "non-ASCII label": lambda text, symbols, k: (text + f"{symbols[0]}|\u00e9t\u00e9\n", symbols),
    "BOM": lambda text, symbols, k: ("\ufeff" + text, symbols),
    "multi-byte symbol": lambda text, symbols, k: (f"\u00e9,{text}", symbols + ["\u00e9"]),
    "unknown symbol": _replaced(lambda c, symbols: c in symbols, _unknown),
    "separator": _replaced(lambda c, symbols: c == ",", lambda symbols, k: _ONE_BYTE_SYMBOLS[k % 92]),
    "empty body": lambda text, symbols, k: (text + "|x\n", symbols),
    "empty label": lambda text, symbols, k: (text.replace("\n", "|\n", 1), symbols),
    "| in a label": lambda text, symbols, k: (text + f"{symbols[0]}|x|y\n", symbols),
    "leading >": lambda text, symbols, k: (">" + text, symbols),
    "leading > declared": lambda text, symbols, k: (">," + text, symbols + [">"]),
    ", declared": lambda text, symbols, k: (f"{symbols[0]},,,{symbols[0]}\n{text}", symbols + [","]),
    "| declared": lambda text, symbols, k: (f"{symbols[0]},|,{symbols[0]}\n{text}", symbols + ["|"]),
    "two-character symbol": lambda text, symbols, k: (f"{symbols[0]}{symbols[1]},{text}",
                                                      symbols + [symbols[0] + symbols[1]]),
}


def _corpus_outcome(path, alphabet, fmt):
    try:
        corpus = parse_corpus(path, alphabet, fmt)
    except ValueError as err:  # a UnicodeDecodeError too
        return type(err).__name__, str(err)
    return [s.codes.tolist() for s in corpus.series], corpus.ids, corpus.labels


@example((["a", "b"], "a,b\n"), [("unknown symbol", 1)], "csv")
@example((["a", "b"], "a,b\n"), [("separator", 0)], "csv")
@example((["a", "b"], "a,b\n"), [("| declared", 0)], "csv")
@example((["a", "b"], "a,b\n"), [(", declared", 0)], "csv")
@example((["a", "b"], "a,b\n"), [("leading > declared", 0)], "auto")
@example((["a", "b"], "a,b|x\n"), [("insert '\\x1c'", 3)], "auto")
@given(canonical_corpora(), st.lists(st.tuples(st.sampled_from(sorted(_CORPUS_MUTATIONS)), st.integers(0, 99)),
                                     min_size=1, max_size=2), st.sampled_from(["auto", "csv"]))
@settings(max_examples=400, deadline=None)
def test_the_canonical_reader_reads_what_the_text_reader_reads(corpus, mutations, fmt):
    """A canonical file is read in numpy.  Changed in ways the canonical
    reader must read alike or hand back, it reads to the same codes, ids and
    labels, or the same error, as with the text reader alone."""
    symbols, text = corpus
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        path.write_bytes(text.encode("utf-8"))
        alphabet = Alphabet(tuple(symbols))
        if not (fmt == "auto" and text.startswith(">")):
            assert _read_canonical(path, alphabet, fmt) is not None
        for name, k in mutations:
            text, symbols = _CORPUS_MUTATIONS[name](text, symbols, k)
        path.write_bytes(text.encode("utf-8"))
        alphabet = Alphabet(tuple(dict.fromkeys(symbols)))
        outcome = _corpus_outcome(path, alphabet, fmt)
        with mock.patch("catseries.io._read_canonical", return_value=None):
            assert outcome == _corpus_outcome(path, alphabet, fmt)


def test_corpora_shaped_like_the_benchmark_inputs_are_read_in_numpy(tmp_path):
    """The simulated corpus (one-byte symbols, a digit class label) and a
    long unlabelled series never reach the text reader."""
    rng = np.random.default_rng(5)
    corpus = [CategoricalSeries(rng.integers(1, 4, 1000), Alphabet(("a", "b", "c"))) for _ in range(30)]
    long = CategoricalSeries(rng.integers(1, 5, 50_000), Alphabet(("A", "C", "G", "T")))
    write_corpus(tmp_path / "corpus.csv", corpus, [str(k % 3 + 1) for k in range(30)])
    write_corpus(tmp_path / "series.csv", [long])
    with mock.patch("catseries.io._parse_symbol_csv", side_effect=AssertionError("read as text")):
        back = parse_corpus(tmp_path / "corpus.csv", corpus[0].alphabet)
        [series] = parse_corpus(tmp_path / "series.csv", long.alphabet).series
    assert [s.codes.tolist() for s in back.series] == [s.codes.tolist() for s in corpus]
    assert back.labels == [str(k % 3 + 1) for k in range(30)]
    assert back.ids == [f"series_{k}" for k in range(1, 31)]
    assert series.codes.tolist() == long.codes.tolist()


float_arrays = hnp.arrays(np.float64, st.integers(0, 30), elements=st.floats(allow_subnormal=True))
int_arrays = hnp.arrays(np.int64, st.integers(0, 30))


@given(st.one_of(float_arrays, int_arrays), st.booleans())
@settings(max_examples=300, deadline=None)
def test_format_numbers_matches_format_number(values, bitexact):
    assert format_numbers(values, bitexact) == [format_number(x, bitexact) for x in values]


_TWO_DECIMAL_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),  # nan, inf, any exponent
    st.floats(-2.0**41, 2.0**41, allow_subnormal=True),  # both sides of 2**40
    st.floats(-1e-3, 1e-3, allow_subnormal=True),
    st.decimals(-1000, 1000, places=3, allow_nan=False, allow_infinity=False).map(float),  # ties like 2.675
)


@example([0.125, 2.675, 0.005, -0.005, 1.005, 999.995, 0.0, -0.0, -0.001, 5e-324, 2.0**39])
@example([k / 1000 for k in range(-10000, 10000)])  # 20,000 points: negative, zero and two-decimal ties
@example([])
@example([2.0**40, -2.0**40 + 2.0**-13, math.inf, math.nan, 1e300])
@given(st.lists(_TWO_DECIMAL_VALUES, max_size=12))
@settings(max_examples=300, deadline=None)
def test_two_decimal_text_is_python_format(values):
    """The digit kernel writes what "{:.2f}".format writes: each value alone
    (the kernel for any value below 2**40), a whole column (Python for every
    value when one is not), and pairs in a template between separators."""
    for value in values:
        assert _fixed_text("{}", [np.array([value])], "") == f"{value:.2f}"
    column = np.array(values, dtype=float)
    assert _fixed_text("{}", [column], "\n") == "\n".join(map("{:.2f}".format, values))
    mark = '<c x="{}" y="{}"/>'
    expected = " | ".join(f'<c x="{x:.2f}" y="{y:.2f}"/>' for x, y in zip(values, values[::-1]))
    assert _fixed_text(mark, [column, column[::-1]], " | ") == expected


@example(3, [k / 1000 for k in range(-1000, 1000)])  # many blocks, of 1 to 3 rows
@example(1, [0.125, 2.675, 0.005, -0.005, 999.995])
@example(5, [0.5, math.nan, 1.0, math.inf, -2.0, 2.0**40, 3.0])  # Python formats every value
@example(7, [])
@given(st.integers(1, 9), st.lists(_TWO_DECIMAL_VALUES, max_size=40))
@settings(max_examples=200, deadline=None)
def test_two_decimal_text_written_a_block_at_a_time_is_the_one_shot_text(block_cells, values):
    """However few cells a block holds, one to three columns give the text of a single block
    (``_BLOCK_CELLS`` above every cell) and of the Python oracle."""
    columns = [np.array(values, dtype=float), np.array(values[::-1], dtype=float), np.array(values) * -3.0]
    for template, sep, width in ("{}", "\n", 1), ("{},{}", " ", 2), ('<c x="{}" y="{}" r="{}"/>', "\n", 3):
        with mock.patch("catseries.io._BLOCK_CELLS", block_cells):
            blocked = _fixed_text(template, columns[:width], sep)
        with mock.patch("catseries.io._BLOCK_CELLS", 3 * len(values) + 1):
            assert blocked == _fixed_text(template, columns[:width], sep)
        assert blocked == oracles.fixed_text(template, columns[:width], sep)


@example([-2**63, 2**63 - 1, 0, -1, 9999, 10000, -10000, 10**18])
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=20))
@settings(max_examples=300, deadline=None)
def test_integer_text_is_str(values):
    assert _kept(_integer_text([np.array(values, dtype=np.int64)], b"\n")) == "".join(f"{v}\n" for v in values)


def _kept(kernel_output) -> str:
    """The text of a kernel's matrix and keep mask."""
    matrix, keep = kernel_output
    return matrix[keep].tobytes().decode()


# one call whose columns need 1, 19 and 20 digits; more rows than a digit
# template used to fill at a time; no row
@example([np.array([0, 1, 1, 0], np.uint8), np.array([-2**63, 2**63 - 1, 0, -1]),
          np.array([2**64 - 1, 0, 1, 10**19], np.uint64)])
@example([np.arange(-4100, 4100) * 997, np.arange(8200, dtype=np.uint32), np.full(8200, -1, np.int8)])
@example([np.empty(0, np.int8), np.empty(0, np.uint64)])
@given(st.lists(hnp.arrays(st.sampled_from([np.int8, np.uint8, np.int32, np.uint32, np.int64, np.uint64]), 7),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_integer_text_writes_rows_of_columns_of_any_integer_dtype(columns):
    expected = "".join(",".join(map(str, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))
    assert _kept(_integer_text(columns, b"\n")) == expected
    assert _kept(_integer_text(columns, b",")) == expected.replace("\n", ",")


def test_empty_columns_give_empty_text():
    empty = np.empty(0)
    assert _fixed_text("{},{}", [empty, empty], " ") == ""
    assert _fixed_text('<circle cx="{}" cy="{}"/>', [empty, empty], "\n") == ""
    assert _kept(_integer_text([np.empty(0, np.int64), np.empty(0, np.uint8)], b"\n")) == ""
    for dtype in (np.int64, np.int32, np.uint8, float):
        assert format_numbers(np.empty(0, dtype)) == format_numbers(np.empty(0, dtype), bitexact=True) == []


@pytest.mark.parametrize("cell", ["0X1.8000000000000p+1", "0X1.8p+1", "-0X1p0", "+0x1p0", "+0X1P-2", " -0x1.8p1 "])
def test_hex_cells_read_with_a_sign_and_either_case_of_x(cell):
    assert _parse_row([cell], 2, "f.csv") == [oracles.parse_cell(cell)] == [float.fromhex(cell)]


@pytest.mark.parametrize("header, columns, message", [
    (["a", "b"], [np.arange(5), np.arange(3.0)], r"columns \['a', 'b'\] have different lengths \[5, 3\]"),
    (["a", "b", "c"], [np.arange(2), np.arange(2.0)], r"header has 3 names for 2 columns"),
    (["a"], [np.arange(2), ["x", "y"]], r"header has 1 names for 2 columns"),
    (["id", "n"], [["x", "y", "z"], np.arange(2)], r"have different lengths \[3, 2\]"),
    ([f"c{i}" for i in range(600)], [np.zeros(3)] * 599 + [np.zeros(2)],
     re.escape("columns ['c0', 'c1', 'c2', 'c3', ... 596 more] have different lengths [3, 3, 3, 3, ... 596 more]")),
])
def test_table_csv_rejects_a_ragged_table_before_opening_the_file(tmp_path, header, columns, message):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=message) as raised:
        write_table_csv(path, header, columns)
    assert len(str(raised.value)) < 200
    assert not path.exists()


def test_coordinates_csv_rejects_more_ids_than_coordinate_rows(tmp_path):
    path = tmp_path / "coords.csv"
    with pytest.raises(ValueError, match=r"columns \['id', 'x', 'y'\] have different lengths \[3, 2, 2\]"):
        write_coordinates_csv(path, ["a", "b", "c"], np.zeros((2, 2)))
    assert not path.exists()


_TABLE_COLUMNS = {
    "text": st.text(max_size=4),
    "float": st.floats(allow_subnormal=True),
    "int64": st.integers(-2**63, 2**63 - 1),
    "uint64": st.integers(0, 2**64 - 1),
    "uint8": st.integers(0, 255),
}


@st.composite
def _tables(draw):
    """Columns of 0 to 7 rows in any order of kinds: numbers as 1-D columns
    or as 2-D blocks of 0 to 3 columns, text as lists or numpy string arrays."""
    rows, columns = draw(st.integers(0, 7)), []
    for kind in draw(st.lists(st.sampled_from(sorted(_TABLE_COLUMNS)), max_size=6)):
        width = draw(st.none() | st.integers(0, 3), label="width")  # None: a 1-D column or a list
        if kind == "text":
            texts = draw(st.lists(_TABLE_COLUMNS[kind], min_size=rows, max_size=rows))
            columns.append(texts if width is None else np.array(texts, dtype=str))
            continue
        shape = (rows, 1 if width is None else width)
        values = draw(st.lists(_TABLE_COLUMNS[kind], min_size=rows * shape[1], max_size=rows * shape[1]))
        block = np.array(values, dtype=float if kind == "float" else kind).reshape(shape)
        columns.append(block[:, 0] if width is None else block)
    return columns


_SPECIAL_FLOATS = np.array([[0.1, -0.0, 1e300], [np.inf, np.nan, 5e-324]])


@example([["a\x00b", "\x00"], np.array([7, -8])], False, 1)  # a NUL in a text cell next to an integer run
@example([np.array([1.5, -2.0]), ["line\nfeed", 'a "quote"'], np.array([3, 4])], True, 20)  # a quoted "\n"
@example([np.array(["é→中", "b"]), np.array([[0.5, 1.0], [2.0, 3.0]])], False, 3)  # multi-byte UTF-8 ids
@example([["", "a", ""]], False, 2)  # the empty cell alone in its row
@example([np.arange(2), _SPECIAL_FLOATS, np.arange(2, dtype=np.uint8)], False, 4)  # decimal floats between integers
@example([np.arange(2), _SPECIAL_FLOATS, np.arange(2, dtype=np.uint8)], True, 4)  # hex floats between integers
@given(_tables(), st.booleans(), st.integers(1, 20))
@settings(max_examples=300, deadline=None)
def test_table_csv_writes_runs_of_columns_of_one_kind_as_csv_writer_would(columns, bitexact, block_cells):
    """Any order of text, float and integer columns of several dtypes:
    adjacent columns of one kind become text together, and the file is the
    one csv.writer writes from the cells' format_number text, whatever the
    number of cells made into text at a time."""
    cells = []  # the values of every column of the file
    for column in columns:
        if isinstance(column, list) or column.dtype.kind == "U":
            cells.append(column if isinstance(column, list) else column.tolist())  # numpy drops trailing NULs
        else:
            block = column if column.ndim == 2 else column[:, None]
            cells += [[format_number(x, bitexact) for x in values] for values in block.T.tolist()]
    header = [f"c{i}" for i in range(len(cells))]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\r\n")  # quotes a "\r" or "\n" as the table writer does
    writer.writerow(header)
    writer.writerows(zip(*cells))
    with tempfile.TemporaryDirectory() as tmp, mock.patch("catseries.io._BLOCK_CELLS", block_cells):
        path = Path(tmp) / "table.csv"
        write_table_csv(path, header, columns, bitexact)
        assert path.read_bytes() == expected.getvalue().replace("\r\n", "\n").encode("utf-8")


@pytest.mark.parametrize("write, message", [
    (lambda path: write_features_csv(path, ["s1"], ["f1", "f2"], np.zeros((2, 2))),
     "table columns ['id', 'f1', 'f2'] have different lengths [1, 2]"),
    (lambda path: write_features_csv(path, ["s1", "s2"], ["f1", "f2"], np.zeros((2, 2)), ["x"]),
     "table columns ['id', 'f1', 'f2', 'label'] have different lengths [2, 2, 1]"),
])
def test_features_and_distance_csv_reject_ragged_input_before_opening_the_file(tmp_path, write, message):
    """The message names the counts and at most the first few header names.
    A distance matrix with one id too few or too many cannot be built (see
    ``test_mining.py``), so it never reaches the writer."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        write(path)
    assert len(str(raised.value)) < 200
    assert not path.exists()


def test_features_csv_writes_numpy_string_ids_and_labels_as_quoted_text(tmp_path):
    path = tmp_path / "features.csv"
    write_features_csv(path, np.array(["a,b", "c"]), ["f"], np.array([[1.5], [2.0]]), np.array(['x"y', ""]))
    assert path.read_text() == 'id,f,label\n"a,b",1.5,"x""y"\nc,2,\n'


@pytest.mark.parametrize("labels", [None, ["x", ""]])
@pytest.mark.parametrize("bitexact", [False, True])
def test_features_csv_without_feature_columns_gives_every_row_the_header_width(tmp_path, labels, bitexact):
    path = tmp_path / "features.csv"
    write_features_csv(path, ["s1", ""], [], np.empty((2, 0)), labels, bitexact)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == ([["id"], ["s1"], [""]] if labels is None else [["id", "label"], ["s1", "x"], ["", ""]])


def test_table_csv_writes_an_empty_cell_alone_in_its_row_as_csv_writer_does(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(path, ["name"], [["", "x", ""]])
    assert path.read_text() == 'name\n""\nx\n""\n'
    with open(path, newline="") as handle:
        assert list(csv.reader(handle)) == [["name"], [""], ["x"], [""]]


@given(st.lists(st.tuples(st.text(max_size=4), st.floats(), st.integers(-2**63, 2**63 - 1)), max_size=8),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_table_csv_matches_csv_writer(rows, bitexact):
    def csv_line(cells):
        # quoted as csv.writer quotes a cell holding its terminator's "\r" or "\n"
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(cells)
        return line.getvalue()[:-2] + "\n"

    expected = io.StringIO()
    expected.write(csv_line(["id", "x", "n"]))
    expected.writelines(csv_line([text, format_number(x, bitexact), str(n)]) for text, x, n in rows)
    columns = [[text for text, _, _ in rows], np.array([x for _, x, _ in rows], dtype=float),
               np.array([n for _, _, n in rows], dtype=np.int64)]
    with tempfile.TemporaryDirectory() as tmp, mock.patch("catseries.io._BLOCK_CELLS", 6):  # 2 rows a block
        path = Path(tmp) / "table.csv"
        write_table_csv(path, ["id", "x", "n"], columns, bitexact)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(1, 6))
    elements = st.floats(0.0, 1e300, allow_subnormal=True) | st.sampled_from([1.0, 2.5e-308, 5e-324])
    upper = draw(hnp.arrays(np.float64, (n, n), elements=elements))
    values = np.triu(upper, 1)
    values = values + values.T
    # plain ids half the time, so that files without a quote are common
    text = st.text(st.sampled_from('ab1,"\' _\r\n'), max_size=5) | st.sampled_from(["s1", "s2"])
    ids = draw(st.lists(text, min_size=n, max_size=n, unique=True))
    return DistanceMatrix(values, "db", 1, tuple(ids))


@example(DistanceMatrix(np.array([[0.0, 1.5], [1.5, 0.0]]), "db", 1, ("a\rb", "\r\n")), "\n", 8192)
@given(distance_matrices(), st.sampled_from(["\n", "\r\n"]), st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_distance_csv_round_trips_bitexact(dm, end, block_cells):
    """A bitexact file reads back with the bits written, with either line
    end, through numpy blocks, blocks read row by row (a subnormal) and rows
    split by csv.reader (quoted ids)."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch("catseries.io._BLOCK_CELLS", block_cells):
        path = Path(tmp) / "dist.csv"
        write_distance_csv(path, dm, bitexact=True)
        if end != "\n":
            if any(set(i) & set("\r\n") for i in dm.ids):
                reject()  # a quoted line break inside an id is part of the id
            path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        back = read_distance_csv(path)
    assert back.ids == dm.ids
    assert back.values.view(np.uint64).tolist() == dm.values.view(np.uint64).tolist()


def _cell_texts():
    numbers = st.floats(allow_subnormal=True)
    hex_cells = numbers.map(float.hex)
    other = st.one_of(
        numbers.map(repr), numbers.map("{:.10g}".format),
        st.sampled_from(["+0x1p0", "0X1p0", "-0x1.8p1", "1_0", "0x", "-", "nan", "inf", "1e5", "", "abc"]),
        st.text(st.sampled_from("0x1p-+.e_ a"), max_size=6),
    )
    pad = st.sampled_from(["", "", "", " ", "\t", "\u3000"])
    # mostly hex cells, so that rows of hex cells with one odd cell are common
    return st.tuples(pad, st.one_of(hex_cells, hex_cells, other), pad).map("".join)


def _csv_reader_rows(text):
    """(line number, cells) of every non-empty row of ``text`` as a strict
    csv.reader reads it, or the message the distance reader gives for the
    reader's error."""
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        return [(reader.line_num, row) for row in reader if row]
    except csv.Error as err:
        return f"malformed CSV ({err}) at line {reader.line_num} of f.csv"


def _split_rows(text):
    """The rows :func:`_distance_rows` yields from ``text``: the line number
    and the list of cells, id first; or the message of its error."""
    try:
        return list(_distance_rows(io.StringIO(text, newline=""), "f.csv"))
    except ValueError as err:
        return str(err)


@example(["0x1p0", "1.5"], "a")
@example(["0x1p0", " 0x1p0", "0x1p0\u3000"], "a,b")
@example(["1.5", "0x1p0"], 'say "x"')
@example(["0x1p0", "+0x1p0"], "two\r\nlines\r")
@example(["2", "abc", "-0x1p0"], "\n")
@given(st.lists(_cell_texts(), min_size=1, max_size=8), st.text(st.sampled_from('ab,"\r\n \u2028'), max_size=6))
@settings(max_examples=400, deadline=None)
def test_row_parser_agrees_with_the_cell_parser(cells, ident):
    """A distance row, an id then number cells, is split as csv.reader
    splits it, at its first comma or, for an id csv.writer quotes, by
    csv.reader; its cells parse as the reference cell parser parses them
    one by one, and a bad cell is named by the row's line and its column."""
    text = f"{_csv_cell(ident)},{','.join(cells)}\n"
    rows = _split_rows(text)
    assert rows == _csv_reader_rows(text)
    [(line, row)] = rows
    assert row == [ident, *cells]
    expected, bad = [], None
    for column, cell in enumerate(cells, start=2):
        try:
            expected.append(oracles.parse_cell(cell))
        except ValueError:
            bad = bad or (cell, column)
    if bad is None:
        assert [x.hex() for x in _parse_row(row[1:], line, "f.csv")] == [x.hex() for x in expected]
    else:
        with pytest.raises(ValueError, match="not a number") as err:
            _parse_row(row[1:], line, "f.csv")
        assert f"{bad[0].strip()!r} at line {line}, column {bad[1]}" in str(err.value)


@example('a,"b\r\nc",d\n\n"e""",\r"\n')
@example('"unterminated\n,x')
@example('x\r\ny\rz\n\r\n,\n')
@given(st.text(st.sampled_from('a0,"\r\n \u2028\x00'), max_size=40))
@settings(max_examples=400, deadline=None)
def test_csv_rows_match_csv_reader_on_any_text(text):
    assert _split_rows(text) == _csv_reader_rows(text)


def test_json_writes_numpy_integers_and_bools_as_format_number_does(tmp_path):
    payload = {"n": np.int64(3), "u": np.uint8(7), "flag": np.bool_(True), "rows": [np.int32(-2), np.bool_(False)]}
    expected = {"n": 3, "u": 7, "flag": True, "rows": [-2, False]}
    for bitexact in (False, True):
        out = _jsonify(payload, bitexact)
        assert out == expected
        assert [type(out[k]) for k in ("n", "u", "flag")] == [int, int, bool]
        assert out["n"] == int(format_number(np.int64(3), bitexact))
        path = tmp_path / f"report-{bitexact}.json"
        write_json_report(path, payload, bitexact)
        assert json.loads(path.read_text()) == expected
    assert _jsonify({"x": np.float64(1.5)}, True) == {"x": "0x1.8000000000000p+0"}


# bit patterns float.hex writes in every distinct way: signed zeros, the
# smallest and largest subnormals and normals, signed infinities, nans with
# either sign, and two ordinary numbers
_SPECIAL_BITS = [0, 1 << 63, 1, (1 << 52) - 1, 1 << 52, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000,
                 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001,
                 0x3FF0000000000000, 0xBFF8000000000000]
_block_shapes = st.one_of(  # a run of columns holds at least one: the table writer drops a 2-D block of none
    st.just((1, 1)), st.tuples(st.integers(1, 9), st.just(1)), st.tuples(st.just(1), st.integers(1, 9)),
    st.tuples(st.just(0), st.integers(1, 4)), st.tuples(st.integers(1, 6), st.integers(1, 6)),
)


@example(np.array([_SPECIAL_BITS], dtype=np.uint64))
@example(np.array(_SPECIAL_BITS, dtype=np.uint64)[:, None])
@given(hnp.arrays(np.uint64, _block_shapes, elements=st.integers(0, 2**64 - 1) | st.sampled_from(_SPECIAL_BITS)))
@settings(max_examples=300, deadline=None)
def test_hex_kernel_writes_what_float_hex_writes(bits):
    block = bits.view(np.float64)
    expected = "".join(",".join(map(float.hex, row)) + "\n" for row in block.tolist())
    assert _kept(_hex_text(block, b"\n")) == expected
    assert _kept(_hex_text(block, b",")) == expected.replace("\n", ",")


def _canonical(cell):
    """Whether float.hex writes this text for a normal number or zero."""
    try:
        value = float.fromhex(cell)
    except (ValueError, OverflowError):
        return False
    return value.hex() == cell and (value == 0.0 or abs(value) >= 2.2250738585072014e-308) and math.isfinite(value)


def _hex_cells():
    numbers = st.floats(allow_subnormal=True).map(float.hex)
    # one character of a float.hex text replaced, inserted or dropped
    edited = st.tuples(numbers, st.integers(0, 24), st.sampled_from(["", "0", "9", "a", "f", "g", "A", "X", "P",
                                                                    "p", "+", "-", ".", " ", "`", "/", ":", "\u00e9"]),
                       st.integers(0, 1))
    return numbers | edited.map(lambda e: e[0][:e[1]] + e[2] + e[0][e[1] + e[3]:])


@example(["0x1.0000000000000p+0", "0x0.0p+0", "-0x0.0p+0", "-0x1.fffffffffffffp+1023", "0x1.0000000000000p-1022"])
@example(["0x1.0000000000000p+01"])
@example(["0x1.0000000000000p-1023"])
@example(["0x1.0000000000000p+1024"])
@example(["0x1.0000000000000p-0"])
@example(["0x1.8p+1"])
@given(st.lists(_hex_cells(), min_size=1, max_size=6))
@settings(max_examples=500, deadline=None)
def test_hex_parser_reads_exactly_the_canonical_cells(cells):
    """Cells joined by "," parse in numpy only when every one is float.hex
    text of a normal number or zero, and then to float.fromhex's bits."""
    data = np.frombuffer((",".join(cells) + ",").encode() + bytes(32), np.uint8)
    ends = np.flatnonzero(data == ord(","))
    parsed = _hex_values(data, np.concatenate(([0], ends[:-1] + 1)), ends)
    if all(map(_canonical, cells)):
        assert parsed is not None
        assert parsed.view(np.uint64).tolist() == np.array(list(map(float.fromhex, cells))).view(np.uint64).tolist()
    else:
        assert parsed is None


_MUTATIONS = {
    "upper X": lambda cell: cell.replace("x", "X"),
    "upper P": lambda cell: cell.replace("p", "P"),
    "spaces": lambda cell: f" {cell} ",
    "short mantissa": lambda cell: "0x1.8p+1",
    "leading zero": lambda cell: re.sub(r"p([+-])", r"p\g<1>0", cell),
    "p+01024": lambda cell: "0x1.0000000000000p+01024",
    "subnormal": lambda cell: "0x0.0000000000001p-1022",
    "decimal": lambda cell: repr(float.fromhex(cell)),
    "not a number": lambda cell: "0x1.000000000000gp+0",
    "+0x": lambda cell: f"+{cell}",
    "digit grouping": lambda cell: "1_0",
}
# edits that read any cell's text, hex or decimal
_CELL_EDITS = {
    "quoted": lambda cell: f'"{cell}"',
    "quoted with a comma": lambda cell: f'"{cell},{cell}"',
}


@given(distance_matrices(), st.data(), st.sampled_from(sorted(_MUTATIONS)), st.integers(1, 20))
@settings(max_examples=150, deadline=None)
def test_a_mutated_cell_reads_as_the_cell_by_cell_path_reads_it(dm, data, mutation, block_cells):
    """One cell of a bitexact file and its mirror changed alike: the rows
    split once, parsed in numpy blocks, give the values or the error the
    reference reader gives, reading cell by cell, and the cell's value is
    the reference cell parser's (float.fromhex for hex text)."""
    dm = DistanceMatrix(dm.values, "db", 1, tuple(f"s{i}" for i in range(dm.size)))  # no quote in the file
    row = data.draw(st.integers(0, dm.size - 1), label="row")
    column = data.draw(st.integers(0, dm.size - 1), label="column")
    with tempfile.TemporaryDirectory() as tmp, mock.patch("catseries.io._BLOCK_CELLS", block_cells):
        path = Path(tmp) / "dist.csv"
        write_distance_csv(path, dm, bitexact=True)
        lines = path.read_bytes().decode("utf-8").splitlines(keepends=True)
        for i, j in {(row, column), (column, row)}:
            cells = lines[i + 1].rstrip("\n").split(",")
            cell = cells[j + 1] = _MUTATIONS[mutation](cells[j + 1])
            lines[i + 1] = ",".join(cells) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        outcome = _read_outcome(lambda p: (lambda back: (back.ids, back.values))(read_distance_csv(p)), path)
        assert outcome == _read_outcome(oracles.read_distance_csv, path)
    try:
        value = oracles.parse_cell(cell)
    except (ValueError, OverflowError):  # a hex cell too large for a float overflows
        first, last = sorted((row, column))  # the first of the two cells in the file
        assert outcome == (ValueError, f"not a number: {cell.strip()!r} at line {first + 2}, column {last + 2} of {path}")
        return
    if not math.isfinite(value):
        assert outcome == (ValueError, f"distances must be finite and non-negative: {path}")
    elif row == column and value != 0.0:
        assert outcome == (ValueError, f"distance matrix must be symmetric with a zero diagonal: {path}")
    else:
        assert outcome[1][row][column] == outcome[1][column][row] == np.float64(value).view(np.uint64)


def _distance_text(ids, grid, end="\n"):
    """A distance file of ``ids`` and rows of cell texts, ids quoted as
    csv.writer quotes them among other cells, every row ended by ``end``."""
    lines = [",".join(["id", *map(_csv_cell, ids)])]
    lines += [",".join([_csv_cell(ident), *row]) for ident, row in zip(ids, grid)]
    return "".join(line + end for line in lines)


def _first_row_file(ident, cells):
    """A distance file whose first row holds the id ``ident``, then "0" and
    ``cells``, whose first column repeats ``cells``, and whose other cells
    are "0" on the diagonal and "0x1p0" off it."""
    ids = [ident, *(f"s{j}" for j in range(1, len(cells) + 1))]
    grid = [["0" if i == j else "0x1p0" for j in range(len(ids))] for i in range(len(ids))]
    for j, cell in enumerate(cells, start=1):
        grid[0][j] = grid[j][0] = cell
    return _distance_text(ids, grid)


@st.composite
def distance_files(draw):
    """The text of a distance file: one written as the writer writes it,
    bitexact or decimal, with ids csv.writer may quote, "\n" or "\r\n"
    line ends and at most one cell edited; or any short text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["", "id,", "id,a\n"])) + draw(st.text(st.sampled_from('a0,"\r\n \u2028\x00'),
                                                                         max_size=40))
    dm = draw(distance_matrices())
    bitexact = draw(st.booleans())
    grid = [[format_number(x, bitexact) for x in row] for row in dm.values.tolist()]
    edits = {"replaced": lambda cell: draw(_cell_texts()), **_CELL_EDITS, **(_MUTATIONS if bitexact else {})}
    edit = draw(st.sampled_from(["none", *sorted(edits)]))
    if edit != "none":
        row, column = draw(st.integers(0, dm.size - 1)), draw(st.integers(0, dm.size - 1))
        grid[row][column] = edits[edit](grid[row][column])
    return _distance_text(dm.ids, grid, draw(st.sampled_from(["\n", "\r\n"])))


# a --bitexact file as the writer writes it
_HEX_FILE = "id,a,bc\na,0x0.0p+0,0x1.8000000000000p+1\nbc,0x1.8000000000000p+1,0x0.0p+0\n"


def _read_outcome(read, path):
    """The ids and value bits ``read`` gives, or the type and text of its error."""
    try:
        ids, values = read(path)
    except ValueError as err:
        return type(err), str(err)
    return ids, np.array(values, dtype=float).reshape(len(ids), len(ids)).view(np.uint64).tolist()


def _read_ids_and_values(path):
    """The ids and values of :func:`read_distance_csv`'s matrix, which names
    no metric or lag, as the file records neither."""
    dm = read_distance_csv(path)
    assert dm.metric is None and dm.max_lag is None
    return dm.ids, dm.values


def _canonical_distance_file(data):
    """Whether a distance file is canonical as the io module defines it:
    its first line is "id," and ids in UTF-8 without a quote or "\r", none
    longer in bytes than csv's field limit (which must reach the 24 bytes
    of the longest cell), every line ends in "\n", and each row is its
    header id, "," and one canonical cell per id, split by ","."""
    *lines, last = data.split(b"\n")
    if last or not lines or not lines[0].startswith(b"id,") or b'"' in lines[0] or b"\r" in lines[0]:
        return False
    raw = lines[0][3:].split(b",")
    try:
        lines[0].decode("utf-8")
    except UnicodeDecodeError:
        return False
    if max(24, *map(len, raw)) > csv.field_size_limit() or len(lines) != len(raw) + 1:
        return False
    for ident, line in zip(raw, lines[1:]):
        cells = line[len(ident) + 1:].split(b",")
        if not line.startswith(ident + b",") or len(cells) != len(raw):
            return False
        if not all(_canonical(cell.decode("latin-1")) for cell in cells):
            return False
    return True


@st.composite
def canonical_distance_files(draw):
    """The bytes of a canonical distance file of 1 to 6 ids, as --bitexact
    writes it, and half the time one byte inserted, replaced or dropped, or the
    file cut short, at any place: a flawed row may come after rows that parse."""
    n = draw(st.integers(1, 6))
    upper = np.triu(draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 1e300, allow_subnormal=False))), 1)
    ids = draw(st.lists(st.text(st.sampled_from("ab1_ \u00e9"), max_size=4), min_size=n, max_size=n, unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dist.csv"
        write_distance_csv(path, DistanceMatrix(upper + upper.T, "db", 1, tuple(ids)), bitexact=True)
        data = path.read_bytes()
    at = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(["none", "none", "none", "none", "inserted", "replaced", "dropped", "cut"]))
    byte = draw(st.sampled_from([b",", b"\n", b"\r", b'"', b"0", b"-", b"a", b"x", b"\xff"]))
    return {"none": data, "inserted": data[:at] + byte + data[at:], "replaced": data[:at] + byte + data[at + 1:],
            "dropped": data[:at] + data[at + 1:], "cut": data[:at]}[edit]


@example(_first_row_file("a", ["0x1p0", "1.5"]), 8192)
@example(_first_row_file("a,b", ["0x1p0", " 0x1p0", "0x1p0\u3000"]), 8192)
@example(_first_row_file('say "x"', ["1.5", "0x1p0"]), 1)
@example(_first_row_file("two\r\nlines\r", ["0x1p0", "+0x1p0"]), 2)
@example(_first_row_file("\n", ["2", "abc", "-0x1p0"]), 8192)
@example('a,"b\r\nc",d\n\n"e""",\r"\n', 8192)
@example('"unterminated\n,x', 8192)
@example('x\r\ny\rz\n\r\n,\n', 8192)
@example('id,a,b\r\na,"0",0x1p0\r\nb,1,0\r\n', 1)
# a canonical hex file with one flaw, which the bytes reader leaves to the text reader
@example(_HEX_FILE[:-1], 8192)  # no final "\n"
@example(_HEX_FILE + "\n", 8192)  # a trailing blank line
@example(_HEX_FILE.replace("\n", "\r", 1), 8192)  # a lone "\r", which ends a line
@example("\ufeff" + _HEX_FILE, 8192)  # a UTF-8 byte order mark
@example(_HEX_FILE.encode().replace(b",b", b",b\xff", 1), 8192)  # a byte that is not UTF-8 in the header
@example(_HEX_FILE.replace("\nbc,", "\nb,"), 8192)  # a row id that is a prefix of its header id
@example(_HEX_FILE.replace("p+0,0x1", "p+0,,0x1", 1), 1)  # one extra comma
@example(_HEX_FILE.replace("a", "a" * 2**17), 8192)  # an id at csv's field limit, on lines over it
@example(_HEX_FILE.replace("a", "a" * (2**17 + 1)), 9)  # an id over csv's field limit
@example(_HEX_FILE.replace("\n", "\r\n"), 8192)  # "\r\n" line ends
@example(_HEX_FILE.replace("bc", '"b,c"'), 8192)  # a quoted id
@example(_HEX_FILE, 1)
@example(_HEX_FILE[:-1], 2)  # no final "\n": left after the first row has parsed
@example(_HEX_FILE + "x", 1)  # a byte after the last row
@example(_HEX_FILE.replace(",0x1.8000000000000p+1\nbc", ",0x1.8000000000000p+1\nbc,0x0.0p+0\nbc"), 2)  # a row too many
@example(_HEX_FILE.replace("\nbc,0x1.8000000000000p+1,0x0.0p+0\n", "\n"), 3)  # a row too few
@example(_HEX_FILE.replace("bc,0x1.8", "bc,0x1.0"), 1)  # canonical but not symmetric
@example(_HEX_FILE.replace("\nbc,", "\nbd,"), 1)  # a row id of its header id's length that differs
@example(_HEX_FILE.replace("0x1.8000000000000p+1", "0x0.0000000000001p-1022"), 2)  # subnormal cells
# a first error the text reader meets before a later one that the reference reader names first
@example("id,a,b\na,0,x\nb,1\n", 8192)  # a bad cell, then a short row
@example("id,a,b\na,0,x\nc,1,0\n", 8192)  # a bad cell, then a wrong row id
@example('id,a,b\na,0,x\n"b,1,0\n', 8192)  # a bad cell, then an open quote
@example('ix,a,b\na,0,1\n"b,1,0\n', 8192)  # a bad header, then an open quote
@example("id,a,b\nb,0,1\n", 8192)  # a wrong row id, then too few rows
@given(distance_files() | canonical_distance_files(), st.integers(1, 20))
@settings(max_examples=800, deadline=None)
def test_distance_reader_reads_what_the_reference_reader_reads(text, block_cells):
    """Any file reads as the reference reader reads it, csv.reader row by
    row and float.fromhex or float cell by cell: the same ids and value
    bits, or the same message naming file, line and column, whatever the
    block of rows parsed at a time.  Exactly the files that are not
    canonical go to the text reader, whatever the block at which the bytes
    reader leaves them.  Either way the matrix names no metric or lag."""
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp, mock.patch("catseries.io._BLOCK_CELLS", block_cells), \
            mock.patch("catseries.io._read_distance_text", side_effect=_read_distance_text) as text_reader:
        path = Path(tmp) / "dist.csv"
        path.write_bytes(data)
        expected = _read_outcome(oracles.read_distance_csv, path)
        assert _read_outcome(_read_ids_and_values, path) == expected
    assert text_reader.call_count == (not _canonical_distance_file(data))


@pytest.mark.parametrize("limit", [19, 30])
def test_lines_over_the_csv_limit_are_read_as_bytes_unless_an_id_passes_it(tmp_path, limit):
    """A canonical cell takes at most 24 bytes, so on lines longer than
    csv's field limit only an id can pass it: the bytes reader reads such a
    file when the limit is 24 or more, and leaves a file whose id passes it,
    or a limit below 24, to the text reader, which names the field."""
    upper = np.triu(np.random.default_rng(3).uniform(0.5, 40.0, (12, 12)), 1)
    dm = DistanceMatrix(upper + upper.T, "db", 1, tuple(f"s{i}" for i in range(12)))
    path, long_id = tmp_path / "dist.csv", tmp_path / "long_id.csv"
    write_distance_csv(path, dm, bitexact=True)
    write_distance_csv(long_id, DistanceMatrix(dm.values, "db", 1, ("x" * 31, *dm.ids[1:])), bitexact=True)
    saved = csv.field_size_limit(limit)
    try:
        with mock.patch("catseries.io._read_distance_text", side_effect=_read_distance_text) as text_reader:
            outcome = _read_outcome(_read_ids_and_values, path)
            assert outcome == _read_outcome(oracles.read_distance_csv, path)
            assert text_reader.call_count == (limit < 24)
            message = f"malformed CSV (field larger than field limit ({limit})) at line 1 of {long_id}"
            assert _read_outcome(oracles.read_distance_csv, long_id) == (ValueError, message)
            with pytest.raises(ValueError, match=re.escape(message)):
                read_distance_csv(long_id)
    finally:
        csv.field_size_limit(saved)
    if limit >= 24:
        assert outcome == (dm.ids, dm.values.view(np.uint64).tolist())
    else:
        assert outcome == (ValueError, f"malformed CSV (field larger than field limit ({limit})) at line 2 of {path}")

def test_a_file_the_bytes_reader_leaves_goes_row_by_row_to_the_row_parser(tmp_path):
    """A subnormal cell or a quoted id leaves the file to the text reader,
    which hands every body row, by its line, to the row parser once, rows
    of canonical cells too, whatever the block of rows the writer and the
    bytes reader take at a time."""
    values = np.array([[0.0, 1.5, 2.0], [1.5, 0.0, 5e-324], [2.0, 5e-324, 0.0]])
    path = tmp_path / "dist.csv"
    write_distance_csv(path, DistanceMatrix(values, "db", 1, ("a", "b", "c")), bitexact=True)
    with mock.patch("catseries.io._BLOCK_CELLS", 3), \
            mock.patch("catseries.io._parse_row", side_effect=_parse_row) as rows:
        back = read_distance_csv(path)
    assert back.values.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert [call.args[1] for call in rows.call_args_list] == [2, 3, 4]
    values[1, 2] = values[2, 1] = 2.5
    write_distance_csv(path, DistanceMatrix(values, "db", 1, ("a", "b,c", "d")), bitexact=True)
    with mock.patch("catseries.io._BLOCK_CELLS", 3), \
            mock.patch("catseries.io._parse_row", side_effect=_parse_row) as rows:
        back = read_distance_csv(path)
    assert back.ids == ("a", "b,c", "d")
    assert back.values.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert [call.args[1] for call in rows.call_args_list] == [2, 3, 4]


def test_a_canonical_file_the_matrix_rejects_is_not_read_again_as_text(tmp_path):
    """The bytes reader's values go to DistanceMatrix as they are: its
    message gains the path, and the text reader's row splitter is never
    called."""
    path = tmp_path / "dist.csv"
    path.write_text("id,a,b\na,0x0.0p+0,0x1.0000000000000p+0\nb,0x1.8000000000000p+0,0x0.0p+0\n")
    with mock.patch("catseries.io._distance_rows", side_effect=AssertionError("read as text")) as rows, \
            pytest.raises(ValueError) as err:
        read_distance_csv(path)
    assert str(err.value) == f"distance matrix must be symmetric with a zero diagonal: {path}"
    assert rows.call_count == 0


@pytest.mark.parametrize("block_cells", [1, 7, 8192])
def test_a_canonical_bitexact_file_is_read_as_bytes(tmp_path, block_cells):
    """A file as ``--bitexact`` writes it, ids unquoted, is read as bytes:
    the text reader's row splitter is never called."""
    upper = np.triu(np.random.default_rng(3).uniform(0.0, 40.0, (9, 9)), 1)
    dm = DistanceMatrix(upper + upper.T, "db", 1, ("a", "", "\u00e9\u4e2d", *map(str, range(6))))
    path = tmp_path / "dist.csv"
    write_distance_csv(path, dm, bitexact=True)
    with mock.patch("catseries.io._BLOCK_CELLS", block_cells), \
            mock.patch("catseries.io._distance_rows", side_effect=AssertionError("read as text")):
        back = read_distance_csv(path)
    assert back.ids == dm.ids
    assert back.values.view(np.uint64).tolist() == dm.values.view(np.uint64).tolist()


def test_a_decimal_file_is_left_before_the_hex_kernel(tmp_path):
    """A decimal file, a first cell of which does not start 0x or -0x, is
    read as text: the hex kernel is never called for it."""
    upper = np.triu(np.random.default_rng(4).uniform(0.0, 40.0, (9, 9)), 1)
    dm = DistanceMatrix(upper + upper.T, "db", 1, tuple("abcdefghi"))
    path = tmp_path / "dist.csv"
    write_distance_csv(path, dm)
    with mock.patch("catseries.io._hex_values", side_effect=AssertionError("hex kernel called")) as kernel:
        back = read_distance_csv(path)
    assert kernel.call_count == 0
    assert back.ids == dm.ids
    np.testing.assert_allclose(back.values, dm.values, rtol=1e-9, atol=0)


@pytest.mark.parametrize("n, rows, bound", [(20_000, 20_000, 32.0), (5_000, 1, 2.0)])
def test_a_header_of_many_ids_over_short_rows_is_not_square(tmp_path, n, rows, bound):
    """Many ids over short rows, each of at most two cells: the file has far
    fewer than the n * n bytes that the n commas of each of n rows take, so
    no n x n matrix (190 MiB for 5,000 ids) is made before the shape is
    checked."""
    ids = list(map(str, range(n)))  # a header within csv's field limit
    path = tmp_path / "dist.csv"
    path.write_text("".join(line + "\n" for line in [",".join(["id", *ids]), *(f"{i}," for i in ids[:rows])]))
    err, peak = traced_peak_mib(lambda: pytest.raises(ValueError, read_distance_csv, path))
    assert str(err.value) == f"distance matrix is not square: {path}"
    assert peak <= bound, peak


def test_distance_io_holds_a_bounded_amount_of_memory(tmp_path):
    """A 600x600 file is made into text and parsed a block or a row at a
    time: neither direction holds a Python object per cell of the matrix.
    A canonical file is read a block of rows at a time into a matrix that
    DistanceMatrix keeps without a copy, so its read holds the matrix and
    one block (4.1 MiB), not a second matrix (5.9 MiB) or the 7.6 MB file
    besides (11.2 MiB).  A file with a quoted id, or a decimal one, is read
    as text a row at a time into that matrix (3.2 MiB): no row's text is
    kept once it has parsed (10.2 and 7.1 MiB when every row's was)."""
    rng = np.random.default_rng(7)
    upper = np.triu(rng.uniform(0.5, 40.0, (600, 600)), 1)
    ids = tuple(f"series_{i}" for i in range(1, 601))
    path = tmp_path / "dist.csv"
    for dm, bitexact in ((DistanceMatrix(upper + upper.T, "db", 1, ids), True),
                         (DistanceMatrix(upper + upper.T, "db", 1, ("a,b", *ids[1:])), True),
                         (DistanceMatrix(upper + upper.T, "db", 1, ids), False)):
        write_distance_csv(path, dm, bitexact)  # builds the kernel's tables outside the measurement
        _, write_peak = traced_peak_mib(lambda: write_distance_csv(path, dm, bitexact))
        result, read_peak = traced_peak_mib(lambda: read_distance_csv(path))
        written = dm.values if bitexact else np.reshape(list(map(float, format_numbers(dm.values.ravel()))), (600, 600))
        assert result.ids == dm.ids
        assert np.array_equal(result.values, written)
        assert write_peak <= 4.0, (dm.ids[0], bitexact, write_peak)
        assert read_peak <= 4.5, (dm.ids[0], bitexact, read_peak)


def test_table_write_holds_a_bounded_amount_of_memory(tmp_path):
    """A 50,000-row table of one int64 and four float columns is made into
    bytes a block of rows at a time: the write holds a few blocks' matrices
    and masks (about 1.6 MiB), not the 4.4 MiB of the table's hex text."""
    rng = np.random.default_rng(11)
    header, columns = ["t", "a", "b", "c", "d"], [np.arange(1, 50_001), *rng.normal(size=(4, 50_000))]
    path = tmp_path / "table.csv"
    write_table_csv(path, header, columns, bitexact=True)  # builds the kernels' tables outside the measurement
    _, peak = traced_peak_mib(lambda: write_table_csv(path, header, columns, bitexact=True))
    assert path.stat().st_size > 4 * 2**20
    assert peak <= 4.0, peak


def test_corpus_generation_holds_a_bounded_amount_of_memory():
    """600 series of T=1000 from three families of 200, r=3, as the
    benchmark's corpus: each group's uniforms are binned at once, and its
    working arrays stay a few times its codes.  The corpus peaks at 9.5 MiB,
    in the hidden-Markov group; the NDARMA group stays below it, which it
    would not if its innovations were binned over all its uniforms (11.6
    MiB).  A tiny corpus first loads what numpy imports on first use."""
    groups = (
        (MarkovChainModel([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]], [0.3, 0.3, 0.4]), 200),
        (HiddenMarkovModel([[0.8, 0.2], [0.3, 0.7]], [[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]], [0.5, 0.5]), 200),
        (NdarmaModel(1, 0, [0.4, 0.6], [0.3, 0.3, 0.4], burn_in=200), 200),
    )
    spec = CorpusSpec(groups, 1000, 1)
    generate_corpus(CorpusSpec(tuple((model, 1) for model, _ in groups), 10, 1))
    (corpus, labels), peak = traced_peak_mib(lambda: generate_corpus(spec))
    assert len(corpus) == 600 and {len(series) for series in corpus} == {1000}
    assert peak <= 10.0, peak
