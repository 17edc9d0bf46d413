"""Corpus file ingestion and deterministic CSV/JSON writers.

Two corpus formats are read and written:

* symbol-csv: one series per line, comma-separated symbol labels, with an
  optional trailing ``|label`` class tag, e.g. ``a,t,g,g,c|virus1``.
* fasta-like: ``>id`` header lines followed by one or more lines of
  single-character symbols (sequences may wrap across lines).

The alphabet must be declared explicitly (order matters: it fixes the
category codes) or inferred on request as the sorted set of symbols seen in
the file.  Numbers are written with 10 significant digits by default; the
``bitexact`` flag switches to hexadecimal float notation for byte-stable
golden files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mining import DistanceMatrix
from .series import Alphabet, CategoricalSeries

__all__ = [
    "Corpus",
    "parse_corpus",
    "write_corpus",
    "format_number",
    "write_features_csv",
    "write_distance_csv",
    "read_distance_csv",
    "write_coordinates_csv",
    "write_json_report",
]


@dataclass(frozen=True, eq=False)
class Corpus:
    series: list[CategoricalSeries]
    ids: list[str]
    labels: list[str] | None


def _sniff_format(first_line: str) -> str:
    return "fasta" if first_line.lstrip().startswith(">") else "csv"


def _split_csv_line(line: str) -> tuple[list[str], str | None]:
    body, sep, label = line.rpartition("|")
    if sep:
        return [s.strip() for s in body.split(",")], label.strip()
    return [s.strip() for s in line.split(",")], None


def parse_corpus(path, alphabet: Alphabet | None = None, fmt: str = "auto", infer_alphabet: bool = False) -> Corpus:
    """Read a corpus file into integer-coded series.

    Exactly one of ``alphabet`` / ``infer_alphabet`` must be provided; the
    alphabet is never inferred silently because declared-but-absent
    categories change every downstream statistic.  Unknown symbols raise
    with their line and position.
    """
    if alphabet is None and not infer_alphabet:
        raise ValueError("declare an alphabet or pass infer_alphabet=True")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"empty corpus file: {path}")
    if fmt == "auto":
        fmt = _sniff_format(next(line for line in lines if line.strip()))
    if fmt == "csv":
        rows, ids, labels = _parse_symbol_csv(lines)
    elif fmt == "fasta":
        rows, ids, labels = _parse_fasta(lines)
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")

    if alphabet is None:
        seen = sorted({s for _, symbols in rows for s in symbols})
        alphabet = Alphabet(tuple(seen))
    series = []
    for line_no, symbols in rows:
        try:
            series.append(CategoricalSeries.from_symbols(symbols, alphabet))
        except ValueError:
            pos, symbol = next((pos, s) for pos, s in enumerate(symbols, start=1) if s not in alphabet.symbols)
            raise ValueError(f"unknown symbol {symbol!r} at line {line_no}, position {pos}") from None
    return Corpus(series, ids, labels if labels and any(labels) else None)


def _parse_symbol_csv(lines: list[str]) -> tuple[list[tuple[int, list[str]]], list[str], list[str]]:
    rows, ids, labels = [], [], []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        symbols, label = _split_csv_line(line)
        if not symbols or symbols == [""]:
            raise ValueError(f"no symbols on line {line_no}")
        rows.append((line_no, symbols))
        ids.append(f"series_{len(rows)}")
        labels.append(label or "")
    return rows, ids, labels


def _parse_fasta(lines: list[str]) -> tuple[list[tuple[int, list[str]]], list[str], list[str]]:
    rows, ids = [], []
    current: list[str] | None = None
    header_line = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if current is not None:
                rows.append((header_line, current))
            ids.append(line[1:].strip() or f"record_{len(ids) + 1}")
            current = []
            header_line = line_no
        else:
            if current is None:
                raise ValueError(f"sequence data before any '>' header at line {line_no}")
            current.extend(line)
    if current is not None:
        rows.append((header_line, current))
    empties = [i for i, (_, symbols) in enumerate(rows) if not symbols]
    if empties:
        raise ValueError(f"record {ids[empties[0]]!r} has no sequence data")
    return rows, ids, []


def write_corpus(path, corpus: Sequence[CategoricalSeries], labels: Sequence | None = None) -> None:
    """Write series as symbol-csv, one per line, with optional labels."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for idx, series in enumerate(corpus):
            line = ",".join(series.to_symbols())
            if labels is not None:
                line += f"|{labels[idx]}"
            handle.write(line + "\n")


def format_number(value, bitexact: bool = False) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(value)
    x = float(value)
    if bitexact:
        return x.hex()
    return f"{x:.10g}"


def write_features_csv(path, ids, schema, matrix, labels=None, bitexact: bool = False) -> None:
    """Feature matrix: one row per series, columns = id, features[, label]."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        header = ["id", *schema] + (["label"] if labels is not None else [])
        writer.writerow(header)
        for i, row in enumerate(matrix):
            out = [ids[i], *(format_number(v, bitexact) for v in row)]
            if labels is not None:
                out.append(labels[i])
            writer.writerow(out)


def write_distance_csv(path, dm: DistanceMatrix, bitexact: bool = False) -> None:
    """Square distance matrix with an id header row and id-leading rows."""
    ids = dm.ids if dm.ids is not None else tuple(f"series_{i + 1}" for i in range(dm.size))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", *ids])
        for i, row in enumerate(dm.values):
            writer.writerow([ids[i], *(format_number(v, bitexact) for v in row)])


def read_distance_csv(path) -> DistanceMatrix:
    """Read a matrix written by :func:`write_distance_csv` (hex floats OK).

    Row ids must repeat the header ids in order, and the values must be
    finite, non-negative, exactly symmetric and zero on the diagonal.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if len(rows) < 2 or rows[0][0] != "id":
        raise ValueError(f"not a distance matrix file: {path}")
    ids = tuple(rows[0][1:])
    n = len(ids)
    if len(rows) - 1 != n or any(len(row) != n + 1 for row in rows[1:]):
        raise ValueError(f"distance matrix is not square: {path}")
    if tuple(row[0] for row in rows[1:]) != ids:
        raise ValueError(f"row ids do not match the header ids: {path}")
    values = np.asarray([[_parse_number(cell) for cell in row[1:]] for row in rows[1:]], dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise ValueError(f"distances must be finite and non-negative: {path}")
    if np.any(values != values.T) or np.any(np.diag(values) != 0.0):
        raise ValueError(f"distance matrix must be symmetric with a zero diagonal: {path}")
    return DistanceMatrix(values, "euclidean-on-features", 0, ids)


def _parse_number(cell: str) -> float:
    cell = cell.strip()
    if cell.startswith(("0x", "-0x")):
        return float.fromhex(cell)
    return float(cell)


def write_coordinates_csv(path, ids, coords, bitexact: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "x", "y"])
        for i, (x, y) in enumerate(coords):
            writer.writerow([ids[i], format_number(x, bitexact), format_number(y, bitexact)])


def _jsonify(value, bitexact: bool):
    if isinstance(value, dict):
        return {k: _jsonify(v, bitexact) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, bitexact) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    x = float(value)
    return x.hex() if bitexact else float(format_number(x))


def write_json_report(path, payload: dict, bitexact: bool = False) -> None:
    """JSON with numbers at 10 significant digits, or hex strings when
    bitexact; keys keep insertion order."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonify(payload, bitexact), handle, indent=2)
        handle.write("\n")
