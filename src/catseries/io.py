r"""Corpus file ingestion and deterministic CSV/JSON writers.

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

A symbol-csv file is canonical when it holds only printable ASCII bytes
but the space, and line feeds ending lines that are not blank, and every
declared symbol is one such byte but ``,`` and ``|``.  :func:`parse_corpus`
reads such a file as bytes: each line is split at its last ``|``, and its
body is coded by a 256-entry table indexed by every other byte, the bytes
between being ``,``.  Any other body or file, FASTA and an inferred alphabet
go through :func:`_read_text`, which splits text lines as
``str.splitlines`` does and names the line and position of a bad symbol.

Numbers and text cells become CSV bytes a block of rows at a time.  Every
kernel gives a NUL-padded (rows, bytes) uint8 matrix and a bool mask of the
bytes each row keeps.  :func:`_digit_text` writes integers, and the
``"{:.2f}"`` SVG coordinates of :func:`_fixed_text`, from one row template
filled from a table of "0000" to "9999"; :func:`_hex_text` builds each
``bitexact`` cell in four uint64 lanes; decimal (``"%.10g"``) and text
cells (ids and class labels, quoted as :mod:`csv` quotes them) are joined
and encoded once and scattered into the matrix by their byte lengths.
:func:`write_table_csv` writes every CSV table (features, distances,
coordinates and plot tables) ``_BLOCK_CELLS`` cells at a time: a 2-D array
is a block of adjacent number columns, cut by rows only; each run of
adjacent integer, float or text columns becomes one matrix, and the runs'
matrices and masks are set side by side and compressed into the file once
per block.  :func:`write_corpus` writes a series of one-byte symbols from
its alphabet's byte table, a symbol at every other byte between ``,``.

A hex cell is canonical when it is ``0x1.`` with 13 lowercase digits and
a normal exponent, or ``0x0.0p+0``, either signed, as ``float.hex`` writes
it.  A distance file is canonical when its first line is ``id,`` and ids in
UTF-8 without a quote or ``\r``, none longer in bytes than csv's field
limit (nor that limit below 24, the bytes of the longest cell), every line
ends in ``\n``, and every row is its header id, ``,`` and one canonical
cell per id, split by ``,``: as ``--bitexact`` writes it unless an id needs
a quote.  :func:`read_distance_csv` reads such a file as bytes, a block of
rows at a time into one reused buffer, parsing each block in place with
the hex kernel :func:`_hex_values`; a file whose first cell does not start
``0x`` or ``-0x``, such as a decimal one, is left after its first block.
It reads any other file as text, a row at a time: a line without a quote
and within csv's field limit is split at every comma, and any other row
by strict :mod:`csv`; each row's cells are parsed into the matrix as the
row is read, by ``float``/``float.fromhex``, which read the kernel's
values and name a bad cell, and no row's text is kept once it has parsed.
Either way :class:`~catseries.mining.DistanceMatrix` checks the
values (and names ids ``series_1`` .. ``series_n`` when none are given),
and its error, with the path, is raised as it is: a canonical file it
rejects is not read again as text.
Every value is written with the same text as :func:`format_number` gives.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from dataclasses import dataclass
from itertools import chain, compress, groupby
from typing import Iterator, Sequence

import numpy as np

from .mining import DistanceMatrix, _Kept
from .series import Alphabet, CategoricalSeries, _is_integer

__all__ = [
    "Corpus",
    "parse_corpus",
    "write_corpus",
    "format_number",
    "format_numbers",
    "write_features_csv",
    "write_distance_csv",
    "read_distance_csv",
    "write_coordinates_csv",
    "write_table_csv",
    "write_json_report",
]


@dataclass(frozen=True, eq=False)
class Corpus:
    series: list[CategoricalSeries]
    ids: list[str]
    labels: list[str] | None


def _split_csv_line(line: str) -> tuple[list[str], str | None]:
    body, sep, label = line.rpartition("|")
    if sep:
        return list(map(str.strip, body.split(","))), label.strip()
    return list(map(str.strip, line.split(","))), None


def parse_corpus(path, alphabet: Alphabet | None = None, fmt: str = "auto", infer_alphabet: bool = False) -> Corpus:
    """Read a corpus file into integer-coded series.

    Exactly one of ``alphabet`` / ``infer_alphabet`` must be provided; the
    alphabet is never inferred silently because declared-but-absent
    categories change every downstream statistic.  Unknown symbols raise
    with their line and position.
    """
    if (alphabet is None) != infer_alphabet:
        raise ValueError("declare an alphabet or pass infer_alphabet=True, not both")
    alphabet, codes, ids, labels = _read_canonical(path, alphabet, fmt) or _read_text(path, alphabet, fmt)
    series = [CategoricalSeries(c, alphabet) for c in codes]
    ids = ids or [f"series_{k}" for k in range(1, len(series) + 1)]
    return Corpus(series, ids, labels if any(labels) else None)


_CANONICAL_BYTES = bytes(range(0x21, 0x7F)) + b"\n"  # printable ASCII but the space, and line ends


def _read_canonical(path, alphabet: Alphabet | None, fmt: str):
    """What :func:`_read_text` reads from a canonical symbol-csv file (see
    the module docstring), or None for :func:`_read_text` to read the file
    and name what is wrong with it."""
    if alphabet is None or fmt not in ("auto", "csv") or not all(
            len(s) == 1 and "!" <= s <= "~" and s not in ",|" for s in alphabet.symbols):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    if (fmt == "auto" and data[:1] == b">") or data.translate(None, _CANONICAL_BYTES):
        return None
    table = np.zeros(256, np.int64)
    table[list(map(ord, alphabet.symbols))] = np.arange(1, alphabet.size + 1)
    codes, labels = [], []
    for line in data.removesuffix(b"\n").split(b"\n"):
        body, bar, label = line.rpartition(b"|")
        body = body if bar else label
        row = table[np.frombuffer(body, np.uint8)[::2]]
        # n symbols take 2n - 1 bytes; a blank line or an empty body takes none
        if len(body) % 2 == 0 or body[1::2].count(b",") != len(body) // 2 or not row.all():
            return None
        codes.append(row)
        labels.append(label.decode() if bar else "")
    return alphabet, codes, [], labels


def _read_text(path, alphabet: Alphabet | None, fmt: str):
    """The alphabet (inferred when None), codes, ids and labels of any corpus file."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"empty corpus file: {path}")
    if fmt == "auto":
        fmt = "fasta" if next(line for line in lines if line.strip()).lstrip().startswith(">") else "csv"
    if fmt == "csv":
        rows, ids, labels = _parse_symbol_csv(lines)
    elif fmt == "fasta":
        rows, ids, labels = _parse_fasta(lines)
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")

    distinct = set(chain.from_iterable(symbols for _, symbols in rows))
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(distinct)))
    known = set(alphabet.symbols)
    if not distinct <= known:
        line_no, pos, symbol = next((line_no, pos, s) for line_no, symbols in rows
                                    for pos, s in enumerate(symbols, start=1) if s not in known)
        raise ValueError(f"unknown symbol {symbol!r} at line {line_no}, position {pos}: {path}")
    code = {symbol: alphabet.code(symbol) for symbol in distinct}.__getitem__
    return alphabet, [np.fromiter(map(code, symbols), np.int64, len(symbols)) for _, symbols in rows], ids, labels


def _parse_symbol_csv(lines: list[str]) -> tuple[list[tuple[int, list[str]]], list[str], list[str]]:
    rows, labels = [], []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        symbols, label = _split_csv_line(line)
        if not symbols or symbols == [""]:
            raise ValueError(f"no symbols on line {line_no}")
        rows.append((line_no, symbols))
        labels.append(label or "")
    return rows, [], labels


def _parse_fasta(lines: list[str]) -> tuple[list[tuple[int, list[str]]], list[str], list[str]]:
    rows, ids, headers = [], [], {}
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
            if headers.setdefault(ids[-1], line_no) != line_no:
                raise ValueError(f"duplicate record id {ids[-1]!r} at lines {headers[ids[-1]]} and {line_no}")
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
    """Write series as symbol-csv, one per line, with optional labels.

    Raises before writing for a symbol or class label that would not read
    back as written.  A series whose symbols are one byte each is written
    from its alphabet's byte table, a symbol at every other byte between
    ","; any other as its joined symbols.
    """
    tables = {}  # alphabet -> its byte table, or None when a symbol takes more than one byte
    for alphabet in dict.fromkeys(series.alphabet for series in corpus):
        for symbol in alphabet.symbols:
            _check_field("symbol", symbol, ",|")
            if not symbol or symbol != symbol.strip() or symbol.startswith(">"):
                raise ValueError(f"symbol {symbol!r} is empty or has leading or trailing whitespace or a leading '>'")
        table = np.frombuffer("".join(alphabet.symbols).encode(), np.uint8)
        tables[alphabet] = table if len(table) == alphabet.size else None
    if labels is not None:
        labels = [str(label) for label in labels]
        if len(labels) != len(corpus):
            raise ValueError(f"{len(labels)} class labels for {len(corpus)} series")
        for label in labels:
            _check_field("class label", label, "|")
            if label != label.strip():
                raise ValueError(f"class label {label!r} has leading or trailing whitespace")
    with open(path, "wb") as handle:
        for idx, series in enumerate(corpus):
            table = tables[series.alphabet]
            if table is None:
                handle.write(",".join(series.to_symbols()).encode())
            else:
                row = np.full(2 * len(series) - 1, ord(","), np.uint8)
                row[::2] = table[series.codes - 1]
                handle.write(row)
            handle.write(b"\n" if labels is None else f"|{labels[idx]}\n".encode())


def _check_field(kind: str, text: str, separators: str) -> None:
    if "".join(text.splitlines()) != text:
        raise ValueError(f"{kind} {text!r} contains a line break")
    for separator in separators:
        if separator in text:
            raise ValueError(f"{kind} {text!r} contains the separator {separator!r}")


def format_number(value, bitexact: bool = False) -> str:
    if _is_integer(value):
        return str(value)
    x = float(value)
    if bitexact:
        return x.hex()
    return f"{x:.10g}"


def format_numbers(values, bitexact: bool = False) -> list[str]:
    """The text of every value of a 1-D array-like, as :func:`format_number`
    writes it; the array's dtype, not each value, picks integer or float."""
    values = np.asarray(values)
    text, keep = _run_text(values.dtype.kind in "iu", [values], bitexact, b"\n")
    return text[keep].tobytes().decode().splitlines()


def _run_text(kind, columns, bitexact: bool, end: bytes, alone: bool = False):
    """The matrix and mask of ``",".join(cells) + end`` for every row of a
    run of columns of one ``kind`` (:func:`_column_kind`): numbers, 1-D or
    2-D, as :func:`format_number` writes them, or text, as :func:`_csv_cell`
    quotes it (``""`` if empty and ``alone`` in its row).  Text and decimal
    cells are joined, encoded and cut into rows by their byte lengths."""
    if kind:
        return _integer_text(columns, end)
    if kind is None:
        quote = functools.cache(lambda text: (_csv_cell(text) or ('""' if alone else "")).encode())
        cells = list(chain.from_iterable(zip(*(map(quote, column) for column in columns))))
        data = b",".join(cells + [b""])  # every cell followed by ","
        sizes = (np.fromiter(map(len, cells), np.intp) + 1).reshape(-1, len(columns)).sum(axis=1)
    else:
        block = np.column_stack(columns)
        if bitexact:
            return _hex_text(block, end)
        # "%.10g" % x is "{:.10g}".format(x), which never holds the "\n" that ends a row
        data = (b",".join([b"%.10g"] * block.shape[1]) + b"\n") * len(block) % tuple(block.ravel().tolist())
        sizes = np.diff(np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")), prepend=-1)
    keep = np.arange(sizes.max(initial=0)) < sizes[:, None]
    text = np.zeros(keep.shape, np.uint8)
    text[keep] = np.frombuffer(data, np.uint8)
    text[np.arange(len(sizes)), sizes - 1] = ord(end)
    return text, keep


_BLOCK_CELLS = 8192  # cells made into text or parsed at a time; bounds the memory held
_POWERS = 10 ** np.arange(1, 20, dtype=np.uint64)  # a uint64 below 10**k has at most k digits


@functools.cache
def _digit_lanes():
    """"0000" to "9999" as little-endian uint32 lanes of four ASCII digits."""
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    return digits.astype(np.uint8).view("<u4").ravel()


def _digit_text(parts: list[bytes], magnitudes, negatives, point: bool):
    """The matrix and mask of, for every row of the (rows, numbers) arrays:
    ``parts[0]``, number 0, ``parts[1]``, ..., ``parts[-1]``, where number k
    is "-" if ``negatives[:, k]`` is set, then the digits of the uint64
    ``magnitudes[:, k]`` without leading zeros, the last two after a "."
    (and at least "0.dd") when ``point``.  A row's byte template gives each
    number a slot: the part before it, NUL-padded to the longest part, a
    sign byte and as many groups of four digits as the largest magnitude
    needs.  Every row's copy is filled from :func:`_digit_lanes` at once and
    unused bytes are zeroed; the mask drops every NUL: no part may hold one."""
    rows = len(magnitudes)
    width = -(-len(str(int(magnitudes.max(initial=0)))) // 4) * 4
    lengths = np.array(list(map(len, parts[:-1])))
    slots = np.zeros((len(lengths), lengths.max() + 1 + width + point), np.uint8)
    slots[np.arange(slots.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(parts[:-1]), np.uint8)
    slots[:, -3] = ord(".")  # the "." when ``point``; a digit's byte, written over, otherwise
    text = np.tile(np.concatenate((slots.ravel(), np.frombuffer(parts[-1], np.uint8))), (rows, 1))
    numbers = text[:, :slots.size].reshape(rows, *slots.shape)[..., lengths.max():]
    numbers[..., 0] = negatives * np.uint8(ord("-"))
    groups = np.empty((*magnitudes.shape, width // 4), np.uint64)
    rest = magnitudes
    for k in range(width // 4 - 1, 0, -1):
        rest, groups[..., k] = np.divmod(rest, 10000)
    groups[..., 0] = rest
    digits = _digit_lanes().take(groups).view(np.uint8)
    # row k: the digits that a number of k digits shows
    shown = np.arange(width) >= width - np.maximum(np.arange(21), 1 + 2 * point)[:, None]
    digits *= shown.take(np.searchsorted(_POWERS, magnitudes, "right") + 1, axis=0)
    split = width - 2 * point  # digits before the "."
    numbers[..., 1:split + 1] = digits[..., :split]
    numbers[..., split + 1 + point:] = digits[..., split:]
    return text, text != 0


def _integer_text(columns, end: bytes):
    """The matrix and mask of ``",".join(map(str, row)) + end`` for every row
    of integer columns, 1-D or 2-D blocks, each of its own dtype."""
    values = np.column_stack([column.astype(np.uint64) for column in columns])
    negatives = np.column_stack([column < 0 for column in columns])
    magnitudes = np.where(negatives, -values, values)  # negated in uint64: right for -2**63 too
    return _digit_text([b""] + [b","] * (values.shape[1] - 1) + [end], magnitudes, negatives, point=False)


def _hundredths(bits):
    """``round(abs(x) * 100)`` with ties to even, computed exactly, and the
    sign bit, for float64 bit patterns of magnitude below 2**40.  The
    significand times 100 stays below 2**60; shifted right by the exponent,
    the bits shifted out decide the rounding, and a tie is only ever an
    exact one, which is how ``"{:.2f}".format`` rounds."""
    exponent = bits >> 52 & 0x7FF
    mantissa = bits & 0xFFFFFFFFFFFFF
    scaled = np.where(exponent > 0, mantissa | 1 << 52, mantissa) * 100
    shift = np.minimum(1075 - np.maximum(exponent, 1), 62)  # from 61 on, every value rounds to 0
    rounded = scaled >> shift
    rest = scaled - (rounded << shift)
    half = np.uint64(1) << shift - 1
    rounded += (rest > half) | (rest == half) & (rounded & 1 == 1)
    return rounded, bits >> 63 == 1


def _fixed_text(template: str, columns, sep: str) -> str:
    """``sep.join`` of ``template`` filled with each row of ``columns``: every
    ``{}`` of the template takes the ``"{:.2f}".format`` text of the row's
    value in that column; the template and ``sep`` hold no other brace and
    no NUL.  The columns are rounded by :func:`_hundredths` and written by
    :func:`_digit_text` together, as many rows at a time as ``_BLOCK_CELLS``
    cells fill, and the blocks' kept bytes are joined once; when any value
    is non-finite or of magnitude 2**40 or more, Python formats every value
    instead."""
    bits = np.column_stack(columns).astype(np.float64, copy=False).view(np.uint64)
    if not np.all(bits >> 52 & 0x7FF < 1023 + 40):
        fill = template.replace("{}", "{:.2f}").format
        return sep.join(map(fill, *bits.view(np.float64).T.tolist()))
    parts = (template + sep).encode().split(b"{}")
    step = max(1, _BLOCK_CELLS // bits.shape[1])
    blocks = (_digit_text(parts, *_hundredths(bits[start:start + step]), point=True)
              for start in range(0, len(bits), step))
    text = b"".join(text[keep].tobytes() for text, keep in blocks).decode()
    return text.removesuffix(sep)  # every row ends in ``sep``


_KEEP = np.array([int("01" * n or "0", 16) for n in range(9)], np.uint64)  # n bytes of 1
_BYTES = 0x0101010101010101


@functools.cache
def _hex_lanes():
    """Lane tables of :func:`_hex_text`, indexed by ``bits >> 52 << 1 |
    (mantissa != 0)`` (sign, biased exponent, non-zero mantissa): the head
    lane (sign, ``0x``, lead digit and ``.``, or ``inf``/``nan``), the tail
    lane (``p±exp`` and ``,``), the tail lane ending in ``\n``, and a byte of
    1 for each byte of the four lanes that a cell keeps."""
    def lanes(texts, choice):
        return np.array(texts, "S8").view("<u8")[choice], np.array(list(map(len, texts)))[choice]

    index = np.arange(8192)
    negative, exponent, nonzero = index >> 12, index >> 1 & 2047, index & 1
    special, zero = exponent == 2047, (exponent == 0) & (nonzero == 0)
    head, head_length = lanes([b"0x1.", b"0x0.", b"inf", b"nan", b"-0x1.", b"-0x0.", b"-inf", b"nan"],
                              np.where(special, 2 + nonzero, exponent == 0) + 4 * negative)
    powers = [b"p%+d" % (e - 1023) for e in range(2048)] + [b"p-1022", b"p+0", b""]
    tail, tail_length = lanes(powers, np.where(special, 2050, np.where(zero, 2049, np.where(exponent, exponent, 2048))))
    digits = np.where(special, 0, np.where(zero, 1, 13))
    keep = _KEEP[np.stack([head_length, np.minimum(digits, 8), np.maximum(digits - 8, 0), tail_length + 1], 1)]
    shift = 8 * tail_length.astype(np.uint64)
    return head, tail | ord(",") << shift, tail | ord("\n") << shift, keep


def _hex_text(block, end: bytes):
    """The matrix and mask of ``",".join(map(float.hex, row)) + end``, end
    "," or "\n", for every row of a 2-D block of at least one column: each
    cell is built in four uint64 lanes whose kept bytes are its text."""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64)
    head, comma, newline, keep = _hex_lanes()
    mantissa = bits & 0xFFFFFFFFFFFFF
    index = bits >> 52 << 1 | (mantissa != 0)
    # 8 + 5 nibbles at the top of two 32-bit words, one to a byte, least
    # significant first until the byte swap
    digits = np.stack((mantissa >> 20, mantissa << 12 & 0xFFFFFFFF), axis=-1)
    for shift, mask in (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F):
        digits |= digits << shift
        digits &= mask
    lanes = np.empty(bits.shape + (4,), np.uint64)
    lanes[..., 0] = head.take(index)
    lanes[..., 1:3] = _hex_ascii(digits).byteswap(inplace=True)
    lanes[..., 3] = comma.take(index)
    lanes[:, -1, 3] = (comma if end == b"," else newline).take(index[:, -1])
    shape = (len(bits), 32 * bits.shape[1])
    return lanes.view(np.uint8).reshape(shape), keep.take(index, axis=0).view(bool).reshape(shape)


class _Echo:
    """File stand-in whose ``write`` returns the text it is given, so that
    ``writerow`` of a csv writer over it returns the row's CSV text."""

    @staticmethod
    def write(text: str) -> str:
        return text


# csv.writer quotes a cell holding any character of its line terminator, so
# "\r\n" makes it quote a carriage return as well as a line feed; the rows
# written to files still end in "\n".
_CSV_TEXT = csv.writer(_Echo(), lineterminator="\r\n")


def _csv_row(cells) -> str:
    """One CSV line of text cells, quoted as csv.writer quotes them."""
    return _CSV_TEXT.writerow(cells)[:-2] + "\n"


def _csv_cell(text: str) -> str:
    """``text`` as csv.writer writes it among other cells of a row: quoted
    only where it needs to be.  The empty second cell keeps an empty
    ``text`` empty; alone in a row, csv.writer would write it as ``""``."""
    return _CSV_TEXT.writerow((text, ""))[:-3]


def write_features_csv(path, ids, schema, matrix, labels=None, bitexact: bool = False) -> None:
    """Feature matrix: one row per series, columns = id, features[, label]."""
    header = ["id", *schema] + (["label"] if labels is not None else [])
    columns = [ids, np.asarray(matrix)] + ([labels] if labels is not None else [])
    write_table_csv(path, header, columns, bitexact)


def write_distance_csv(path, dm: DistanceMatrix, bitexact: bool = False) -> None:
    """Square distance matrix with an id header row and id-leading rows."""
    write_table_csv(path, ["id", *dm.ids], [dm.ids, dm.values], bitexact)


def read_distance_csv(path) -> DistanceMatrix:
    """Read a matrix written by :func:`write_distance_csv` (hex floats OK).

    Rows must hold one cell per header id and repeat the header ids in
    order; a cell that is not a number is named by file, line and column.
    :class:`DistanceMatrix` checks the values, and its error gains the path.
    """
    values, ids = _read_canonical_distances(path) or _read_distance_text(path)
    try:
        return DistanceMatrix(_Kept(values), "euclidean-on-features", 0, ids)
    except ValueError as err:
        raise ValueError(f"{err}: {path}") from None


def _read_canonical_distances(path) -> tuple[np.ndarray, tuple[str, ...]] | None:
    """The values and ids :func:`_read_distance_text` reads from a canonical
    distance file (see the module docstring), or None for it to read the
    file and name what is wrong with it, perhaps after some blocks have
    parsed.  After the header, the rows are read a block at a time, as many
    as ``_BLOCK_CELLS`` cells fill, into one buffer that holds the longest
    canonical block and is padded for the hex kernel's reads past a cell.
    Each read fills the buffer behind the bytes the last block left; the
    block's line ends are found one by one, each line must start with its
    header id, and the block's cells are cut at its commas."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        header = handle.readline()
        if not header.startswith(b"id,") or not header.endswith(b"\n") or b'"' in header or b"\r" in header:
            return None
        try:
            ids = tuple(header[3:-1].decode("utf-8").split(","))
        except UnicodeDecodeError:
            return None
        heads = [ident + b"," for ident in header[3:-1].split(b",")]
        n = len(ids)
        widths = np.fromiter(map(len, heads), np.intp, n)
        # a canonical cell takes 8 to 24 bytes and its "," or "\n", so of the fields only an id can pass csv's limit
        if size < 9 * n * n or max(24, widths.max() - 1) > csv.field_size_limit():
            return None
        step = max(1, _BLOCK_CELLS // n)
        # a canonical row is its id, "," and at most 25 bytes a cell
        room = int(np.add.reduceat(widths, np.arange(0, n, step)).max()) + min(step, n) * 25 * n
        data = bytearray(room + 32)
        view, buffer = memoryview(data), np.frombuffer(data, np.uint8)
        id_commas, ends = np.empty(step, np.intp), np.empty(step, np.intp)
        values = np.empty((n, n))
        filled = 0  # bytes of the file in the buffer, from its start
        for start in range(0, n, step):
            rows = min(step, n - start)
            filled += handle.readinto(view[filled:room])
            at = 0
            for row, head in enumerate(heads[start:start + rows]):
                end = data.find(b"\n", at, filled)
                if end < 0 or not data.startswith(head, at):
                    return None
                id_commas[row], ends[row], at = at + len(head) - 1, end, end + 1
            if start == 0 and not data.startswith((b"0x", b"-0x"), id_commas[0] + 1):  # a decimal file is not read
                return None
            commas = np.flatnonzero(buffer[id_commas[0]:at] == ord(",")) + id_commas[0]
            # n commas a row, the first after its id: each row's cells end at its next comma or its line end
            if len(commas) != rows * n or not np.array_equal(commas[::n], id_commas[:rows]):
                return None
            commas = commas.reshape(rows, n)
            parsed = _hex_values(buffer, commas + 1, np.column_stack((commas[:, 1:], ends[:rows])))
            if parsed is None:
                return None
            values[start:start + rows] = parsed
            view[:filled - at] = view[at:filled]  # the next block's first bytes
            filled -= at
        if filled or handle.read(1):
            return None
    return values, ids


def _read_distance_text(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """The values and ids of any distance file, read as text a row at a time
    (see :func:`_distance_rows`), or the error that names what is wrong with
    its text or shape.  Each row is parsed into the matrix as it is read,
    and only the first bad cell's error is kept; every row is read, so a
    later malformed row still wins.  Once all are read, it raises the first
    of: not a distance file, not square, row ids other than the header's,
    that bad cell.  The matrix is made only for an ``id`` header and a
    file of at least n * n bytes, as the n commas of each of n rows take:
    a long header over little data makes no n×n matrix."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = _distance_rows(handle, path)
        _, (head, *ids) = next(rows, (0, [""]))
        n = len(ids)
        values = np.empty((n, n)) if head == "id" and os.fstat(handle.fileno()).st_size >= n * n else None
        row, square, ordered, bad = -1, True, True, None  # row: the last body row's index
        for row, (line, cells) in enumerate(rows):
            square = square and row < n and len(cells) == n + 1
            ordered = ordered and square and cells[0] == ids[row]
            if ordered and values is not None and bad is None:
                try:
                    values[row] = _parse_row(cells[1:], line, path)
                except ValueError as err:
                    bad = err
    if head != "id" or row < 0:
        raise ValueError(f"not a distance matrix file: {path}")
    if not square or row != n - 1:
        raise ValueError(f"distance matrix is not square: {path}")
    if not ordered:
        raise ValueError(f"row ids do not match the header ids: {path}")
    if bad is not None:
        raise bad
    return values, tuple(ids)


def _distance_rows(handle, path) -> Iterator[tuple[int, list[str]]]:
    r"""(last line number, cells, id first) of every non-empty row, as a
    strict csv.reader reads them from ``handle``, a file opened with
    ``newline=""``.  A line without a quote, no longer than csv's field
    limit, is split at every ","; any other row goes through csv.reader,
    which takes as many more lines as its quoted cells span.  A quote left
    open or followed by anything but a "," or the line's end, or a field
    over the limit, raises, naming the line of ``path``."""
    line_num = 0
    for line in handle:
        line_num += 1
        if '"' in line or len(line) > csv.field_size_limit():
            reader = csv.reader(chain((line,), handle), strict=True)
            try:
                cells = next(reader)
            except csv.Error as err:
                raise ValueError(f"malformed CSV ({err}) at line {line_num + reader.line_num - 1} of {path}") from None
            line_num += reader.line_num - 1
        elif line := line.rstrip("\r\n"):
            cells = line.split(",")
        else:
            continue
        yield line_num, cells


_HEX_HEAD = int.from_bytes(b"0x1.", "little")
_HEX_ZERO = int.from_bytes(b"0x0.0p+0", "little")


def _hex_values(data, starts, ends) -> np.ndarray | None:
    """The values of the cells ``data[starts:ends]``, arrays of one shape, of
    a uint8 array with at least 32 bytes after the last cell, when every
    cell is a normal number or zero exactly as ``float.hex`` writes it; None
    when any cell is not.  Cells are read through an unaligned little-endian
    uint64 view at every byte offset, and every byte of a cell is checked."""
    words = np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))
    negative = data[starts] == ord("-")
    starts += negative
    length = ends - starts
    # "0x1." at 0, 13 digits at 4 (read as 4..11 and 9..16), then from 17
    # "p", the exponent's sign and 1-4 digits: they must be the writer's
    # tail lane for the exponent they spell, up to the lane's "," (which no
    # cell holds, so a shorter lane differs at it)
    high, high_ok = _hex_nibbles(words[starts + 4])
    low, low_ok = _hex_nibbles(words[starts + 9])
    tail = _KEEP[np.clip(length - 17, 0, 8)] * 255
    power = words[starts + 17] & tail
    places = np.clip(length - 19, 1, 4).astype(np.uint64) * 8
    digits = (power >> 16 << 32 - places & 0xFFFFFFFF | 0x30303030 >> places) & 0x0F0F0F0F  # "0"-padded
    pairs = (digits * 10 + (digits >> 8)) & 0x00FF00FF
    magnitude = ((pairs & 0xFF) * 100 + (pairs >> 16)).astype(np.int64)
    biased = np.clip(np.where(power >> 8 & 0xFF == ord("-"), -magnitude, magnitude) + 1023, 0, 2047)
    normal = ((length >= 20) & (length <= 23) & (words[starts] & 0xFFFFFFFF == _HEX_HEAD) & high_ok & low_ok
              & (power == _hex_lanes()[1].take(biased << 1) & tail))
    zero = (length == 8) & (words[starts] == _HEX_ZERO)
    if not np.all(normal | zero):
        return None
    mantissa = biased.astype(np.uint64) << 52 | high << 20 | low & 0xFFFFF
    return (negative.astype(np.uint64) << 63 | np.where(zero, 0, mantissa)).view(np.float64)


def _hex_nibbles(words):
    """The 32-bit value of words of eight lowercase hex digits, first digit
    in the lowest byte, and whether each word is eight such digits."""
    value = (words & 0x0F0F0F0F0F0F0F0F) + (words >> 6 & _BYTES) * 9
    valid = (value & 0x1010101010101010 == 0) & (words == _hex_ascii(value))
    value.byteswap(inplace=True)
    for shift, mask in (4, 0x00FF00FF00FF00FF), (8, 0x0000FFFF0000FFFF), (16, 0xFFFFFFFF):
        value = (value | value >> shift) & mask
    return value, valid


def _hex_ascii(nibbles):
    """Lowercase hex digits of one nibble a byte: b + "0", and 39 more to
    reach "a" when b > 9, which is when b + 6 carries into bit 4."""
    return nibbles + (nibbles + 0x0606060606060606 >> 4 & _BYTES) * 39 + 0x3030303030303030


_HEX_PREFIXES = ("0x", "-0x")


def _parse_row(cells: list[str], line: int, path) -> list[float]:
    """Every cell of a row by float.fromhex if it starts with 0x or 0X after
    an optional sign, else by float: the whole row first, then cell by cell.

    The fast path skips the strip: both parsers ignore surrounding
    whitespace, and a cell that needs the strip to parse fails there and is
    read by the cell-by-cell path.  The row is judged hex once, from its
    joined text: only a cell holding a comma, which float.fromhex rejects,
    can add a hex prefix the count does not owe to a cell."""
    text = ",".join(cells)
    hexed = text.startswith(_HEX_PREFIXES) and text.count(",0x") + text.count(",-0x") == len(cells) - 1
    parse = float.fromhex if hexed else float
    try:
        if "_" not in text:  # float alone reads PEP 515 digit grouping: "1_0" as 10.0
            return list(map(parse, cells))
    except (ValueError, OverflowError):
        pass
    values = []
    for column, cell in enumerate(cells, start=2):
        cell = cell.strip()
        try:  # both parsers reject a second sign; a hex cell too large for a float overflows
            if "_" in cell:
                raise ValueError(cell)
            values.append((float.fromhex if cell.lstrip("+-")[:2] in ("0x", "0X") else float)(cell))
        except (ValueError, OverflowError):
            raise ValueError(f"not a number: {cell!r} at line {line}, column {column} of {path}") from None
    return values


def write_coordinates_csv(path, ids, coords, bitexact: bool = False) -> None:
    coords = np.asarray(coords)
    write_table_csv(path, ["id", "x", "y"], [ids, coords[:, 0], coords[:, 1]], bitexact)


def write_table_csv(path, header, columns, bitexact: bool = False) -> None:
    """A table given column by column: a numpy array of numbers holds
    numbers, a 2-D one a block of adjacent number columns, written as
    :func:`format_numbers` writes them; any other sequence holds text
    cells, quoted as csv.writer quotes them.  Each run of adjacent integer,
    float or text columns becomes text together, a block of rows at a time:
    as many rows as ``_BLOCK_CELLS`` cells fill.  Raises before opening the
    file unless there is one header name per column and every column has
    the same length."""
    widths = [column.shape[1] if _column_kind(column) is not None and column.ndim == 2 else 1 for column in columns]
    lengths = [len(column) for column in columns]
    if len(header) != sum(widths):
        raise ValueError(f"table header has {len(header)} names for {sum(widths)} columns: {_first(header)}")
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns {_first(header)} have different lengths {_first(lengths)}")
    runs = [(kind, list(run)) for kind, run in groupby(compress(columns, widths), _column_kind)]
    ends = [b","] * (len(runs) - 1) + [b"\n"]
    step = max(1, _BLOCK_CELLS // max(1, len(header)))
    with open(path, "wb") as handle:
        handle.write(_csv_row(header).encode())
        for start in range(0, lengths[0] if runs else 0, step):
            # an empty cell alone in its row is '""', as csv.writer writes it: an empty line would read as no row
            blocks = [_run_text(kind, [column[start:start + step] for column in run], bitexact, end, len(header) == 1)
                      for (kind, run), end in zip(runs, ends)]
            text, keep = blocks[0] if len(blocks) == 1 else (np.concatenate(parts, axis=1) for parts in zip(*blocks))
            handle.write(text[keep].tobytes())


def _first(items, shown: int = 4) -> str:
    """The list of ``items``, cut after the first ``shown`` in a message."""
    items = list(items)
    return str(items) if len(items) <= shown else f"{str(items[:shown])[:-1]}, ... {len(items) - shown} more]"


def _column_kind(column):
    """Integer (True), float (False) or text (None) column of a table."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        return column.dtype.kind in "iu"
    return None


def _jsonify(value, bitexact: bool):
    if isinstance(value, dict):
        return {k: _jsonify(v, bitexact) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, bitexact) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    x = float(value)
    return x.hex() if bitexact else float(format_number(x))


def write_json_report(path, payload: dict, bitexact: bool = False) -> None:
    """JSON with numbers at 10 significant digits, or hex strings when
    bitexact; keys keep insertion order."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonify(payload, bitexact), handle, indent=2)
        handle.write("\n")
