"""Command-line surface over files.

Subcommands: ``features``, ``test``, ``plot``, ``dist``, ``outliers``,
``mds``, ``simulate``.  Exit codes: 0 success, 2 for input/validation
problems (including bad flags), 1 for unexpected internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import graphics, io, mining, svg
from .association import MEASURE_FUNCTIONS
from .inference import TEST_FAMILIES, holm_adjust
from .series import Alphabet, CategoricalSeries
from .simulate import corpus_spec_from_dict, generate_corpus
from .spectral import spectral_envelope


def _alphabet_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alphabet", help="ordered comma-separated category labels")
    parser.add_argument("--infer-alphabet", action="store_true",
                        help="use the sorted set of symbols found in the file")
    parser.add_argument("--format", choices=("auto", "csv", "fasta"), default="auto")


def _input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="corpus file (symbol-csv or fasta-like)")
    _alphabet_args(parser)


def _alphabet(text: str) -> Alphabet:
    """``--alphabet`` as an Alphabet of its stripped labels; an empty label is rejected by position."""
    labels = tuple(label.strip() for label in text.split(","))
    if "" in labels:
        raise ValueError(f"--alphabet has an empty label at position {labels.index('') + 1}, got {text!r}")
    return Alphabet(labels)


def _load_corpus(args) -> io.Corpus:
    alphabet = _alphabet(args.alphabet) if args.alphabet else None
    return io.parse_corpus(args.input, alphabet, args.format, args.infer_alphabet)


def _pick_series(corpus: io.Corpus, index: int) -> CategoricalSeries:
    if not 1 <= index <= len(corpus.series):
        raise ValueError(f"series index {index} outside 1..{len(corpus.series)}")
    return corpus.series[index - 1]


def _parse_lags(text: str) -> list[int]:
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isdecimal() and int(part) > 0 for part in parts):
        raise ValueError(f"--lags expects a comma list of positive integers, got {text!r}")
    return sorted({int(part) for part in parts})


def _feature_layout(measures: list[str], lags: list[int]) -> list[tuple[str, int, str]]:
    """(measure, lag, title) of each ``features`` block: a measure of the
    marginals once, a measure of the lag tables once per lag."""
    columns = []
    for name in measures:
        if name in MEASURE_FUNCTIONS:
            columns.extend((name, lag, f"{name}.l{lag}") for lag in lags)
        else:
            columns.append((name, 0, "p" if name == "marginals" else name))
    return columns


def _cmd_features(args) -> int:
    corpus = _load_corpus(args)
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    if not measures:
        raise ValueError("no measures selected")
    for i, name in enumerate(measures):
        if name not in mining.MEASURES:
            raise ValueError(f"unknown measure {name!r}; expected one of {list(mining.MEASURES)}")
        if name in measures[:i]:
            raise ValueError(f"--measures names {name!r} twice, got {args.measures!r}")
    lags = _parse_lags(args.lags)
    columns = _feature_layout(measures, lags)
    schema, matrix = mining.run_corpus(lambda batch: mining.feature_matrix(batch, columns, args.expand),
                                       corpus.series, corpus.ids)
    io.write_features_csv(args.out, corpus.ids, schema, matrix, corpus.labels, args.bitexact)
    return 0


def _cmd_test(args) -> int:
    corpus = _load_corpus(args)
    series = _pick_series(corpus, args.index)
    report = TEST_FAMILIES[args.family](series, args.max_lag, args.alpha)
    payload = {
        "family": report.family,
        "alpha": report.alpha,
        "max_lag": report.max_lag,
        "series_id": corpus.ids[args.index - 1],
        "series_length": len(series),
        "n_categories": series.alphabet.size,
        "lower_critical": report.lower_critical,
        "upper_critical": report.upper_critical,
        "rows": [
            {
                "lag": int(lag),
                "estimate": est,
                "statistic": stat,
                "p_value": p,
            }
            for lag, est, stat, p in zip(report.lags, report.estimates, report.statistics, report.p_values)
        ],
    }
    if args.holm:
        payload["holm_adjusted_p_values"] = list(holm_adjust(report.p_values))
    io.write_json_report(args.out, payload, args.bitexact)
    return 0


def _cmd_dist(args) -> int:
    corpus = _load_corpus(args)
    dm = mining.distance_matrix(corpus.series, args.metric, args.max_lag, corpus.ids)
    io.write_distance_csv(args.out, dm, args.bitexact)
    return 0


def _cmd_mds(args) -> int:
    dm = io.read_distance_csv(args.dist)
    embedding = mining.two_dimensional_scaling(dm)
    io.write_coordinates_csv(args.out, dm.ids, embedding.coordinates, args.bitexact)
    return 0


def _cmd_outliers(args) -> int:
    dm = io.read_distance_csv(args.dist)
    scores, order = mining.outlier_scores(dm)
    box = mining.boxplot_outlier_count(scores, args.range_factor)
    payload = {
        "n": int(scores.size),
        "range_factor": args.range_factor,
        "q1": box.q1,
        "q3": box.q3,
        "threshold": box.threshold,
        "outlier_count": box.count,
        "flagged_ids": [dm.ids[i] for i in box.indices],
        "ranking": [dm.ids[i] for i in order],
        "scores": {dm.ids[i]: scores[i] for i in range(scores.size)},
    }
    io.write_json_report(args.out, payload, args.bitexact)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = corpus_spec_from_dict(json.load(handle))
    corpus, labels = generate_corpus(spec)
    io.write_corpus(args.out, corpus, labels)
    return 0


def _head(series: CategoricalSeries, limit: int | None) -> CategoricalSeries:
    """The first ``limit`` observations (``--limit``), or the whole series."""
    if limit is None:
        return series
    if limit < 1:
        raise ValueError(f"--limit must be a positive integer, got {limit}")
    return CategoricalSeries(series.codes[:limit], series.alphabet)


def _marginal(text: str | None) -> np.ndarray | None:
    """``--c`` as an array, or None (estimate the marginal) when it is not given."""
    if not text:
        return None
    try:
        return np.asarray([float(v) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"--c expects a comma list of numbers, got {text!r}") from None


def _window(text: str) -> tuple[float, ...]:
    """``--window`` as four finite numbers; the renderer checks that they bound a window."""
    try:
        window = tuple(float(v) for v in text.split(","))
    except ValueError:
        window = ()
    if len(window) != 4 or not np.all(np.isfinite(window)):
        raise ValueError(f"--window expects finite x0,x1,y0,y1, got {text!r}")
    return window


def _cmd_plot(args) -> int:
    data = args.build(_pick_series(_load_corpus(args), args.index), args)
    document = svg.render_svg(data, title=args.title, window=_window(args.window) if args.window else None)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(document)
    if args.table:
        io.write_table_csv(args.table, *svg.plot_table(data), args.bitexact)
    return 0


def _features_args(p: argparse.ArgumentParser) -> None:
    _input_args(p)
    p.add_argument("--measures", required=True,
                   help=f"comma list: {', '.join(mining.MEASURES)}")
    p.add_argument("--lags", "--lag", default="1", help="comma list of positive lags (default 1)")
    p.add_argument("--expand", action="store_true", help="emit per-component columns where defined")
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")


def _test_args(p: argparse.ArgumentParser) -> None:
    _input_args(p)
    p.add_argument("--index", type=int, default=1, help="1-based series index in the corpus")
    p.add_argument("--family", default="cramers_v", help=f"one of {', '.join(TEST_FAMILIES)}")
    p.add_argument("--max-lag", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--holm", action="store_true", help="also report Holm-adjusted p-values")
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")


def _dist_args(p: argparse.ArgumentParser) -> None:
    _input_args(p)
    p.add_argument("--metric", choices=tuple(mining.METRICS), default="db")
    p.add_argument("--max-lag", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")


def _mds_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", required=True, help="distance CSV produced by the dist command")
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")


def _outliers_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", required=True, help="distance CSV produced by the dist command")
    p.add_argument("--range-factor", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="corpus spec JSON file")
    p.add_argument("--out", required=True, help="output symbol-csv corpus")


def _plot_args(q: argparse.ArgumentParser) -> None:
    """The options every plot kind takes, before its own."""
    _input_args(q)
    q.add_argument("--index", type=int, default=1)
    q.add_argument("--title")
    q.add_argument("--out", required=True)
    q.add_argument("--table", help="also write the plotted data as CSV")
    q.add_argument("--bitexact", action="store_true")
    q.set_defaults(window=None)


def _series_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--limit", type=int, help="plot only the first N observations (N >= 1)")


def _pattern_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--category", required=True)


def _ifs_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--f0", type=float, nargs=2, default=(0.0, 0.0))
    q.add_argument("--window", help="x0,x1,y0,y1 zoom window")


def _dependence_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--family", default="cramers_v", help=f"one of {', '.join(TEST_FAMILIES)}")
    q.add_argument("--max-lag", type=int, default=10)
    q.add_argument("--alpha", type=float, default=0.05)


def _cycle_chart_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--category", required=True)
    q.add_argument("--alpha", type=float, default=0.01)
    q.add_argument("--p", type=float, help="hypothesized in-control probability (default: estimated)")


def _ewma_chart_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--lambda", dest="lam", type=float, default=0.9)
    q.add_argument("--k", type=float, default=3.0)
    q.add_argument("--c", help="comma list: hypothesized in-control marginal (default: estimated)")
    q.add_argument("--collapse", action="store_true", help="plot only min/max statistics")


def _envelope_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--window-length", type=int, help="odd smoothing span (default about sqrt(T))")


# name -> (help, argument builder or None, handler); the order is the order of ``--help``
COMMANDS = {
    "features": ("per-series feature matrix as CSV", _features_args, _cmd_features),
    "test": ("serial-independence tests as JSON", _test_args, _cmd_test),
    "dist": ("pairwise dissimilarity matrix as CSV", _dist_args, _cmd_dist),
    "mds": ("2-D scaling coordinates from a distance CSV", _mds_args, _cmd_mds),
    "outliers": ("distance-sum outlier scores as JSON", _outliers_args, _cmd_outliers),
    "simulate": ("generate a corpus from a JSON spec", _simulate_args, _cmd_simulate),
    "plot": ("render a chart to SVG", None, _cmd_plot),  # its arguments are the PLOT_KINDS
}

# kind -> (help, argument builder or None, chart); ``chart(series, args)`` returns the chart
# data, looking functions up when called
PLOT_KINDS = {
    "series": ("step plot of the coded series", _series_args, lambda s, a: _head(s, a.limit)),
    "rate": ("rate evolution graph", None, lambda s, a: graphics.rate_evolution(s)),
    "pattern": ("cycle-length histogram of one category", _pattern_args,
                lambda s, a: graphics.cycle_lengths(s, a.category)[1]),
    "ifs": ("IFS circle transformation scatter", _ifs_args,
            lambda s, a: graphics.ifs_circle_transform(s, a.alpha, a.beta, tuple(a.f0))),
    "dependence": ("serial dependence plot with critical values", _dependence_args,
                   lambda s, a: graphics.dependence_plot_data(s, a.family, a.max_lag, a.alpha)),
    "cycle-chart": ("cycle-length control chart", _cycle_chart_args,
                    lambda s, a: graphics.cycle_length_chart(s, a.category, a.alpha, a.p)),
    "ewma-chart": ("EWMA chart of the marginal distribution", _ewma_chart_args,
                   lambda s, a: graphics.ewma_marginal_chart(s, a.lam, _marginal(a.c), a.k, a.collapse)),
    "envelope": ("spectral envelope over frequency", _envelope_args,
                 lambda s, a: spectral_envelope(s, a.window_length)),
}


def _add_choices(parser: argparse.ArgumentParser, dest: str, table: dict, only: str | None):
    """Add a required subparser under ``dest`` for every entry of ``table``, or for ``only``;
    yield each new parser with its argument builder and handler.  A parser pruned to ``only``
    names the whole table in its usage line, as the full parser does."""
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar=None if only is None else "{" + ",".join(table) + "}")
    for name in table if only is None else (only,):
        help_text, add_arguments, handler = table[name]
        yield sub.add_parser(name, help=help_text), add_arguments, handler


def build_parser(command: str | None = None, kind: str | None = None) -> argparse.ArgumentParser:
    """The ``catseries`` parser: every subcommand and plot kind, or only ``command`` and, for
    ``plot``, only ``kind``.  A pruned parser parses a line that names its subcommand (and
    kind) as the full parser does, with the same help, errors and exit codes."""
    parser = argparse.ArgumentParser(
        prog="catseries",
        description="Statistical feature extraction, dependence tests, charts, distances "
        "and simulators for nominal categorical time series.",
    )
    for p, add_arguments, handler in _add_choices(parser, "command", COMMANDS, command):
        p.set_defaults(func=handler)
        if add_arguments is not None:
            add_arguments(p)
        else:
            for q, add_kind_arguments, chart in _add_choices(p, "kind", PLOT_KINDS, kind):
                _plot_args(q)
                q.set_defaults(build=chart)
                if add_kind_arguments is not None:
                    add_kind_arguments(q)
    return parser


def _named(argv: list[str]) -> tuple[str | None, str | None]:
    """The subcommand and plot kind that ``argv`` names exactly, as ``build_parser`` takes
    them; (None, None) leaves every other line (none or an unknown subcommand, ``-h``, ``plot``
    without a known kind) to the full parser, whose help and errors list every choice."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if command != "plot":
        return command, None
    return (command, argv[1]) if len(argv) > 1 and argv[1] in PLOT_KINDS else (None, None)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(*_named(argv)).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
