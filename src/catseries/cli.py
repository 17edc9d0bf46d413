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


def _load_corpus(args) -> io.Corpus:
    alphabet = Alphabet(tuple(s.strip() for s in args.alphabet.split(","))) if args.alphabet else None
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
    for name in measures:
        if name not in mining.MEASURES:
            raise ValueError(f"unknown measure {name!r}; expected one of {list(mining.MEASURES)}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catseries",
        description="Statistical feature extraction, dependence tests, charts, distances "
        "and simulators for nominal categorical time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="per-series feature matrix as CSV")
    _input_args(p)
    p.add_argument("--measures", required=True,
                   help=f"comma list: {', '.join(mining.MEASURES)}")
    p.add_argument("--lags", "--lag", default="1", help="comma list of positive lags (default 1)")
    p.add_argument("--expand", action="store_true", help="emit per-component columns where defined")
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("test", help="serial-independence tests as JSON")
    _input_args(p)
    p.add_argument("--index", type=int, default=1, help="1-based series index in the corpus")
    p.add_argument("--family", default="cramers_v", help=f"one of {', '.join(TEST_FAMILIES)}")
    p.add_argument("--max-lag", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--holm", action="store_true", help="also report Holm-adjusted p-values")
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("dist", help="pairwise dissimilarity matrix as CSV")
    _input_args(p)
    p.add_argument("--metric", choices=tuple(mining.METRICS), default="db")
    p.add_argument("--max-lag", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("mds", help="2-D scaling coordinates from a distance CSV")
    p.add_argument("--dist", required=True, help="distance CSV produced by the dist command")
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("outliers", help="distance-sum outlier scores as JSON")
    p.add_argument("--dist", required=True, help="distance CSV produced by the dist command")
    p.add_argument("--range-factor", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")
    p.set_defaults(func=_cmd_outliers)

    p = sub.add_parser("simulate", help="generate a corpus from a JSON spec")
    p.add_argument("--spec", required=True, help="corpus spec JSON file")
    p.add_argument("--out", required=True, help="output symbol-csv corpus")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plot", help="render a chart to SVG")
    plot_sub = p.add_subparsers(dest="kind", required=True)

    def plot_parser(kind, help_text, build):
        """``plot <kind>``; ``build(series, args)`` returns its chart data, looking functions up when called."""
        q = plot_sub.add_parser(kind, help=help_text)
        _input_args(q)
        q.add_argument("--index", type=int, default=1)
        q.add_argument("--title")
        q.add_argument("--out", required=True)
        q.add_argument("--table", help="also write the plotted data as CSV")
        q.add_argument("--bitexact", action="store_true")
        q.set_defaults(func=_cmd_plot, build=build, window=None)
        return q

    q = plot_parser("series", "step plot of the coded series", lambda s, a: _head(s, a.limit))
    q.add_argument("--limit", type=int, help="plot only the first N observations (N >= 1)")
    plot_parser("rate", "rate evolution graph", lambda s, a: graphics.rate_evolution(s))
    q = plot_parser("pattern", "cycle-length histogram of one category",
                    lambda s, a: graphics.cycle_lengths(s, a.category)[1])
    q.add_argument("--category", required=True)
    q = plot_parser("ifs", "IFS circle transformation scatter",
                    lambda s, a: graphics.ifs_circle_transform(s, a.alpha, a.beta, tuple(a.f0)))
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--f0", type=float, nargs=2, default=(0.0, 0.0))
    q.add_argument("--window", help="x0,x1,y0,y1 zoom window")
    q = plot_parser("dependence", "serial dependence plot with critical values",
                    lambda s, a: graphics.dependence_plot_data(s, a.family, a.max_lag, a.alpha))
    q.add_argument("--family", default="cramers_v", help=f"one of {', '.join(TEST_FAMILIES)}")
    q.add_argument("--max-lag", type=int, default=10)
    q.add_argument("--alpha", type=float, default=0.05)
    q = plot_parser("cycle-chart", "cycle-length control chart",
                    lambda s, a: graphics.cycle_length_chart(s, a.category, a.alpha, a.p))
    q.add_argument("--category", required=True)
    q.add_argument("--alpha", type=float, default=0.01)
    q.add_argument("--p", type=float, help="hypothesized in-control probability (default: estimated)")
    q = plot_parser("ewma-chart", "EWMA chart of the marginal distribution",
                    lambda s, a: graphics.ewma_marginal_chart(s, a.lam, _marginal(a.c), a.k, a.collapse))
    q.add_argument("--lambda", dest="lam", type=float, default=0.9)
    q.add_argument("--k", type=float, default=3.0)
    q.add_argument("--c", help="comma list: hypothesized in-control marginal (default: estimated)")
    q.add_argument("--collapse", action="store_true", help="plot only min/max statistics")
    q = plot_parser("envelope", "spectral envelope over frequency", lambda s, a: spectral_envelope(s, a.window_length))
    q.add_argument("--window-length", type=int, help="odd smoothing span (default about sqrt(T))")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
