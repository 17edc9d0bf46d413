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
from .dispersion import chebycheff_dispersion, entropy, gini_index
from .inference import TEST_FAMILIES, holm_adjust
from .series import Alphabet, CategoricalSeries, corpus_lag_tables
from .simulate import corpus_spec_from_dict, generate_corpus
from .spectral import spectral_envelope

_DISPERSION = {"gini": gini_index, "entropy": entropy, "chebycheff": chebycheff_dispersion}


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
    lags = sorted({int(part) for part in text.split(",")})
    if any(l < 1 for l in lags):
        raise ValueError("lags must be positive")
    return lags


def _feature_columns(corpus, measures, lags, expand: bool) -> tuple[list[str], np.ndarray]:
    """Schema and (n, k) feature matrix of a corpus sharing one alphabet,
    one block of columns per measure and lag."""
    symbols = corpus[0].alphabet.symbols
    cells = {f"i={i},j={j}": f"{a}_{b}" for i, a in enumerate(symbols, 1) for j, b in enumerate(symbols, 1)}
    labels = {**cells, **{f"j={j}": b for j, b in enumerate(symbols, 1)}}
    needs_tables = any(name in MEASURE_FUNCTIONS for name in measures)
    tables = [corpus_lag_tables(corpus, lag) for lag in lags] if needs_tables else [corpus_lag_tables(corpus, 0)]
    p = tables[0].marginals
    schema: list[str] = []
    blocks = []
    for name in measures:
        if name in _DISPERSION:
            blocks.append(_DISPERSION[name](p)[:, None])
            schema.append(name)
        elif name == "marginals":
            blocks.append(p)
            schema.extend(f"p.{s}" for s in symbols)
        else:
            for lag, table in zip(lags, tables):
                result = MEASURE_FUNCTIONS[name](table)
                if expand and result.components is not None:
                    blocks.append(result.components)
                    schema.extend(f"{name}.l{lag}.{labels[lab]}" for lab in result.component_labels)
                else:
                    blocks.append(result.value[:, None])
                    schema.append(f"{name}.l{lag}")
    return schema, np.concatenate(blocks, axis=1)


def _cmd_features(args) -> int:
    corpus = _load_corpus(args)
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    if not measures:
        raise ValueError("no measures selected")
    known = [*_DISPERSION, "marginals", *MEASURE_FUNCTIONS]
    for name in measures:
        if name not in known:
            raise ValueError(f"unknown measure {name!r}; expected one of {sorted(known)}")
    lags = _parse_lags(args.lags)
    try:
        schema, matrix = _feature_columns(corpus.series, measures, lags, args.expand)
    except ValueError:
        mining.raise_first_failure(corpus.series, corpus.ids,
                                   lambda series: _feature_columns([series], measures, lags, args.expand))
        raise
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


def _plot_table_columns(data) -> tuple[list[str], list]:
    """Header and columns of a plot table: numeric arrays, or lists of text
    such as symbols."""
    if isinstance(data, CategoricalSeries):
        symbols = np.array(data.alphabet.symbols, dtype=object)
        return ["t", "code", "symbol"], [np.arange(1, len(data) + 1), data.codes, symbols[data.codes - 1].tolist()]
    if isinstance(data, graphics.RateEvolution):
        header = ["t", *[f"count_{s}" for s in data.labels]]
        return header, [np.arange(1, data.counts.shape[0] + 1), *data.counts.T]
    if isinstance(data, graphics.PatternHistogram):
        return ["length", "count"], [np.array(list(data.counts)), np.array(list(data.counts.values()))]
    if isinstance(data, graphics.FractalSeries):
        return ["t", "x", "y"], [np.arange(1, data.points.shape[0] + 1), *data.points.T]
    if isinstance(data, graphics.DependenceTable):
        header = ["lag", "estimate", "lower_critical", "upper_critical"]
        n = data.lags.size
        lower = [""] * n if data.lower is None else np.full(n, data.lower)
        return header, [data.lags.astype(np.int64), data.estimates, lower, np.full(n, data.upper)]
    if isinstance(data, graphics.ControlChart):
        stats = data.statistics if data.statistics.ndim == 2 else data.statistics[:, None]
        header = ["t", *[f"T_{lab}" for lab in data.labels]]
        return header, [data.times.astype(np.int64), *stats.T]
    # spectral envelope
    header = ["frequency", "envelope", *[f"gamma_{i + 1}" for i in range(data.scalings.shape[1])]]
    return header, [data.frequencies, data.envelope, *data.scalings.T]


def _cmd_plot(args) -> int:
    corpus = _load_corpus(args)
    series = _pick_series(corpus, args.index)
    window = None
    if args.kind == "series":
        data = series if args.limit is None else CategoricalSeries(series.codes[: args.limit], series.alphabet)
    elif args.kind == "rate":
        data = graphics.rate_evolution(series)
    elif args.kind == "pattern":
        _, data = graphics.cycle_lengths(series, args.category)
    elif args.kind == "ifs":
        data = graphics.ifs_circle_transform(series, args.alpha, args.beta, tuple(args.f0))
        if args.window:
            window = tuple(float(v) for v in args.window.split(","))
            if len(window) != 4:
                raise ValueError("--window expects x0,x1,y0,y1")
    elif args.kind == "dependence":
        data = graphics.dependence_plot_data(series, args.family, args.max_lag, args.alpha)
    elif args.kind == "cycle-chart":
        data = graphics.cycle_length_chart(series, args.category, args.alpha, args.p)
    elif args.kind == "ewma-chart":
        c = np.asarray([float(v) for v in args.c.split(",")]) if args.c else None
        data = graphics.ewma_marginal_chart(series, args.lam, c, args.k, args.collapse)
    elif args.kind == "envelope":
        data = spectral_envelope(series, args.window_length)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown plot kind {args.kind!r}")
    document = svg.render_svg(data, title=args.title, window=window)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(document)
    if args.table:
        io.write_table_csv(args.table, *_plot_table_columns(data), args.bitexact)
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
                   help="comma list: gini, entropy, chebycheff, marginals, gk_tau, gk_lambda, "
                        "uncertainty, pearson, phi2, sakoda, cramers_v, cohens_kappa, total_correlation")
    p.add_argument("--lags", "--lag", default="1", help="comma list of positive lags (default 1)")
    p.add_argument("--expand", action="store_true", help="emit per-component columns where defined")
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("test", help="serial-independence tests as JSON")
    _input_args(p)
    p.add_argument("--index", type=int, default=1, help="1-based series index in the corpus")
    p.add_argument("--family", default="cramers_v", help="cramers_v or kappa")
    p.add_argument("--max-lag", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--holm", action="store_true", help="also report Holm-adjusted p-values")
    p.add_argument("--out", required=True)
    p.add_argument("--bitexact", action="store_true")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("dist", help="pairwise dissimilarity matrix as CSV")
    _input_args(p)
    p.add_argument("--metric", choices=("dcc", "db"), default="db")
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

    def plot_parser(kind, **extra_help):
        q = plot_sub.add_parser(kind, **extra_help)
        _input_args(q)
        q.add_argument("--index", type=int, default=1)
        q.add_argument("--title")
        q.add_argument("--out", required=True)
        q.add_argument("--table", help="also write the plotted data as CSV")
        q.add_argument("--bitexact", action="store_true")
        q.set_defaults(func=_cmd_plot, kind=kind)
        return q

    q = plot_parser("series", help="step plot of the coded series")
    q.add_argument("--limit", type=int, help="plot only the first N observations")
    plot_parser("rate", help="rate evolution graph")
    q = plot_parser("pattern", help="cycle-length histogram of one category")
    q.add_argument("--category", required=True)
    q = plot_parser("ifs", help="IFS circle transformation scatter")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--f0", type=float, nargs=2, default=(0.0, 0.0))
    q.add_argument("--window", help="x0,x1,y0,y1 zoom window")
    q = plot_parser("dependence", help="serial dependence plot with critical values")
    q.add_argument("--family", default="cramers_v")
    q.add_argument("--max-lag", type=int, default=10)
    q.add_argument("--alpha", type=float, default=0.05)
    q = plot_parser("cycle-chart", help="cycle-length control chart")
    q.add_argument("--category", required=True)
    q.add_argument("--alpha", type=float, default=0.01)
    q.add_argument("--p", type=float, help="hypothesized in-control probability (default: estimated)")
    q = plot_parser("ewma-chart", help="EWMA chart of the marginal distribution")
    q.add_argument("--lambda", dest="lam", type=float, default=0.9)
    q.add_argument("--k", type=float, default=3.0)
    q.add_argument("--c", help="comma list: hypothesized in-control marginal (default: estimated)")
    q.add_argument("--collapse", action="store_true", help="plot only min/max statistics")
    q = plot_parser("envelope", help="spectral envelope over frequency")
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
