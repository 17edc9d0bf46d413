import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import traced_peak_mib

from catseries import (
    Alphabet,
    CategoricalSeries,
    cycle_length_chart,
    cycle_lengths,
    dependence_plot_data,
    ewma_marginal_chart,
    ifs_circle_transform,
    rate_evolution,
    render_svg,
    spectral_envelope,
)
from catseries import svg
from catseries.svg import plot_table


@pytest.fixture(scope="module")
def demo_series():
    rng = np.random.default_rng(20)
    codes = rng.integers(1, 4, 300)
    return CategoricalSeries(codes, Alphabet.of_size(3))


def all_chart_data(series):
    return {
        "series": series,
        "rate": rate_evolution(series),
        "pattern": cycle_lengths(series, 1)[1],
        "ifs": ifs_circle_transform(series, 0.17, 0.10),
        "dependence": dependence_plot_data(series, "kappa", 10, 0.05),
        "cycle_chart": cycle_length_chart(series, 1, 0.05),
        "ewma": ewma_marginal_chart(series, 0.9, None, 3.0),
        "envelope": spectral_envelope(series),
    }


def test_every_kind_renders_valid_svg(demo_series):
    for name, data in all_chart_data(demo_series).items():
        doc = render_svg(data)
        assert doc.startswith("<svg"), name
        assert doc.rstrip().endswith("</svg>"), name
        assert 'viewBox="0 0 800 500"' in doc, name


def test_rendering_is_byte_deterministic(demo_series):
    for name, data in all_chart_data(demo_series).items():
        assert render_svg(data) == render_svg(data), name


def test_pattern_histogram_bars(s1):
    _, hist = cycle_lengths(s1, 1)
    doc = render_svg(hist)
    # two distinct lengths -> two bars
    assert doc.count("<rect") == 2 + 2  # background + frame + 2 bars


def test_dependence_plot_has_one_stem_per_lag(demo_series):
    table = dependence_plot_data(demo_series, "cramers_v", 7, 0.05)
    doc = render_svg(table)
    assert doc.count('stroke-width="2"') == 7  # one stem line per lag
    assert doc.count('class="limit"') == 1  # one-sided critical line
    kappa_doc = render_svg(dependence_plot_data(demo_series, "kappa", 7, 0.05))
    assert kappa_doc.count('class="limit"') == 2


def test_series_plot_carries_nominal_caveat(demo_series):
    doc = render_svg(demo_series)
    assert "nominal" in doc


def test_ifs_window_filters_points():
    series = CategoricalSeries(np.ones(50, dtype=int), Alphabet.of_size(2))
    data = ifs_circle_transform(series, 0.17, 0.10)
    full = render_svg(data)
    zoom = render_svg(data, window=(0.117, 0.120, -0.025, 0.025))
    assert zoom != full
    inside = np.sum(
        (data.points[:, 0] >= 0.117)
        & (data.points[:, 0] <= 0.120)
        & (np.abs(data.points[:, 1]) <= 0.025)
    )
    assert zoom.count("<circle") == inside == 2  # x_k escapes past 0.120 from k = 4 on


def test_title_override(demo_series):
    doc = render_svg(demo_series, title="hello & <world>")
    assert "hello &amp; &lt;world&gt;" in doc


def test_empty_histogram_errors():
    for codes, occurrences in (([1, 2, 1, 2], 0), ([1, 3, 1, 2], 1)):
        series = CategoricalSeries(np.array(codes), Alphabet(("A", "B", "C")))
        _, hist = cycle_lengths(series, 3)
        with pytest.raises(ValueError) as err:
            render_svg(hist)
        assert str(err.value) == f"empty data: category 'C' closes no cycle: needs at least two occurrences, has {occurrences}"


def test_unknown_type_errors():
    with pytest.raises(ValueError, match="no renderer"):
        render_svg(object())


@pytest.mark.parametrize("window", [
    (1.0, 0.0, 0.0, 1.0),  # x0 > x1
    (0.0, 1.0, 0.5, 0.5),  # y0 == y1: empty
    (float("nan"), 1.0, 0.0, 1.0),
    (0.0, float("inf"), 0.0, 1.0),
    (0.0, 1.0, 0.0),
    ("x", 1.0, 0.0, 1.0),
    "0,1,0,1",
])
def test_ifs_window_must_bound_a_finite_window(window):
    series = CategoricalSeries(np.ones(50, dtype=int), Alphabet.of_size(2))
    data = ifs_circle_transform(series, 0.17, 0.10)
    with pytest.raises(ValueError, match="window must be four finite numbers with x0 < x1 and y0 < y1") as err:
        render_svg(data, window=window)
    assert repr(window) in str(err.value)


@pytest.mark.parametrize("window", [(-1e308, 1e308, 0.0, 1.0), (0.0, 1.0, -1e308, 1e308), (-1e308, 1e308) * 2])
def test_ifs_window_must_have_a_finite_width_and_height(window):
    """Bounds that are each finite but whose difference overflows would put
    every mark and tick at nan or inf."""
    series = CategoricalSeries(np.ones(50, dtype=int), Alphabet.of_size(2))
    data = ifs_circle_transform(series, 0.5, 0.5)
    with pytest.raises(ValueError, match="must have a finite width x1 - x0 and height y1 - y0") as err:
        render_svg(data, window=window)
    assert repr(window) in str(err.value)


def test_window_is_rejected_for_charts_other_than_the_ifs_scatter(demo_series):
    for name, data in all_chart_data(demo_series).items():
        if name == "ifs":
            continue
        with pytest.raises(ValueError, match=r"window \(0, 1, 0, 1\) applies only to the IFS scatter"):
            render_svg(data, window=(0, 1, 0, 1))


def test_plot_table_has_one_value_per_row_in_every_column(demo_series):
    for name, data in all_chart_data(demo_series).items():
        header, columns = plot_table(data)
        assert len(header) == len(columns), name
        assert len({len(column) for column in columns}) == 1, name
    header, columns = plot_table(demo_series)
    assert header == ["t", "code", "symbol"]
    assert columns[2] == demo_series.to_symbols()
    with pytest.raises(ValueError, match="no renderer for object"):
        plot_table(object())


def _per_point_svg(data, **kwargs):
    """The SVG as it was written with one format call per coordinate pair:
    marks extend the body by one element per point, none for no point."""
    def marks(frame, template, xs, ys):
        return oracles.svg_marks(template, frame.x(xs), frame.y(ys))

    with mock.patch.object(svg._Frame, "marks", marks), mock.patch("catseries.svg._fixed_text", oracles.fixed_text):
        return render_svg(data, **kwargs)


def test_mark_blocks_write_the_bytes_of_one_format_call_per_point():
    codes = np.r_[np.ones(60, np.int64), np.tile([1, 2, 3], 80)]  # a long run of category 1 only
    series = CategoricalSeries(codes, Alphabet.of_size(3))
    ewma = ewma_marginal_chart(series, 0.9, None, 3.0)
    quiet = ewma_marginal_chart(series, 0.9, None, 1000.0)
    ifs = ifs_circle_transform(series, 0.17, 0.10)
    assert ewma.alarms.any() and not ewma.alarms.all(axis=0).any() and not ewma.alarms.any(axis=0).all()
    assert not quiet.alarms.any()
    cases = [(ewma, {}), (quiet, {}), (ifs, {}), (ifs, {"window": (0.117, 0.120, -0.025, 0.025)}),
             (ifs, {"window": (10.0, 11.0, 10.0, 11.0)})]  # the last window keeps no point
    for data, kwargs in cases:
        text = render_svg(data, **kwargs)
        assert text == _per_point_svg(data, **kwargs)
        assert "\n\n" not in text
    assert "<circle" not in render_svg(ifs, window=(10.0, 11.0, 10.0, 11.0))


def test_a_chart_with_one_time_point_centres_it_on_a_unit_x_range():
    series = CategoricalSeries(np.array([1, 2, 2, 1, 2]), Alphabet.of_size(2))
    chart = cycle_length_chart(series, 1, 0.05, p=0.5)  # one cycle, closed at t = 4
    assert chart.times.tolist() == [4]
    frame = svg._Frame(4.0, 4.0, -1.3, 1.3)
    assert (frame.x0, frame.x1) == (3.5, 4.5)
    assert frame.x(4.0) == (frame.px0 + frame.px1) / 2
    text = render_svg(chart)
    assert f'<polyline points="{frame.x(4.0):.2f},' in text
    assert ">3.5</text>" in text and ">4.5</text>" in text


def test_a_zero_height_frame_centres_its_value_on_a_unit_y_range():
    frame = svg._Frame(0.0, 1.0, 2.0, 2.0)
    assert (frame.y0, frame.y1) == (1.5, 2.5)
    assert frame.y(2.0) == (frame.py0 + frame.py1) / 2
    assert frame.y(1.5) == frame.py0 and frame.y(2.5) == frame.py1


# -- Polylines drawn at their pixel columns (M4) ------------------------------


def _vertices(element):
    """The vertex texts of one ``<polyline>`` element, in order."""
    return re.fullmatch(r'<polyline points="([^"]*)" [^>]*/>', element).group(1).split(" ")


def _column_extremes(px, py):
    """Pixel column -> its first, last, first lowest and first highest point,
    over every point in the column whether or not its points are adjacent;
    the columns in the order in which the line first enters them."""
    columns = {}
    for point in zip(px.tolist(), py.tolist()):
        first, _, low, high = columns.get(math.floor(point[0]), (point,) * 4)
        columns[math.floor(point[0])] = (first, point, min(low, point, key=lambda p: p[1]),
                                         max(high, point, key=lambda p: p[1]))
    return list(columns.items())


@given(st.lists(st.tuples(st.integers(0, 2000), st.integers(-3, 3) | st.floats(-5.0, 5.0)), min_size=1, max_size=300),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_polyline_keeps_the_first_last_lowest_and_highest_point_of_every_pixel_column(points, ordered):
    # about three x steps per pixel column: repeated x, unsorted x and tied y occur
    points = sorted(points) if ordered else points
    xs = np.array([x for x, _ in points]) / 2000
    ys = np.array([y for _, y in points], dtype=float)
    frame = svg._Frame(0.0, 1.0, -5.0, 5.0)
    px, py = frame.x(xs), frame.y(ys)
    full = oracles.fixed_text("{},{}", (px, py), " ").split(" ")
    assert _vertices(frame.polyline(xs, ys, "#000")) == [full[i] for i in oracles.pixel_columns(px, py)]
    assert _column_extremes(*svg._pixel_columns(px, py)) == _column_extremes(px, py)


@given(st.lists(st.integers(0, 715), min_size=1, max_size=716, unique=True), st.data())
@settings(max_examples=100, deadline=None)
def test_a_polyline_with_at_most_one_point_per_pixel_column_keeps_its_bytes(columns, data):
    offsets = data.draw(st.lists(st.floats(0.01, 0.98), min_size=len(columns), max_size=len(columns)))
    ys = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(columns), max_size=len(columns)))
    xs = np.array(columns) + np.array(offsets)  # one unit of x is one pixel
    frame = svg._Frame(0.0, 716.0, -1.0, 1.0)
    with mock.patch.object(svg, "_pixel_columns", lambda px, py: (px, py)):
        every_point = frame.polyline(xs, ys, "#000")
    assert frame.polyline(xs, ys, "#000") == every_point


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("axis", [0, 1])
def test_a_polyline_with_a_non_finite_coordinate_keeps_every_point(bad, axis):
    xs, ys = np.arange(3000.0), np.sin(np.arange(3000.0))
    frame = svg._Frame(0.0, 3000.0, -1.0, 1.0)
    assert len(_vertices(frame.polyline(xs, ys, "#000"))) <= 4 * 717
    (xs, ys)[axis][1234] = bad
    px, py = frame.x(xs), frame.y(ys)
    assert _vertices(frame.polyline(xs, ys, "#000")) == oracles.fixed_text("{},{}", (px, py), " ").split(" ")


def test_long_charts_draw_at_most_four_points_per_pixel_column():
    # the plot spans pixels 64..780, so its vertices fall in 717 pixel columns
    rng = np.random.default_rng(23)
    series = CategoricalSeries(rng.integers(1, 4, 50_000), Alphabet.of_size(3))
    for data in (rate_evolution(series), ewma_marginal_chart(series, 0.9, None, 3.0)):
        lines = re.findall(r"<polyline [^>]*/>", render_svg(data))
        assert len(lines) == 3
        assert all(len(_vertices(line)) <= 4 * 717 for line in lines)


def test_the_ifs_scatter_of_a_long_series_holds_at_most_6_5_mib():
    """T = 50,000 circles: their coordinate text is made ``_BLOCK_CELLS`` cells at a time and the
    blocks' bytes are joined once, so no 50,000-row template matrix and mask is held.  The peak
    is 6.0 MiB, about three copies of the 2 MB document; the whole-array text held 10.9 MiB."""
    series = CategoricalSeries(np.random.default_rng(30).integers(1, 5, 50_000), Alphabet.of_size(4))
    data = ifs_circle_transform(series, 0.5, 0.5)
    render_svg(data)
    _, peak = traced_peak_mib(lambda: render_svg(data))
    assert peak <= 6.5, peak
