import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catseries import (
    Alphabet,
    CategoricalSeries,
    DistanceMatrix,
    FeatureVector,
    MarkovChainModel,
    boxplot_outlier_count,
    db_features,
    dcc_features,
    distance_matrix,
    generate_mc,
    outlier_scores,
    two_dimensional_scaling,
)

import oracles
from conftest import random_series


def test_dcc_schema_length():
    rng = np.random.default_rng(0)
    series = random_series(rng, r=3, T=60, require_all=True)
    for L in (1, 2, 4):
        fv = dcc_features(series, L)
        assert len(fv.schema) == L * (9 + 3) + 3
        assert fv.values.size == len(fv.schema)
    assert len(db_features(series, 1).schema) == 9 + 3


def test_feature_schemas_name_components():
    series = CategoricalSeries.from_symbols(list("acggtacgta"), Alphabet(("a", "c", "g", "t")))
    fv = db_features(series, 1)
    assert fv.schema[0] == "psi.l1.a_a"
    assert fv.schema[-1] == "p.t"
    assert len(fv.schema) == 16 + 4


def test_identical_series_zero_distance():
    rng = np.random.default_rng(1)
    series = random_series(rng, r=3, T=80, require_all=True)
    for metric in ("dcc", "db"):
        dm = distance_matrix([series, series, series], metric)
        assert dm.values.max() == 0.0


def test_degenerate_marginals_error():
    missing = CategoricalSeries(np.array([1, 2, 1, 2]), Alphabet.of_size(3))
    with pytest.raises(ValueError, match="degenerate marginals"):
        dcc_features(missing, 1)
    with pytest.raises(ValueError, match="degenerate marginals"):
        db_features(missing, 1)


def test_alphabet_mismatch_names_series():
    rng = np.random.default_rng(2)
    a = random_series(rng, r=3, T=50, require_all=True)
    b = random_series(rng, r=3, T=50, require_all=True)
    odd = CategoricalSeries(b.codes, Alphabet(("x", "y", "z")))
    with pytest.raises(ValueError, match=r"series \(index 2\) does not share"):
        distance_matrix([a, odd, b], "db")
    with pytest.raises(ValueError, match=r"series 'odd' \(index 2\) does not share"):
        distance_matrix([a, odd, b], "db", ids=["a", "odd", "b"])


@pytest.mark.parametrize("max_lag", [0, -1, 1.5, True])
def test_distance_matrix_rejects_a_non_positive_max_lag(max_lag):
    rng = np.random.default_rng(6)
    corpus = [random_series(rng, r=3, T=50, require_all=True) for _ in range(3)]
    with pytest.raises(ValueError, match=f"max_lag must be a positive integer, got {max_lag!r}"):
        distance_matrix(corpus, "db", max_lag)


def test_distance_matrix_rejects_ids_of_the_wrong_length():
    rng = np.random.default_rng(7)
    corpus = [random_series(rng, r=3, T=50, require_all=True) for _ in range(3)]
    with pytest.raises(ValueError, match="1 ids given for 3 series"):
        distance_matrix(corpus, "db", ids=["x"])
    with pytest.raises(ValueError, match="4 ids given for 3 series"):
        distance_matrix(corpus, "dcc", ids=list("abcd"))


@pytest.mark.parametrize("metric", ["db", "dcc"])
def test_distance_matrix_rejects_a_repeated_id_before_counting_a_lag_table(metric, monkeypatch):
    import catseries.mining

    rng = np.random.default_rng(8)
    corpus = [random_series(rng, r=3, T=50, require_all=True) for _ in range(4)]
    counted = []
    tables = catseries.mining.corpus_lag_tables
    monkeypatch.setattr(catseries.mining, "corpus_lag_tables", lambda *args: counted.append(args) or tables(*args))
    with pytest.raises(ValueError) as err:
        distance_matrix(corpus, metric, ids=["a", "b", "c", "b"])
    assert str(err.value) == "distance matrix id 'b' is repeated at positions 2 and 4"
    assert counted == []
    with pytest.raises(ValueError) as err:
        DistanceMatrix(np.zeros((4, 4)), metric, 1, ["a", "b", "c", "b"])
    assert str(err.value) == "distance matrix id 'b' is repeated at positions 2 and 4"
    assert distance_matrix(corpus, metric, ids=list("abcd")).ids == tuple("abcd") and counted


_SERIES = CategoricalSeries(np.tile([1, 2, 3], 5), Alphabet.of_size(3))


@pytest.mark.parametrize("build, message", [
    (lambda: distance_matrix([_SERIES, _SERIES], "nope"), "unknown metric 'nope'; expected one of ['dcc', 'db']"),
    (lambda: distance_matrix([]), "empty corpus"),  # raised by the lag tables, re-raised by run_corpus
    (lambda: FeatureVector(np.zeros(3), ("a",)), "schema length must match the number of features"),
])
def test_bad_mining_input_is_named(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_distances_match_double_sum_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        r = int(rng.integers(2, 5))
        T = int(rng.integers(20, 61))
        a = random_series(rng, r=r, T=T, require_all=True)
        b = random_series(rng, r=r, T=T, require_all=True)
        L = int(rng.integers(1, 4))
        dm_dcc = distance_matrix([a, b], "dcc", L)
        dm_db = distance_matrix([a, b], "db", L)
        ca, cb = a.codes.tolist(), b.codes.tolist()
        assert dm_dcc.values[0, 1] == pytest.approx(oracles.dcc_distance(ca, cb, r, L), abs=1e-12)
        assert dm_db.values[0, 1] == pytest.approx(oracles.db_distance(ca, cb, r, L), abs=1e-12)


def test_distance_matrix_contract():
    rng = np.random.default_rng(4)
    corpus = [random_series(rng, r=3, T=60, require_all=True) for _ in range(6)]
    dm = distance_matrix(corpus, "db")
    assert (dm.values == dm.values.T).all()
    assert (np.diag(dm.values) == 0).all()
    assert (dm.values >= 0).all()
    single = distance_matrix(corpus[:2], "db")
    assert single.values[0, 1] == dm.values[0, 1] or True  # different pairs; just check shape
    assert single.values.shape == (2, 2)
    assert dm.ids == tuple(f"series_{i}" for i in range(1, 7))


_VALID = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])


def _with(cells):
    values = _VALID.copy()
    for (i, j), x in cells.items():
        values[i, j] = x
    return values


@pytest.mark.parametrize("values, metric, max_lag, ids, message", [
    (np.zeros((3, 2)), "db", 1, None, "distance matrix must be square, got shape (3, 2)"),
    (np.zeros(3), "db", 1, None, "distance matrix must be square, got shape (3,)"),
    (np.zeros((2, 2)), "db", 1, ("a",), "distance matrix has 1 ids for 2 rows"),
    (np.zeros((600, 600)), "db", 1, tuple(map(str, range(601))), "distance matrix has 601 ids for 600 rows"),
    (_VALID, "nope", 1, None, "unknown metric 'nope'; expected one of ['dcc', 'db', 'euclidean-on-features']"),
    (_VALID, "db", -1, None, "max_lag must be a non-negative integer, got -1"),
    (_VALID, "db", True, None, "max_lag must be a non-negative integer, got True"),
    (_with({(0, 1): np.nan, (1, 0): np.nan}), "db", 1, None, "distances must be finite and non-negative"),
    (_with({(0, 1): np.inf, (1, 0): np.inf}), "db", 1, None, "distances must be finite and non-negative"),
    (_with({(0, 1): -0.5, (1, 0): -0.5}), "db", 1, None, "distances must be finite and non-negative"),
    (_with({(1, 2): np.nextafter(3.0, 4.0)}), "db", 1, None, "distance matrix must be symmetric with a zero diagonal"),
    (_with({(2, 2): 0.5}), "db", 1, None, "distance matrix must be symmetric with a zero diagonal"),
    (np.zeros((2, 2)), "db", 1, ("x", "x"), "distance matrix id 'x' is repeated at positions 1 and 2"),
    (np.zeros((4, 4)), "db", 1, ("a", "b", "c", "b"), "distance matrix id 'b' is repeated at positions 2 and 4"),
    (_with({(0, 1): np.nan, (1, 0): np.nan}), "db", 1, ("a", "a", "b"),
     "distance matrix id 'a' is repeated at positions 1 and 2"),
    # finite distances that a consumer's arithmetic overflows: the matrix holds them, each consumer names its own
    (_VALID * 1e155, "db", 1, None, {
        two_dimensional_scaling: "distances too large for 2-D scaling: the double-centred matrix overflows; "
                                 "the largest distance is 3e+155 between 'series_2' and 'series_3'",
        outlier_scores: None}),
    (_VALID * 5e307, "db", 1, None, {
        two_dimensional_scaling: "distances too large for 2-D scaling: the double-centred matrix overflows; "
                                 "the largest distance is 1.5e+308 between 'series_2' and 'series_3'",
        outlier_scores: "the distance sum of 'series_2' overflows"}),
])
def test_a_distance_matrix_checks_itself_and_so_do_its_consumers(values, metric, max_lag, ids, message):
    """The constructor raises the message; scaling and outlier scoring,
    given the bare array of a bad-values case, raise it too (NaN reached
    the eigensolver and raised LinAlgError before).  A message per
    consumer is for values the constructor accepts, None for a consumer
    that reads them; no consumer warns (overflows warned, then scaling
    said only that eigenvalues did not converge)."""
    if isinstance(message, str):
        with pytest.raises(ValueError) as err:
            DistanceMatrix(values, metric, max_lag, ids)
        assert str(err.value) == message
        message = dict.fromkeys((two_dimensional_scaling, outlier_scores), message)
    else:
        DistanceMatrix(values, metric, max_lag, ids)
    if values is not _VALID and ids is None:  # the cases of bad values, which a bare array can hold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for consume, text in message.items():
                if text is None:
                    consume(values)
                    continue
                with pytest.raises(ValueError) as err:
                    consume(values)
                assert str(err.value) == text


def test_a_distance_matrix_stores_float64_values_and_a_tuple_of_ids():
    dm = DistanceMatrix([[0, 1], [1, 0]], "euclidean-on-features", 0, ["a", "b"])
    assert dm.values.dtype == np.float64 and dm.ids == ("a", "b")
    assert DistanceMatrix(_VALID, "dcc", np.int64(2)).ids == ("series_1", "series_2", "series_3")


def test_distance_values_are_a_read_only_copy_of_the_callers_array():
    """Writing into a matrix's values raises, so no NaN reaches the scores
    unchecked; the caller's own array stays writeable and apart."""
    values = _VALID.copy()
    dm = DistanceMatrix(values, "db", 1)
    with pytest.raises(ValueError, match="read-only"):
        dm.values[0, 1] = np.nan
    values[0, 1] = values[1, 0] = 7.0
    assert dm.values[0, 1] == 1.0
    assert outlier_scores(dm)[0].tolist() == [3.0, 4.0, 5.0]


def test_distance_values_are_copied_from_every_caller_array():
    """A caller's array is copied, a read-only one that owns its data too,
    so the caller can neither see nor make a change to the checked matrix;
    the caller's writeable array stays writeable and unchanged."""
    values = _VALID.copy()
    view = values.view()
    view.flags.writeable = False
    owned = _VALID.copy()
    owned.flags.writeable = False
    for given in (values, view, owned):
        dm = DistanceMatrix(given, "db", 1)
        assert not np.shares_memory(dm.values, given) and not dm.values.flags.writeable
    assert values.flags.writeable and np.array_equal(values, _VALID)


def test_db_relaxed_triangle_inequality():
    rng = np.random.default_rng(5)
    corpus = [random_series(rng, r=3, T=60, require_all=True) for _ in range(3)]
    d = distance_matrix(corpus, "db").values
    for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert d[x, z] <= 2 * (d[x, y] + d[y, z]) + 1e-12


def test_mds_recovers_3_4_5_triangle():
    D = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
    emb = two_dimensional_scaling(D)
    rec = np.sqrt(((emb.coordinates[:, None, :] - emb.coordinates[None, :, :]) ** 2).sum(-1))
    assert np.allclose(rec, D, atol=1e-8)
    assert emb.clamped_mass == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(emb.coordinates.mean(axis=0), 0.0, atol=1e-9)


def test_mds_exact_for_planar_points():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(8, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    emb = two_dimensional_scaling(D)
    rec = np.sqrt(((emb.coordinates[:, None, :] - emb.coordinates[None, :, :]) ** 2).sum(-1))
    assert np.allclose(rec, D, atol=1e-9)


def test_mds_duplicate_points_coincide():
    D = np.array(
        [
            [0.0, 0.0, 2.0, 2.0],
            [0.0, 0.0, 2.0, 2.0],
            [2.0, 2.0, 0.0, 1.0],
            [2.0, 2.0, 1.0, 0.0],
        ]
    )
    emb = two_dimensional_scaling(D)
    assert np.allclose(emb.coordinates[0], emb.coordinates[1], atol=1e-10)


def test_mds_permutation_invariance_up_to_sign():
    rng = np.random.default_rng(7)
    corpus = [random_series(rng, r=3, T=80, require_all=True) for _ in range(7)]
    dm = distance_matrix(corpus, "db").values
    perm = rng.permutation(7)
    base = two_dimensional_scaling(dm).coordinates
    permuted = two_dimensional_scaling(dm[np.ix_(perm, perm)]).coordinates
    undone = np.empty_like(permuted)
    undone[perm] = permuted
    for col in range(2):
        same = np.allclose(undone[:, col], base[:, col], atol=1e-8)
        flipped = np.allclose(undone[:, col], -base[:, col], atol=1e-8)
        assert same or flipped


def test_mds_eigenvalues_and_errors():
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="three"):
        two_dimensional_scaling(D)


def _points_distances(points):
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


@st.composite
def point_distance_matrices(draw):
    """Euclidean distances of 3 to 40 normal points in 1 to 4 dimensions at
    a scale from 1e-5 to 1e5, half the time rounded to a grid so that points
    and eigenvalues tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-5, 1e5))
    points = rng.normal(size=(draw(st.integers(3, 40)), draw(st.integers(1, 4)))) * scale
    return _points_distances(np.round(points / scale) * scale if draw(st.booleans()) else points)


@example(np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]]))  # n = 3
@example(np.ones((5, 5)) - np.eye(5))  # a simplex: four tied eigenvalues
@example(_points_distances(np.repeat(np.eye(3), 3, axis=0)))  # tied points and tied eigenvalues
@example(np.zeros((4, 4)))  # every eigenvalue zero
@given(point_distance_matrices())
@settings(max_examples=200, deadline=None)
def test_scaling_in_one_array_has_the_bits_of_the_whole_matrix_formula(d):
    """Centring in place and making only eigh's lower triangle symmetric, a
    block of rows at a time, gives the coordinates, eigenvalues and clamped
    mass of the whole-matrix formula bit for bit, with tied points and tied
    eigenvalues too."""
    emb = two_dimensional_scaling(d)
    coords, eigvals, clamped = oracles.two_dimensional_scaling(d)
    assert emb.coordinates.view(np.uint64).tolist() == coords.view(np.uint64).tolist()
    assert emb.eigenvalues.view(np.uint64).tolist() == eigvals.view(np.uint64).tolist()
    assert emb.clamped_mass == clamped


def test_outlier_scores_collinear():
    pts = np.array([[0.0], [1.0], [10.0]])
    scores, order = outlier_scores(np.abs(pts - pts.T))
    assert scores.tolist() == [11.0, 10.0, 19.0]
    assert order.tolist() == [2, 0, 1]


def test_outlier_ranking_ties_stable():
    dm = np.ones((4, 4)) - np.eye(4)
    scores, order = outlier_scores(dm)
    assert (scores == 3.0).all()
    assert order.tolist() == [0, 1, 2, 3]


def test_boxplot_rule():
    out = boxplot_outlier_count([1.0, 1.0, 1.0, 1.0, 10.0], 1.5)
    assert out.count == 1 and out.indices == (4,)
    assert boxplot_outlier_count([2.0, 2.0, 2.0, 2.0], 1.0).count == 0
    with pytest.raises(ValueError, match="^need at least four scores for the boxplot rule, got 3$"):
        boxplot_outlier_count([1.0, 2.0, 3.0], 1.0)
    with pytest.raises(ValueError, match="scores must be finite, got nan at index 2"):
        boxplot_outlier_count([1.0, 2.0, float("nan"), 4.0, 100.0])
    for factor in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"range factor must be non-negative and finite, got {factor}"):
            boxplot_outlier_count([1.0, 2.0, 3.0, 4.0], factor)


def test_boxplot_factor_monotonicity():
    rng = np.random.default_rng(8)
    scores = rng.exponential(size=40)
    counts = [boxplot_outlier_count(scores, f).count for f in (0.5, 1.0, 1.5, 3.0)]
    assert counts == sorted(counts, reverse=True)


def test_single_anomaly_ranked_first():
    mc = MarkovChainModel([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]], [1 / 3, 1 / 3, 1 / 3])
    from catseries import NdarmaModel, generate_ndarma

    nd = NdarmaModel(1, 0, [0.6, 0.4], [0.2, 0.3, 0.5])
    hits = 0
    runs = 20
    for run in range(runs):
        corpus = [generate_mc(mc, 600, 3_000 + run * 50 + i) for i in range(20)]
        corpus.append(generate_ndarma(nd, 600, 8_000 + run))
        _, order = outlier_scores(distance_matrix(corpus, "db", 1))
        hits += order[0] == 20
    assert hits >= int(0.95 * runs)


def test_cluster_recovery_within_vs_between():
    transitions = [
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        [[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]],
        [[0.34, 0.33, 0.33], [0.33, 0.34, 0.33], [0.33, 0.33, 0.34]],
        [[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]],
    ]
    models = [MarkovChainModel(t, [1 / 3, 1 / 3, 1 / 3]) for t in transitions]
    successes = 0
    runs = 20
    for run in range(runs):
        corpus, labels = [], []
        for g, model in enumerate(models):
            for i in range(10):
                corpus.append(generate_mc(model, 600, 10_000 * run + 100 * g + i))
                labels.append(g)
        d = distance_matrix(corpus, "db").values
        labels = np.asarray(labels)
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(len(labels), dtype=bool)
        within = d[same & off_diag].mean()
        between = d[~same].mean()
        successes += within < between
    assert successes >= int(0.95 * runs)
