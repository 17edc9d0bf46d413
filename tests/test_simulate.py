import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catseries import (
    Alphabet,
    CorpusSpec,
    HiddenMarkovModel,
    MarkovChainModel,
    NdarmaModel,
    cohens_kappa,
    corpus_spec_from_dict,
    cramers_v_test,
    generate_corpus,
    generate_hmm,
    generate_mc,
    generate_ndarma,
    lag_tables,
    marginal_probabilities,
)
from catseries.inference import chi2_quantile
from catseries.series import conditional_probabilities
from catseries.simulate import _LOCKSTEP_CHAINS, _STEPS, FAMILIES, _draw, _walks, generate_series

from oracles import hmm_sample, mc_sample, ndarma_sample, walk

UNIFORM3 = [1 / 3, 1 / 3, 1 / 3]
P3 = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]


def test_spec_validation():
    with pytest.raises(ValueError, match="rows must sum"):
        MarkovChainModel([[0.5, 0.4], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        MarkovChainModel([[1.2, -0.2], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="one row per hidden state"):
        HiddenMarkovModel([[1.0]], [[0.5, 0.5], [0.5, 0.5]], [1.0])
    with pytest.raises(ValueError, match="length p \\+ q \\+ 1"):
        NdarmaModel(1, 1, [0.5, 0.5], UNIFORM3)
    with pytest.raises(ValueError, match="length must be positive, got 0"):
        generate_mc(MarkovChainModel(P3, UNIFORM3), 0, 1)


def test_determinism_same_seed_same_series():
    model = MarkovChainModel(P3, UNIFORM3)
    a = generate_mc(model, 500, 42)
    b = generate_mc(model, 500, 42)
    c = generate_mc(model, 500, 43)
    assert (a.codes == b.codes).all()
    assert (a.codes != c.codes).any()


def test_codes_in_range():
    model = NdarmaModel(2, 1, [0.3, 0.2, 0.3, 0.2], [0.2, 0.3, 0.5])
    series = generate_ndarma(model, 400, 7)
    assert series.codes.min() >= 1 and series.codes.max() <= 3


def test_identity_transition_freezes_state():
    model = MarkovChainModel(np.eye(3), UNIFORM3)
    series = generate_mc(model, 100, 5)
    assert np.unique(series.codes).size == 1


def test_permutation_transition_is_periodic():
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    series = generate_mc(MarkovChainModel(cycle, UNIFORM3), 99, 11)
    assert (series.codes[3:] == series.codes[:-3]).all()
    assert np.unique(series.codes[:3]).size == 3


def test_mc_transition_calibration():
    model = MarkovChainModel(P3, UNIFORM3)
    series = generate_mc(model, 100_000, 13)
    cond = np.asarray(conditional_probabilities(lag_tables(series, 1)))
    assert np.abs(cond - np.asarray(P3).T).max() < 0.01


def test_hmm_identity_emission_reduces_to_mc():
    # identity emission makes observations reproduce the hidden chain
    hidden = HiddenMarkovModel(P3, np.eye(3), UNIFORM3)
    hmm_series = generate_hmm(hidden, 100_000, 17)
    cond_hmm = np.asarray(conditional_probabilities(lag_tables(hmm_series, 1)))
    assert np.abs(cond_hmm - np.asarray(P3).T).max() < 0.01


def test_hmm_single_state_gives_iid_with_emission_marginal():
    emission = np.array([[0.5, 0.3, 0.2]])
    model = HiddenMarkovModel([[1.0]], emission, [1.0])
    series = generate_hmm(model, 100_000, 23)
    counts = np.bincount(series.codes, minlength=4)[1:]
    expected = emission[0] * len(series)
    statistic = np.sum((counts - expected) ** 2 / expected)
    assert statistic < chi2_quantile(0.99, 2)


def test_hmm_uniform_emission_rows_look_iid():
    # hidden dynamics cannot show through uniform emissions
    model = HiddenMarkovModel(P3, np.full((3, 3), 1 / 3), UNIFORM3)
    below = 0
    runs = 500
    for i in range(runs):
        series = generate_hmm(model, 300, 1000 + i)
        report = cramers_v_test(series, 1, 0.05)
        below += report.estimates[0] <= report.upper_critical
    assert below / runs >= 0.94


def test_ndarma_pure_innovation_is_iid():
    model = NdarmaModel(0, 0, [1.0], [0.5, 0.3, 0.2])
    series = generate_ndarma(model, 100_000, 3)
    assert np.abs(marginal_probabilities(series) - [0.5, 0.3, 0.2]).max() < 0.01
    kappa = cohens_kappa(lag_tables(series, 1)).value
    assert abs(kappa) < 0.02


def test_ndarma_pure_copy_is_constant():
    model = NdarmaModel(1, 0, [1.0, 0.0], [0.2, 0.3, 0.5])
    series = generate_ndarma(model, 200, 9)
    assert np.unique(series.codes).size == 1


def test_ndarma_kappa_matches_mixing_weight():
    phi = 0.7
    model = NdarmaModel(1, 0, [phi, 1 - phi], [0.2, 0.3, 0.5])
    series = generate_ndarma(model, 100_000, 3)
    kappa = cohens_kappa(lag_tables(series, 1)).value
    assert kappa == pytest.approx(phi, abs=0.02)


def test_corpus_layout_and_determinism():
    mc = MarkovChainModel(P3, UNIFORM3)
    nd = NdarmaModel(1, 0, [0.6, 0.4], [0.2, 0.3, 0.5])
    spec = CorpusSpec(groups=((mc, 4), (nd, 2)), length=120, seed=77)
    corpus, labels = generate_corpus(spec)
    assert len(corpus) == 6
    assert labels == [1, 1, 1, 1, 2, 2]
    corpus2, _ = generate_corpus(spec)
    for a, b in zip(corpus, corpus2):
        assert (a.codes == b.codes).all()
    # counter-mode seeds: series i reproducible in isolation
    assert (corpus[2].codes == generate_mc(mc, 120, 77 + 2).codes).all()
    assert (corpus[4].codes == generate_ndarma(nd, 120, 77 + 4).codes).all()


EXAMPLE_MODELS = {
    "mc": MarkovChainModel(P3, UNIFORM3),
    "hmm": HiddenMarkovModel([[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]], [0.5, 0.5]),
    "ndarma": NdarmaModel(2, 1, [0.3, 0.2, 0.4, 0.1], UNIFORM3, burn_in=7),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_round_trips_through_its_dict(family):
    spec = CorpusSpec(((EXAMPLE_MODELS[family], 2),), length=30, seed=9)
    data = spec.to_dict()
    assert data["groups"][0]["family"] == family
    assert list(data["groups"][0])[2:] == list(FAMILIES[family][1])
    rebuilt = corpus_spec_from_dict(json.loads(json.dumps(data)))
    assert type(rebuilt.groups[0][0]) is FAMILIES[family][0]
    assert rebuilt.to_dict() == data


def test_corpus_spec_json_round_trip():
    mc = MarkovChainModel(P3, UNIFORM3)
    hmm = HiddenMarkovModel(P3, np.full((3, 3), 1 / 3), UNIFORM3)
    nd = NdarmaModel(1, 1, [0.5, 0.3, 0.2], [0.2, 0.3, 0.5], burn_in=100)
    spec = CorpusSpec(groups=((mc, 2), (hmm, 1), (nd, 1)), length=50, seed=5, alphabet=Alphabet(("x", "y", "z")))
    rebuilt = corpus_spec_from_dict(spec.to_dict())
    assert rebuilt.to_dict() == spec.to_dict()
    corpus_a, labels_a = generate_corpus(spec)
    corpus_b, labels_b = generate_corpus(rebuilt)
    assert labels_a == labels_b
    for a, b in zip(corpus_a, corpus_b):
        assert (a.codes == b.codes).all()
        assert a.alphabet.symbols == ("x", "y", "z")


def test_corpus_spec_errors():
    with pytest.raises(ValueError, match="missing required key"):
        corpus_spec_from_dict({"groups": [{"family": "mc", "transition": P3, "initial": UNIFORM3}]})
    with pytest.raises(ValueError, match="unknown model family"):
        corpus_spec_from_dict({"seed": 1, "length": 5, "groups": [{"family": "arma"}]})
    mc = MarkovChainModel(P3, UNIFORM3)
    nd2 = NdarmaModel(0, 0, [1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="same number of categories"):
        CorpusSpec(groups=((mc, 1), (nd2, 1)), length=10, seed=1)
    nd = {"family": "ndarma", "p": 0, "q": 0, "selection": [1.0], "innovation": [0.5, 0.5]}
    for data, message in [
        ({"seed": 1, "length": 5, "groups": "x"}, "corpus spec key 'groups' must be a list of objects, got 'x'"),
        ({"seed": 1, "length": 5, "groups": {"family": "mc"}}, "corpus spec key 'groups' must be a list"),
        ({"seed": 1, "length": 5, "groups": [None]}, "corpus spec group 1 must be an object, got None"),
        ({"seed": 1, "length": 5, "groups": [nd, "mc"]}, "corpus spec group 2 must be an object, got 'mc'"),
        ({"seed": -1, "length": 5, "groups": [nd]}, "corpus seed must be non-negative, got -1"),
        ({"seed": 1, "length": 0, "groups": [nd]}, "length must be positive, got 0"),
        ({"seed": 1, "length": 5, "groups": [nd, {**nd, "count": 0}]}, "group counts must be positive, got 0"),
        ([nd], "corpus spec must be an object"),
        ({"seed": 1, "length": 5, "alphabet": "ab", "groups": [nd]},
         "corpus spec key 'alphabet' must be a list of labels, got 'ab'"),
        ({"seed": 1, "length": 5, "groups": [nd, {**nd, "innovation": "x"}]},
         "corpus spec group 2 key 'innovation' must be a list of numbers, got 'x'"),
        ({"seed": 1, "length": 5, "groups": [{**nd, "selection": None}]},
         "corpus spec group 1 key 'selection' must be a list of numbers, got None"),
        ({"seed": 1, "length": 5, "groups": [{**nd, "innovation": [0.5, None]}]},
         "corpus spec group 1 key 'innovation' must be a list of numbers, got [0.5, None]"),
        ({"seed": 1, "length": 5, "groups": [nd, {"family": "mc", "transition": [[1.0], [0.5, 0.5]], "initial": [1]}]},
         "corpus spec group 2 key 'transition' must be a list of numbers"),
        ({"seed": 1, "length": 5, "groups": [nd, {**nd, "selection": [0.5, 0.6]}]},
         "corpus spec group 2: selection probabilities must be a probability vector"),
    ]:
        with pytest.raises(ValueError) as err:
            corpus_spec_from_dict(data)
        assert str(err.value).startswith(message), data


NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: MarkovChainModel([[NAN, 1.0], [0.5, 0.5]], [0.5, 0.5]), "transition matrix has non-finite entries"),
    (lambda: MarkovChainModel([[0.5, 0.5], [0.5, 0.5]], [NAN, 1.0]), "initial distribution has non-finite"),
    (lambda: HiddenMarkovModel([[1.0]], [[NAN, 1.0]], [1.0]), "emission matrix has non-finite entries"),
    (lambda: HiddenMarkovModel([[NAN]], [[0.5, 0.5]], [1.0]), "hidden transition matrix has non-finite"),
    (lambda: HiddenMarkovModel([[1.0]], [[0.5, 0.5]], [NAN]), "hidden initial distribution has non-finite"),
    (lambda: NdarmaModel(0, 0, [1.0], [NAN, 1.0]), "innovation marginal has non-finite entries"),
    (lambda: NdarmaModel(1, 0, [NAN, 1.0], [0.5, 0.5]), "selection probabilities has non-finite entries"),
    (lambda: NdarmaModel(1, 0, [float("inf"), 0.0], [0.5, 0.5]), "selection probabilities has non-finite"),
])
def test_non_finite_probabilities_are_rejected_by_law(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: MarkovChainModel([[0.5, 0.5], [0.5, 0.5]], [0.2, 0.3, 0.5]),
     "transition matrix must be square and match the initial distribution"),
    (lambda: HiddenMarkovModel([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], [1.0]),
     "hidden transition matrix must be square and match the initial distribution"),
    (lambda: NdarmaModel(-1, 0, [1.0], [0.5, 0.5]), "orders p and q must be non-negative"),
    (lambda: NdarmaModel(0, -1, [1.0], [0.5, 0.5]), "orders p and q must be non-negative"),
    (lambda: NdarmaModel(0, 0, [1.0], [0.5, 0.5], burn_in=-1), "burn-in must be non-negative"),
    (lambda: generate_mc(MarkovChainModel([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5]), 10, 1, Alphabet.of_size(3)),
     "alphabet size does not match the model's number of categories"),
    (lambda: CorpusSpec((), 10, 1), "corpus needs at least one group"),
    (lambda: generate_mc(MarkovChainModel(P3, UNIFORM3), 2.5, 1), "length must be an integer, got 2.5"),
    (lambda: generate_mc(MarkovChainModel(P3, UNIFORM3), True, 1), "length must be an integer, got True"),
    (lambda: generate_mc(MarkovChainModel(P3, UNIFORM3), "5", 1), "length must be an integer, got '5'"),
    (lambda: generate_mc(MarkovChainModel(P3, UNIFORM3), 5, 1.5), "seed must be an integer, got 1.5"),
    (lambda: generate_mc(MarkovChainModel(P3, UNIFORM3), 5, -1), "seed must be non-negative, got -1"),
    (lambda: CorpusSpec(((MarkovChainModel(P3, UNIFORM3), 2),), 10, 1.5), "corpus seed must be an integer, got 1.5"),
    (lambda: CorpusSpec(((MarkovChainModel(P3, UNIFORM3), 2),), 10, -2), "corpus seed must be non-negative, got -2"),
    (lambda: CorpusSpec(((MarkovChainModel(P3, UNIFORM3), 2),), True, 1), "length must be an integer, got True"),
    (lambda: CorpusSpec(((MarkovChainModel(P3, UNIFORM3), 1), (MarkovChainModel(P3, UNIFORM3), 2.5)), 10, 1),
     "group 2 count must be an integer, got 2.5"),
    (lambda: CorpusSpec(((MarkovChainModel(P3, UNIFORM3), False),), 10, 1), "group 1 count must be an integer, got False"),
    (lambda: NdarmaModel(1.5, 0, [0.5, 0.5], [0.5, 0.5]), "p must be an integer, got 1.5"),
    (lambda: NdarmaModel(1, True, [0.5, 0.5], [0.5, 0.5]), "q must be an integer, got True"),
    (lambda: NdarmaModel(1, 0, [0.5, 0.5], [0.5, 0.5], burn_in=2.5), "burn_in must be an integer, got 2.5"),
])
def test_model_and_corpus_shapes_are_rejected_by_name(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_models_and_specs_take_integral_floats_as_integers():
    model = NdarmaModel(1.0, np.int64(0), [0.5, 0.5], UNIFORM3, burn_in=np.float64(3.0))
    assert (model.p, model.q, model.burn_in) == (1, 0, 3) and type(model.burn_in) is int
    spec = CorpusSpec(((model, 2.0),), 12.0, np.int64(5))
    assert (spec.groups[0][1], spec.length, spec.seed) == (2, 12, 5)
    assert spec.to_dict() == CorpusSpec(((model, 2),), 12, 5).to_dict()
    corpus, labels = generate_corpus(spec)
    assert labels == [1, 1]
    assert np.array_equal(corpus[1].codes, generate_series(model, 12.0, 6.0).codes)


ND_GROUP = {"family": "ndarma", "p": 1, "q": 0, "selection": [0.6, 0.4], "innovation": [0.2, 0.3, 0.5]}


@pytest.mark.parametrize("top, group, message", [
    ({"length": 10.9}, {}, "corpus spec key 'length' must be an integer, got 10.9"),
    ({"seed": True}, {}, "corpus spec key 'seed' must be an integer, got True"),
    ({"seed": "7"}, {}, "corpus spec key 'seed' must be an integer, got '7'"),
    ({}, {"count": 2.5}, "corpus spec group 2 key 'count' must be an integer, got 2.5"),
    ({}, {"count": False}, "corpus spec group 2 key 'count' must be an integer, got False"),
    ({}, {"p": 1.7}, "corpus spec group 2 key 'p' must be an integer, got 1.7"),
    ({}, {"q": float("nan")}, "corpus spec group 2 key 'q' must be an integer, got nan"),
    ({}, {"burn_in": 100.5}, "corpus spec group 2 key 'burn_in' must be an integer, got 100.5"),
])
def test_corpus_spec_rejects_booleans_and_fractions_by_key_and_group(top, group, message):
    data = {"seed": 1, "length": 20, "groups": [{"family": "mc", "transition": P3, "initial": UNIFORM3},
                                                {**ND_GROUP, **group}], **top}
    with pytest.raises(ValueError) as err:
        corpus_spec_from_dict(data)
    assert str(err.value) == message


def test_corpus_spec_accepts_integral_floats():
    data = {"seed": 3.0, "length": 20.0, "groups": [{**ND_GROUP, "count": 2.0, "p": 1.0, "burn_in": 10.0}]}
    spec = corpus_spec_from_dict(data)
    assert (spec.seed, spec.length, spec.groups[0][1], spec.groups[0][0].burn_in) == (3, 20, 2, 10)


@st.composite
def corpus_specs(draw):
    """Valid corpus specs: 1..3 groups of any family over one r, with
    coefficients drawn from a seeded Dirichlet law."""
    r = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def law(size, rows=None):
        return rng.dirichlet(np.ones(size), size=rows)

    groups = []
    for _ in range(draw(st.integers(1, 3))):
        family = draw(st.sampled_from(["mc", "hmm", "ndarma"]))
        if family == "mc":
            model = MarkovChainModel(law(r, r), law(r))
        elif family == "hmm":
            h = draw(st.integers(1, 3))
            model = HiddenMarkovModel(law(h, h), law(r, h), law(h))
        else:
            p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            model = NdarmaModel(p, q, law(p + q + 1), law(r), draw(st.integers(0, 1000)))
        groups.append((model, draw(st.integers(1, 5))))
    alphabet = draw(st.none() | st.just(Alphabet(tuple("abcd"[:r]))))
    return CorpusSpec(tuple(groups), draw(st.integers(1, 10**6)), draw(st.integers(0, 2**63)), alphabet)


@given(corpus_specs())
@settings(max_examples=150, deadline=None)
def test_corpus_spec_round_trips_through_json(spec):
    data = spec.to_dict()
    assert corpus_spec_from_dict(data).to_dict() == data
    assert corpus_spec_from_dict(json.loads(json.dumps(data))).to_dict() == data


def test_marginal_calibration_within_bands():
    # long-run occupancy of the chain within 3/sqrt(T) of the stationary law
    model = MarkovChainModel(P3, UNIFORM3)
    series = generate_mc(model, 100_000, 19)
    P = np.asarray(P3)
    vals, vecs = np.linalg.eig(P.T)
    stationary = np.real(vecs[:, np.argmax(np.real(vals))])
    stationary /= stationary.sum()
    band = 3.0 / np.sqrt(len(series))
    assert np.abs(marginal_probabilities(series) - stationary).max() < 3 * band


def _law(rng, size, rows=None):
    """A random probability law whose entries are often near zero, so that
    long runs of one category or one NDARMA selection are common."""
    return rng.dirichlet(np.full(size, rng.uniform(0.05, 1.0)), size=rows)


def _same_draws(model, length, seed, oracle):
    ours, theirs = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    codes = model.sample(length, ours)
    assert np.array_equal(codes, oracle(model, length, theirs))
    assert codes.dtype == np.int64
    assert ours.bit_generator.state == theirs.bit_generator.state


@given(st.integers(2, 6), st.integers(0, 3), st.integers(0, 3), st.integers(0, 599), st.integers(1, 2999),
       st.integers(0, 2**63))
@settings(max_examples=200, deadline=None)
def test_ndarma_sample_matches_sequential_oracle(r, p, q, burn_in, length, seed):
    rng = np.random.default_rng(seed)
    model = NdarmaModel(p, q, _law(rng, p + q + 1), _law(rng, r), burn_in)
    _same_draws(model, length, seed, ndarma_sample)


@pytest.mark.parametrize("p, q, selection", [
    (1, 0, [1.0, 0.0]),  # one copy chain through the whole series, back to the presample
    (3, 0, [0.0, 0.0, 1.0, 0.0]),  # three interleaved chains, each 3 slots back
    (0, 3, [0.0, 0.0, 0.0, 1.0]),  # every value is the innovation drawn 3 steps earlier
    (2, 2, [0.0, 0.0, 0.0, 0.0, 1.0]),  # ... including presample innovations
])
def test_ndarma_degenerate_selections_match_sequential_oracle(p, q, selection):
    for burn_in in (0, 1, 5):
        _same_draws(NdarmaModel(p, q, selection, [0.2, 0.3, 0.5], burn_in), 50, 11 + burn_in, ndarma_sample)


@given(st.integers(1, 6), st.integers(1, 2999), st.integers(0, 2**63))
@settings(max_examples=100, deadline=None)
def test_mc_sample_matches_sequential_oracle(r, length, seed):
    rng = np.random.default_rng(seed)
    _same_draws(MarkovChainModel(_law(rng, r, r), _law(rng, r)), length, seed, mc_sample)


@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 2999), st.integers(0, 2**63))
@settings(max_examples=100, deadline=None)
def test_hmm_sample_matches_sequential_oracle(r, h, length, seed):
    rng = np.random.default_rng(seed)
    _same_draws(HiddenMarkovModel(_law(rng, h, h), _law(rng, r, h), _law(rng, h)), length, seed, hmm_sample)


# a point of [0, 1): anywhere, a step's start k / _STEPS or the float just below it
_UNIFORMS = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                      st.integers(0, _STEPS - 1).map(lambda k: k / _STEPS),
                      st.integers(0, _STEPS - 1).map(lambda k: float(np.nextafter(k / _STEPS, 0.0))))


@example(list(np.cumsum(np.full(19, 0.05))), True, [0.0, 0.05, 0.5, 0.95, 0.999] * 4)  # r = 20
@given(st.lists(st.tuples(st.one_of(_UNIFORMS, st.just(1.0)), st.integers(1, 3)), max_size=19)
       .map(lambda entries: sorted(x for x, repeat in entries for _ in range(repeat))[:19]),
       st.booleans(), st.lists(_UNIFORMS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_the_step_table_bins_as_bisect_right(inner, closed, uniforms):
    """_draw bins every uniform as np.searchsorted(cum, u, side="right") does:
    for rows of 1 to 20 entries, closed by 1.0 as a cumulative row or not as
    _walks' edges, with tied entries, entries at a step's start or just below
    it and 1.0 reached early, and for uniforms in a 1-D array, a 2-D array,
    its transpose and every other of its columns.  Each entry below 1.0 and
    its two neighbouring floats join the uniforms, so split steps are hit."""
    cum = np.array(inner + [1.0] * closed)
    us = np.array(uniforms + [x for c in inner for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)) if x < 1.0])
    grid = np.resize(us, (-(-us.size // 4), 4)) if us.size else us.reshape(0, 4)
    for layout in (us, grid, grid.T, grid[:, 1::2]):
        bins = _draw(cum, layout)
        assert bins.shape == layout.shape and bins.dtype.kind == "u"
        assert np.array_equal(bins, np.searchsorted(cum, layout, side="right"))


@given(st.integers(1, 6), st.lists(st.integers(1, 80), min_size=3, max_size=3), st.integers(1, 300),
       st.integers(0, 2**63))
@settings(max_examples=60, deadline=None)
def test_a_group_walked_together_equals_its_chains_walked_alone(r, counts, length, seed):
    """Either side of _LOCKSTEP_CHAINS, a corpus holds the series that
    generate_series makes from each series' own seed, and _walks walks each
    row of uniforms as the oracle's bisect walk does, also when a uniform
    equals an entry of a cumulative row below 1.  An alphabet has two
    categories or more, so r counts the states of the Markov and hidden
    chains."""
    assert 1 < _LOCKSTEP_CHAINS <= 80  # the counts drawn fall on both sides
    rng = np.random.default_rng(seed)
    k = max(r, 2)
    transition, initial = _law(rng, r, r), _law(rng, r)
    models = (MarkovChainModel(_law(rng, k, k), _law(rng, k)),
              HiddenMarkovModel(transition, _law(rng, k, r), initial),
              NdarmaModel(1, 1, _law(rng, 3), _law(rng, k), int(rng.integers(0, 50))))
    corpus, labels = generate_corpus(CorpusSpec(tuple(zip(models, counts)), length, seed))
    assert labels == [1] * counts[0] + [2] * counts[1] + [3] * counts[2]
    for i, (series, label) in enumerate(zip(corpus, labels)):
        assert np.array_equal(series.codes, generate_series(models[label - 1], length, seed + i).codes)

    us = rng.random((counts[1], length))
    ties = rng.random(us.shape) < 0.2
    inner = np.cumsum(transition, axis=1)[:, :-1]
    inner = inner[inner < 1.0]  # a row with a negligible last entry reaches 1.0 early; uniforms stay below
    us[ties] = rng.choice(inner, ties.sum()) if inner.size else 0.0
    walked = _walks(transition, initial, us)
    assert walked.shape == us.shape and walked.flags.c_contiguous
    for row, states in zip(us, walked):
        assert states.tolist() == walk(transition, initial, row.tolist())
