import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from catseries import Alphabet, CategoricalSeries


@pytest.fixture
def s1():
    """Shared 5-point fixture over two categories."""
    return CategoricalSeries(np.array([1, 2, 1, 1, 2]), Alphabet.of_size(2))


@pytest.fixture
def periodic3():
    """Exact period-3 series: 1,2,3 repeated 200 times."""
    return CategoricalSeries(np.tile([1, 2, 3], 200), Alphabet.of_size(3))


def random_series(rng, r=None, T=None, require_all=False):
    """Random series helper; with require_all every category occurs and the
    series is not constant."""
    r = r or int(rng.integers(2, 5))
    T = T or int(rng.integers(5, 61))
    while True:
        codes = rng.integers(1, r + 1, size=T)
        if not require_all:
            break
        if len(np.unique(codes)) == r:
            break
    return CategoricalSeries(codes, Alphabet.of_size(r))


@st.composite
def series_with_every_category(draw, min_r=2, max_r=6, min_T=16, max_T=400):
    """Hypothesis strategy: a series in which each of its r categories occurs."""
    r = draw(st.integers(min_r, max_r))
    T = draw(st.integers(max(min_T, r), max_T))
    codes = draw(hnp.arrays(np.int64, T, elements=st.integers(1, r)))
    positions = draw(st.lists(st.integers(0, T - 1), min_size=r, max_size=r, unique=True))
    codes[positions] = np.arange(1, r + 1)
    return CategoricalSeries(codes, Alphabet.of_size(r))


def ragged_series(rng, r, T, used=None):
    """Series of length T over an r-category alphabet whose codes are drawn
    from ``used`` (all r categories by default)."""
    used = np.arange(1, r + 1) if used is None else np.asarray(used)
    return CategoricalSeries(rng.choice(used, size=T), Alphabet.of_size(r))


@st.composite
def ragged_corpus(draw, min_r=2, max_r=8, max_series=5):
    """Hypothesis strategy: 1..max_series series of lengths 10..300 over one
    alphabet.  A series draws from all categories or from its own non-empty
    subset of them, so absent categories and constant series occur."""
    r = draw(st.integers(min_r, max_r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subsets = st.none() | st.lists(st.integers(1, r), min_size=1, max_size=r, unique=True).map(sorted)
    return [ragged_series(rng, r, draw(st.integers(10, 300)), draw(subsets))
            for _ in range(draw(st.integers(1, max_series)))]


def traced_peak_mib(call):
    """``call()``'s result and the peak of the memory traced while it ran, in MiB."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
