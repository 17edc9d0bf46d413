"""Seeded generators for Markov chain, hidden-Markov and NDARMA series.

Determinism contract: the generator is PCG64 seeded with the given integer;
category draws map one 53-bit uniform (``Generator.random``: the top 53 bits
of one 64-bit output) to a category by inverse CDF over the cumulative row
probabilities, so the same spec and seed reproduce the same codes on any
platform.  The draw order is fixed and documented per family.
Corpus generation derives the seed of series i as ``corpus seed + i``
(counter mode), so corpora are reproducible and extensible.  It draws the
same uniforms in the same order as one :func:`generate_series` per series,
so the draw order and this contract hold for a corpus as for a series.
Markov chains, hidden paths and emissions all look up the next state by a
uniform's bin and the current state (:func:`_edge_moves`); a group of
:data:`_LOCKSTEP_CHAINS` chains or more takes one numpy step per time
step, and NDARMA series are made one at a time.

Specs are plain frozen dataclasses with a JSON round-trip
(:func:`corpus_spec_from_dict` / :meth:`CorpusSpec.to_dict`); coefficients
are always user-supplied.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .series import Alphabet, CategoricalSeries

__all__ = [
    "MarkovChainModel",
    "HiddenMarkovModel",
    "NdarmaModel",
    "CorpusSpec",
    "generate_mc",
    "generate_hmm",
    "generate_ndarma",
    "generate_series",
    "generate_corpus",
    "corpus_spec_from_dict",
]

def _check_stochastic(matrix, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(m < 0.0):
        raise ValueError(f"{name} has negative entries")
    if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError(f"{name} rows must sum to 1")
    return m


def _check_probability_vector(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    if v.ndim != 1 or np.any(v < 0.0) or abs(v.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a probability vector")
    return v


def _cumulative_rows(matrix: np.ndarray) -> np.ndarray:
    cum = np.cumsum(np.atleast_2d(matrix), axis=1)
    cum[:, -1] = 1.0  # absorb float round-off so every draw lands in range
    return cum


def _draw(cum: np.ndarray, us: np.ndarray) -> np.ndarray:
    """0-based categories of ``us``: ``bisect_right`` over an array."""
    return np.searchsorted(cum, us, side="right")


def _edge_moves(cum_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(edges, moves)`` with ``moves[b * len(cum_rows) + j]`` equal to
    ``bisect_right(cum_rows[j], u)`` for every uniform u whose bin
    ``bisect_right(edges, u)`` is b.  ``edges`` are the distinct entries of
    the rows but their last (1.0, above every uniform), so no entry lies
    between u and the edge below it, and each ``cum <= u`` comparison comes
    out as it does at that edge."""
    edges = np.unique(cum_rows[:, :-1])
    moves = np.zeros((edges.size + 1, len(cum_rows)), dtype=np.intp)
    for j, row in enumerate(cum_rows):
        moves[1:, j] = np.searchsorted(row, edges, side="right")
    return edges, moves.ravel()


# A group of at least this many chains takes one add and one gather per time
# step, a smaller one a Python loop per chain.  At T=1000 and r from 2 to 20
# (best of 15, 1 of 2 shared cores, numpy 2.4) the loop against lockstep took
# 1.1-2.3 against 2.0-3.0 ms for 16 chains, 1.7-3.4 against 2.1-3.4 for 24 and
# 2.2-4.8 against 2.2-4.3 for 32.  A lone T=50,000 chain: 4-8 ms against 90.
_LOCKSTEP_CHAINS = 24


def _walks(transition: np.ndarray, initial: np.ndarray, us: np.ndarray) -> np.ndarray:
    """0-based states of one first-order chain per row of ``us``, one
    uniform per step: the first through ``initial``, then through the
    previous state's row.  All uniforms are binned at once, so a step is
    one lookup ``moves[bin * r + state]``."""
    r = len(transition)
    edges, moves = _edge_moves(_cumulative_rows(transition))
    path = np.searchsorted(edges, us.T, side="right")  # (T, chains): bins, then states
    path *= r
    path[0] = _draw(_cumulative_rows(initial)[0], us[:, 0])
    if len(us) >= _LOCKSTEP_CHAINS:
        index = np.empty(len(us), dtype=np.intp)
        for t in range(1, len(path)):
            np.take(moves, np.add(path[t], path[t - 1], out=index), out=path[t], mode="clip")
    else:
        moves = moves.tolist()
        for chain in path.T:
            state, *bins = chain.tolist()
            states = [state]
            for b in bins:
                state = moves[b + state]
                states.append(state)
            chain[:] = states
    return np.ascontiguousarray(path.T)


def _uniforms(rngs, n: int) -> np.ndarray:
    """``n`` uniforms from each generator in turn, one row per generator."""
    us = np.empty((len(rngs), n))
    for rng, row in zip(rngs, us):
        rng.random(out=row)
    return us


def _whole(value, name: str) -> int:
    """``value`` as an int; a boolean, a number with a fractional part or
    anything else is rejected by name rather than truncated."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class MarkovChainModel:
    """First-order chain: X_1 ~ initial, X_t | X_{t-1}=j ~ transition row j."""

    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self) -> None:
        t = _check_stochastic(self.transition, "transition matrix")
        init = _check_probability_vector(self.initial, "initial distribution")
        if t.shape[0] != t.shape[1] or t.shape[0] != init.size:
            raise ValueError("transition matrix must be square and match the initial distribution")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "initial", init)

    @property
    def n_categories(self) -> int:
        return int(self.initial.size)

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Draw order: one uniform per time step, t = 1..length."""
        return self.sample_rows(length, [rng])[0]

    def sample_rows(self, length: int, rngs) -> np.ndarray:
        """What :meth:`sample` draws from each generator, one row each."""
        return _walks(self.transition, self.initial, _uniforms(rngs, length)) + 1


@dataclass(frozen=True)
class HiddenMarkovModel:
    """Hidden first-order chain with per-state emission rows."""

    transition: np.ndarray  # (h, h) hidden-state chain
    emission: np.ndarray  # (h, r) observation law per hidden state
    initial: np.ndarray  # (h,) hidden initial distribution

    def __post_init__(self) -> None:
        t = _check_stochastic(self.transition, "hidden transition matrix")
        e = _check_stochastic(self.emission, "emission matrix")
        init = _check_probability_vector(self.initial, "hidden initial distribution")
        if t.shape[0] != t.shape[1] or t.shape[0] != init.size:
            raise ValueError("hidden transition matrix must be square and match the initial distribution")
        if e.shape[0] != t.shape[0]:
            raise ValueError("emission matrix must have one row per hidden state")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "emission", e)
        object.__setattr__(self, "initial", init)

    @property
    def n_categories(self) -> int:
        return int(self.emission.shape[1])

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Draw order: the full hidden path first (one uniform per step),
        then one emission uniform per step."""
        return self.sample_rows(length, [rng])[0]

    def sample_rows(self, length: int, rngs) -> np.ndarray:
        """What :meth:`sample` draws from each generator, one row each."""
        us = _uniforms(rngs, 2 * length)
        hidden = _walks(self.transition, self.initial, us[:, :length])
        edges, moves = _edge_moves(_cumulative_rows(self.emission))
        return moves[np.searchsorted(edges, us[:, length:], side="right") * len(self.emission) + hidden] + 1


@dataclass(frozen=True)
class NdarmaModel:
    """Discrete ARMA: copy a random past value or a fresh innovation.

    X_t equals one of X_{t-1}, ..., X_{t-p}, eps_t, eps_{t-1}, ..., eps_{t-q}
    chosen by a multinomial draw with the given selection probabilities (in
    that order, length p + q + 1); innovations eps_t are i.i.d. with marginal
    ``innovation``.  The recursion is warmed up with max(p, q) presample
    draws from the innovation law plus ``burn_in`` discarded steps.
    """

    p: int
    q: int
    selection: np.ndarray  # (p + q + 1,)
    innovation: np.ndarray  # (r,)
    burn_in: int = 500

    def __post_init__(self) -> None:
        for name in ("p", "q", "burn_in"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.p < 0 or self.q < 0:
            raise ValueError("orders p and q must be non-negative")
        sel = _check_probability_vector(self.selection, "selection probabilities")
        if sel.size != self.p + self.q + 1:
            raise ValueError("selection vector must have length p + q + 1")
        innov = _check_probability_vector(self.innovation, "innovation marginal")
        if self.burn_in < 0:
            raise ValueError("burn-in must be non-negative")
        object.__setattr__(self, "selection", sel)
        object.__setattr__(self, "innovation", innov)

    @property
    def n_categories(self) -> int:
        return int(self.innovation.size)

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Draw order: p presample values then q presample innovations (all
        from the innovation law), then per step one innovation uniform
        followed by one selection uniform.  X fills slots p + t after p
        presample slots; a step that copies X_{t-k} points k slots back, and
        pointer doubling resolves each copy chain to the value it repeats."""
        cum_innov = _cumulative_rows(self.innovation)[0]
        presample = _draw(cum_innov, rng.random(self.p))
        eps = _draw(cum_innov, rng.random(self.q))
        total = self.burn_in + length
        us = rng.random(2 * total)
        eps = np.concatenate([eps, _draw(cum_innov, us[0::2])])  # eps_t in slot q + t
        choice = _draw(_cumulative_rows(self.selection)[0], us[1::2])
        fresh = eps[self.q + np.arange(total) - np.maximum(choice - self.p, 0)]
        ptr = np.arange(self.p + total)
        ptr[self.p:] -= np.where(choice < self.p, choice + 1, 0)
        while not np.array_equal(jumped := ptr[ptr], ptr):
            ptr = jumped
        return np.concatenate([presample, fresh])[ptr[self.p + self.burn_in:]] + 1

    def sample_rows(self, length: int, rngs) -> list[np.ndarray]:
        """What :meth:`sample` draws from each generator, one array each: one
        series at a time, as batched pointer doubling holds several times
        the group's codes."""
        return [self.sample(length, rng) for rng in rngs]


Model = MarkovChainModel | HiddenMarkovModel | NdarmaModel


def _alphabet_for(model: Model, alphabet: Alphabet | None) -> Alphabet:
    if alphabet is None:
        return Alphabet.of_size(model.n_categories)
    if alphabet.size != model.n_categories:
        raise ValueError("alphabet size does not match the model's number of categories")
    return alphabet


def generate_series(model: Model, length: int, seed: int, alphabet: Alphabet | None = None) -> CategoricalSeries:
    """One seeded series from any model family."""
    length, seed = _whole(length, "length"), _whole(seed, "seed")
    if length < 1:
        raise ValueError(f"length must be positive, got {length!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return CategoricalSeries(model.sample(length, rng), _alphabet_for(model, alphabet))


# per-family names of generate_series, kept for existing callers
generate_mc = generate_hmm = generate_ndarma = generate_series


@dataclass(frozen=True)
class CorpusSpec:
    """A corpus as groups of (model, count) sharing one alphabet and length."""

    groups: tuple[tuple[Model, int], ...]
    length: int
    seed: int
    alphabet: Alphabet | None = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("corpus needs at least one group")
        sizes = {model.n_categories for model, _ in self.groups}
        if len(sizes) != 1:
            raise ValueError("all groups must share the same number of categories")
        groups = tuple((model, _whole(count, f"group {number} count"))
                       for number, (model, count) in enumerate(self.groups, start=1))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "length", _whole(self.length, "length"))
        object.__setattr__(self, "seed", _whole(self.seed, "corpus seed"))
        for _, count in groups:
            if count < 1:
                raise ValueError(f"group counts must be positive, got {count!r}")
        if self.length < 1:
            raise ValueError(f"length must be positive, got {self.length!r}")
        if self.seed < 0:
            raise ValueError(f"corpus seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        groups = []
        for model, count in self.groups:
            family = next(name for name, (cls, _) in FAMILIES.items() if isinstance(model, cls))
            entry: dict = {"family": family, "count": count}
            for field, key in zip(fields(model), FAMILIES[family][1]):
                value = getattr(model, field.name)
                entry[key] = value.tolist() if isinstance(value, np.ndarray) else value
            groups.append(entry)
        out = {"seed": self.seed, "length": self.length, "groups": groups}
        if self.alphabet is not None:
            out["alphabet"] = list(self.alphabet.symbols)
        return out


# family -> (model class, the JSON key of each of its fields, in field order)
FAMILIES = {
    "mc": (MarkovChainModel, ("transition", "initial")),
    "hmm": (HiddenMarkovModel, ("hidden_transition", "emission", "hidden_initial")),
    "ndarma": (NdarmaModel, ("p", "q", "selection", "innovation", "burn_in")),
}


def _integer(entry: dict, key: str, where: str, default=MISSING) -> int:
    """``entry[key]`` as an int, or ``default`` when given and the key is
    absent; a boolean or a number with a fractional part is rejected by name
    rather than truncated."""
    return _whole(entry[key] if default is MISSING else entry.get(key, default), f"corpus spec {where}key {key!r}")


def _numbers(entry: dict, key: str, where: str) -> np.ndarray:
    """``entry[key]`` as a float array; anything but a number or a
    rectangular nested list of numbers is rejected by name."""
    try:
        array = np.array(entry[key])
    except ValueError:  # rows of different lengths
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise ValueError(f"corpus spec {where}key {key!r} must be a list of numbers, got {entry[key]!r}")
    return array.astype(float)


def _model_from_dict(entry: dict, number: int) -> tuple[Model, int]:
    where = f"group {number} "
    if not isinstance(entry, dict):
        raise ValueError(f"corpus spec {where}must be an object, got {entry!r}")
    family = entry.get("family")
    count = _integer(entry, "count", where, 1)
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    cls, keys = FAMILIES[family]
    values = [_integer(entry, key, where, field.default) if field.type == "int" else _numbers(entry, key, where)
              for field, key in zip(fields(cls), keys)]
    try:
        return cls(*values), count
    except ValueError as err:
        raise ValueError(f"corpus spec group {number}: {err}") from None


def corpus_spec_from_dict(data: dict) -> CorpusSpec:
    """Build a corpus spec from its JSON representation.

    Expected keys: ``seed`` (int), ``length`` (int), optional ``alphabet``
    (list of labels) and ``groups``: a list of entries with a ``family`` of
    :data:`FAMILIES`, ``count`` and the family's keys (ndarma's ``burn_in``
    optional).  Integer fields must hold integers and coefficients numbers:
    anything else is rejected, naming the key and the 1-based group number,
    and a model's own error names its group; so are a negative seed, an
    ``alphabet`` or ``groups`` value that is not a list and a group that is
    not an object.
    """
    if not isinstance(data, dict):
        raise ValueError(f"corpus spec must be an object, got {data!r}")
    try:
        if not isinstance(data["groups"], list):
            raise ValueError(f"corpus spec key 'groups' must be a list of objects, got {data['groups']!r}")
        groups = tuple(_model_from_dict(entry, number) for number, entry in enumerate(data["groups"], start=1))
        if not isinstance(data.get("alphabet", []), list):
            raise ValueError(f"corpus spec key 'alphabet' must be a list of labels, got {data['alphabet']!r}")
        alphabet = Alphabet(tuple(data["alphabet"])) if "alphabet" in data else None
        return CorpusSpec(groups, _integer(data, "length", ""), _integer(data, "seed", ""), alphabet)
    except KeyError as missing:
        raise ValueError(f"corpus spec is missing required key {missing}") from None


def generate_corpus(spec: CorpusSpec) -> tuple[list[CategoricalSeries], list[int]]:
    """All series of a corpus spec, with 1-based group labels.

    Series i (0-based, across all groups in order) uses seed
    ``spec.seed + i``, so individual series can be regenerated in isolation.
    """
    alphabet = _alphabet_for(spec.groups[0][0], spec.alphabet)
    corpus: list[CategoricalSeries] = []
    labels: list[int] = []
    for group_number, (model, count) in enumerate(spec.groups, start=1):
        seed = spec.seed + len(corpus)
        rngs = [np.random.Generator(np.random.PCG64(seed + i)) for i in range(count)]
        corpus += [CategoricalSeries(codes, alphabet) for codes in model.sample_rows(spec.length, rngs)]
        labels += [group_number] * count
    return corpus, labels
