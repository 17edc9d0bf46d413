"""Seeded generators for Markov chain, hidden-Markov and NDARMA series.

Determinism contract: the generator is PCG64 seeded with the given integer;
category draws map one 53-bit uniform to a category by inverse CDF over the
cumulative row probabilities, so the same spec and seed reproduce the same
codes on any platform.  The draw order is fixed and documented per family.
Corpus generation derives the seed of series i as ``corpus seed + i``
(counter mode), so corpora are reproducible and extensible.

Specs are plain frozen dataclasses with a JSON round-trip
(:func:`corpus_spec_from_dict` / :meth:`CorpusSpec.to_dict`); coefficients
are always user-supplied.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

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

_U53 = float(1 << 53)


def _check_stochastic(matrix, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if np.any(m < 0.0):
        raise ValueError(f"{name} has negative entries")
    if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError(f"{name} rows must sum to 1")
    return m


def _check_probability_vector(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1 or np.any(v < 0.0) or abs(v.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a probability vector")
    return v


def _cumulative_rows(matrix: np.ndarray) -> list[list[float]]:
    rows = []
    for row in matrix:
        cum = np.cumsum(row)
        cum[-1] = 1.0  # absorb float round-off so every draw lands in range
        rows.append(cum.tolist())
    return rows


def _uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << 53, size=n, dtype=np.int64) / _U53


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
    def family(self) -> str:
        return "mc"

    @property
    def n_categories(self) -> int:
        return int(self.initial.size)

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Draw order: one uniform per time step, t = 1..length."""
        us = _uniforms(rng, length).tolist()
        cum_init = _cumulative_rows(self.initial[None, :])[0]
        cum_rows = _cumulative_rows(self.transition)
        codes = np.empty(length, dtype=np.int64)
        state = bisect_right(cum_init, us[0])
        codes[0] = state + 1
        for t in range(1, length):
            state = bisect_right(cum_rows[state], us[t])
            codes[t] = state + 1
        return codes


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
    def family(self) -> str:
        return "hmm"

    @property
    def n_categories(self) -> int:
        return int(self.emission.shape[1])

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Draw order: the full hidden path first (one uniform per step),
        then one emission uniform per step."""
        hidden_model = MarkovChainModel(self.transition, self.initial)
        hidden = hidden_model.sample(length, rng) - 1
        us = _uniforms(rng, length)
        cum_emit = np.cumsum(self.emission, axis=1)
        cum_emit[:, -1] = 1.0
        codes = np.sum(cum_emit[hidden] <= us[:, None], axis=1) + 1
        return codes.astype(np.int64)


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
    def family(self) -> str:
        return "ndarma"

    @property
    def n_categories(self) -> int:
        return int(self.innovation.size)

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Draw order: p presample values then q presample innovations (all
        from the innovation law), then per step one innovation uniform
        followed by one selection uniform."""
        cum_innov = _cumulative_rows(self.innovation[None, :])[0]
        cum_sel = _cumulative_rows(self.selection[None, :])[0]
        x_hist = [bisect_right(cum_innov, u) + 1 for u in _uniforms(rng, self.p)]
        e_hist = [bisect_right(cum_innov, u) + 1 for u in _uniforms(rng, self.q)]
        x_hist.reverse()  # most recent first
        e_hist.reverse()
        total = self.burn_in + length
        us = _uniforms(rng, 2 * total).tolist()
        codes = np.empty(length, dtype=np.int64)
        for t in range(total):
            eps = bisect_right(cum_innov, us[2 * t]) + 1
            choice = bisect_right(cum_sel, us[2 * t + 1])
            if choice < self.p:
                value = x_hist[choice]
            elif choice == self.p:
                value = eps
            else:
                value = e_hist[choice - self.p - 1]
            if self.q > 0:
                e_hist.insert(0, eps)
                e_hist.pop()
            if self.p > 0:
                x_hist.insert(0, value)
                x_hist.pop()
            if t >= self.burn_in:
                codes[t - self.burn_in] = value
        return codes


Model = MarkovChainModel | HiddenMarkovModel | NdarmaModel


def _alphabet_for(model: Model, alphabet: Alphabet | None) -> Alphabet:
    if alphabet is None:
        return Alphabet.of_size(model.n_categories)
    if alphabet.size != model.n_categories:
        raise ValueError("alphabet size does not match the model's number of categories")
    return alphabet


def generate_series(model: Model, length: int, seed: int, alphabet: Alphabet | None = None) -> CategoricalSeries:
    """One seeded series from any model family."""
    if length < 1:
        raise ValueError("length must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    return CategoricalSeries(model.sample(length, rng), _alphabet_for(model, alphabet))


def generate_mc(model: MarkovChainModel, length: int, seed: int, alphabet: Alphabet | None = None) -> CategoricalSeries:
    return generate_series(model, length, seed, alphabet)


def generate_hmm(model: HiddenMarkovModel, length: int, seed: int, alphabet: Alphabet | None = None) -> CategoricalSeries:
    return generate_series(model, length, seed, alphabet)


def generate_ndarma(model: NdarmaModel, length: int, seed: int, alphabet: Alphabet | None = None) -> CategoricalSeries:
    return generate_series(model, length, seed, alphabet)


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
        for _, count in self.groups:
            if count < 1:
                raise ValueError("group counts must be positive")
        if self.length < 1:
            raise ValueError("length must be positive")

    def to_dict(self) -> dict:
        groups = []
        for model, count in self.groups:
            entry: dict = {"family": model.family, "count": count}
            if isinstance(model, MarkovChainModel):
                entry["transition"] = model.transition.tolist()
                entry["initial"] = model.initial.tolist()
            elif isinstance(model, HiddenMarkovModel):
                entry["hidden_transition"] = model.transition.tolist()
                entry["emission"] = model.emission.tolist()
                entry["hidden_initial"] = model.initial.tolist()
            else:
                entry.update(
                    p=model.p,
                    q=model.q,
                    selection=model.selection.tolist(),
                    innovation=model.innovation.tolist(),
                    burn_in=model.burn_in,
                )
            groups.append(entry)
        out = {"seed": self.seed, "length": self.length, "groups": groups}
        if self.alphabet is not None:
            out["alphabet"] = list(self.alphabet.symbols)
        return out


def _integer(entry: dict, key: str, where: str, default: int | None = None) -> int:
    """``entry[key]`` as an int, or ``default`` when given and the key is
    absent; a boolean or a number with a fractional part is rejected by name
    rather than truncated."""
    value = entry[key] if default is None else entry.get(key, default)
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"corpus spec {where}key {key!r} must be an integer, got {value!r}")
    return int(value)


def _model_from_dict(entry: dict, number: int) -> tuple[Model, int]:
    family = entry.get("family")
    where = f"group {number} "
    count = _integer(entry, "count", where, 1)
    if family == "mc":
        model: Model = MarkovChainModel(entry["transition"], entry["initial"])
    elif family == "hmm":
        model = HiddenMarkovModel(entry["hidden_transition"], entry["emission"], entry["hidden_initial"])
    elif family == "ndarma":
        model = NdarmaModel(
            _integer(entry, "p", where),
            _integer(entry, "q", where),
            entry["selection"],
            entry["innovation"],
            _integer(entry, "burn_in", where, 500),
        )
    else:
        raise ValueError(f"unknown model family {family!r}")
    return model, count


def corpus_spec_from_dict(data: dict) -> CorpusSpec:
    """Build a corpus spec from its JSON representation.

    Expected keys: ``seed`` (int), ``length`` (int), optional ``alphabet``
    (list of labels) and ``groups``: a list of entries with ``family``
    ("mc" | "hmm" | "ndarma"), ``count`` and the family's coefficients
    (mc: ``transition``, ``initial``; hmm: ``hidden_transition``,
    ``emission``, ``hidden_initial``; ndarma: ``p``, ``q``, ``selection``,
    ``innovation``, optional ``burn_in``).  Integer fields must hold
    integers: a boolean or a fractional number is rejected, naming the key
    and the 1-based group number.
    """
    try:
        groups = tuple(_model_from_dict(entry, number) for number, entry in enumerate(data["groups"], start=1))
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
    index = 0
    for group_number, (model, count) in enumerate(spec.groups, start=1):
        for _ in range(count):
            corpus.append(generate_series(model, spec.length, spec.seed + index, alphabet))
            labels.append(group_number)
            index += 1
    return corpus, labels
