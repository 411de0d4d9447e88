"""Feature-based linear-chain CRF with L-BFGS maximum-likelihood training.

The model scores a tag sequence as the sum of state weights for every
(active feature, tag) pair plus transition weights between adjacent tags.
Training minimizes the L2/L1-regularized negative log-likelihood; the
expected feature counts come from forward-backward marginals and
transition counts, in O(N * (K + L)) memory for N tokens of K features
and L labels. Unseen test-time features read a zero sentinel weight row,
never grown into the model.

Training and tagging never format a feature string: a feature is an int64
key (``features.window_keys``) into the model's dense key-to-row table.
Training keys an ``encoding.Encoded`` corpus and fits on int32 rows;
tagging keys, indexes and decodes each pass as one array. The functions
that take each token's feature names are the tests' reference for the keys.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import chain, iob, lbfgs
from .features import (  # noqa: F401 (sentence_features is traced here)
    features_per_token, key_names, sentence_features, sentence_keys,
    template_keys,
)
from .iob import TaggedSentence
from .settings import DEFAULT_WINDOW, TrainConfig
from .tokenizer import Sentence

if TYPE_CHECKING:
    from .encoding import Encoded


def _scores(state: np.ndarray, features: np.ndarray) -> np.ndarray:
    """[T, L] state scores of tokens with these [T, K] feature rows, one
    column add at a time; row F, past the weights, is the zero sentinel."""
    table = np.vstack([state, np.zeros(state.shape[1])])
    scores = np.zeros((len(features), state.shape[1]))
    for column in features.T:
        scores += table.take(column, axis=0)  # faster than table[column]
    return scores


def _state_gradient(d_scores: np.ndarray, features: np.ndarray,
                    F: int) -> np.ndarray:
    """[F, L] sums of the score gradients of the tokens that hold each
    feature, one ``np.bincount`` per label and group of 7 columns, in token
    order as a template feature sits in one column; the sentinel's is dropped."""
    grad = np.zeros((d_scores.shape[1], F + 1))
    for group in np.hsplit(features, range(7, features.shape[1], 7)):
        rows = group.astype(np.intp).ravel()
        for label, column in zip(grad, d_scores.T):
            label += np.bincount(rows, np.repeat(column, group.shape[1]), F + 1)
    return grad[:, :F].T


@dataclass
class CrfModel:
    label_set: list[str]
    feature_index: dict[str, int]
    state_weights: np.ndarray  # [num_features, num_labels]
    transition_weights: np.ndarray  # [num_labels, num_labels]
    window: int = DEFAULT_WINDOW
    label_index: dict[str, int] = field(init=False)
    # attribute value ids and each key's row over them, from _key_table
    _values: dict[str, int] = field(init=False, repr=False, compare=False)
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        F, L = len(self.feature_index), len(self.label_set)
        if self.state_weights.shape != (F, L):
            raise ValueError(f"state_weights shape {self.state_weights.shape} "
                             f"does not match ({F}, {L})")
        if self.transition_weights.shape != (L, L):
            raise ValueError("transition_weights shape mismatch")
        if not isinstance(self.window, int) or self.window < 0:
            raise ValueError(f"window must be an int >= 0, got {self.window!r}")
        if not all(isinstance(s, str) for s in [*self.label_set,
                                                *self.feature_index]):
            raise ValueError("labels and features must be strings")
        if sorted(self.feature_index.values()) != list(range(F)):
            raise ValueError(f"feature_index rows must be 0 ... {F - 1}, "
                             f"each once")
        if not (np.isfinite(self.state_weights).all()
                and np.isfinite(self.transition_weights).all()):
            raise ValueError("model weights must be finite")
        self.label_index = {lab: i for i, lab in enumerate(self.label_set)}
        self._key_table()

    def _key_table(self) -> None:
        """Key every feature name that the window's templates emit, in a
        table of every key of the window's K features over the V values and
        the unseen value: a name's row at its key, the sentinel row F at
        every other. Names of any other shape are matched by name only."""
        self._values, keys, positions = template_keys(self.feature_index,
                                                      self.window)
        F = len(self.feature_index)
        self._rows = np.full(features_per_token(self.window)
                             * (len(self._values) + 1), F, np.int32)
        self._rows[keys] = np.fromiter(self.feature_index.values(), np.int32,
                                       F)[positions]

    def feature_keys(self, sentences: list[Sentence]) -> np.ndarray:
        """The ``features.window_keys`` of the sentences over the model's
        values; a feature the model does not hold gets a key it lacks."""
        return sentence_keys(sentences, self._values, self.window)

    def index_tokens(self, token_features: np.ndarray | list[list[str]]
                     ) -> np.ndarray:
        """[T, K] feature rows of the tokens, from their [T, K]
        ``feature_keys`` or from their feature names, padded to the longest;
        unseen features and padding read the zero sentinel row F."""
        F = len(self.feature_index)
        if isinstance(token_features, np.ndarray):
            return self._rows.take(token_features)
        width = max(map(len, token_features), default=0)
        rows = [[self.feature_index.get(f, F) for f in feats]
                + [F] * (width - len(feats)) for feats in token_features]
        return np.array(rows, np.intp).reshape(len(rows), width)

    def state_scores(self, indexed: np.ndarray) -> np.ndarray:
        return _scores(self.state_weights, indexed)

    def tag(self, sentences: list[Sentence],
            constrained: bool = False) -> list[list[str]]:
        """Tags of each sentence, decoded in packed passes of at most
        ``chain.PASS_SENTENCES`` sentences, one ``viterbi`` call each."""
        return [tags for part in chain.passes(sentences)
                for tags in viterbi(self, part, constrained)]


def make_zero_model(
    label_set: list[str], feature_index: dict[str, int], window: int = DEFAULT_WINDOW
) -> CrfModel:
    F, L = len(feature_index), len(label_set)
    return CrfModel(list(label_set), dict(feature_index),
                    np.zeros((F, L)), np.zeros((L, L)), window)


def log_partition(model: CrfModel, token_features: list[list[str]]) -> float:
    """log Z of the model over one sentence's feature vectors."""
    if not token_features:
        raise ValueError("cannot compute log partition of an empty sentence")
    scores = model.state_scores(model.index_tokens(token_features))
    return chain.log_partition(scores, model.transition_weights)


def _flatten(state: np.ndarray, trans: np.ndarray) -> np.ndarray:
    return np.concatenate([state.ravel(), trans.ravel()])


def _unflatten(w: np.ndarray, F: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    return w[: F * L].reshape(F, L), w[F * L :].reshape(L, L)


@dataclass
class _Packed:
    """Sentences in ``chain.forward_backward``'s packed layout."""

    batch_sizes: np.ndarray  # sentences still running at each position
    gold: np.ndarray  # [N] gold label index of each packed row
    features: np.ndarray  # [N, K] feature rows of each packed row


def _pack(tokens: np.ndarray, gold: np.ndarray, lengths) -> _Packed:
    """Lay out sentences of these token counts longest first, ties in order,
    from their tokens' [T, K] ``index_tokens`` rows, as int32, and gold ids."""
    if not all(lengths):
        raise ValueError("batch contains an empty sentence")
    if (gold < 0).any():
        raise ValueError("unknown label in gold tags")
    batch_sizes, token_rows = chain.pack(lengths)
    packed_gold, features = np.empty_like(gold), np.empty(tokens.shape, np.int32)
    packed_gold[token_rows] = gold
    features[token_rows] = tokens
    return _Packed(batch_sizes, packed_gold, features)


def _batch_nll_grad(
    w: np.ndarray, batch: _Packed, F: int, L: int, l2: float
) -> tuple[float, np.ndarray]:
    """Sum of per-sentence NLL plus the L2 term, with its gradient."""
    state, trans = _unflatten(w, F, L)
    scores = _scores(state, batch.features)
    nll, d_scores, d_trans = chain.nll_and_gradients(
        scores, trans, batch.gold, batch.batch_sizes
    )
    grad_state = _state_gradient(d_scores, batch.features, F)
    value = nll + 0.5 * l2 * float(np.einsum("i,i->", w, w))
    grad = _flatten(grad_state, d_trans) + l2 * w
    return value, grad


def nll_and_gradient(
    model: CrfModel,
    batch: list[tuple[list[list[str]], list[str]]],
    config: TrainConfig,
) -> tuple[float, np.ndarray]:
    """Regularized NLL and its gradient over (state, transition) weights.

    The value includes both the L2 and L1 penalties; the gradient carries
    only the smooth (L2) term since the L1 part is handled orthant-wise
    by the optimizer. Gradient layout: state weights row-major, then
    transitions.
    """
    if not batch:
        raise ValueError("empty batch")
    if any(len(token_features) != len(tags) for token_features, tags in batch):
        raise ValueError("feature/tag length mismatch")
    F, L = len(model.feature_index), len(model.label_set)
    w = _flatten(model.state_weights, model.transition_weights)
    gold = np.array([model.label_index.get(t, -1) for _, tags in batch for t in tags])
    packed = _pack(model.index_tokens(
        [feats for token_features, _ in batch for feats in token_features]),
        gold, [len(tags) for _, tags in batch])
    value, grad = _batch_nll_grad(w, packed, F, L, config.l2_coefficient)
    value += config.l1_coefficient * float(np.abs(w).sum())
    return value, grad


def build_feature_index(
    sentences: Encoded | list[TaggedSentence], window: int = DEFAULT_WINDOW
) -> dict[str, int]:
    """The training features in first-seen order. The corpus's features are
    compared as keys over its own attribute value ids, and only each
    distinct one is named."""
    from .encoding import encoded  # tagging never compiles it
    corpus = encoded(sentences, iob.TAGS, attributes=True)
    distinct, first = np.unique(corpus.feature_keys(window), return_index=True)
    names = key_names(distinct[np.argsort(first)], corpus.words, window)
    return {name: row for row, name in enumerate(names)}


def train(
    sentences: Encoded | list[TaggedSentence],
    config: TrainConfig | None = None,
    progress=None,
) -> tuple[CrfModel, lbfgs.OptimizeResult]:
    """Fit a CRF on tagged sentences; returns the model and optimizer info.

    The feature index is built from the training data only. With
    max_iterations=0 the returned model keeps its all-zero initialization.
    """
    if not sentences:
        raise ValueError("no training sentences")
    from .encoding import encoded
    config = config or TrainConfig()
    corpus = encoded(sentences, iob.TAGS, attributes=True)
    labels = list(iob.TAGS)
    feature_index = build_feature_index(corpus, config.window)
    model = make_zero_model(labels, feature_index, config.window)
    # the fitted model's own indexer, which tagging uses too; the [T, K]
    # keys are freed before the fit
    batch = _pack(model.index_tokens(corpus.feature_keys(
        config.window, model._values)), corpus.label_ids, corpus.lengths)
    F, L = len(feature_index), len(labels)

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        return _batch_nll_grad(w, batch, F, L, config.l2_coefficient)

    result = lbfgs.minimize(
        objective,
        _flatten(model.state_weights, model.transition_weights),
        memory=config.lbfgs_memory,
        max_iterations=config.max_iterations,
        tol=config.convergence_tol,
        l1=config.l1_coefficient,
        callback=progress,
    )
    state, trans = _unflatten(result.x, F, L)
    return CrfModel(labels, feature_index, state, trans, config.window), result


def train_run(corpus: Encoded, validation: Encoded | None,
              config: TrainConfig, progress=None, options=None):
    """The ``train`` command's entry: the model fitted on both splits (the
    CRF selects nothing on validation), its manifest metrics and no extra
    file. ``options``, the run's config, holds nothing else it reads."""
    # no hook, no argument: an unhooked call is ``train(sentences, config)``
    hook = {} if progress is None else {"progress": progress}
    model, opt = train(corpus if validation is None else corpus + validation,
                       config, **hook)
    return model, {
        "objective": opt.fun,
        "iterations": opt.iterations,
        "converged": opt.converged,
        "stop_reason": opt.message,
        "features": len(model.feature_index),
        "objective_evaluations": opt.evaluations,
        "objective_trace": opt.trace,
    }, {}


@functools.lru_cache(maxsize=8)
def _masks(label_set: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``iob.decode_masks`` as read-only arrays, built once per label set."""
    start, trans = (np.array(mask, dtype=bool)
                    for mask in iob.decode_masks(label_set))
    start.flags.writeable = trans.flags.writeable = False
    return start, trans


def decode(scores: np.ndarray, transitions: np.ndarray, label_set: list[str],
           lengths: list[int], constrained: bool = False) -> list[list[str]]:
    """Viterbi labels of sentences with these token counts, decoded as one
    packed batch from the [N, L] scores of their concatenated tokens,
    optionally restricted to the moves ``iob.continues`` accepts."""
    start_mask, trans_mask = _masks(tuple(label_set)) if constrained else (
        None, None)
    batch_sizes, rows = chain.pack(lengths)
    packed = np.empty_like(scores)
    packed[rows] = scores
    path = chain.viterbi(packed, transitions, start_mask, trans_mask, batch_sizes)
    labels = [label_set[path[row]] for row in rows.tolist()]
    ends = np.cumsum(lengths).tolist()
    return [labels[end - n : end] for n, end in zip(lengths, ends)]


def viterbi(
    model: CrfModel, sentences: list[Sentence] | list[list[list[str]]],
    constrained: bool = False
) -> list[list[str]]:
    """Highest-scoring tag sequence of each sentence, given as a
    ``Sentence`` or as its tokens' feature names; the sentences are keyed,
    scored and decoded as one pass."""
    keyed = bool(sentences) and isinstance(sentences[0], Sentence)
    lengths = [len(s.tokens) if keyed else len(s) for s in sentences]
    if not all(lengths):
        raise ValueError("cannot decode an empty sentence")
    scores = model.state_scores(model.index_tokens(
        model.feature_keys(sentences) if keyed
        else [feats for sentence in sentences for feats in sentence]))
    return decode(scores, model.transition_weights, model.label_set, lengths,
                  constrained)
