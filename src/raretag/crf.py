"""Feature-based linear-chain CRF with L-BFGS maximum-likelihood training.

The model scores a tag sequence as the sum of state weights for every
(active feature, tag) pair plus transition weights between adjacent tags.
Training minimizes the L2/L1-regularized negative log-likelihood; the
expected feature counts come from forward-backward marginals. Unseen
test-time features are dropped, never grown into the model.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import chain, iob, lbfgs
from .features import DEFAULT_WINDOW, sentence_features
from .iob import TaggedSentence
from .tokenizer import Sentence


def require_finite(config) -> None:
    """Reject a settings dataclass with a nan or infinite field."""
    for setting in dataclasses.fields(config):
        value = getattr(config, setting.name)
        if not math.isfinite(value):
            raise ValueError(f"{setting.name} must be finite, got {value}")


@dataclass
class TrainConfig:
    l2_coefficient: float = 1.0
    l1_coefficient: float = 0.0
    max_iterations: int = 100
    convergence_tol: float = 1e-5
    lbfgs_memory: int = 6
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        require_finite(self)
        if min(self.l2_coefficient, self.l1_coefficient) < 0:
            raise ValueError("regularization coefficients must be >= 0")
        if self.max_iterations < 0 or self.lbfgs_memory < 1:
            raise ValueError("invalid iteration/memory settings")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")


def _flat_pairs(indexed: list[np.ndarray],
                token_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(score row, feature index) of every active pair, token by token."""
    sizes = [idx.size for idx in indexed]
    return np.repeat(token_rows, sizes), np.concatenate(indexed)


def _gather_sum(source: np.ndarray, take: np.ndarray, put: np.ndarray,
                size: int) -> np.ndarray:
    """[size, L] array whose row r sums ``source[take[k]]`` over all k with
    ``put[k] == r``: state scores from weights, or the state gradient from
    score gradients, one ``np.bincount`` per label over a contiguous copy
    of that label's column."""
    out = np.empty((source.shape[1], size))
    for label, column in enumerate(source.T.copy()):
        out[label] = np.bincount(put, column.take(take), minlength=size)
    # C order: the callers read [size, L] rows, and tagging slows on a view
    return out.T.copy()


@dataclass
class CrfModel:
    label_set: list[str]
    feature_index: dict[str, int]
    state_weights: np.ndarray  # [num_features, num_labels]
    transition_weights: np.ndarray  # [num_labels, num_labels]
    window: int = DEFAULT_WINDOW
    label_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        F, L = len(self.feature_index), len(self.label_set)
        if self.state_weights.shape != (F, L):
            raise ValueError(f"state_weights shape {self.state_weights.shape} "
                             f"does not match ({F}, {L})")
        if self.transition_weights.shape != (L, L):
            raise ValueError("transition_weights shape mismatch")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if not (np.isfinite(self.state_weights).all()
                and np.isfinite(self.transition_weights).all()):
            raise ValueError("model weights must be finite")
        self.label_index = {lab: i for i, lab in enumerate(self.label_set)}

    def index_tokens(self, token_features: list[list[str]]) -> list[np.ndarray]:
        """Map feature strings to indices, dropping unseen features."""
        return [
            np.array(
                [self.feature_index[f] for f in feats if f in self.feature_index],
                dtype=np.intp,
            )
            for feats in token_features
        ]

    def state_scores(self, indexed: list[np.ndarray]) -> np.ndarray:
        rows, features = _flat_pairs(indexed, np.arange(len(indexed)))
        return _gather_sum(self.state_weights, features, rows, len(indexed))

    def tag(self, sentences: list[Sentence],
            constrained: bool = False) -> list[list[str]]:
        """Tags of each sentence, decoded in packed passes of at most
        ``chain.PASS_SENTENCES`` sentences."""
        return [tags for part in chain.passes(sentences)
                for tags in viterbi(self, [sentence_features(s, self.window)
                                           for s in part], constrained)]


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


def marginals(
    model: CrfModel, token_features: list[list[str]]
) -> tuple[float, np.ndarray, np.ndarray]:
    if not token_features:
        raise ValueError("cannot compute marginals of an empty sentence")
    scores = model.state_scores(model.index_tokens(token_features))
    return chain.forward_backward(scores, model.transition_weights)


def _flatten(state: np.ndarray, trans: np.ndarray) -> np.ndarray:
    return np.concatenate([state.ravel(), trans.ravel()])


def _unflatten(w: np.ndarray, F: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    return w[: F * L].reshape(F, L), w[F * L :].reshape(L, L)


@dataclass
class _Packed:
    """Sentences in ``chain.forward_backward``'s packed layout, with every
    active (token, feature) pair flattened."""

    batch_sizes: np.ndarray  # sentences still running at each position
    gold: np.ndarray  # [N] gold label index of each packed row
    rows: np.ndarray  # packed row of each active pair
    features: np.ndarray  # feature index of each active pair


def _pack(indexed_batch: list[tuple[list[np.ndarray], np.ndarray]]) -> _Packed:
    """Lay out indexed sentences longest first; ties keep their order."""
    batch_sizes, token_rows = chain.pack([len(gold) for _, gold in indexed_batch])
    gold = np.empty(len(token_rows), dtype=np.intp)
    gold[token_rows] = np.concatenate([g for _, g in indexed_batch])
    rows, features = _flat_pairs(
        [idx for indexed, _ in indexed_batch for idx in indexed], token_rows
    )
    return _Packed(batch_sizes, gold, rows, features)


def _batch_nll_grad(
    w: np.ndarray, batch: _Packed, F: int, L: int, l2: float
) -> tuple[float, np.ndarray]:
    """Sum of per-sentence NLL plus the L2 term, with its gradient."""
    state, trans = _unflatten(w, F, L)
    scores = _gather_sum(state, batch.features, batch.rows, len(batch.gold))
    nll, d_scores, d_trans = chain.nll_and_gradients(
        scores, trans, batch.gold, batch.batch_sizes
    )
    grad_state = _gather_sum(d_scores, batch.rows, batch.features, F)
    value = nll + 0.5 * l2 * float(np.dot(w, w))
    grad = _flatten(grad_state, d_trans) + l2 * w
    return value, grad


def _gold(model: CrfModel, indexed: list[np.ndarray], tags: list[str]
          ) -> tuple[list[np.ndarray], np.ndarray]:
    """An indexed sentence with its gold label indices, checked."""
    if not indexed:
        raise ValueError("batch contains an empty sentence")
    if len(indexed) != len(tags):
        raise ValueError("feature/tag length mismatch")
    try:
        gold = np.array([model.label_index[t] for t in tags], dtype=np.intp)
    except KeyError as err:
        raise ValueError(f"unknown label in gold tags: {err}") from None
    return indexed, gold


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
    F, L = len(model.feature_index), len(model.label_set)
    w = _flatten(model.state_weights, model.transition_weights)
    packed = _pack([_gold(model, model.index_tokens(token_features), tags)
                    for token_features, tags in batch])
    value, grad = _batch_nll_grad(w, packed, F, L, config.l2_coefficient)
    value += config.l1_coefficient * float(np.abs(w).sum())
    return value, grad


def build_feature_index(
    sentences: list[TaggedSentence], window: int = DEFAULT_WINDOW
) -> tuple[dict[str, int], list[list[np.ndarray]]]:
    """The training features in first-seen order, and every sentence's
    tokens indexed by them, from one feature extraction per sentence: each
    sentence is indexed as soon as its features join the shared index, so
    the whole corpus's feature strings are never held at once."""
    index: dict[str, int] = {}
    # index_tokens is the one indexer of training and tagging; this model
    # shares the growing index, and its weights are never read
    indexer = CrfModel([], index, np.zeros((0, 0)), np.zeros((0, 0)), window)
    indexed = []
    for ts in sentences:
        token_features = sentence_features(Sentence(ts.tokens), window)
        for feats in token_features:
            for f in feats:
                index.setdefault(f, len(index))
        indexed.append(indexer.index_tokens(token_features))
    return index, indexed


def train(
    sentences: list[TaggedSentence],
    config: TrainConfig | None = None,
    progress=None,
) -> tuple[CrfModel, lbfgs.OptimizeResult]:
    """Fit a CRF on tagged sentences; returns the model and optimizer info.

    The feature index is built from the training data only. With
    max_iterations=0 the returned model keeps its all-zero initialization.
    """
    if not sentences:
        raise ValueError("no training sentences")
    config = config or TrainConfig()
    labels = list(iob.TAGS)
    feature_index, indexed = build_feature_index(sentences, config.window)
    model = make_zero_model(labels, feature_index, config.window)
    batch = _pack([_gold(model, tokens, ts.tags)
                   for tokens, ts in zip(indexed, sentences)])
    del indexed  # the packed arrays hold the same indices
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


def decode(scores: np.ndarray, transitions: np.ndarray, label_set: list[str],
           lengths: list[int], constrained: bool = False) -> list[list[str]]:
    """Viterbi labels of sentences with these token counts, decoded as one
    packed batch from the [N, L] scores of their concatenated tokens,
    optionally restricted to the moves ``iob.continues`` accepts."""
    start_mask = trans_mask = None
    if constrained:
        start_mask, trans_mask = (np.array(mask, dtype=bool)
                                  for mask in iob.decode_masks(label_set))
    batch_sizes, rows = chain.pack(lengths)
    packed = np.empty_like(scores)
    packed[rows] = scores
    path = chain.viterbi(packed, transitions, start_mask, trans_mask, batch_sizes)
    labels = [label_set[path[row]] for row in rows.tolist()]
    ends = np.cumsum(lengths).tolist()
    return [labels[end - n : end] for n, end in zip(lengths, ends)]


def viterbi(
    model: CrfModel, sentences: list[list[list[str]]], constrained: bool = False
) -> list[list[str]]:
    """Highest-scoring tag sequence of each sentence, given as its tokens'
    feature strings; the sentences are scored and decoded as one pass."""
    if not all(sentences):
        raise ValueError("cannot decode an empty sentence")
    token_features = [feats for sentence in sentences for feats in sentence]
    scores = model.state_scores(model.index_tokens(token_features))
    return decode(scores, model.transition_weights, model.label_set,
                  [len(sentence) for sentence in sentences], constrained)
