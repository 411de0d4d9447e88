"""BiLSTM sequence tagger with a per-token softmax head or a CRF head.

Everything runs in float64 on the CPU, exact enough for finite-difference
gradient checks. Losses and tagging run ``chain.PASS_SENTENCES`` sentences
per pass in ``chain``'s packed layout (no padding), with one embedding
gather, one recurrence per direction and one head per pass; tagging
decodes each pass with one Viterbi call.

The losses, ``build_tagger`` and ``fit`` run on an ``encoding.Encoded``
corpus: each token's id into one interned word list and its label id, as
int arrays (``TaggedSentence`` lists are encoded on entry). A corpus is
mapped onto a tagger's embedding rows once, counting each token once
toward the table's ``oov_rate``; ``fit`` does it once per fit and its
batches carry the rows, so no epoch looks a word up again. Training is
Adam with bias correction, global-norm gradient clipping and
patience-based early stopping on the validation loss, which on the CRF
head runs the forward recursion only (``chain.log_partition``);
``FitHistory`` records the largest pre-clip gradient norm and the number
of clipped batches. Initial weights and each epoch's shuffle come from
``rng.Pcg64`` (the stream of ``numpy.random.default_rng``), so given a
fixed seed a run is fully deterministic.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import chain, embeddings, rng
from .crf import decode
from .embeddings import EmbeddingTable
from .iob import TAGS, TaggedSentence
from .lstm import LstmCell, backprop_sequence, run_sequence
from .settings import EMBEDDING_DIM, FitConfig
from .tokenizer import Sentence, Token

if TYPE_CHECKING:
    from .encoding import Encoded

HEAD_SOFTMAX = "softmax"
HEAD_CRF = "crf"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class BiLstmTagger:
    label_set: list[str]
    head_kind: str  # "softmax" or "crf"
    embedding: EmbeddingTable  # materialized over the training vocabulary
    embedding_trainable: bool
    forward_cell: LstmCell
    backward_cell: LstmCell
    head_W: np.ndarray  # [labels, 2*hidden]
    head_b: np.ndarray  # [labels]
    transitions: np.ndarray | None  # [labels, labels], CRF head only

    def __post_init__(self):
        if self.head_kind not in (HEAD_SOFTMAX, HEAD_CRF):
            raise ValueError(f"unknown head kind {self.head_kind!r}")
        if not all(isinstance(label, str) for label in self.label_set):
            raise ValueError("labels must be strings")
        if not isinstance(self.embedding_trainable, bool):
            raise ValueError("embedding_trainable must be a bool")
        L = len(self.label_set)
        two_h = 2 * self.forward_cell.hidden_dim
        if self.head_W.shape != (L, two_h) or self.head_b.shape != (L,):
            raise ValueError(f"head shapes {self.head_W.shape}, {self.head_b.shape}"
                             f" != ({L}, {two_h}), ({L},)")
        if self.head_kind == HEAD_SOFTMAX:
            if self.transitions is not None:
                raise ValueError("a softmax head carries no transition matrix")
        elif self.transitions is None or self.transitions.shape != (L, L):
            raise ValueError("CRF head requires a [L, L] transition matrix")
        weights = [self.embedding.matrix, self.head_W, self.head_b]
        if self.transitions is not None:
            weights.append(self.transitions)
        if not all(np.isfinite(w).all() for w in weights):
            raise ValueError("model weights must be finite")

    @property
    def hidden_dim(self) -> int:
        return self.forward_cell.hidden_dim

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays, keyed for optimizers and checkpoints."""
        params: dict[str, np.ndarray] = {}
        if self.embedding_trainable:
            params["embedding"] = self.embedding.matrix
        for prefix, cell in (("fw", self.forward_cell), ("bw", self.backward_cell)):
            for key, value in cell.parameters().items():
                params[f"{prefix}.{key}"] = value
        params["head.W"] = self.head_W
        params["head.b"] = self.head_b
        if self.transitions is not None:
            params["transitions"] = self.transitions
        return params

    def tag(self, sentences: list[Sentence],
            constrained: bool = False) -> list[list[str]]:
        """Tags of each sentence, run in packed passes of at most
        ``chain.PASS_SENTENCES`` sentences."""
        return [tags for part in chain.passes(sentences)
                for tags in predict(self, [s.tokens for s in part], constrained)]


def _embedded(tagger: BiLstmTagger,
              sentences: Encoded | list[TaggedSentence]) -> Encoded:
    """``sentences`` encoded, with each token's row in the tagger's
    embedding; mapping a corpus counts each of its tokens once toward the
    table's ``oov_rate``, and a corpus already mapped onto the table is
    returned as it is."""
    from .encoding import encoded  # tagging never compiles it

    corpus = encoded(sentences, tagger.label_set)
    table = tagger.embedding
    if corpus.table is table:
        return corpus
    counts = np.bincount(corpus.word_ids, minlength=len(corpus.words))
    word_rows = np.array([table.row(word, n) if n else -1
                          for word, n in zip(corpus.words, counts.tolist())],
                         dtype=np.intc)
    return replace(corpus, rows=word_rows[corpus.word_ids], table=table)


def build_tagger(
    train_sentences: Encoded | list[TaggedSentence],
    source_table: EmbeddingTable,
    head_kind: str = HEAD_CRF,
    hidden_dim: int = FitConfig.hidden_dim,
    seed: int = FitConfig.seed,
    train_embeddings: bool | None = None,
) -> BiLstmTagger:
    """Materialize embeddings over the training vocabulary and init weights.

    ``train_embeddings`` defaults to the table's origin: trainable for
    randomly initialized tables (the network adjusts them), frozen for
    pretrained files; pass an explicit bool to override either way.
    """
    from .encoding import encoded

    train = encoded(train_sentences, TAGS)
    if not len(train):
        raise ValueError("no training sentences")
    vocab = train.vocabulary()
    matrix = np.vstack([source_table.lookup(w) for w in vocab])
    table = EmbeddingTable(
        source_table.dim,
        {w: i for i, w in enumerate(vocab)},
        matrix,
        source_table.oov_policy,
        source_table.seed,
        origin=source_table.origin,
    )
    if train_embeddings is None:
        train_embeddings = source_table.origin == "random"
    draws = rng.Pcg64(seed)
    labels = list(TAGS)
    L = len(labels)
    fw = LstmCell.create(source_table.dim, hidden_dim, draws)
    bw = LstmCell.create(source_table.dim, hidden_dim, draws)
    head_W = draws.uniform(-0.1, 0.1, (L, 2 * hidden_dim))
    head_b = np.zeros(L)
    transitions = np.zeros((L, L)) if head_kind == HEAD_CRF else None
    return BiLstmTagger(
        labels, head_kind, table, bool(train_embeddings), fw, bw,
        head_W, head_b, transitions,
    )


def _inputs(table: EmbeddingTable, rows: np.ndarray, word) -> np.ndarray:
    """Input matrix [T, dim] of tokens at embedding ``rows``: a token at
    row -1 takes the OOV vector of its word, ``word(t)``, at this call, as
    the ``mean_vector`` policy follows the weights being trained."""
    X = table.matrix[rows]
    for t in np.flatnonzero(rows < 0):
        X[t] = table._oov_vector(word(t))
    return X


def _embed(tagger: BiLstmTagger, tokens: list[Token]) -> tuple[np.ndarray, np.ndarray]:
    """Input matrix [T, dim] and per-token row index (-1 for OOV)."""
    table = tagger.embedding
    rows = np.array([table.row(t.surface) for t in tokens], dtype=np.intp)
    return _inputs(table, rows, lambda t: tokens[t].surface), rows


def _forward(tagger: BiLstmTagger, X: np.ndarray, batch_sizes, reverse):
    """Raw label scores [N, L] of packed input rows; ``reverse`` indexes
    the rows with every sentence reversed (``chain.reversed_rows``)."""
    hs_f, cache_f = run_sequence(tagger.forward_cell, X, batch_sizes)
    hs_b, cache_b = run_sequence(tagger.backward_cell, X[reverse], batch_sizes)
    H = np.hstack([hs_f, hs_b[reverse]])  # [N, 2*hidden]
    return H @ tagger.head_W.T + tagger.head_b, (cache_f, cache_b, H)


def _pack_inputs(lengths, X: np.ndarray, rows: np.ndarray):
    """(batch_sizes, packed row of each token of the concatenated
    sentences of these ``lengths``, and their input rows [N, dim] and
    embedding rows, packed)."""
    if not all(lengths):
        raise ValueError("cannot run the tagger on an empty sentence")
    sizes, order = chain.pack(lengths)
    token = np.argsort(order)  # packed row -> token of the concatenation
    return sizes, order, X[token], rows[token]


def _scores(tagger: BiLstmTagger, sentences: list[list[Token]]) -> np.ndarray:
    """Raw label scores [N, L] of sentences run as one packed pass, in
    the token order of the concatenated sentences."""
    X, rows = _embed(tagger, [tok for tokens in sentences for tok in tokens])
    sizes, order, X, _ = _pack_inputs([len(tokens) for tokens in sentences],
                                      X, rows)
    raw, _ = _forward(tagger, X, sizes, chain.reversed_rows(sizes))
    return raw[order]


def _softmax_rows(raw: np.ndarray) -> np.ndarray:
    shifted = raw - raw.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss(tagger: BiLstmTagger, batch: Encoded | list[TaggedSentence]) -> float:
    """Mean per-token cross-entropy (softmax head) or mean per-sentence
    sequence NLL (CRF head)."""
    value, _ = _loss_impl(tagger, batch, want_grads=False)
    return value


def loss_and_gradients(
    tagger: BiLstmTagger, batch: Encoded | list[TaggedSentence]
) -> tuple[float, dict[str, np.ndarray]]:
    return _loss_impl(tagger, batch, want_grads=True)


def _loss_denominator(tagger: BiLstmTagger, batch: Encoded) -> int:
    """A batch's loss is the mean over its tokens (softmax) or sentences (CRF)."""
    if tagger.head_kind == HEAD_SOFTMAX:
        return int(batch.lengths.sum())
    return len(batch)


def _loss_impl(tagger, batch, want_grads):
    batch = _embedded(tagger, batch)
    if not len(batch):
        raise ValueError("empty batch")
    grads = ({k: np.zeros_like(v) for k, v in tagger.parameters().items()}
             if want_grads else None)
    denom = _loss_denominator(tagger, batch)
    total = sum(_pass_loss(tagger, part, denom, grads)
                for part in chain.passes(batch))
    value = total / denom
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite loss {value!r}")
    return value, grads


def _pass_loss(tagger, part: Encoded, denom, grads) -> float:
    """Summed loss of the sentences of an embedded corpus run as one packed
    pass; adds the gradients of that sum divided by ``denom`` into
    ``grads`` unless it is None."""
    X = _inputs(part.table, part.rows, lambda t: part.words[part.word_ids[t]])
    sizes, order, X, rows = _pack_inputs(part.lengths, X, part.rows)
    gold = np.empty(len(order), dtype=np.intp)
    gold[order] = part.label_ids
    reverse = chain.reversed_rows(sizes)
    raw, (cache_f, cache_b, H) = _forward(tagger, X, sizes, reverse)
    if tagger.head_kind == HEAD_SOFTMAX:
        d_raw = _softmax_rows(raw)
        picked = np.arange(len(gold)), gold
        value = float(-np.log(d_raw[picked]).sum())
        d_raw[picked] -= 1.0
    elif grads is None:  # the NLL alone: the forward recursion, no marginals
        return (chain.log_partition(raw, tagger.transitions, sizes)
                - chain.sequence_score(raw, tagger.transitions, gold, sizes))
    else:
        value, d_raw, d_trans = chain.nll_and_gradients(
            raw, tagger.transitions, gold, sizes)
    if grads is None:
        return value
    if tagger.head_kind == HEAD_CRF:
        grads["transitions"] += d_trans / denom
    d_raw /= denom
    grads["head.W"] += d_raw.T @ H
    grads["head.b"] += d_raw.sum(axis=0)
    dH = d_raw @ tagger.head_W  # [N, 2*hidden]
    hidden = tagger.hidden_dim
    grads_f, dX = backprop_sequence(tagger.forward_cell, cache_f, dH[:, :hidden])
    grads_b, dX_b = backprop_sequence(tagger.backward_cell, cache_b,
                                      dH[reverse, hidden:])
    for key in grads_f:
        grads[f"fw.{key}"] += grads_f[key]
        grads[f"bw.{key}"] += grads_b[key]
    if tagger.embedding_trainable:
        dX += dX_b[reverse]
        known = rows >= 0
        np.add.at(grads["embedding"], rows[known], dX[known])
    return value


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class AdamOptimizer:
    def __init__(self, params: dict[str, np.ndarray], config: FitConfig):
        self.params = params
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        lr = self.config.learning_rate
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for key, param in self.params.items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


class EarlyStopping:
    """Stop after `patience` consecutive epochs without improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record an epoch's monitored value; True means stop now."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


@dataclass
class FitHistory:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    max_gradient_norm: float = 0.0  # the largest pre-clip global norm
    clipped_batches: int = 0  # batches whose norm exceeded the clip norm

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for e, tr, va in zip(self.epochs, self.train_loss, self.val_loss):
            writer.writerow([e, f"{tr:.10g}", f"{va:.10g}"])
        return buf.getvalue()


# a diverging fit is reported by its non-finite loss check, not by numpy's
# overflow and invalid-value warnings on the way there
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit(
    tagger: BiLstmTagger,
    train: Encoded | list[TaggedSentence],
    validation: Encoded | list[TaggedSentence],
    config: FitConfig,
    progress=None,
) -> tuple[BiLstmTagger, FitHistory]:
    """Train in place; returns the tagger holding the best-epoch weights.

    Stops when the validation loss has not improved for `patience`
    consecutive epochs (or at max_epochs) and restores the parameters
    from the best epoch. Both splits are mapped onto the embedding rows
    once, before the first epoch.
    """
    train = _embedded(tagger, train)
    validation = _embedded(tagger, validation)
    if not len(train) or not len(validation):
        raise ValueError("train and validation splits must be non-empty")
    params = tagger.parameters()
    optimizer = AdamOptimizer(params, config)
    stopper = EarlyStopping(config.patience)
    draws = rng.Pcg64(config.seed)
    history = FitHistory()
    best_params = {k: v.copy() for k, v in params.items()}

    order = list(range(len(train)))
    for epoch in range(1, config.max_epochs + 1):
        draws.shuffle(order)
        loss_sum = 0.0
        weight_sum = 0
        for start in range(0, len(order), config.batch_size):
            batch = train[order[start : start + config.batch_size]]
            try:
                value, grads = loss_and_gradients(tagger, batch)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"epoch {epoch}, batch at index {start}: {err}"
                ) from None
            norm = clip_gradients(grads, config.gradient_clip_norm)
            history.max_gradient_norm = max(history.max_gradient_norm, norm)
            history.clipped_batches += norm > config.gradient_clip_norm
            optimizer.step(grads)
            # weight by the batch's own denominator so the epoch loss is a
            # true dataset mean (and batch-partition invariant at lr=0)
            weight = _loss_denominator(tagger, batch)
            loss_sum += value * weight
            weight_sum += weight
        train_loss = loss_sum / weight_sum
        try:
            val_loss = loss(tagger, validation)
        except FloatingPointError as err:
            raise FloatingPointError(f"epoch {epoch}, validation: {err}") from None
        history.epochs.append(epoch)
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best_params = {k: v.copy() for k, v in params.items()}
        if progress is not None:
            progress(epoch, train_loss, val_loss)
        if stop:
            break
    history.best_epoch = stopper.best_epoch
    history.stopped_epoch = history.epochs[-1] if history.epochs else 0
    for k, v in params.items():
        v[...] = best_params[k]
    return tagger, history


def predict(
    tagger: BiLstmTagger, sentences: list[list[Token]], constrained: bool = False
) -> list[list[str]]:
    """IOB tags of each sentence (a list of tokens), run and decoded as one
    packed pass, optionally with hard IOB2 constraints.

    The softmax head decodes with zero transitions: the per-token argmax
    (ties go to the lower label index), or with constraints the most
    probable IOB2-valid sequence, as each token's normalizer is constant.
    """
    raw = _scores(tagger, sentences)
    L = len(tagger.label_set)
    transitions = np.zeros((L, L)) if tagger.transitions is None else tagger.transitions
    return decode(raw, transitions, tagger.label_set,
                  [len(tokens) for tokens in sentences], constrained)


def train_run(corpus: Encoded, validation: Encoded, config: FitConfig,
              progress=None, options=None):
    """The ``train`` command's entry for both neural kinds: ``options``, the
    run's config, names the kind and the embedding source. Returns the
    tagger, its manifest metrics and its history CSV by its path's key."""
    source = options["embedding"]
    policy = {"oov_policy": options["oov_policy"]} if "oov_policy" in options else {}
    if source == "random":
        table = embeddings.random_table(
            corpus.vocabulary(), options.get("embedding_dim", EMBEDDING_DIM),
            config.seed, **policy)
    elif not Path(source).exists():
        raise ValueError(f"embedding file not found: {source}")
    else:
        table = embeddings.load_text_format(source, seed=config.seed, **policy)
        if options.get("embedding_dim", table.dim) != table.dim:
            raise ValueError(f"embedding_dim = {options['embedding_dim']}, but "
                             f"{source} holds {table.dim}-wide vectors")
    head = HEAD_CRF if options["model_kind"] == "bilstm-crf" else HEAD_SOFTMAX
    tagger = build_tagger(corpus, table, head_kind=head,
                          hidden_dim=config.hidden_dim, seed=config.seed,
                          train_embeddings=options.get("train_embeddings"))
    hook = {} if progress is None else {"progress": progress}
    model, history = fit(tagger, corpus, validation, config, **hook)
    return model, {
        "best_epoch": history.best_epoch,
        "stopped_epoch": history.stopped_epoch,
        "best_val_loss": min(history.val_loss) if history.val_loss else None,
        "embedding_oov_rate": table.oov_rate(),
        "max_gradient_norm": history.max_gradient_norm,
        "clipped_batches": history.clipped_batches,
    }, {"history_out": (".history.csv", history.to_csv())}
