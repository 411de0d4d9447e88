"""The corpus that training runs on: tagged sentences as int arrays.

``Encoder`` encodes ``(tokens, tags)`` pairs as they arrive, so a caller
that streams its file never holds a ``Token`` for the whole fit. Every
corpus of one encoder shares its interned word list. BiLSTM training
encodes each token's surface; CRF training encodes its four
``features.attribute_values``, the ids that ``features.window_keys``
keys. ``neural`` and ``crf`` import this module only on their training
paths: under ``PYTHONDONTWRITEBYTECODE`` each command compiles what it
imports, and the compiler's peak for one module sets the resident peak
of a short tagging command.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .features import BOS, EOS, attribute_values, window_keys

if TYPE_CHECKING:
    from .embeddings import EmbeddingTable
    from .iob import TaggedSentence
    from .tokenizer import Token


@dataclass
class Encoded:
    """Tagged sentences as int32 arrays: each token's id into ``words`` and
    its label's index in ``label_set`` (-1 for a label outside it),
    sentence after sentence. ``len`` counts sentences, and indexing by a
    slice or a sequence of indices selects sentences, in that order, and
    ``+`` joins the corpora of one ``Encoder``.

    ``values`` holds each token's ``features.attribute_values`` ids into
    ``words`` when the encoder interns them; ``word_ids`` is its first
    column then. ``rows`` holds each token's row in the embedding
    ``table`` (-1 when out of vocabulary) once ``neural`` has mapped the
    corpus onto it.
    """

    words: list[str]  # shared by every corpus of one Encoder
    label_set: list[str]
    word_ids: np.ndarray  # [N]
    label_ids: np.ndarray  # [N]
    lengths: np.ndarray  # [S] tokens of each sentence
    values: np.ndarray | None = None  # [N, 4]
    rows: np.ndarray | None = None  # [N]
    table: EmbeddingTable | None = None

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, key) -> Encoded:
        chosen = np.arange(len(self.lengths))[key]
        lengths = self.lengths[chosen]
        first = np.cumsum(self.lengths)[chosen] - lengths
        shift = first - (np.cumsum(lengths) - lengths)
        tokens = np.arange(lengths.sum()) + np.repeat(shift, lengths)
        values = None if self.values is None else self.values[tokens]
        rows = None if self.rows is None else self.rows[tokens]
        return Encoded(self.words, self.label_set, self.word_ids[tokens],
                       self.label_ids[tokens], lengths, values, rows,
                       self.table)

    def __add__(self, other: Encoded) -> Encoded:
        """These sentences, then ``other``'s, not mapped onto a table."""
        if other.words is not self.words:
            raise ValueError("only the corpora of one Encoder join")
        values = (None if self.values is None
                  else np.concatenate([self.values, other.values]))
        return Encoded(self.words, self.label_set, *(
            np.concatenate(pair) for pair in (
                (self.word_ids, other.word_ids),
                (self.label_ids, other.label_ids),
                (self.lengths, other.lengths))), values)

    def feature_keys(self, window: int, values: dict[str, int] | None = None
                     ) -> np.ndarray:
        """The ``features.window_keys`` of the tokens over their value ids,
        or renumbered as the ids of their values in ``values``, as
        ``features.sentence_keys`` numbers them."""
        if values is None:
            return window_keys(self.values, self.lengths, len(self.words) + 1,
                               window)
        unseen = len(values)
        renumbered = np.array([values.get(word, unseen) for word in self.words],
                              np.int64)
        return window_keys(renumbered[self.values], self.lengths, unseen + 1,
                           window)

    def vocabulary(self) -> list[str]:
        """The distinct words of these sentences, sorted."""
        seen = np.bincount(self.word_ids, minlength=len(self.words))
        return sorted(self.words[i] for i in np.flatnonzero(seen).tolist())


class Encoder:
    """Encodes tagged sentences into ``Encoded`` corpora that share one
    word list: a word's id is the order of its first appearance.

    With ``attributes``, each token's ``features.attribute_values`` are
    interned, into ``Encoded.values``, after ``BOS`` and ``EOS`` (ids 0
    and 1); otherwise only its surface is.
    """

    def __init__(self, label_set: list[str], attributes: bool = False):
        self.words: list[str] = [BOS, EOS] if attributes else []
        self.label_set = label_set
        self._word_ids = {word: i for i, word in enumerate(self.words)}
        self._label_ids = {label: i for i, label in enumerate(label_set)}
        self._attributes = attributes

    def encode(self, sentences: Iterable[tuple[list[Token], list[str]]]
               ) -> tuple[Encoded, list[str]]:
        """The corpus of ``(tokens, tags)`` pairs, read once as they come,
        and the tags outside the label set in order of appearance."""
        ids, label_ids, lengths = array("i"), array("i"), array("i")
        unknown: dict[str, None] = {}
        for tokens, tags in sentences:
            for tok in tokens:
                for word in (attribute_values(tok) if self._attributes
                             else (tok.surface,)):
                    word_id = self._word_ids.get(word)
                    if word_id is None:
                        word_id = self._word_ids[word] = len(self.words)
                        self.words.append(word)
                    ids.append(word_id)
            for tag in tags:
                label = self._label_ids.get(tag, -1)
                if label < 0:
                    unknown[tag] = None
                label_ids.append(label)
            lengths.append(len(tokens))
        ids, label_ids, lengths = (np.frombuffer(a, dtype=np.intc)
                                   for a in (ids, label_ids, lengths))
        values = ids.reshape(-1, 4) if self._attributes else None
        corpus = Encoded(self.words, self.label_set,
                         ids if values is None else values[:, 0], label_ids,
                         lengths, values)
        return corpus, list(unknown)


def encoded(sentences: Encoded | list[TaggedSentence], label_set: list[str],
            attributes: bool = False) -> Encoded:
    """``sentences``, encoded over ``label_set`` unless they already are;
    a tag outside the label set is a ValueError."""
    if isinstance(sentences, Encoded):
        corpus = sentences
    else:
        corpus, unknown = Encoder(label_set, attributes).encode(
            (ts.tokens, ts.tags) for ts in sentences)
        if unknown:
            raise ValueError(f"unknown label in gold tags: {unknown[0]!r}")
    if corpus.label_set != label_set:
        raise ValueError("the corpus is encoded over another label set")
    return corpus
