"""The corpus that BiLSTM training runs on: tagged sentences as int arrays.

``Encoder`` encodes ``(surfaces, tags)`` pairs as they arrive, so a caller
that streams its file never holds a ``Token`` for the whole fit. Every
corpus of one encoder shares its interned word list. ``neural`` imports
this module only on its training path: under ``PYTHONDONTWRITEBYTECODE``
each command compiles what it imports, and the compiler's peak for one
module sets the resident peak of a short tagging command.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .embeddings import EmbeddingTable


@dataclass
class Encoded:
    """Tagged sentences as int32 arrays: each token's id into ``words`` and
    its label's index in ``label_set`` (-1 for a label outside it),
    sentence after sentence. ``len`` counts sentences, and indexing by a
    slice or a sequence of indices selects sentences, in that order.

    ``rows`` holds each token's row in the embedding ``table`` (-1 when
    out of vocabulary) once ``neural`` has mapped the corpus onto it.
    """

    words: list[str]  # shared by every corpus of one Encoder
    label_set: list[str]
    word_ids: np.ndarray  # [N]
    label_ids: np.ndarray  # [N]
    lengths: np.ndarray  # [S] tokens of each sentence
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
        rows = None if self.rows is None else self.rows[tokens]
        return Encoded(self.words, self.label_set, self.word_ids[tokens],
                       self.label_ids[tokens], lengths, rows, self.table)

    def vocabulary(self) -> list[str]:
        """The distinct words of these sentences, sorted."""
        seen = np.bincount(self.word_ids, minlength=len(self.words))
        return sorted(self.words[i] for i in np.flatnonzero(seen).tolist())


class Encoder:
    """Encodes tagged sentences into ``Encoded`` corpora that share one
    word list: a word's id is the order of its first appearance."""

    def __init__(self, label_set: list[str]):
        self.words: list[str] = []
        self.label_set = label_set
        self._word_ids: dict[str, int] = {}
        self._label_ids = {label: i for i, label in enumerate(label_set)}

    def encode(self, sentences: Iterable[tuple[list[str], list[str]]]
               ) -> tuple[Encoded, list[str]]:
        """The corpus of ``(surfaces, tags)`` pairs, read once as they
        come, and the tags outside the label set in order of appearance."""
        word_ids, label_ids, lengths = array("i"), array("i"), array("i")
        unknown: dict[str, None] = {}
        for surfaces, tags in sentences:
            for word in surfaces:
                word_id = self._word_ids.get(word)
                if word_id is None:
                    word_id = self._word_ids[word] = len(self.words)
                    self.words.append(word)
                word_ids.append(word_id)
            for tag in tags:
                label = self._label_ids.get(tag, -1)
                if label < 0:
                    unknown[tag] = None
                label_ids.append(label)
            lengths.append(len(surfaces))
        corpus = Encoded(self.words, self.label_set,
                         *(np.frombuffer(a, dtype=np.intc)
                           for a in (word_ids, label_ids, lengths)))
        return corpus, list(unknown)
