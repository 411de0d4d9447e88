"""Functions that only the tests call, kept out of ``src/``: a one-sentence
BiLSTM forward pass and an embedding-table writer."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from raretag.embeddings import EmbeddingTable
from raretag.neural import HEAD_SOFTMAX, BiLstmTagger, _scores, _softmax_rows
from raretag.tokenizer import Token


def forward_sentence(tagger: BiLstmTagger, tokens: list[Token]) -> np.ndarray:
    """Per-token label scores [T, L]; softmax head rows are normalized."""
    raw = _scores(tagger, [tokens])
    return _softmax_rows(raw) if tagger.head_kind == HEAD_SOFTMAX else raw


def save_text_format(table: EmbeddingTable, path: str | Path,
                     header: bool = False) -> None:
    """Write the table in text format with 6 significant digits."""
    words = sorted(table.vocab, key=table.vocab.get)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(words)} {table.dim}\n")
        for word in words:
            values = " ".join(f"{v:.6g}" for v in table.matrix[table.vocab[word]])
            fh.write(f"{word} {values}\n")
