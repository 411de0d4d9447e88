"""Word-embedding tables: text-format loading, OOV handling, random init.

Supports the whitespace-delimited text formats (one ``word v1 .. vd``
line each, with or without a leading ``count dim`` header). The word2vec
binary format is intentionally unsupported; convert externally. Out-of-
vocabulary lookups follow the table's policy: zeros, a per-word seeded
random vector (cached, so repeats are identical), or the mean vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import read_utf8

OOV_POLICIES = ("zeros", "random_seeded", "mean_vector")
DEFAULT_OOV_POLICY = "random_seeded"

OOV_SCALE = 0.25  # uniform(-0.25, 0.25), also used for random tables


class EmbeddingParseError(ValueError):
    pass


def _word_rng(seed: int, word: str) -> np.random.Generator:
    digest = hashlib.blake2b(
        word.encode("utf-8"), digest_size=8, key=str(seed).encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


@dataclass
class EmbeddingTable:
    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray  # [len(vocab), dim]
    oov_policy: str = DEFAULT_OOV_POLICY
    seed: int = 0
    duplicate_count: int = 0
    origin: str = "file"  # "file" or "random"
    _oov_cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _lookups: int = field(default=0, repr=False)
    _misses: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.oov_policy not in OOV_POLICIES:
            raise ValueError(f"unknown oov_policy {self.oov_policy!r}")
        if self.matrix.shape != (len(self.vocab), self.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"({len(self.vocab)}, {self.dim})"
            )

    def _oov_vector(self, word: str) -> np.ndarray:
        if self.oov_policy == "zeros":
            return np.zeros(self.dim)
        if self.oov_policy == "mean_vector":
            if not len(self.vocab):
                return np.zeros(self.dim)
            return self.matrix.mean(axis=0)
        if word not in self._oov_cache:
            rng = _word_rng(self.seed, word)
            self._oov_cache[word] = rng.uniform(-OOV_SCALE, OOV_SCALE, self.dim)
        return self._oov_cache[word]

    def row(self, word: str) -> int:
        """Matrix row of a word: exact match, then lowercase; -1 when the
        word is out of vocabulary. Counts toward ``oov_rate``."""
        self._lookups += 1
        row = self.vocab.get(word, self.vocab.get(word.lower(), -1))
        if row < 0:
            self._misses += 1
        return row

    def lookup(self, word: str) -> np.ndarray:
        """Vector for a word: its ``row``, else the OOV policy's vector."""
        row = self.row(word)
        return self.matrix[row] if row >= 0 else self._oov_vector(word)

    def oov_rate(self) -> float:
        return self._misses / self._lookups if self._lookups else 0.0

    def reset_oov_counters(self) -> None:
        self._lookups = self._misses = 0


def load_text_format(
    path: str | Path,
    oov_policy: str = DEFAULT_OOV_POLICY,
    seed: int = 0,
) -> EmbeddingTable:
    """Load a GloVe-style or word2vec-text embedding file.

    A first line of exactly two integer tokens is treated as the
    ``count dim`` header. Duplicate words keep their first vector; the
    number of duplicates is recorded on the table.
    """
    vocab: dict[str, int] = {}
    vectors: list[np.ndarray] = []
    dim = header = None  # both set by the first line with content
    duplicates = 0
    lines = read_utf8(path, EmbeddingParseError).splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if header is None:
            head = line.split()
            header = len(head) == 2 and all(f.lstrip("-").isdigit() for f in head)
            if header:
                continue
        fields = line.rstrip().split(" ")
        word, values = fields[0], fields[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise EmbeddingParseError(f"{path} line {lineno}: no vector values")
        elif len(values) != dim:
            raise EmbeddingParseError(
                f"{path} line {lineno}: expected {dim} values, got {len(values)}"
            )
        if word in vocab:
            duplicates += 1
            continue
        try:
            vectors.append(np.array([float(v) for v in values]))
        except ValueError:
            raise EmbeddingParseError(
                f"{path} line {lineno}: non-numeric vector value"
            ) from None
        vocab[word] = len(vocab)
    if dim is None:
        raise EmbeddingParseError(
            f"{path}: header but no vectors" if header
            else f"{path}: empty embedding file"
        )
    return EmbeddingTable(
        dim, vocab, np.vstack(vectors), oov_policy, seed, duplicates
    )


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


def random_table(
    vocab: list[str], dim: int, seed: int, oov_policy: str = DEFAULT_OOV_POLICY
) -> EmbeddingTable:
    """Deterministic uniform(-0.25, 0.25) table over the given vocabulary."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    if not vocab:
        raise ValueError("empty vocabulary")
    index: dict[str, int] = {}
    for word in vocab:
        if word in index:
            raise ValueError(f"duplicate word in vocabulary: {word!r}")
        index[word] = len(index)
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-OOV_SCALE, OOV_SCALE, (len(index), dim))
    return EmbeddingTable(dim, index, matrix, oov_policy, seed, origin="random")
