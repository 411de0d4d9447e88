"""Word-embedding tables: text-format loading, OOV handling, random init.

Supports the whitespace-delimited text formats (one ``word v1 .. vd``
line each, with or without a leading ``count dim`` header). The word2vec
binary format is intentionally unsupported; convert externally. Out-of-
vocabulary lookups follow the table's policy: zeros, a per-word seeded
random vector (cached, so repeats are identical), or the mean vector.
Random vectors are drawn from ``rng.Pcg64``, the stream of
``numpy.random.default_rng``, without importing ``numpy.random``. An
out-of-vocabulary word under ``random_seeded`` seeds its stream with a
keyed ``blake2b`` of the word, taken from CPython's builtin ``_blake2``
module: ``hashlib`` would map OpenSSL's libcrypto (about 3.5 MB resident)
for the same function, so it is imported only where ``_blake2`` is missing.

``oov_rate`` is the share of looked-up tokens that missed: ``row`` counts
each call as one token, or as the ``count`` tokens of a word that its
caller looks up once for all of them. Tagging counts each token it tags;
``neural.fit`` counts each token of its training and validation splits
once per fit, not once per epoch, so the rate is the split's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng
from .atomic import read_utf8
from .settings import DEFAULT_OOV_POLICY, OOV_POLICIES

try:
    from _blake2 import blake2b  # hashlib.blake2b, without libcrypto
except ImportError:  # pragma: no cover - a CPython built without it
    from hashlib import blake2b

OOV_SCALE = 0.25  # uniform(-0.25, 0.25), also used for random tables


class EmbeddingParseError(ValueError):
    pass


def _word_rng(seed: int, word: str) -> rng.Pcg64:
    digest = blake2b(
        word.encode("utf-8"), digest_size=8, key=str(seed).encode()
    ).digest()
    return rng.Pcg64(int.from_bytes(digest, "little"))


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
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not all(isinstance(word, str) for word in self.vocab):
            raise ValueError("vocabulary words must be strings")
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
            self._oov_cache[word] = _word_rng(self.seed, word).uniform(
                -OOV_SCALE, OOV_SCALE, self.dim)
        return self._oov_cache[word]

    def row(self, word: str, count: int = 1) -> int:
        """Matrix row of a word: exact match, then lowercase; -1 when the
        word is out of vocabulary. Counts as ``count`` token lookups toward
        ``oov_rate``."""
        self._lookups += count
        row = self.vocab.get(word, self.vocab.get(word.lower(), -1))
        if row < 0:
            self._misses += count
        return row

    def lookup(self, word: str) -> np.ndarray:
        """Vector for a word: its ``row``, else the OOV policy's vector."""
        row = self.row(word)
        return self.matrix[row] if row >= 0 else self._oov_vector(word)

    def oov_rate(self) -> float:
        return self._misses / self._lookups if self._lookups else 0.0


def load_text_format(
    path: str | Path,
    oov_policy: str = DEFAULT_OOV_POLICY,
    seed: int = 0,
) -> EmbeddingTable:
    """Load a GloVe-style or word2vec-text embedding file.

    A first line of exactly two integer tokens is the ``count dim``
    header, and the vector lines after it must then number ``count`` and
    hold ``dim`` values each, written as ``str`` writes them. Duplicate words keep their first vector; the
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
                header = head
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
    if header and header != [str(len(vocab) + duplicates), str(dim)]:
        raise EmbeddingParseError(
            f"{path}: the header announces {header[0]} vectors of {header[1]} "
            f"values, but the file holds {len(vocab) + duplicates} of {dim}"
        )
    return EmbeddingTable(
        dim, vocab, np.vstack(vectors), oov_policy, seed, duplicates
    )


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
    matrix = rng.Pcg64(seed).uniform(-OOV_SCALE, OOV_SCALE, (len(index), dim))
    return EmbeddingTable(dim, index, matrix, oov_policy, seed, origin="random")
