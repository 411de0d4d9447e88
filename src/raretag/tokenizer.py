"""Rule-based sentence splitting and tokenization with character offsets.

This is an approximation of a full NLP preprocessing pipeline: sentences
break on terminal punctuation followed by whitespace and an uppercase
letter (with a small abbreviation list) and on blank lines; tokens split
on whitespace with leading/trailing punctuation peeled off. Lemma falls
back to the lowercased surface and PoS to "X". Projects that need real
lemmas/PoS tags feed pre-annotated CoNLL through `raretag.conll` instead.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

# Abbreviations that do not end a sentence even before an uppercase word.
ABBREVIATIONS = frozenset(
    {
        "e.g.", "i.e.", "etc.", "cf.", "vs.", "ca.", "approx.", "al.",
        "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "no.", "fig.", "eq.",
    }
)

_TERMINALS = ".!?"
_PUNCT = set(string.punctuation)

FALLBACK_POS = "X"


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int
    lemma: str
    pos: str

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"token {self.surface!r}: empty span")
        if not self.lemma or not self.pos:
            raise ValueError(f"token {self.surface!r}: empty lemma or pos")


@dataclass
class Sentence:
    tokens: list[Token]
    sent_index: int = 0

    def __post_init__(self):
        for a, b in zip(self.tokens, self.tokens[1:]):
            if b.start < a.end:
                raise ValueError("token offsets overlap or go backwards")

    @property
    def start(self) -> int:
        return self.tokens[0].start if self.tokens else 0

    @property
    def end(self) -> int:
        return self.tokens[-1].end if self.tokens else 0


def _word_ending_at(text: str, pos: int) -> str:
    """The whitespace-delimited chunk whose last character is text[pos]."""
    begin = pos
    while begin > 0 and not text[begin - 1].isspace():
        begin -= 1
    return text[begin : pos + 1]


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Half-open [start, end) sentence spans tiling the whole text.

    Breaks after '.', '!' or '?' when followed by whitespace and an
    uppercase letter, and at blank lines. Known abbreviations never split.
    Returns [] for empty or whitespace-only input.
    """
    if not text.strip():
        return []
    breaks = [0]
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _TERMINALS:
            j = i + 1
            while j < n and text[j] in "\"')]}":
                j += 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k > j and k < n and text[k].isupper():
                if not (ch == "." and _word_ending_at(text, i).lower() in ABBREVIATIONS):
                    breaks.append(k)
                    i = k
                    continue
        elif ch == "\n":
            # blank line: a newline followed by optional spaces and another newline
            j = i + 1
            while j < n and text[j] in " \t":
                j += 1
            if j < n and text[j] == "\n":
                while j < n and text[j].isspace():
                    j += 1
                if j < n and j > i:
                    breaks.append(j)
                    i = j
                    continue
        i += 1
    breaks.append(n)
    spans = []
    for a, b in zip(breaks, breaks[1:]):
        if text[a:b].strip():
            spans.append((a, b))
    # extend spans so the whole text is covered despite stripping empties
    covered = [list(s) for s in spans]
    for idx in range(len(covered) - 1):
        covered[idx][1] = covered[idx + 1][0]
    if covered:
        covered[0][0] = 0
        covered[-1][1] = n
    return [tuple(s) for s in covered]


def _make_token(surface: str, start: int) -> Token:
    return Token(surface, start, start + len(surface), surface.lower(), FALLBACK_POS)


def _split_chunk(chunk: str, offset: int) -> list[Token]:
    """Peel leading/trailing punctuation off one whitespace-free chunk."""
    left, right = 0, len(chunk)
    lead, tail = [], []
    while left < right and chunk[left] in _PUNCT:
        lead.append(_make_token(chunk[left], offset + left))
        left += 1
    while right > left and chunk[right - 1] in _PUNCT:
        tail.append(_make_token(chunk[right - 1], offset + right - 1))
        right -= 1
    tokens = lead
    if left < right:
        tokens.append(_make_token(chunk[left:right], offset + left))
    tokens.extend(reversed(tail))
    return tokens


def tokenize(sentence_text: str, base_offset: int = 0) -> list[Token]:
    """Split sentence text into tokens with offsets into the document.

    Whitespace separates chunks; leading/trailing punctuation becomes
    separate one-character tokens; internal punctuation (hyphens,
    apostrophes) stays inside the token.
    """
    tokens: list[Token] = []
    i = 0
    n = len(sentence_text)
    while i < n:
        if sentence_text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not sentence_text[j].isspace():
            j += 1
        tokens.extend(_split_chunk(sentence_text[i:j], base_offset + i))
        i = j
    return tokens


def tokenize_document(text: str) -> list[Sentence]:
    """Sentence-split then tokenize; offsets refer to the document text."""
    sentences = []
    for idx, (start, end) in enumerate(split_sentences(text)):
        tokens = tokenize(text[start:end], base_offset=start)
        if tokens:
            sentences.append(Sentence(tokens, sent_index=idx))
    return sentences
