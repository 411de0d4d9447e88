"""Rule-based sentence splitting and tokenization with character offsets.

This is an approximation of a full NLP preprocessing pipeline. Sentences
break where ``_BREAK_CANDIDATE`` finds terminal punctuation ('.', '!' or
'?', then any closing quotes or brackets) followed by whitespace and an
uppercase letter that does not end a listed abbreviation, and at blank
lines. Tokens are the matches of ``_TOKEN``: each punctuation character
that starts or ends a whitespace-free run, and the rest of the run. Lemma
falls back to the lowercased surface and PoS to "X". Projects that need
real lemmas/PoS tags feed pre-annotated CoNLL through `raretag.conll`
instead.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

# Abbreviations that do not end a sentence even before an uppercase word.
ABBREVIATIONS = frozenset(
    {
        "e.g.", "i.e.", "etc.", "cf.", "vs.", "ca.", "approx.", "al.",
        "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "no.", "fig.", "eq.",
    }
)

# Zero-width, so every position is tried. A terminal candidate captures the
# terminal (1) and the first character after its whitespace (2); a blank-line
# candidate captures the first character after the blank lines (3).
_BREAK_CANDIDATE = re.compile(
    r"(?=([.!?])[\"')\]}]*\s+(\S))|(?=\n[ \t]*\n\s*(\S))"
)
_P = re.escape(string.punctuation)
# one punctuation character, or a run that neither starts nor ends with one
_TOKEN = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")

FALLBACK_POS = "X"


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self):
        for a, b in zip(self.tokens, self.tokens[1:]):
            if b.start < a.end:
                raise ValueError("token offsets overlap or go backwards")


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
    breaks = [0]
    # Every candidate ends on a non-space character, so none lies past the
    # last one; after a break the search resumes there, which skips the
    # whitespace before it and keeps the scan linear in long runs.
    last = len(text.rstrip())
    match = _BREAK_CANDIDATE.search(text, 0, last)
    while match:
        if match.group(3):
            breaks.append(match.start(3))
        elif match.group(2).isupper() and not (
                match.group(1) == "."
                and _word_ending_at(text, match.start()).lower() in ABBREVIATIONS):
            breaks.append(match.start(2))
        match = _BREAK_CANDIDATE.search(
            text, max(match.start() + 1, breaks[-1]), last)
    breaks.append(len(text))
    starts = [a for a, b in zip(breaks, breaks[1:]) if text[a:b].strip()]
    bounds = [0] + starts[1:] + [len(text)]
    return list(zip(bounds, bounds[1:])) if starts else []


def tokenize(sentence_text: str, base_offset: int = 0) -> list[Token]:
    """Split sentence text into tokens with offsets into the document.

    Each punctuation character that starts or ends a whitespace-free run
    is a token of its own; the rest of the run, internal punctuation
    (hyphens, apostrophes) included, is one token.
    """
    return [Token(m.group(), base_offset + m.start(), base_offset + m.end(),
                  m.group().lower(), FALLBACK_POS)
            for m in _TOKEN.finditer(sentence_text)]


def tokenize_document(text: str) -> list[Sentence]:
    """Sentence-split then tokenize; offsets refer to the document text."""
    sentences = []
    for start, end in split_sentences(text):
        tokens = tokenize(text[start:end], base_offset=start)
        if tokens:
            sentences.append(Sentence(tokens))
    return sentences
