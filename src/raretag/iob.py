"""IOB2 tag codec: project character-offset entities onto tokens and back.

Tags are plain strings from the closed 9-tag set ("O" plus B-/I- for each
entity type). A token counts as covered by an entity when its character
range intersects any fragment; per entity the first covered token gets
B-, every later covered token gets I-. Discontinuous entities are
flattened this way (only the very first token carries B-), which loses
the gap: decoding such a sequence yields one span per contiguous run.

``continues(prev, tag)`` is the one IOB2 rule: an I-X tag must follow a B-X
or I-X tag. ``validate`` reports where it fails, ``decode`` opens a new
span there, and ``decode_masks`` hands it to the constrained decoder.

The four entity types are stated here, as ``EntityType``, and ``brat``
re-exports them, so that a command that reads no Brat file can build
``TAGS`` without importing the Brat parser.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .tokenizer import Sentence, Token

if TYPE_CHECKING:
    from .brat import EntityAnnotation

OUTSIDE = "O"


class EntityType(Enum):
    DISEASE = "DISEASE"
    RAREDISEASE = "RAREDISEASE"
    SIGN = "SIGN"
    SYMPTOM = "SYMPTOM"


TAGS: list[str] = [OUTSIDE] + [
    f"{prefix}-{etype.value}" for etype in EntityType for prefix in ("B", "I")
]


class IobError(ValueError):
    pass


def tag_parts(tag: str) -> tuple[str | None, str | None]:
    """("B"|"I", type name) for entity tags, (None, None) for "O"."""
    if tag == OUTSIDE:
        return None, None
    prefix, _, name = tag.partition("-")
    if prefix not in ("B", "I") or not name:
        raise IobError(f"malformed tag {tag!r}")
    return prefix, name


@dataclass(frozen=True)
class TypedSpan:
    type: str
    token_start: int
    token_end: int  # exclusive

    def __post_init__(self):
        if self.token_start >= self.token_end:
            raise ValueError("empty span")


@dataclass
class TaggedSentence:
    tokens: list[Token]
    tags: list[str]

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags"
            )


def encode(sentence: Sentence, entities: list[EntityAnnotation]) -> TaggedSentence:
    """Tag a sentence's tokens from overlap-resolved entities.

    Fragments outside the sentence's character range are ignored. Two
    entities claiming the same token means overlap resolution was skipped
    and is a hard error.
    """
    tokens = sentence.tokens
    ends = [tok.end for tok in tokens]
    tags = [OUTSIDE] * len(tokens)
    claimed: dict[int, str] = {}
    for ent in entities:
        covered: list[int] = []
        for frag in ent.fragments:
            # tokens are disjoint and in order: the first one ending after
            # the fragment's start, then every one starting before its end
            i = bisect_right(ends, frag.start)
            if covered and i <= covered[-1]:
                i = covered[-1] + 1  # a token shared with the last fragment
            while i < len(tokens) and tokens[i].start < frag.end:
                covered.append(i)
                i += 1
        if not covered:
            continue
        for idx in covered:
            if idx in claimed:
                raise IobError(
                    f"token {idx} claimed by both {claimed[idx]} and {ent.id}; "
                    "entities must be overlap-resolved before encoding"
                )
            claimed[idx] = ent.id
        tags[covered[0]] = f"B-{ent.type.value}"
        for idx in covered[1:]:
            tags[idx] = f"I-{ent.type.value}"
    return TaggedSentence(list(tokens), tags)


def encode_document(
    sentences: list[Sentence], entities: list[EntityAnnotation]
) -> list[TaggedSentence]:
    """``encode`` each sentence of one document, in text order, with only the
    entities whose character range reaches into it.

    One pass over the sentences and the entities sorted by start: an entity
    joins the open list once it starts before a sentence's end and leaves
    it once it ends at or before a sentence's start. ``encode`` gets the
    open entities in start order; for start-sorted input, as
    ``brat.resolve_overlaps`` returns it, each sentence's tags or error are
    those of ``encode`` given every entity.
    """
    pending = sorted(entities, key=lambda e: e.start)
    tagged = []
    open_: list[EntityAnnotation] = []
    nxt = 0
    for sentence in sentences:
        if sentence.tokens:
            start, end = sentence.tokens[0].start, sentence.tokens[-1].end
            while nxt < len(pending) and pending[nxt].start < end:
                open_.append(pending[nxt])
                nxt += 1
            open_ = [e for e in open_ if e.end > start]
        tagged.append(encode(sentence, open_))
    return tagged


def continues(prev: str | None, tag: str) -> bool:
    """Whether IOB2 lets ``tag`` follow ``prev`` (None at a sentence start):
    false only for an I-X tag whose predecessor is not B-X or I-X."""
    prefix, name = tag_parts(tag)
    return prefix != "I" or (prev is not None and tag_parts(prev)[1] == name)


def decode(tags: list[str]) -> list[TypedSpan]:
    """Extract typed spans from any tag sequence, repairing invalid runs.

    A span opens at a B tag, or at an I tag for which ``continues`` is false
    (an orphan I-X opens as if it were B-X); it closes at the first tag that
    does not continue it. Total on arbitrary input.
    """
    spans: list[TypedSpan] = []
    open_type, open_start = None, 0
    for i, (prev, tag) in enumerate(zip([None, *tags], tags)):
        prefix, name = tag_parts(tag)
        if prefix == "I" and continues(prev, tag):
            continue
        if open_type is not None:
            spans.append(TypedSpan(open_type, open_start, i))
        open_type, open_start = name, i
    if open_type is not None:
        spans.append(TypedSpan(open_type, open_start, len(tags)))
    return spans


def spans_to_tags(spans: list[TypedSpan], length: int) -> list[str]:
    """Inverse of decode for non-overlapping spans over `length` tokens."""
    tags = [OUTSIDE] * length
    for span in spans:
        tags[span.token_start] = f"B-{span.type}"
        for i in range(span.token_start + 1, span.token_end):
            tags[i] = f"I-{span.type}"
    return tags


def validate(tags: list[str]) -> list[int]:
    """Indices where an I-X tag lacks a same-type B-X/I-X predecessor."""
    return [i for i, (prev, tag) in enumerate(zip([None, *tags], tags))
            if not continues(prev, tag)]


def decode_masks(label_set: list[str]) -> tuple[list[bool], list[list[bool]]]:
    """(start_allowed[L], transition_allowed[L][L]) for a decoder over
    ``label_set``: the moves ``continues`` accepts. Labels that do not parse
    as IOB tags are allowed anywhere, and no I-X may follow them."""
    tags = []
    for label in label_set:
        try:
            tag_parts(label)
        except IobError:
            label = OUTSIDE
        tags.append(label)
    return ([continues(None, tag) for tag in tags],
            [[continues(prev, tag) for tag in tags] for prev in tags])
