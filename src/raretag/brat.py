"""Brat standoff corpus model: parsing, overlap resolution, statistics.

A corpus is a directory of paired ``<id>.txt`` / ``<id>.ann`` files. Only
text-bound ("T") annotation lines are read; relations, events, attributes
and notes are skipped. Discontinuous annotations (semicolon-separated
offset pairs) are kept as multi-fragment entities at this layer.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path

from .atomic import read_utf8
from .iob import EntityType  # stated in iob, so that TAGS needs no brat


class BratParseError(ValueError):
    """Malformed .ann content (a line off the T-line grammar, an unknown
    type, bad offsets, a repeated id) or a pair file that is not UTF-8."""


class BratIntegrityError(ValueError):
    """Surface text in the .ann file disagrees with the .txt content."""


@dataclass(frozen=True)
class SpanFragment:
    """Half-open character range [start, end) into the document text."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid fragment ({self.start}, {self.end})")

    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "SpanFragment") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class EntityAnnotation:
    id: str
    type: EntityType
    fragments: tuple[SpanFragment, ...]
    surface: str

    def __post_init__(self):
        if not self.fragments:
            raise ValueError(f"{self.id}: annotation has no fragments")
        starts = [f.start for f in self.fragments]
        if starts != sorted(starts):
            raise ValueError(f"{self.id}: fragments not sorted by start")
        for a, b in zip(self.fragments, self.fragments[1:]):
            if a.end > b.start:
                raise ValueError(f"{self.id}: fragments overlap within annotation")

    @property
    def start(self) -> int:
        return self.fragments[0].start

    @property
    def end(self) -> int:
        return self.fragments[-1].end

    def covered_length(self) -> int:
        return sum(f.length() for f in self.fragments)

    def is_discontinuous(self) -> bool:
        return len(self.fragments) > 1

    def overlaps(self, other: "EntityAnnotation") -> bool:
        return any(f.overlaps(g) for f in self.fragments for g in other.fragments)


@dataclass
class Document:
    doc_id: str
    text: str
    entities: list[EntityAnnotation]
    resolution_log: list[str] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for ent in self.entities:
            if ent.id in seen:
                raise ValueError(f"{self.doc_id}: duplicate annotation id {ent.id}")
            seen.add(ent.id)
            if ent.end > len(self.text):
                raise ValueError(
                    f"{self.doc_id}/{ent.id}: offset {ent.end} beyond document "
                    f"length {len(self.text)}"
                )


@dataclass
class Corpus:
    split: str  # train | validation | test | unsplit
    documents: list[Document]

    def __post_init__(self):
        ids = [d.doc_id for d in self.documents]
        if len(ids) != len(set(ids)):
            raise ValueError(f"corpus {self.split}: duplicate doc_ids")


# A T line: id TAB type SPACE offset pairs [TAB surface]. A pair is two
# decimal numbers; blanks are any whitespace but the tab before the surface.
_PAIR = r"[^\S\t]*\d+[^\S\t]+\d+[^\S\t]*"
_T_LINE = re.compile(rf"(T\S*)\t([^\t ]*) ({_PAIR}(?:;{_PAIR})*)(?:\t(.*))?")
_TYPES = {t.value: t for t in EntityType}


def _utf16_to_codepoint_map(text: str) -> dict[int, int]:
    """UTF-16 code-unit offset -> Python (code point) index, incl. end."""
    mapping = {}
    units = 0
    for i, ch in enumerate(text):
        mapping[units] = i
        units += 2 if ord(ch) > 0xFFFF else 1
    mapping[units] = len(text)
    return mapping


def parse_brat_pair(
    text_content: str,
    ann_content: str,
    doc_id: str,
    alias_table: dict[str, EntityType] | None = None,
    lenient: bool = False,
    offset_units: str = "codepoints",
) -> Document:
    """Parse one .txt/.ann pair into a Document.

    Only "T" lines are interpreted; other line kinds are skipped. Each
    surface string is checked against the text at its offsets (fragments
    joined with single spaces). A mismatch raises BratIntegrityError
    unless ``lenient`` is set, in which case the mismatch is recorded in
    the document's resolution_log instead.

    ``offset_units`` is "codepoints" (default) or "utf16" for corpora
    annotated with tools that count UTF-16 code units.
    """
    if offset_units not in ("codepoints", "utf16"):
        raise ValueError(f"unknown offset_units {offset_units!r}")
    u16map = _utf16_to_codepoint_map(text_content) if offset_units == "utf16" else None

    entities: list[EntityAnnotation] = []
    warnings: list[str] = []
    for lineno, line in enumerate(ann_content.splitlines(), start=1):
        if not line.startswith("T"):
            continue  # relations/events/attributes/notes are out of scope
        m = _T_LINE.fullmatch(line)
        if m is None:
            raise BratParseError(
                f"{doc_id}.ann line {lineno}: malformed T line {line!r}"
            )
        ann_id, type_label, span_text, surface = m.groups("")

        etype = _TYPES.get(type_label) or (alias_table or {}).get(type_label)
        if etype is None:
            raise BratParseError(
                f"{doc_id}.ann line {lineno}: unknown entity type "
                f"{type_label!r} (no alias given)"
            )

        fragments = []
        for pair in span_text.split(";"):
            start, end = map(int, pair.split())
            if u16map is not None:
                try:
                    start, end = u16map[start], u16map[end]
                except KeyError:
                    raise BratParseError(
                        f"{doc_id}.ann line {lineno}: offset not on a UTF-16 "
                        "code-unit boundary"
                    ) from None
            if not (0 <= start < end <= len(text_content)):
                raise BratParseError(
                    f"{doc_id}.ann line {lineno}: offsets ({start}, {end}) out "
                    f"of bounds for document of length {len(text_content)}"
                )
            fragments.append(SpanFragment(start, end))
        fragments.sort(key=lambda f: f.start)

        covered = " ".join(text_content[f.start : f.end] for f in fragments)
        if surface and covered != surface:
            msg = (
                f"{doc_id}.ann line {lineno}: surface {surface!r} does not match "
                f"text at offsets {covered!r}"
            )
            if lenient:
                warnings.append(msg)
            else:
                raise BratIntegrityError(msg)

        try:
            entity = EntityAnnotation(ann_id, etype, tuple(fragments), covered)
        except ValueError as err:  # fragments overlap each other
            raise BratParseError(f"{doc_id}.ann line {lineno}: {err}") from None
        entities.append(entity)

    try:
        return Document(doc_id, text_content, entities, resolution_log=warnings)
    except ValueError as err:  # a duplicate id
        raise BratParseError(str(err)) from None


_START, _END = itemgetter(0), itemgetter(1)


def resolve_overlaps(doc: Document) -> Document:
    """Reduce entities to a pairwise non-overlapping set.

    Among overlapping annotations the one with the greatest total covered
    length wins; ties go to the earlier start offset, then to the
    lexicographically smaller annotation id. Dropped annotations are
    listed in the returned document's resolution_log.
    """
    ranked = sorted(
        doc.entities, key=lambda e: (-e.covered_length(), e.start, e.id)
    )
    kept: list[EntityAnnotation] = []
    # (start, end, index in kept) of every kept fragment. They are pairwise
    # disjoint, so sorted by start they are sorted by end too, and the ones
    # a fragment overlaps are one run of them, found with bisect.
    fragments: list[tuple[int, int, int]] = []
    log = list(doc.resolution_log)
    for ent in ranked:
        hits = [
            fragments[i][2]
            for f in ent.fragments
            for i in range(bisect_right(fragments, f.start, key=_END),
                           bisect_left(fragments, f.end, key=_START))
        ]
        if not hits:
            for f in ent.fragments:
                insort(fragments, (f.start, f.end, len(kept)))
            kept.append(ent)
        else:
            winner = kept[min(hits)]  # the first-ranked kept entity
            log.append(
                f"{doc.doc_id}: dropped {ent.id} ({ent.type.value} "
                f"{ent.start}-{ent.end}), overlaps {winner.id}"
            )
    kept.sort(key=lambda e: (e.start, e.id))
    return replace(doc, entities=kept, resolution_log=log)


def document_to_brat(doc: Document) -> tuple[str, str]:
    """Serialize a Document back to (txt_content, ann_content).

    A surface that holds a line break would end its line, so it is left
    out; the reader then takes the text at the offsets."""
    lines = []
    for ent in doc.entities:
        spans = ";".join(f"{f.start} {f.end}" for f in ent.fragments)
        head = f"{ent.id}\t{ent.type.value} {spans}"
        line = f"{head}\t{ent.surface}"
        lines.append(line if line.splitlines() == [line] else head)
    return doc.text, "".join(line + "\n" for line in lines)


def load_corpus_dir(
    directory: str | Path,
    split: str = "unsplit",
    lenient: bool = False,
    skip_unpaired: bool = False,
    offset_units: str = "codepoints",
    alias_table: dict[str, EntityType] | None = None,
) -> tuple[Corpus, list[str]]:
    """Load every .txt/.ann pair under a directory.

    Returns the corpus and the list of unpaired file names (either side
    missing). Unpaired files raise unless ``skip_unpaired`` is set.
    """
    directory = Path(directory)
    txts = {p.stem: p for p in sorted(directory.glob("*.txt"))}
    anns = {p.stem: p for p in sorted(directory.glob("*.ann"))}
    unpaired = sorted(
        {f"{s}.txt" for s in txts.keys() - anns.keys()}
        | {f"{s}.ann" for s in anns.keys() - txts.keys()}
    )
    if unpaired and not skip_unpaired:
        raise FileNotFoundError(f"unpaired corpus files: {', '.join(unpaired)}")
    documents = []
    for stem in sorted(txts.keys() & anns.keys()):
        documents.append(
            parse_brat_pair(
                read_utf8(txts[stem], BratParseError),
                read_utf8(anns[stem], BratParseError),
                stem,
                alias_table=alias_table,
                lenient=lenient,
                offset_units=offset_units,
            )
        )
    return Corpus(split, documents), unpaired


@dataclass
class CorpusStatistics:
    split: str
    documents: int
    sentences: int
    tokens: int
    entity_counts: dict[str, int]

    @property
    def total_entities(self) -> int:
        return sum(self.entity_counts.values())

    def render(self) -> str:
        rows = [
            ("Documents", self.documents),
            ("Sentences", self.sentences),
            ("Tokens", self.tokens),
        ]
        rows += [(t.value.title(), self.entity_counts[t.value]) for t in EntityType]
        rows.append(("Total entities", self.total_entities))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {count:>8,}" for name, count in rows)


def corpus_statistics(corpus: Corpus) -> CorpusStatistics:
    """Count documents, sentences, tokens and per-type entities.

    Entity counts reflect annotation multiplicity before overlap
    resolution; sentences and tokens come from the built-in tokenizer.
    """
    from . import tokenizer

    counts = {t.value: 0 for t in EntityType}
    sentences = tokens = 0
    for doc in corpus.documents:
        for ent in doc.entities:
            counts[ent.type.value] += 1
        doc_sentences = tokenizer.tokenize_document(doc.text)
        sentences += len(doc_sentences)
        tokens += sum(len(s.tokens) for s in doc_sentences)
    return CorpusStatistics(
        corpus.split, len(corpus.documents), sentences, tokens, counts
    )
