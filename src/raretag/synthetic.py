"""Deterministic synthetic Brat corpus for data-free pipeline testing.

Each entity type draws from its own disjoint lexicon, so a tagger that
memorizes surface forms can separate the types perfectly; end-to-end
tests rely on that. Controllable fractions of documents carry a
discontinuous annotation (two fragments with a gap) or an overlapping
annotation pair (a shorter mention nested in a longer one, which the
overlap resolver later drops).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .brat import Document, EntityAnnotation, EntityType, SpanFragment

RARE = EntityType.RAREDISEASE
DISEASE = EntityType.DISEASE
SIGN = EntityType.SIGN
SYMPTOM = EntityType.SYMPTOM

LEXICONS: dict[EntityType, list[str]] = {
    RARE: [
        "Velmora syndrome",
        "Ostrel-Kane syndrome",
        "Quillar syndrome",
        "Brenwick syndrome",
        "Tovash syndrome",
        "Mirefal syndrome",
    ],
    DISEASE: [
        "diabetes",
        "hypertension",
        "asthma",
        "arthritis",
        "bronchitis",
        "chronic migraine",
    ],
    SIGN: [
        "pale skin",
        "rapid heartbeat",
        "swollen joints",
        "low blood pressure",
        "enlarged spleen",
        "brittle nails",
    ],
    SYMPTOM: [
        "fatigue",
        "dizziness",
        "nausea",
        "blurred vision",
        "persistent itching",
        "muscle soreness",
    ],
}

# (first fragment, unannotated gap, second fragment); both fragments
# belong to one discontinuous SIGN annotation.
DISCONTINUOUS_SIGNS = [
    ("numbness", ", mostly", "in the fingers"),
    ("stiffness", ", typically", "in the knees"),
    ("tremors", ", often", "in both hands"),
]

TEMPLATES: list[list] = [
    ["Patients with ", RARE, " often develop ", SIGN, "."],
    [RARE, " is a rare disorder that may cause ", SYMPTOM, "."],
    ["The patient was diagnosed with ", DISEASE, " and later with ", RARE, "."],
    ["Clinical examination revealed ", SIGN, " and ", SIGN, "."],
    ["Reported complaints include ", SYMPTOM, " and ", SYMPTOM, "."],
    [DISEASE, " can be mistaken for ", RARE, " in some families."],
    ["A history of ", DISEASE, " was noted alongside ", SIGN, "."],
    ["Children with ", RARE, " frequently report ", SYMPTOM, "."],
]


@dataclass
class SyntheticConfig:
    seed: int = 7
    size: int = 100
    discontinuous_fraction: float = 0.1
    overlap_fraction: float = 0.1
    holdout_fraction: float = 0.2

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        for name in ("discontinuous_fraction", "overlap_fraction",
                     "holdout_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


class _DocBuilder:
    def __init__(self):
        self.parts: list[str] = []
        self.length = 0
        self.entities: list[EntityAnnotation] = []

    def add_text(self, text: str) -> tuple[int, int]:
        """Append text; returns the (start, end) span it occupies."""
        start = self.length
        self.parts.append(text)
        self.length += len(text)
        return start, self.length

    def add_entity(self, etype: EntityType, surface: str) -> None:
        self._annotate(etype, [self.add_text(surface)], surface)

    def _annotate(self, etype, spans, surface) -> None:
        ann_id = f"T{len(self.entities) + 1}"
        fragments = tuple(SpanFragment(s, e) for s, e in spans)
        self.entities.append(EntityAnnotation(ann_id, etype, fragments, surface))

    def build(self, doc_id: str) -> Document:
        return Document(doc_id, "".join(self.parts), self.entities)


def _fill_template(builder: _DocBuilder, template: list,
                   rng: random.Random) -> None:
    for item in template:
        if isinstance(item, EntityType):
            builder.add_entity(item, rng.choice(LEXICONS[item]))
        else:
            builder.add_text(item)


def _add_discontinuous(builder: _DocBuilder, rng: random.Random) -> None:
    first, gap, second = rng.choice(DISCONTINUOUS_SIGNS)
    builder.add_text("The exam noted ")
    head = builder.add_text(first)
    builder.add_text(gap + " ")
    tail = builder.add_text(second)
    builder.add_text(" during follow-up.")
    builder._annotate(SIGN, [head, tail], f"{first} {second}")


def _add_overlap(builder: _DocBuilder, rng: random.Random) -> None:
    # A SIGN phrase whose last word is re-annotated as SYMPTOM; the
    # shorter mention loses overlap resolution downstream.
    phrase = rng.choice(LEXICONS[SIGN])
    builder.add_text("Records also mention ")
    start, end = builder.add_text(phrase)
    builder.add_text(" repeatedly.")
    builder._annotate(SIGN, [(start, end)], phrase)
    last_word = phrase.rsplit(" ", 1)[-1]
    builder._annotate(SYMPTOM, [(end - len(last_word), end)], last_word)


def generate_document(doc_id: str, rng: random.Random,
                      config: SyntheticConfig) -> Document:
    builder = _DocBuilder()
    for i in range(rng.randint(2, 5)):
        if i > 0:
            builder.add_text(" ")
        _fill_template(builder, rng.choice(TEMPLATES), rng)
    if rng.random() < config.discontinuous_fraction:
        builder.add_text(" ")
        _add_discontinuous(builder, rng)
    if rng.random() < config.overlap_fraction:
        builder.add_text(" ")
        _add_overlap(builder, rng)
    return builder.build(doc_id)


def generate_corpus(config: SyntheticConfig) -> list[Document]:
    rng = random.Random(config.seed)
    pad = len(str(config.size))
    return [
        generate_document(f"doc{i:0{pad}d}", rng, config)
        for i in range(1, config.size + 1)
    ]


def write_corpus(documents: list[Document], out_dir: str | Path,
                 holdout_fraction: float = 0.0) -> tuple[Path, Path | None]:
    """Write .txt/.ann pairs; returns (train_dir, heldout_dir or None).

    With a zero holdout fraction everything lands in out_dir directly;
    otherwise the tail of the document list goes to out_dir/heldout and
    the rest to out_dir/train.
    """
    out_dir = Path(out_dir)
    from .brat import document_to_brat

    if holdout_fraction <= 0.0:
        dirs = [(out_dir, documents)]
        train_dir, heldout_dir = out_dir, None
    else:
        n_heldout = max(1, int(round(len(documents) * holdout_fraction)))
        n_train = len(documents) - n_heldout
        if n_train < 1:
            raise ValueError("holdout fraction leaves no training documents")
        train_dir = out_dir / "train"
        heldout_dir = out_dir / "heldout"
        dirs = [(train_dir, documents[:n_train]),
                (heldout_dir, documents[n_train:])]
    for directory, docs in dirs:
        directory.mkdir(parents=True, exist_ok=True)
        for doc in docs:
            text, ann = document_to_brat(doc)
            (directory / f"{doc.doc_id}.txt").write_text(text, encoding="utf-8")
            (directory / f"{doc.doc_id}.ann").write_text(ann, encoding="utf-8")
    return train_dir, heldout_dir
