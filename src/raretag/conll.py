"""CoNLL-style TSV reader/writer shared by the pipeline.

Columns are ``surface<TAB>lemma<TAB>pos[<TAB>tag]``; a blank line ends a
sentence and ``# doc_id = ...`` comment lines group sentences by source
document. When the input carries no character offsets (this format does
not), token offsets are synthesized by joining surfaces with single
spaces so downstream code can rely on offset invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tokenizer import Sentence, Token


class ConllParseError(ValueError):
    pass


@dataclass
class ConllSentence:
    doc_id: str | None
    sentence: Sentence
    tags: list[str] | None  # None when the file has no tag column


def read_conll(content: str) -> list[ConllSentence]:
    """Parse CoNLL TSV content into sentences with synthesized offsets.

    Rows must have 3 columns (untagged) or 4 columns (tagged) and the
    column count must be consistent within a sentence; anything else is a
    ConllParseError naming the line.
    """
    result: list[ConllSentence] = []
    doc_id: str | None = None
    rows: list[tuple[str, str, str, str | None]] = []
    row_lines: list[int] = []

    def flush():
        nonlocal rows, row_lines
        if not rows:
            return
        widths = {4 if tag is not None else 3 for _, _, _, tag in rows}
        if len(widths) != 1:
            raise ConllParseError(
                f"line {row_lines[-1]}: mixed column counts within a sentence"
            )
        tokens = []
        offset = 0
        for surface, lemma, pos, _ in rows:
            tokens.append(
                Token(surface, offset, offset + len(surface), lemma, pos)
            )
            offset += len(surface) + 1
        tags = [t for _, _, _, t in rows if t is not None] or None
        result.append(ConllSentence(doc_id, Sentence(tokens), tags))
        rows, row_lines = [], []

    for lineno, line in enumerate(content.splitlines(), start=1):
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            flush()
            stripped = line[1:].strip()
            if stripped.startswith("doc_id"):
                _, _, value = stripped.partition("=")
                doc_id = value.strip() or None
            continue
        cols = line.split("\t")
        if len(cols) == 3:
            surface, lemma, pos = cols
            tag = None
        elif len(cols) == 4:
            surface, lemma, pos, tag = cols
        else:
            raise ConllParseError(
                f"line {lineno}: expected 3 or 4 tab-separated columns, "
                f"got {len(cols)}"
            )
        if not surface:
            raise ConllParseError(f"line {lineno}: empty surface column")
        rows.append((surface, lemma or surface.lower(), pos or "X", tag))
        row_lines.append(lineno)
    flush()
    return result


def write_conll(sentences: list[ConllSentence]) -> str:
    """Render sentences back to CoNLL TSV with doc_id comment lines."""
    out = []
    current_doc = object()  # sentinel distinct from None
    for item in sentences:
        if item.doc_id != current_doc:
            current_doc = item.doc_id
            if item.doc_id is not None:
                out.append(f"# doc_id = {item.doc_id}")
        tags = item.tags
        if tags is not None and len(tags) != len(item.sentence.tokens):
            raise ValueError("tag count does not match token count")
        for i, tok in enumerate(item.sentence.tokens):
            cols = [tok.surface, tok.lemma, tok.pos]
            if tags is not None:
                cols.append(tags[i])
            out.append("\t".join(cols))
        out.append("")
    return "\n".join(out) + ("\n" if out and out[-1] != "" else "")
