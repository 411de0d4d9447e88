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
    tokens: list[Token] = []  # of the open sentence
    tags: list[str] = []
    offset = width = 0
    for lineno, line in enumerate(content.splitlines() + [""], start=1):
        if not line.strip() or line.startswith("#"):  # ends the open sentence
            if tokens:
                result.append(ConllSentence(doc_id, Sentence(tokens),
                                            tags if width == 4 else None))
                tokens, tags, offset = [], [], 0
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("doc_id"):
                    doc_id = comment.partition("=")[2].strip() or None
            continue
        cols = line.split("\t")
        if len(cols) != width:
            if len(cols) not in (3, 4):
                raise ConllParseError(
                    f"line {lineno}: expected 3 or 4 tab-separated columns, "
                    f"got {len(cols)}"
                )
            if tokens:
                raise ConllParseError(
                    f"line {lineno}: mixed column counts within a sentence"
                )
            width = len(cols)
        surface = cols[0]
        if not surface:
            raise ConllParseError(f"line {lineno}: empty surface column")
        tokens.append(Token(surface, offset, offset + len(surface),
                            cols[1] or surface.lower(), cols[2] or "X"))
        offset += len(surface) + 1
        if width == 4:
            tags.append(cols[3])
    return result


def write_conll(sentences: list[ConllSentence]) -> str:
    """Render sentences back to CoNLL TSV with doc_id comment lines."""
    out = []
    current_doc = None  # as the reader starts
    for item in sentences:
        if item.doc_id != current_doc:
            current_doc = item.doc_id
            out.append(f"# doc_id = {item.doc_id}" if item.doc_id is not None
                       else "# doc_id =")
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
