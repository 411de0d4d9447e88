"""Seeded fuzz of the input readers.

Well-formed inputs are built, then cut and spliced with characters that
have tripped readers before: tabs, ``;``, ``#``, CRLF and other line
breaks, Unicode spaces, superscript and Arabic-Indic digits, astral
characters (UTF-16 surrogate pairs) and, for files, raw ``0xff`` bytes.
Whatever the input, each reader either returns or raises its own named
error, which ``cli.main`` reports with exit 1; what it accepts survives a
write and a second read unchanged.
"""

import numpy as np
import pytest

from raretag import cli, conll
from raretag.brat import (
    BratIntegrityError,
    BratParseError,
    EntityType,
    document_to_brat,
    load_corpus_dir,
    parse_brat_pair,
)
from raretag.cli import CliError, parse_config
from raretag.embeddings import EmbeddingParseError, load_text_format

from oracles import random_brat_document

_HAZARDS = ["\t", " ", ";", "#", "\r\n", "\n", "\r", "\u2028", "\x0b",
            "\x85", "\u2003", "\xa0", "\x1f", "\u00b2", "\u0663",
            "\U0001f600", "=", "-", "0", "7", "12", "T", "\xff"]
_BRAT_HAZARDS = _HAZARDS + ["SIGN", "FINDING", "T1", "\tSIGN 0 3\t"]
_CONLL_HAZARDS = _HAZARDS + ["doc_id", "# doc_id =", "B-SIGN", "\t\t", "\n\n"]
_EMBEDDING_HAZARDS = _HAZARDS + ["nan", "1e5", ".", "e", "  ", "2 2\n"]
_CONFIG_HAZARDS = _HAZARDS + ["seed", "model_kind", "crf", "yes", "1e400",
                              "9" * 5000, "learning_rate", "embedding_dim"]


def mutate(rng: np.random.Generator, text: str, hazards: list[str]) -> str:
    """``text`` after 0-3 random inserts, deletions or substitutions; the
    unmutated case stays common so that accepting paths are exercised."""
    for _ in range(int(rng.choice(4, p=[0.4, 0.3, 0.2, 0.1]))):
        i = int(rng.integers(len(text) + 1))
        j = min(len(text), i + int(rng.integers(0, 3)))
        piece = hazards[rng.integers(len(hazards))] if rng.random() < 0.8 else ""
        text = text[:i] + piece + text[j:]
    return text


def brat_case(rng: np.random.Generator) -> tuple[str, str, dict]:
    """(text, ann content, parse_brat_pair options) for one document."""
    doc = random_brat_document(rng)
    text = doc.text
    if rng.random() < 0.3:  # astral characters shift UTF-16 offsets
        i = int(rng.integers(len(text) + 1))
        text = text[:i] + "\U0001f600" + text[i:]
    lines = []
    for ent in doc.entities:
        spans = ";".join(f"{f.start} {f.end}" for f in ent.fragments)
        surface = " ".join(text[f.start:f.end] for f in ent.fragments)
        if rng.random() < 0.3:
            surface = "" if rng.random() < 0.5 else surface[::-1]
        label = "FINDING" if rng.random() < 0.1 else ent.type.value
        lines.append(f"{ent.id}\t{label} {spans}\t{surface}")
    lines += ["R1\tCauses Arg1:T1 Arg2:T2", "#1\tAnnotatorNotes T1\tnote", ""]
    if lines[0].startswith("T") and rng.random() < 0.1:
        lines.append(lines[0])  # a repeated id
    if rng.random() < 0.1:
        lines.append("T0\tSIGN 0 2;1 3")  # fragments that overlap each other
    order = rng.permutation(len(lines))
    ann = "\n".join(lines[i] for i in order)
    options = {
        "lenient": bool(rng.random() < 0.3),
        "offset_units": "utf16" if rng.random() < 0.3 else "codepoints",
        "alias_table": {"FINDING": EntityType.SIGN} if rng.random() < 0.5 else None,
    }
    if rng.random() < 0.2:
        text = mutate(rng, text, _BRAT_HAZARDS)
    return text, mutate(rng, ann, _BRAT_HAZARDS), options


def conll_case(rng: np.random.Generator) -> str:
    words = ["Anemia", "skin", "rash", "(", "e.g.", "fever", ",", "Velmora", "."]
    tags = ["O", "B-SIGN", "I-SIGN", "B-DISEASE"]
    lines = []
    for d in range(int(rng.integers(1, 4))):
        lines.append(f"# doc_id = doc{d}" if rng.random() < 0.8 else "# doc_id =")
        tagged = rng.random() < 0.7
        for _ in range(int(rng.integers(1, 4))):
            for i in rng.integers(len(words), size=int(rng.integers(1, 8))):
                row = [words[i], words[i].lower(), "X"]
                lines.append("\t".join(row + [tags[i % 4]] * tagged))
            lines.append(" " if rng.random() < 0.1 else "")
    return mutate(rng, "\n".join(lines), _CONLL_HAZARDS)


def embedding_case(rng: np.random.Generator) -> str:
    words = ["cat", "dog", "Cat", "rash", "cat", "été"]
    dim = int(rng.integers(1, 4))
    rows = [" ".join([words[rng.integers(len(words))]]
                     + [f"{v:.3g}" for v in rng.normal(size=dim)])
            for _ in range(int(rng.integers(0, 5)))]
    if rng.random() < 0.4:
        rows.insert(0, f"{len(rows)} {dim}")
    return mutate(rng, "\n".join(rows) + "\n" * int(rng.integers(2)),
                  _EMBEDDING_HAZARDS)


def config_case(rng: np.random.Generator) -> str:
    lines = ["model_kind = crf", "train = t.conll", "seed = 3",
             "learning_rate = 0.01  # small", "train_embeddings = yes",
             "embedding_dim = 8", "# comment", ""]
    picked = [lines[i] for i in rng.integers(len(lines), size=rng.integers(1, 6))]
    return mutate(rng, "\n".join(picked), _CONFIG_HAZARDS)


def with_bad_byte(rng: np.random.Generator, text: str) -> bytes:
    data = text.encode("utf-8")
    if rng.random() < 0.2:
        i = int(rng.integers(len(data) + 1))
        data = data[:i] + b"\xff" + data[i:]
    return data


def outcome(call, errors, case):
    """The reader's result, or None when it raised one of ``errors``; any
    other exception fails the test and shows the input."""
    try:
        return call()
    except errors:
        return None
    except Exception as err:  # noqa: BLE001 - the point of the fuzz
        pytest.fail(f"{type(err).__name__}: {err}\ninput: {case!r}")


def test_brat_pairs():
    rng = np.random.default_rng(101)
    accepted = 0
    for _ in range(1500):
        text, ann, options = case = brat_case(rng)
        doc = outcome(lambda: parse_brat_pair(text, ann, "d", **options),
                      (BratParseError, BratIntegrityError), case)
        if doc is None:
            continue
        accepted += 1
        again = parse_brat_pair(*document_to_brat(doc), "d")
        assert (again.text, again.entities) == (doc.text, doc.entities), case
    assert accepted > 300  # the accepting path is exercised


def test_brat_corpus_dirs(tmp_path):
    rng = np.random.default_rng(102)
    for n in range(40):
        directory = tmp_path / str(n)
        directory.mkdir()
        for d in range(2):
            text, ann, _ = brat_case(rng)
            (directory / f"d{d}.txt").write_bytes(with_bad_byte(rng, text))
            (directory / f"d{d}.ann").write_bytes(with_bad_byte(rng, ann))
        outcome(lambda: load_corpus_dir(directory),
                (BratParseError, BratIntegrityError), directory)


def test_conll():
    rng = np.random.default_rng(103)
    accepted = 0
    for _ in range(1500):
        content = conll_case(rng)
        items = outcome(lambda: conll.read_conll(content),
                        conll.ConllParseError, content)
        if items is None:
            continue
        accepted += 1
        assert conll.read_conll(conll.write_conll(items)) == items, content
    assert accepted > 300


def test_conll_files(tmp_path):
    rng = np.random.default_rng(104)
    path = tmp_path / "in.conll"
    for _ in range(100):
        data = with_bad_byte(rng, conll_case(rng))
        path.write_bytes(data)
        outcome(lambda: cli._read_tagged_conll(path, need_tags=False),
                conll.ConllParseError, data)


def test_embedding_files(tmp_path):
    rng = np.random.default_rng(105)
    path = tmp_path / "vectors.txt"
    accepted = 0
    for _ in range(600):
        data = with_bad_byte(rng, embedding_case(rng))
        path.write_bytes(data)
        table = outcome(lambda: load_text_format(path), EmbeddingParseError,
                        data)
        accepted += table is not None
    assert accepted > 100


def test_config():
    rng = np.random.default_rng(106)
    for _ in range(1500):
        text = config_case(rng)
        outcome(lambda: parse_config(text), CliError, text)
