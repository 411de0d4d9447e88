import dataclasses
import sys

import numpy as np
import pytest

from raretag import tokenizer
from raretag.conll import (
    ConllParseError, ConllSentence, iter_conll, read_conll, write_conll,
)
from raretag.tokenizer import (
    Sentence,
    Token,
    split_sentences,
    tokenize,
    tokenize_document,
)


class TestSplitSentences:
    def test_two_terminal_periods(self):
        spans = split_sentences("A B. C D.")
        assert len(spans) == 2

    def test_empty_text(self):
        assert split_sentences("") == []
        assert split_sentences("   \n  ") == []

    def test_abbreviation_does_not_split(self):
        assert len(split_sentences("He has OCD, e.g. anxiety.")) == 1

    def test_abbreviation_before_uppercase(self):
        assert len(split_sentences("See Dr. Smith about it.")) == 1

    def test_blank_line_splits(self):
        spans = split_sentences("first paragraph\n\nsecond paragraph")
        assert len(spans) == 2

    def test_spans_tile_the_text(self):
        text = "A B. C D!  E? F g.\n\nNew block. More text."
        spans = split_sentences(text)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(text)
        for (_, end1), (start2, _) in zip(spans, spans[1:]):
            assert end1 == start2

    def test_question_and_exclamation(self):
        assert len(split_sentences("Really? Yes! Fine.")) == 3


    @pytest.mark.parametrize("text,spans", [
        ("He left.) Then came.", [(0, 10), (10, 20)]),
        ("He has OCD, e.g.\n\nThe end.", [(0, 18), (18, 26)]),
        ("It ended. then more.", [(0, 20)]),
        ("Wait?! Yes.", [(0, 7), (7, 11)]),
        ("A.\n\n\n \nB.", [(0, 7), (7, 9)]),
        ("A.\n\n", [(0, 4)]),
        ("See (e.g. The", [(0, 10), (10, 13)]),
        ("Line one\n \t\nLine two", [(0, 12), (12, 20)]),
        ('Done."  Next', [(0, 8), (8, 12)]),
    ])
    def test_exact_spans(self, text, spans):
        assert split_sentences(text) == spans

    @pytest.mark.parametrize("text,spans", [
        ("A." + "\n" * 4000 + "B.", [(0, 4002), (4002, 4004)]),
        ("A." + "\n" * 4000, [(0, 4002)]),
    ], ids=["text-after-run", "run-at-end"])
    def test_long_whitespace_runs_are_searched_once(self, monkeypatch, text,
                                                    spans):
        pattern = _CountingPattern(tokenizer._BREAK_CANDIDATE)
        monkeypatch.setattr(tokenizer, "_BREAK_CANDIDATE", pattern)
        assert split_sentences(text) == spans
        assert pattern.matches <= 4
        assert pattern.reach <= len(text.rstrip())


class _CountingPattern:
    """Stands in for a compiled pattern: counts the matches it returns and
    the furthest text position any search may read."""

    def __init__(self, pattern):
        self.pattern, self.matches, self.reach = pattern, 0, 0

    def _offered(self, string, endpos):
        self.reach = max(self.reach, min(len(string), endpos))

    def search(self, string, pos=0, endpos=sys.maxsize):
        self._offered(string, endpos)
        match = self.pattern.search(string, pos, endpos)
        self.matches += match is not None
        return match

    def finditer(self, string, pos=0, endpos=sys.maxsize):
        self._offered(string, endpos)
        for match in self.pattern.finditer(string, pos, endpos):
            self.matches += 1
            yield match


class TestTokenize:
    def test_internal_hyphen_kept(self):
        tokens = tokenize("ADCY5-related dyskinesia.")
        assert [t.surface for t in tokens] == ["ADCY5-related", "dyskinesia", "."]

    def test_trailing_punctuation_split(self):
        assert [t.surface for t in tokenize("pain,")] == ["pain", ","]

    def test_whitespace_only(self):
        assert tokenize("  ") == []

    def test_leading_punctuation_and_parens(self):
        tokens = tokenize("(severe pain).")
        assert [t.surface for t in tokens] == ["(", "severe", "pain", ")", "."]

    @pytest.mark.parametrize("text,surfaces", [
        ("--", ["-", "-"]),
        ("'rock'n'roll'", ["'", "rock'n'roll", "'"]),
        ("«word»", ["«word»"]),  # guillemets are not ASCII punctuation
        ("a\u00a0b", ["a", "b"]),  # a no-break space separates
        ("(e.g.)", ["(", "e.g", ".", ")"]),
        ("...", [".", ".", "."]),
    ])
    def test_token_grammar_edge_cases(self, text, surfaces):
        assert [t.surface for t in tokenize(text)] == surfaces

    def test_fallback_lemma_and_pos(self):
        tok = tokenize("Anemia")[0]
        assert tok.lemma == "anemia"
        assert tok.pos == "X"

    def test_offsets_with_base(self):
        tokens = tokenize("has pain", base_offset=10)
        assert (tokens[0].start, tokens[0].end) == (10, 13)
        assert (tokens[1].start, tokens[1].end) == (14, 18)

    def test_offset_fidelity_on_random_texts(self):
        rng = np.random.default_rng(7)
        words = ["pain", "Velmora", "x-ray", "e.g", "12", "spleen", "a"]
        puncts = ["", ",", ".", ")", "(", "..."]
        for _ in range(300):
            parts = []
            for _i in range(int(rng.integers(1, 10))):
                parts.append(
                    puncts[rng.integers(len(puncts))]
                    + words[rng.integers(len(words))]
                    + puncts[rng.integers(len(puncts))]
                )
            text = " ".join(parts)
            tokens = tokenize(text)
            for tok in tokens:
                assert text[tok.start : tok.end] == tok.surface

    def test_deterministic_and_idempotent(self):
        text = "Brittle nails, pale skin."
        first = [(t.surface, t.start, t.end) for t in tokenize(text)]
        second = [(t.surface, t.start, t.end) for t in tokenize(text)]
        assert first == second
        for tok in tokenize(text):
            again = tokenize(tok.surface)
            assert [t.surface for t in again] == [tok.surface]

    def test_document_tokenization_offsets(self):
        text = "A B. C D."
        sentences = tokenize_document(text)
        assert len(sentences) == 2
        for sent in sentences:
            for tok in sent.tokens:
                assert text[tok.start : tok.end] == tok.surface


class TestSentenceInvariants:
    def test_overlapping_tokens_rejected(self):
        t1 = Token("ab", 0, 2, "ab", "X")
        t2 = Token("b", 1, 2, "b", "X")
        with pytest.raises(ValueError):
            Sentence([t1, t2])

    def test_token_is_a_frozen_slotted_record(self):
        token = Token("ab", 0, 2, "ab", "X")
        assert not hasattr(token, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            token.start = 1

    def test_empty_surfaces_rejected(self):
        with pytest.raises(ValueError):
            Token("x", 3, 3, "x", "X")
        with pytest.raises(ValueError):
            Token("x", 0, 1, "", "X")


class TestConll:
    def test_sentence_grouping(self):
        content = "a\ta\tX\nb\tb\tX\n\nc\tc\tX\n"
        items = read_conll(content)
        assert [len(i.sentence.tokens) for i in items] == [2, 1]

    def test_tag_column_captured(self):
        items = read_conll("anemia\tanemia\tNOUN\tB-SIGN\n")
        token = items[0].sentence.tokens[0]
        assert (token.surface, token.lemma, token.pos) == ("anemia", "anemia", "NOUN")
        assert items[0].tags == ["B-SIGN"]

    def test_two_columns_error_names_line(self):
        with pytest.raises(ConllParseError, match="line 2"):
            read_conll("a\ta\tX\nbad\tline\n")

    def test_doc_id_comments(self):
        content = "# doc_id = doc7\na\ta\tX\tO\n\n# doc_id = doc8\nb\tb\tX\tO\n"
        items = read_conll(content)
        assert [i.doc_id for i in items] == ["doc7", "doc8"]

    def test_offsets_synthesized_by_single_space_join(self):
        items = read_conll("aa\taa\tX\nbbb\tbbb\tX\n")
        tokens = items[0].sentence.tokens
        assert (tokens[0].start, tokens[0].end) == (0, 2)
        assert (tokens[1].start, tokens[1].end) == (3, 6)

    def test_write_read_round_trip(self):
        items = read_conll(
            "# doc_id = d1\nX\tx\tX\tO\nhas\thas\tX\tO\nanemia\tanemia\tX\tB-SIGN\n"
        )
        rewritten = write_conll(items)
        again = read_conll(rewritten)
        assert again[0].tags == items[0].tags
        assert [t.surface for t in again[0].sentence.tokens] == \
            [t.surface for t in items[0].sentence.tokens]
        assert again[0].doc_id == "d1"

    PASSES = ("# doc_id = d1\na\ta\tX\tO\n\nb\tb\tX\tB-SIGN\n\n"
              "# doc_id = d2\nc\tc\tX\tO\nd\td\tX\tO\n\n"
              "# doc_id =\ne\te\tX\n\nf\tf\tX\n")

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_passes_read_and_write_as_the_whole_text(self, size):
        whole = read_conll(self.PASSES)
        stream = iter_conll(self.PASSES.splitlines())
        passes = []
        while part := read_conll(stream, size):
            passes.append(part)
        assert [len(p) for p in passes[:-1]] == [size] * (len(passes) - 1)
        assert [item for part in passes for item in part] == whole
        pieces, last = [], None
        for part in passes:
            pieces.append(write_conll(part, last))
            last = part[-1]
        assert "".join(pieces) == write_conll(whole)
        assert write_conll([], last) == ""

    def test_a_late_error_names_the_line_from_the_top(self):
        stream = iter_conll((self.PASSES + "\ng\tg\n").splitlines())
        assert len(read_conll(stream, 5)) == 5
        with pytest.raises(ConllParseError, match="^line 15: "):
            read_conll(stream, 5)

    def test_untagged_round_trip(self):
        items = [ConllSentence(None, Sentence([Token("a", 0, 1, "a", "X")]), None)]
        assert read_conll(write_conll(items))[0].tags is None
