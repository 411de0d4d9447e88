import numpy as np
import pytest

from raretag.brat import (
    BratIntegrityError,
    BratParseError,
    Corpus,
    Document,
    EntityAnnotation,
    EntityType,
    SpanFragment,
    corpus_statistics,
    document_to_brat,
    load_corpus_dir,
    parse_brat_pair,
    resolve_overlaps,
)


def ann(ann_id, etype, *spans, doc_text=None):
    fragments = tuple(SpanFragment(s, e) for s, e in spans)
    surface = ""
    if doc_text is not None:
        surface = " ".join(doc_text[s:e] for s, e in spans)
    return EntityAnnotation(ann_id, etype, fragments, surface)


class TestParse:
    def test_single_entity(self):
        doc = parse_brat_pair("X has anemia.", "T1\tSIGN 6 12\tanemia", "d1")
        assert len(doc.entities) == 1
        ent = doc.entities[0]
        assert ent.type is EntityType.SIGN
        assert ent.fragments == (SpanFragment(6, 12),)
        assert ent.surface == "anemia"

    def test_discontinuous_spans(self):
        text = "malformations of the nipples and of the abdominal wall"
        frag2_start = text.index("of the abdominal")
        ann_line = (
            f"T2\tSIGN 0 13;{frag2_start} {len(text)}"
            f"\tmalformations of the abdominal wall"
        )
        doc = parse_brat_pair(text, ann_line, "d1")
        ent = doc.entities[0]
        assert ent.is_discontinuous()
        assert len(ent.fragments) == 2
        assert ent.surface == "malformations of the abdominal wall"

    def test_surface_mismatch_is_integrity_error(self):
        with pytest.raises(BratIntegrityError):
            parse_brat_pair("X has anemia.", "T1\tSIGN 6 12\tanemXa", "d1")

    def test_lenient_downgrades_mismatch(self):
        doc = parse_brat_pair(
            "X has anemia.", "T1\tSIGN 6 12\tanemXa", "d1", lenient=True
        )
        assert len(doc.entities) == 1
        assert len(doc.resolution_log) == 1

    def test_malformed_offsets_name_line(self):
        bad = "T1\tSIGN 6 12\tanemia\nT2\tSIGN six 12\tanemia"
        with pytest.raises(BratParseError, match="line 2"):
            parse_brat_pair("X has anemia.", bad, "d1")

    @pytest.mark.parametrize("ann, expected", [
        ("T1\tSIGN 6 12\tanemia", [(6, 12)]),
        # blanks are any whitespace but a tab; digits any decimal digit
        ("T1\tSIGN  0 \u2003 1 ;6 12\tX anemia", [(0, 1), (6, 12)]),
        ("T1\tSIGN \u0666 12\tanemia", [(6, 12)]),
        # the surface starts after the first tab, so here it is "\tanemia"
        ("T1\tSIGN 6 12\t\tanemia", BratIntegrityError),
        ("T1\tSIGN 6\t12\tanemia", BratParseError),
        ("T1\tSIGN 6 12;\tanemia", BratParseError),
        ("T1\tSIGN \u00b2 12\tanemia", BratParseError),
        ("T1\xa0\tSIGN 6 12\tanemia", BratParseError),
        ("T1\tSIGN 6 9;8 12", BratParseError),  # fragments overlap
        ("T1\tSIGN 6 12\nT1\tSIGN 6 12", BratParseError),  # a repeated id
    ])
    def test_t_line_grammar(self, ann, expected):
        if isinstance(expected, list):
            doc = parse_brat_pair("X has anemia.", ann, "d1")
            fragments = [(f.start, f.end) for f in doc.entities[0].fragments]
            assert fragments == expected
        else:
            with pytest.raises(expected):
                parse_brat_pair("X has anemia.", ann, "d1")

    def test_out_of_bounds_offsets(self):
        with pytest.raises(BratParseError, match="out of bounds"):
            parse_brat_pair("short", "T1\tSIGN 0 99\tshort", "d1")

    def test_unknown_type_rejected_without_alias(self):
        with pytest.raises(BratParseError, match="unknown entity type"):
            parse_brat_pair("X has anemia.", "T1\tFINDING 6 12\tanemia", "d1")

    def test_alias_table(self):
        doc = parse_brat_pair(
            "X has anemia.",
            "T1\tFINDING 6 12\tanemia",
            "d1",
            alias_table={"FINDING": EntityType.SIGN},
        )
        assert doc.entities[0].type is EntityType.SIGN

    def test_non_entity_lines_skipped(self):
        content = "\n".join([
            "T1\tSIGN 6 12\tanemia",
            "R1\tCauses Arg1:T1 Arg2:T1",
            "E1\tSomething:T1",
            "A1\tNegated T1",
            "#1\tAnnotatorNotes T1\tcomment",
        ])
        doc = parse_brat_pair("X has anemia.", content, "d1")
        assert len(doc.entities) == 1

    def test_utf16_offsets(self):
        text = "\U0001f600 anemia here"
        # the emoji counts as 2 UTF-16 units, so "anemia" starts at unit 3
        doc = parse_brat_pair(
            text, "T1\tSIGN 3 9\tanemia", "d1", offset_units="utf16"
        )
        assert doc.entities[0].surface == "anemia"
        assert text[doc.entities[0].start : doc.entities[0].end] == "anemia"

    def test_roundtrip_through_brat_format(self):
        text = "malformations of the nipples and of the abdominal wall"
        start2 = text.index("of the abdominal")
        content = "\n".join([
            f"T1\tSIGN 0 28\t{text[0:28]}",
            f"T2\tSIGN 0 13;{start2} {len(text)}\tmalformations of the abdominal wall",
        ])
        doc = parse_brat_pair(text, content, "d1")
        text2, ann2 = document_to_brat(doc)
        doc2 = parse_brat_pair(text2, ann2, "d1")
        original = {(e.type, e.fragments) for e in doc.entities}
        reparsed = {(e.type, e.fragments) for e in doc2.entities}
        assert original == reparsed


class TestResolveOverlaps:
    def test_longest_span_wins(self):
        text = "a" * 25
        doc = Document("d", text, [
            ann("T1", EntityType.SIGN, (0, 20), doc_text=text),
            ann("T2", EntityType.DISEASE, (5, 12), doc_text=text),
        ])
        resolved = resolve_overlaps(doc)
        assert [e.id for e in resolved.entities] == ["T1"]
        assert len(resolved.resolution_log) == 1
        assert "T2" in resolved.resolution_log[0]

    def test_id_tiebreak(self):
        text = "b" * 10
        doc = Document("d", text, [
            ann("T2", EntityType.DISEASE, (0, 10), doc_text=text),
            ann("T1", EntityType.RAREDISEASE, (0, 10), doc_text=text),
        ])
        resolved = resolve_overlaps(doc)
        assert [e.id for e in resolved.entities] == ["T1"]

    def test_earlier_start_tiebreak(self):
        text = "c" * 20
        doc = Document("d", text, [
            ann("T1", EntityType.SIGN, (5, 10), doc_text=text),
            ann("T2", EntityType.SIGN, (2, 7), doc_text=text),
        ])
        resolved = resolve_overlaps(doc)
        assert [e.id for e in resolved.entities] == ["T2"]

    def test_no_overlaps_is_identity(self):
        text = "d" * 20
        doc = Document("d", text, [
            ann("T1", EntityType.SIGN, (0, 5), doc_text=text),
            ann("T2", EntityType.DISEASE, (6, 9), doc_text=text),
        ])
        resolved = resolve_overlaps(doc)
        assert {e.id for e in resolved.entities} == {"T1", "T2"}
        assert resolved.resolution_log == []

    def test_resolved_entities_pairwise_disjoint(self):
        rng = np.random.default_rng(42)
        types = list(EntityType)
        for _ in range(200):
            length = int(rng.integers(10, 60))
            text = "x" * length
            entities = []
            for k in range(int(rng.integers(0, 8))):
                start = int(rng.integers(0, length - 1))
                end = int(rng.integers(start + 1, length + 1))
                entities.append(
                    ann(f"T{k + 1}", types[rng.integers(4)], (start, end),
                        doc_text=text)
                )
            resolved = resolve_overlaps(Document("d", text, entities))
            kept = resolved.entities
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert not kept[i].overlaps(kept[j])
            assert len(kept) + (len(resolved.resolution_log)) == len(entities)


class TestStatistics:
    def test_empty_corpus(self):
        stats = corpus_statistics(Corpus("unsplit", []))
        assert stats.documents == 0
        assert stats.sentences == 0
        assert stats.tokens == 0
        assert stats.total_entities == 0

    def test_single_document(self):
        doc = parse_brat_pair("X has anemia.", "T1\tSIGN 6 12\tanemia", "d1")
        stats = corpus_statistics(Corpus("unsplit", [doc]))
        assert stats.documents == 1
        assert stats.entity_counts["SIGN"] == 1
        assert stats.sentences == 1
        assert stats.tokens == 4  # X has anemia .

    def test_counts_before_overlap_resolution(self):
        text = "e" * 20
        doc = Document("d", text, [
            ann("T1", EntityType.SIGN, (0, 10), doc_text=text),
            ann("T2", EntityType.SIGN, (3, 6), doc_text=text),
        ])
        stats = corpus_statistics(Corpus("unsplit", [doc]))
        assert stats.entity_counts["SIGN"] == 2

    def test_type_sum_equals_total(self):
        doc1 = parse_brat_pair("X has anemia.", "T1\tSIGN 6 12\tanemia", "d1")
        doc2 = parse_brat_pair(
            "Velmora syndrome and fatigue.",
            "T1\tRAREDISEASE 0 16\tVelmora syndrome\nT2\tSYMPTOM 21 28\tfatigue",
            "d2",
        )
        stats = corpus_statistics(Corpus("unsplit", [doc1, doc2]))
        assert stats.total_entities == sum(stats.entity_counts.values()) == 3

    def test_render_lists_all_types(self):
        stats = corpus_statistics(Corpus("unsplit", []))
        rendered = stats.render()
        for etype in EntityType:
            assert etype.value.title() in rendered


class TestCorpusDir:
    def test_unpaired_files_raise(self, tmp_path):
        (tmp_path / "a.txt").write_text("X has anemia.")
        (tmp_path / "a.ann").write_text("T1\tSIGN 6 12\tanemia\n")
        (tmp_path / "b.txt").write_text("orphan")
        with pytest.raises(FileNotFoundError, match="b.txt"):
            load_corpus_dir(tmp_path)

    def test_skip_unpaired(self, tmp_path):
        (tmp_path / "a.txt").write_text("X has anemia.")
        (tmp_path / "a.ann").write_text("T1\tSIGN 6 12\tanemia\n")
        (tmp_path / "b.txt").write_text("orphan")
        corpus, unpaired = load_corpus_dir(tmp_path, skip_unpaired=True)
        assert [d.doc_id for d in corpus.documents] == ["a"]
        assert unpaired == ["b.txt"]


class TestInvariants:
    def test_fragments_must_be_sorted_and_disjoint(self):
        with pytest.raises(ValueError):
            EntityAnnotation(
                "T1", EntityType.SIGN,
                (SpanFragment(5, 9), SpanFragment(0, 3)), "x",
            )
        with pytest.raises(ValueError):
            EntityAnnotation(
                "T1", EntityType.SIGN,
                (SpanFragment(0, 5), SpanFragment(3, 8)), "x",
            )

    def test_duplicate_ids_rejected(self):
        text = "f" * 10
        with pytest.raises(ValueError, match="duplicate"):
            Document("d", text, [
                ann("T1", EntityType.SIGN, (0, 2), doc_text=text),
                ann("T1", EntityType.SIGN, (4, 6), doc_text=text),
            ])
