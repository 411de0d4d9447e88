import numpy as np
import pytest

from oracles import (
    brute_encode,
    brute_resolve_overlaps,
    random_brat_document,
    random_tags,
    random_valid_iob,
)
from raretag.brat import (
    EntityAnnotation, EntityType, SpanFragment, resolve_overlaps,
)
from raretag.iob import (
    TAGS,
    IobError,
    TypedSpan,
    continues,
    decode,
    decode_masks,
    encode,
    encode_document,
    spans_to_tags,
    validate,
)
from raretag.tokenizer import Sentence, Token, tokenize_document

TYPE_NAMES = [t.value for t in EntityType]


def make_sentence(words, start=0):
    tokens = []
    offset = start
    for w in words:
        tokens.append(Token(w, offset, offset + len(w), w.lower(), "X"))
        offset += len(w) + 1
    return Sentence(tokens)


def entity(ann_id, etype, *frags):
    return EntityAnnotation(
        ann_id, etype, tuple(SpanFragment(s, e) for s, e in frags), ""
    )


class TestEncode:
    def test_full_span_entity(self):
        sent = make_sentence(["malformations", "of", "the", "nipples"])
        ent = entity("T1", EntityType.SIGN, (0, sent.tokens[-1].end))
        tagged = encode(sent, [ent])
        assert tagged.tags == ["B-SIGN", "I-SIGN", "I-SIGN", "I-SIGN"]

    def test_no_entities_all_outside(self):
        sent = make_sentence(["a", "b", "c"])
        assert encode(sent, []).tags == ["O", "O", "O"]

    def test_discontinuous_flattening(self):
        words = ["w0", "w1", "w2", "w3", "w4", "w5", "w6"]
        sent = make_sentence(words)
        frag1 = (sent.tokens[0].start, sent.tokens[1].end)
        frag2 = (sent.tokens[5].start, sent.tokens[6].end)
        ent = entity("T1", EntityType.SIGN, frag1, frag2)
        tagged = encode(sent, [ent])
        assert tagged.tags == [
            "B-SIGN", "I-SIGN", "O", "O", "O", "I-SIGN", "I-SIGN",
        ]
        # flattening loses the gap: decoding yields one span per run
        assert decode(tagged.tags) == [
            TypedSpan("SIGN", 0, 2), TypedSpan("SIGN", 5, 7),
        ]

    def test_partial_token_overlap_covers_token(self):
        sent = make_sentence(["anemia-like"])
        ent = entity("T1", EntityType.SIGN, (0, 6))  # cuts mid-token
        assert encode(sent, [ent]).tags == ["B-SIGN"]

    def test_fragments_outside_sentence_ignored(self):
        sent = make_sentence(["a", "b"], start=0)
        ent = entity("T1", EntityType.SIGN, (100, 110))
        assert encode(sent, [ent]).tags == ["O", "O"]

    def test_double_claim_is_hard_error(self):
        sent = make_sentence(["anemia-like"])
        ents = [
            entity("T1", EntityType.SIGN, (0, 6)),
            entity("T2", EntityType.DISEASE, (7, 11)),
        ]
        with pytest.raises(IobError, match="overlap-resolved"):
            encode(sent, ents)

    def test_encode_of_contiguous_entities_validates_clean(self):
        rng = np.random.default_rng(11)
        types = list(EntityType)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            sent = make_sentence([f"w{i}" for i in range(n)])
            entities = []
            i = 0
            k = 0
            while i < n:
                run = int(rng.integers(1, 4))
                j = min(n, i + run)
                if rng.random() < 0.4:
                    k += 1
                    entities.append(entity(
                        f"T{k}", types[rng.integers(4)],
                        (sent.tokens[i].start, sent.tokens[j - 1].end),
                    ))
                i = j
            tagged = encode(sent, entities)
            assert validate(tagged.tags) == []

    def test_shared_boundary_token_counted_once(self):
        sent = make_sentence(["anemia-like", "rash"])
        ent = entity("T1", EntityType.SIGN, (0, 6), (7, 11), (12, 16))
        assert encode(sent, [ent]).tags == ["B-SIGN", "I-SIGN"]

    def test_document_entities_reach_only_their_sentences(self):
        sentences = [make_sentence(["a", "b"]), make_sentence(["c"], start=10)]
        ents = [
            entity("T2", EntityType.SIGN, (2, 3), (10, 11)),  # spans the break
            entity("T1", EntityType.DISEASE, (0, 1)),
            entity("T3", EntityType.SYMPTOM, (5, 8)),  # between the sentences
        ]
        assert [t.tags for t in encode_document(sentences, ents)] == [
            ["B-DISEASE", "B-SIGN"], ["B-SIGN"],
        ]
        assert encode_document([Sentence([])], ents)[0].tags == []


def _outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


def _brute_encode_document(sentences, entities):
    return [brute_encode(s, entities) for s in sentences]


class TestAgainstBruteForce:
    """Seeded fuzz of the convert path against the scan-everything oracles."""

    def test_resolve_and_encode_document_match(self):
        rng = np.random.default_rng(2024)
        seen = dict.fromkeys(
            ["dropped", "raised", "discontinuous", "crosses_break"], 0)
        for _ in range(3000):
            doc = random_brat_document(rng)
            resolved = resolve_overlaps(doc)
            expected = brute_resolve_overlaps(doc)
            assert [e.id for e in resolved.entities] == [
                e.id for e in expected.entities]
            assert resolved.resolution_log == expected.resolution_log
            assert resolved.entities == expected.entities

            sentences = tokenize_document(doc.text)
            got = _outcome(encode_document, sentences, resolved.entities)
            assert got == _outcome(
                _brute_encode_document, sentences, expected.entities)

            seen["dropped"] += bool(resolved.resolution_log)
            seen["raised"] += isinstance(got, tuple)
            seen["discontinuous"] += any(
                e.is_discontinuous() for e in resolved.entities)
            ends = [s.tokens[-1].end for s in sentences]
            seen["crosses_break"] += any(
                e.start < end < e.end for e in resolved.entities for end in ends)
        assert all(count >= 300 for count in seen.values()), seen

    def test_encode_matches_on_unresolved_entity_lists(self):
        # encode is total over any entity list, in any order; the document
        # walk hands it the entities in start order
        rng = np.random.default_rng(77)
        for _ in range(1500):
            doc = random_brat_document(rng)
            ents = [doc.entities[i] for i in rng.permutation(len(doc.entities))]
            sentences = tokenize_document(doc.text)
            for sentence in sentences:
                assert _outcome(encode, sentence, ents) == _outcome(
                    brute_encode, sentence, ents)
            by_start = sorted(ents, key=lambda e: e.start)
            assert _outcome(encode_document, sentences, ents) == _outcome(
                _brute_encode_document, sentences, by_start)


class TestDecode:
    def test_simple_span(self):
        assert decode(["B-SIGN", "I-SIGN", "O"]) == [TypedSpan("SIGN", 0, 2)]

    def test_orphan_inside_repaired(self):
        assert decode(["O", "I-DISEASE"]) == [TypedSpan("DISEASE", 1, 2)]

    def test_type_switch_closes_and_opens(self):
        assert decode(["B-SIGN", "I-DISEASE"]) == [
            TypedSpan("SIGN", 0, 1), TypedSpan("DISEASE", 1, 2),
        ]

    def test_adjacent_b_tags(self):
        assert decode(["B-SIGN", "B-SIGN"]) == [
            TypedSpan("SIGN", 0, 1), TypedSpan("SIGN", 1, 2),
        ]

    def test_empty(self):
        assert decode([]) == []

    def test_total_on_random_invalid_sequences(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            tags = random_tags(rng, TYPE_NAMES, int(rng.integers(0, 15)))
            spans = decode(tags)
            for span in spans:
                assert 0 <= span.token_start < span.token_end <= len(tags)

    def test_round_trip_on_valid_sequences(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            tags = random_valid_iob(rng, TYPE_NAMES, int(rng.integers(1, 15)))
            assert validate(tags) == []
            spans = decode(tags)
            assert spans_to_tags(spans, len(tags)) == tags


class TestValidate:
    def test_inside_after_outside(self):
        assert validate(["O", "I-RAREDISEASE"]) == [1]

    def test_valid_pair(self):
        assert validate(["B-SIGN", "I-SIGN"]) == []

    def test_leading_inside(self):
        assert validate(["I-SIGN"]) == [0]

    def test_type_switch_flagged(self):
        assert validate(["B-SIGN", "I-DISEASE", "I-DISEASE"]) == [1]

    def test_span_starts_are_b_tags_and_violations(self):
        rng = np.random.default_rng(10)
        for _ in range(10_000):
            tags = random_tags(rng, TYPE_NAMES, int(rng.integers(0, 12)))
            b_tags = [i for i, tag in enumerate(tags) if tag.startswith("B-")]
            assert [span.token_start for span in decode(tags)] == sorted(
                b_tags + validate(tags))

    def test_tag_universe(self):
        assert len(TAGS) == 9
        assert TAGS[0] == "O"
        assert len(set(TAGS)) == 9


class TestContinues:
    def test_inside_needs_same_type_predecessor(self):
        assert continues("B-SIGN", "I-SIGN") and continues("I-SIGN", "I-SIGN")
        assert not continues(None, "I-SIGN")
        assert not continues("O", "I-SIGN")
        assert not continues("I-DISEASE", "I-SIGN")
        for prev in (None, "O", "I-DISEASE"):
            assert continues(prev, "O") and continues(prev, "B-SIGN")

    def test_decode_masks_treat_other_labels_as_outside(self):
        start, trans = decode_masks(["O", "I-SIGN", "x", "B-SIGN"])
        assert start == [True, False, True, True]
        assert trans == [
            [True, False, True, True],
            [True, True, True, True],
            [True, False, True, True],
            [True, True, True, True],
        ]
