import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from toy import make_tagged, toy_corpus
from raretag import cli, crf, model_io, neural
from raretag.conll import ConllSentence, write_conll
from raretag.crf import TrainConfig
from raretag.embeddings import random_table
from raretag.model_io import (
    MAGIC,
    ModelFormatError,
    atomic_write_bytes,
    dump_text,
    load_model,
    model_kind,
    save_model,
)
from raretag.tokenizer import Sentence


DATA = Path(__file__).parent / "data"
# A BiLSTM-CRF written by the per-gate LSTM implementation, with its text
# dump and the label scores it gave three sentences (float hex).
V1_MODEL = DATA / "bilstm-crf-v1.model"


def trained_crf():
    corpus = toy_corpus(seed=1, size=10)
    model, _ = crf.train(corpus, TrainConfig(max_iterations=15))
    return model, corpus


def built_tagger(head_kind):
    corpus = toy_corpus(seed=2, size=8)
    vocab = sorted({t.surface for ts in corpus for t in ts.tokens})
    table = random_table(vocab, 6, seed=3)
    tagger = neural.build_tagger(corpus, table, head_kind=head_kind,
                                 hidden_dim=4, seed=3)
    return tagger, corpus


class TestCrfContainer:
    def test_round_trip_is_exact(self, tmp_path):
        model, corpus = trained_crf()
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.label_set == model.label_set
        assert loaded.feature_index == model.feature_index
        assert np.array_equal(loaded.state_weights, model.state_weights)
        assert np.array_equal(loaded.transition_weights, model.transition_weights)
        assert loaded.window == model.window

    def test_predictions_identical_after_reload(self, tmp_path):
        model, corpus = trained_crf()
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        for ts in corpus:
            sent = Sentence(ts.tokens)
            assert model.tag([sent]) == loaded.tag([sent])

    def test_kind_probe(self, tmp_path):
        model, _ = trained_crf()
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert model_kind(path) == "crf"


class TestTaggerContainer:
    @pytest.mark.parametrize("head_kind,expect_kind", [
        (neural.HEAD_SOFTMAX, "bilstm"),
        (neural.HEAD_CRF, "bilstm-crf"),
    ])
    def test_round_trip(self, tmp_path, head_kind, expect_kind):
        tagger, corpus = built_tagger(head_kind)
        path = tmp_path / "tagger.bin"
        save_model(tagger, path)
        assert model_kind(path) == expect_kind
        loaded = load_model(path)
        assert loaded.label_set == tagger.label_set
        assert loaded.head_kind == tagger.head_kind
        assert np.array_equal(loaded.embedding.matrix, tagger.embedding.matrix)
        assert loaded.embedding.vocab == tagger.embedding.vocab
        for key, value in tagger.parameters().items():
            assert np.array_equal(loaded.parameters()[key], value), key
        for ts in corpus:
            assert neural.predict(loaded, [ts.tokens]) == \
                neural.predict(tagger, [ts.tokens])

    def test_oov_vectors_survive_reload(self, tmp_path):
        tagger, _ = built_tagger(neural.HEAD_CRF)
        path = tmp_path / "tagger.bin"
        save_model(tagger, path)
        loaded = load_model(path)
        fresh = tagger.embedding._oov_vector("neverseen")
        assert np.array_equal(loaded.embedding._oov_vector("neverseen"), fresh)


class TestFormat:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTAMODEL" + b"\0" * 32)
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_bad_version_rejected(self, tmp_path):
        model, _ = trained_crf()
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model, _ = trained_crf()
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data + b"extra")
        with pytest.raises(ModelFormatError):
            load_model(path)
        small = crf.make_zero_model(["O", "B-SIGN", "I-SIGN"], {"w=a": 0})
        save_model(small, path)
        data = path.read_bytes()
        for length in range(len(data)):
            path.write_bytes(data[:length])
            with pytest.raises(ModelFormatError):
                load_model(path)
        header_start = len(MAGIC) + 12
        path.write_bytes(data[:header_start] + b"\xff" + data[header_start + 1:])
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_no_temp_file_left_behind(self, tmp_path):
        model, _ = trained_crf()
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    def test_bit_flips_load_or_raise_format_error(self, tmp_path, capsys, kind):
        if kind == "crf":
            model, corpus = trained_crf()
        else:
            model, corpus = built_tagger(neural.HEAD_CRF)
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        gold = tmp_path / "gold.conll"
        gold.write_text(write_conll([
            ConllSentence("d", Sentence(ts.tokens), ts.tags) for ts in corpus]))
        rng = np.random.default_rng(404)
        rejected = 0
        for _ in range(200):
            flipped = bytearray(data)
            flipped[rng.integers(min(4096, len(data)))] ^= 1 << rng.integers(8)
            path.write_bytes(bytes(flipped))
            try:
                load_model(path)
            except ModelFormatError:
                rejected += 1
                assert cli.main(["evaluate", str(path), str(gold)]) == 1
                assert capsys.readouterr().err.startswith("error: ")
        assert 0 < rejected < 200

    @pytest.mark.parametrize("corrupt", [
        lambda meta, arrays: meta.pop("window"),
        lambda meta, arrays: meta.update(features="f"),
        lambda meta, arrays: meta.update(label_set=[1, 2, 3]),
        lambda meta, arrays: arrays.append(("extra", np.zeros(2))),
        lambda meta, arrays: arrays.pop(),
        lambda meta, arrays: arrays.reverse(),
        lambda meta, arrays: meta.update(features=meta["features"][:1] * 2),
        lambda meta, arrays: arrays[0][1].fill(np.nan),
        lambda meta, arrays: meta.update(window=-1),
    ], ids=["no-key", "bad-type", "bad-labels", "extra-array", "missing-array",
            "swapped-arrays", "duplicate-features", "non-finite",
            "negative-window"])
    def test_inconsistent_header_is_named(self, tmp_path, corrupt):
        small = crf.make_zero_model(["O", "B-SIGN", "I-SIGN"], {"a": 0, "b": 1})
        kind, meta, arrays = model_io._crf_payload(small)
        arrays = [(name, a.copy()) for name, a in arrays]
        corrupt(meta, arrays)
        path = tmp_path / "model.bin"
        path.write_bytes(model_io._pack(kind, meta, arrays))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_concurrent_writers_leave_one_whole_payload(self, tmp_path):
        path = tmp_path / "model.bin"
        payloads = [bytes([i]) * (2 << 20) for i in range(4)]
        errors = []

        def write(payload):
            try:
                for _ in range(15):
                    atomic_write_bytes(path, payload)
            except OSError as err:
                errors.append(err)

        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_bytes() in payloads
        assert list(tmp_path.iterdir()) == [path]

    def test_dump_text_is_lossless(self, tmp_path):
        model, _ = trained_crf()
        path = tmp_path / "model.bin"
        save_model(model, path)
        text = dump_text(path)
        assert text.startswith("kind: crf")
        sample = float(model.state_weights.ravel()[0])
        assert sample.hex() in text
        # identical models dump to identical text
        path2 = tmp_path / "model2.bin"
        save_model(model, path2)
        assert dump_text(path2) == text


class TestStoredTagger:
    def test_loads_and_saves_byte_identical(self, tmp_path):
        model = load_model(V1_MODEL)
        path = tmp_path / "again.model"
        save_model(model, path)
        assert path.read_bytes() == V1_MODEL.read_bytes()
        expected = (DATA / "bilstm-crf-v1.dump.txt").read_text(encoding="utf-8")
        assert dump_text(V1_MODEL) == expected
        assert dump_text(path) == expected

    def test_scores_and_tags_unchanged(self):
        model = load_model(V1_MODEL)
        cases = json.loads((DATA / "bilstm-crf-v1.scores.json").read_text())
        for case in cases:
            tokens = make_tagged(case["words"], ["O"] * len(case["words"])).tokens
            expected = np.array([[float.fromhex(v) for v in row]
                                 for row in case["scores"]])
            scores = neural.forward_sentence(model, tokens)
            assert np.max(np.abs(scores - expected)) < 1e-12
            assert neural.predict(model, [tokens])[0] == case["tags"]

    @pytest.mark.parametrize("name", ["fw.W_i", "bw.U_g", "fw.b_f", "head.W",
                                      "head.b", "transitions", "embedding.matrix"])
    def test_non_finite_weight_is_a_format_error(self, tmp_path, capsys, name):
        kind, meta, arrays = model_io._unpack(V1_MODEL.read_bytes())
        arrays[name].flat[0] = np.nan if name != "head.b" else np.inf
        path = tmp_path / "model.bin"
        path.write_bytes(model_io._pack(kind, meta, list(arrays.items())))
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)
        gold = tmp_path / "gold.conll"
        gold.write_text(write_conll([
            ConllSentence("d", Sentence(ts.tokens), ts.tags)
            for ts in toy_corpus(seed=83, size=3)]))
        assert cli.main(["evaluate", str(path), str(gold)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_misshapen_gate_block_is_a_format_error(self, tmp_path):
        # W_i one row short and W_f one row long still stack to [4H, D]
        kind, meta, arrays = model_io._unpack(V1_MODEL.read_bytes())
        arrays["fw.W_f"] = np.vstack([arrays["fw.W_i"][-1:], arrays["fw.W_f"]])
        arrays["fw.W_i"] = arrays["fw.W_i"][:-1]
        path = tmp_path / "model.bin"
        path.write_bytes(model_io._pack(kind, meta, list(arrays.items())))
        with pytest.raises(ModelFormatError, match="arrays"):
            load_model(path)
