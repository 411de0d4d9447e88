import hashlib
import math

import numpy as np
import pytest

from oracles import (
    brute_valid_viterbi,
    central_difference_gradient,
    max_relative_error,
)
from helpers import forward_sentence
from toy import make_tagged, toy_corpus
from raretag import chain, neural
from raretag.embeddings import random_table
from raretag.encoding import Encoder
from raretag.iob import TAGS, validate
from raretag.metrics import entity_level
from raretag.neural import (
    HEAD_CRF,
    HEAD_SOFTMAX,
    BiLstmTagger,
    EarlyStopping,
    FitConfig,
    build_tagger,
    clip_gradients,
    fit,
    loss,
    loss_and_gradients,
    predict,
)
from raretag.tokenizer import Sentence


def small_tagger(head_kind, seed=0, hidden=3, dim=4, corpus=None):
    corpus = corpus or toy_corpus(seed=seed, size=6)
    vocab = sorted({t.surface for ts in corpus for t in ts.tokens})
    table = random_table(vocab, dim, seed=seed)
    tagger = build_tagger(corpus, table, head_kind=head_kind,
                          hidden_dim=hidden, seed=seed)
    return tagger, corpus


def zero_head_tagger(head_kind):
    tagger, corpus = small_tagger(head_kind, seed=1)
    tagger.head_W[:] = 0.0
    tagger.head_b[:] = 0.0
    if tagger.transitions is not None:
        tagger.transitions[:] = 0.0
    return tagger, corpus


class TestForward:
    def test_single_token_shape(self):
        tagger, corpus = small_tagger(HEAD_SOFTMAX)
        scores = forward_sentence(tagger, corpus[0].tokens[:1])
        assert scores.shape == (1, 9)

    def test_softmax_rows_normalized(self):
        tagger, corpus = small_tagger(HEAD_SOFTMAX)
        scores = forward_sentence(tagger, corpus[0].tokens)
        assert np.max(np.abs(scores.sum(axis=1) - 1.0)) < 1e-9

    def test_empty_sentence_rejected(self):
        tagger, _ = small_tagger(HEAD_SOFTMAX)
        with pytest.raises(ValueError):
            forward_sentence(tagger, [])

    def test_direction_symmetry(self):
        tagger, corpus = small_tagger(HEAD_CRF, seed=3)
        tokens = corpus[0].tokens
        hidden = tagger.hidden_dim
        swapped = BiLstmTagger(
            tagger.label_set,
            tagger.head_kind,
            tagger.embedding,
            tagger.embedding_trainable,
            tagger.backward_cell,
            tagger.forward_cell,
            np.hstack([tagger.head_W[:, hidden:], tagger.head_W[:, :hidden]]),
            tagger.head_b,
            tagger.transitions,
        )
        original = forward_sentence(tagger, tokens)
        reversed_scores = forward_sentence(swapped, list(reversed(tokens)))
        assert np.allclose(original, reversed_scores[::-1], atol=1e-12)

    def test_inputs_are_the_table_lookups_counted_once(self):
        tagger, corpus = small_tagger(HEAD_CRF)
        table = tagger.embedding
        word = next(w for w in table.vocab if w.islower())
        words = [word, word.upper(), "neverseen", "neverseen"]
        twin = small_tagger(HEAD_CRF)[0].embedding  # keeps table's counts at 0
        expected = np.array([twin.lookup(w) for w in words])
        X, rows = neural._embed(tagger, make_tagged(words, ["O"] * 4).tokens)
        assert np.array_equal(X, expected)
        assert rows.tolist() == [table.vocab[word]] * 2 + [-1, -1]
        assert (table._lookups, table._misses) == (4, 2)


class TestLoss:
    def test_uniform_logits_cross_entropy(self):
        tagger, corpus = zero_head_tagger(HEAD_SOFTMAX)
        value = loss(tagger, corpus)
        assert value == pytest.approx(math.log(9), abs=1e-12)

    def test_crf_head_equals_softmax_on_single_tokens(self):
        tagger, corpus = small_tagger(HEAD_CRF, seed=5)
        tagger.transitions[:] = 0.0
        softmax_twin = BiLstmTagger(
            tagger.label_set, HEAD_SOFTMAX, tagger.embedding,
            tagger.embedding_trainable, tagger.forward_cell,
            tagger.backward_cell, tagger.head_W, tagger.head_b, None,
        )
        singles = [make_tagged([ts.tokens[0].surface], [ts.tags[0]])
                   for ts in corpus]
        assert abs(loss(tagger, singles) - loss(softmax_twin, singles)) < 1e-10

    def test_empty_batch_rejected(self):
        tagger, _ = small_tagger(HEAD_SOFTMAX)
        with pytest.raises(ValueError):
            loss(tagger, [])

    def test_non_finite_loss_aborts(self):
        tagger, corpus = small_tagger(HEAD_SOFTMAX)
        tagger.head_W[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            loss(tagger, corpus)

    @pytest.mark.parametrize("head_kind", [HEAD_SOFTMAX, HEAD_CRF])
    def test_full_gradient_matches_finite_differences(self, head_kind):
        corpus = toy_corpus(seed=11, size=3)
        batch = [make_tagged([t.surface for t in ts.tokens][:4], ts.tags[:4])
                 for ts in corpus]
        tagger, _ = small_tagger(head_kind, seed=11, hidden=3, dim=3,
                                 corpus=batch)
        assert tagger.embedding_trainable
        _, grads = loss_and_gradients(tagger, batch)

        def value():
            return loss(tagger, batch)

        for name, param in tagger.parameters().items():
            fd = central_difference_gradient(value, param)
            err = max_relative_error(grads[name], fd)
            assert err < 1e-3, f"{name}: {err}"

    def test_crf_loss_is_the_nll_of_the_gradient_path(self):
        # the validation loss runs the forward recursion alone, and gives
        # the NLL that chain.nll_and_gradients computes, bit for bit
        corpus = toy_corpus(seed=72, size=45)
        assert len(corpus) > chain.PASS_SENTENCES
        tagger, _ = small_tagger(HEAD_CRF, seed=72, hidden=4, dim=5,
                                 corpus=corpus)
        tagger.transitions[:] = np.random.default_rng(72).normal(size=(9, 9))
        assert loss(tagger, corpus) == loss_and_gradients(tagger, corpus)[0]


class TestPackedPasses:
    @pytest.mark.parametrize("head_kind", [HEAD_SOFTMAX, HEAD_CRF])
    def test_batch_equals_weighted_sum_of_sentences(self, head_kind):
        corpus = toy_corpus(seed=71, size=45)
        assert len(corpus) > chain.PASS_SENTENCES
        tagger, _ = small_tagger(head_kind, seed=71, hidden=4, dim=5,
                                 corpus=corpus)
        value, grads = loss_and_gradients(tagger, corpus)
        weights = np.array([len(ts.tokens) if head_kind == HEAD_SOFTMAX else 1
                            for ts in corpus], dtype=float)
        weights /= weights.sum()
        expected_value = 0.0
        expected = {name: np.zeros_like(g) for name, g in grads.items()}
        for ts, weight in zip(corpus, weights):
            one_value, one_grads = loss_and_gradients(tagger, [ts])
            expected_value += weight * one_value
            for name, g in one_grads.items():
                expected[name] += weight * g
        assert value == pytest.approx(expected_value, rel=1e-12)
        for name, g in grads.items():
            assert np.max(np.abs(g - expected[name])) < 1e-12, name

    def test_empty_sentence_in_batch_rejected(self):
        tagger, corpus = small_tagger(HEAD_CRF)
        with pytest.raises(ValueError, match="empty sentence"):
            loss(tagger, corpus + [make_tagged([], [])])

    @pytest.mark.parametrize("name", ["head_W", "head_b", "transitions"])
    def test_non_finite_weights_rejected(self, name):
        tagger, _ = small_tagger(HEAD_CRF)
        fields = dict(vars(tagger))
        fields[name] = fields[name].copy()
        fields[name].flat[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            BiLstmTagger(**fields)

    def test_softmax_head_with_transitions_rejected(self):
        tagger, _ = small_tagger(HEAD_SOFTMAX)
        fields = dict(vars(tagger))
        fields["transitions"] = np.zeros((9, 9))
        with pytest.raises(ValueError, match="softmax head"):
            BiLstmTagger(**fields)

    @pytest.mark.parametrize("name,value,match", [
        ("label_set", [0, 1, 2, 3, 4, 5, 6, 7, 8], "strings"),
        ("embedding_trainable", 1, "bool"),
        ("embedding_trainable", None, "bool"),
    ])
    def test_mistyped_fields_rejected(self, name, value, match):
        tagger, _ = small_tagger(HEAD_CRF)
        fields = dict(vars(tagger))
        fields[name] = value
        with pytest.raises(ValueError, match=match):
            BiLstmTagger(**fields)


class TestFit:
    def test_early_stopping_trace(self):
        stopper = EarlyStopping(patience=4)
        losses = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98]
        stops = [stopper.update(epoch, value)
                 for epoch, value in enumerate(losses, start=1)]
        assert stops == [False, False, False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best == 0.9

    def test_patience_resets_on_improvement(self):
        stopper = EarlyStopping(patience=2)
        values = [1.0, 1.1, 0.9, 1.0, 1.05]
        stops = [stopper.update(e, v) for e, v in enumerate(values, start=1)]
        assert stops == [False, False, False, False, True]
        assert stopper.best_epoch == 3

    @pytest.mark.parametrize("head_kind", [HEAD_SOFTMAX, HEAD_CRF])
    def test_toy_corpus_reaches_high_f1(self, head_kind):
        train_split = toy_corpus(seed=21, size=60)
        val_split = toy_corpus(seed=22, size=20)
        vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
        table = random_table(vocab, 16, seed=0)
        tagger = build_tagger(train_split, table, head_kind=head_kind,
                              hidden_dim=16, seed=0)
        config = FitConfig(learning_rate=0.02, max_epochs=30, batch_size=8,
                           hidden_dim=16, seed=0)
        tagger, history = fit(tagger, train_split, val_split, config)
        gold = [ts.tags for ts in val_split]
        pred = [predict(tagger, [ts.tokens])[0] for ts in val_split]
        report = entity_level(gold, pred)
        assert report.micro.f1 >= 0.95
        assert history.stopped_epoch <= 30

    def test_same_seed_same_result(self):
        def run():
            train_split = toy_corpus(seed=31, size=12)
            val_split = toy_corpus(seed=32, size=6)
            vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
            table = random_table(vocab, 8, seed=4)
            tagger = build_tagger(train_split, table, head_kind=HEAD_CRF,
                                  hidden_dim=6, seed=4)
            config = FitConfig(learning_rate=0.01, max_epochs=4, batch_size=4,
                               hidden_dim=6, seed=4)
            _, history = fit(tagger, train_split, val_split, config)
            return history

        first, second = run(), run()
        assert first.train_loss == second.train_loss
        assert first.val_loss == second.val_loss

    def test_epoch_loss_invariant_to_batch_order_at_zero_lr(self):
        train_split = toy_corpus(seed=41, size=13)  # uneven batches
        val_split = toy_corpus(seed=42, size=4)
        vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
        losses = []
        for shuffle_seed in (1, 2):
            table = random_table(vocab, 8, seed=7)
            tagger = build_tagger(train_split, table, head_kind=HEAD_SOFTMAX,
                                  hidden_dim=5, seed=7)
            config = FitConfig(learning_rate=0.0, max_epochs=1, batch_size=4,
                               hidden_dim=5, seed=shuffle_seed)
            _, history = fit(tagger, train_split, val_split, config)
            losses.append(history.train_loss[0])
        assert losses[0] == pytest.approx(losses[1], abs=1e-12)

    def test_returned_parameters_reproduce_best_val_loss(self):
        train_split = toy_corpus(seed=51, size=15)
        val_split = toy_corpus(seed=52, size=8)
        vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
        table = random_table(vocab, 8, seed=2)
        tagger = build_tagger(train_split, table, head_kind=HEAD_SOFTMAX,
                              hidden_dim=6, seed=2)
        config = FitConfig(learning_rate=0.05, max_epochs=10, batch_size=4,
                           hidden_dim=6, seed=2)
        tagger, history = fit(tagger, train_split, val_split, config)
        assert loss(tagger, val_split) == min(history.val_loss)
        assert history.val_loss[history.best_epoch - 1] == min(history.val_loss)

    def test_best_weights_restored_when_later_epochs_are_worse(self):
        train_split = toy_corpus(seed=51, size=15)
        val_split = toy_corpus(seed=52, size=8)
        vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
        tagger = build_tagger(train_split, random_table(vocab, 8, seed=1),
                              head_kind=HEAD_SOFTMAX, hidden_dim=6, seed=1)
        # a step this large makes the validation loss rise and fall again
        config = FitConfig(learning_rate=0.5, max_epochs=8, batch_size=4,
                           hidden_dim=6, seed=1, patience=3)
        tagger, history = fit(tagger, train_split, val_split, config)
        assert history.best_epoch < history.stopped_epoch
        assert loss(tagger, val_split) == min(history.val_loss)

    def test_progress_gets_each_history_row(self):
        train_split = toy_corpus(seed=61, size=8)
        val_split = toy_corpus(seed=62, size=4)
        tagger, _ = small_tagger(HEAD_CRF, corpus=train_split)
        calls = []
        config = FitConfig(learning_rate=0.01, max_epochs=3, batch_size=4,
                           hidden_dim=3)
        _, history = fit(tagger, train_split, val_split, config,
                         progress=lambda *row: calls.append(row))
        assert len(calls) == 3
        assert calls == list(zip(history.epochs, history.train_loss,
                                 history.val_loss))
        # the train command's entry builds the same tagger from its options,
        # passes the same calls on and counts them in its manifest metrics
        encoder = Encoder(TAGS)
        train, validation = (encoder.encode((s.tokens, s.tags) for s in part)[0]
                             for part in (train_split, val_split))
        entry_calls = []
        _, metrics, files = neural.train_run(
            train, validation, config,
            progress=lambda *row: entry_calls.append(row),
            options={"model_kind": "bilstm-crf", "embedding": "random",
                     "embedding_dim": 4})
        assert entry_calls == calls
        assert metrics["stopped_epoch"] == len(entry_calls)
        assert files == {"history_out": (".history.csv", history.to_csv())}

    @pytest.mark.parametrize("clip_norm, clipped", [(1e-6, 6), (1e6, 0)])
    def test_history_counts_clipped_batches(self, clip_norm, clipped,
                                            monkeypatch):
        train_split = toy_corpus(seed=61, size=10)
        val_split = toy_corpus(seed=62, size=4)
        tagger, _ = small_tagger(HEAD_CRF, corpus=train_split)
        norms = []

        def recorded(grads, max_norm):
            norms.append(clip_gradients(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(neural, "clip_gradients", recorded)
        config = FitConfig(learning_rate=0.01, max_epochs=2, batch_size=4,
                           hidden_dim=3, gradient_clip_norm=clip_norm)
        _, history = fit(tagger, train_split, val_split, config)
        assert len(norms) == 2 * 3  # 10 sentences in batches of 4, 2 epochs
        assert history.max_gradient_norm == max(norms)
        assert 1e-6 < history.max_gradient_norm < 1e6
        assert history.clipped_batches == clipped

    def test_gradient_clipping_bounds_global_norm(self):
        rng = np.random.default_rng(0)
        grads = {"a": rng.normal(0, 10, (5, 5)), "b": rng.normal(0, 10, 7)}
        clip_gradients(grads, 5.0)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert norm <= 5.0 + 1e-12

    def test_clipping_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.1, -0.2])}
        before = grads["a"].copy()
        clip_gradients(grads, 5.0)
        assert np.array_equal(grads["a"], before)

    def test_history_csv(self):
        history = neural.FitHistory([1, 2], [0.5, 0.4], [0.6, 0.55], 2, 2)
        text = history.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 3


class TestEmbeddingTrainability:
    def test_random_tables_train_by_default(self):
        tagger, _ = small_tagger(HEAD_SOFTMAX)
        assert tagger.embedding_trainable

    def test_file_tables_frozen_by_default(self):
        corpus = toy_corpus(seed=9, size=4)
        vocab = sorted({t.surface for ts in corpus for t in ts.tokens})
        source = random_table(vocab, 4, seed=0)
        source.origin = "file"  # as if loaded from a vector file
        tagger = build_tagger(corpus, source, head_kind=HEAD_SOFTMAX,
                              hidden_dim=3, seed=0)
        assert not tagger.embedding_trainable
        assert "embedding" not in tagger.parameters()

    def test_explicit_override_wins(self):
        corpus = toy_corpus(seed=9, size=4)
        vocab = sorted({t.surface for ts in corpus for t in ts.tokens})
        source = random_table(vocab, 4, seed=0)
        tagger = build_tagger(corpus, source, head_kind=HEAD_SOFTMAX,
                              hidden_dim=3, seed=0, train_embeddings=False)
        assert not tagger.embedding_trainable

    def test_frozen_embeddings_unchanged_by_training(self):
        train_split = toy_corpus(seed=91, size=10)
        val_split = toy_corpus(seed=92, size=4)
        vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
        table = random_table(vocab, 6, seed=3)
        tagger = build_tagger(train_split, table, head_kind=HEAD_SOFTMAX,
                              hidden_dim=4, seed=3, train_embeddings=False)
        before = tagger.embedding.matrix.copy()
        config = FitConfig(learning_rate=0.05, max_epochs=2, batch_size=4,
                           hidden_dim=4, seed=3)
        fit(tagger, train_split, val_split, config)
        assert np.array_equal(tagger.embedding.matrix, before)


class TestEncoded:
    def test_sentences_select_in_order_over_one_word_list(self):
        def sentence(words, tags):
            return make_tagged(words, tags).tokens, tags

        encoder = Encoder(TAGS)
        train, unknown = encoder.encode([
            sentence(["the", "rash"], ["O", "B-SIGN"]),
            sentence(["Rash"], ["B-FOO"]),
            sentence(["the", "skin", "x"], ["O"] * 3)])
        assert unknown == ["B-FOO"]
        val, unknown = encoder.encode([sentence(["skin", "new"],
                                                ["O", "B-BAR"])])
        assert unknown == ["B-BAR"]
        assert encoder.words == ["the", "rash", "Rash", "skin", "x", "new"]
        assert train.words is val.words
        assert train.word_ids.tolist() == [0, 1, 2, 0, 3, 4]
        assert train.label_ids.tolist() == [0, 5, -1, 0, 0, 0]
        assert val.word_ids.tolist() == [3, 5]
        assert train.vocabulary() == ["Rash", "rash", "skin", "the", "x"]
        for key, chosen in (([2, 0], [2, 0]), (slice(1, None), [1, 2]),
                            ([], [])):
            part = train[key]
            assert len(part) == len(chosen)
            assert part.lengths.tolist() == [[2, 1, 3][i] for i in chosen]
            spans = [[0, 1], [2], [3, 4, 5]]
            tokens = [t for i in chosen for t in spans[i]]
            assert part.word_ids.tolist() == train.word_ids[tokens].tolist()
            assert part.label_ids.tolist() == train.label_ids[tokens].tolist()

    def test_attributes_join_as_one_encoding(self):
        # the CRF's values: BOS and EOS are ids 0 and 1, also as tokens
        words = [["EOS", "Rash", "the"], ["BOS"], ["rash", "x"]]
        sentences = [make_tagged(w, ["O"] * len(w)) for w in words]
        pairs = [(ts.tokens, ts.tags) for ts in sentences]
        encoder = Encoder(TAGS, attributes=True)
        first, _ = encoder.encode(pairs[:2])
        second, _ = encoder.encode(pairs[2:])
        assert encoder.words == ["BOS", "EOS", "eos", "X", "Rash", "rash",
                                 "the", "bos", "x"]
        assert first.values.tolist() == [[1, 2, 2, 3], [4, 5, 5, 3],
                                         [6, 6, 6, 3], [0, 7, 7, 3]]
        assert first.word_ids.tolist() == [1, 4, 6, 0]
        whole, _ = Encoder(TAGS, attributes=True).encode(pairs)
        joined = first + second
        for name in ("word_ids", "label_ids", "lengths", "values"):
            assert getattr(joined, name).tolist() == getattr(whole,
                                                             name).tolist()
        assert joined[[2]].values.tolist() == second.values.tolist()
        with pytest.raises(ValueError, match="one Encoder"):
            first + whole

    def test_unknown_gold_label_is_named(self):
        tagger, corpus = small_tagger(HEAD_CRF)
        bad = make_tagged(["the", "rash"], ["O", "B-FOO"])
        for call in (loss, loss_and_gradients):
            with pytest.raises(ValueError, match="unknown label in gold "
                                                 "tags: 'B-FOO'"):
                call(tagger, corpus + [bad])

    def test_a_corpus_over_another_label_set_is_refused(self):
        tagger, corpus = small_tagger(HEAD_CRF)
        other, _ = Encoder(TAGS[::-1]).encode(
            (ts.tokens, ts.tags) for ts in corpus)
        with pytest.raises(ValueError, match="another label set"):
            loss(tagger, other)


# Pinned from the per-token lookup path that this encoding replaced: the
# parameter digest, the float.hex of each epoch's train and validation
# loss, and the largest pre-clip gradient norm. Training never leaves the
# vocabulary, so the two heads' random_seeded and mean_vector fits share
# their weights; their validation losses differ, as an unknown word's
# mean vector follows the embedding matrix the fit trains.
OOV_FITS = {
    (HEAD_SOFTMAX, "random_seeded"): (
        "2ae0f1f58fec0ae7",
        ["0x1.151b702249ec2p+1", "0x1.065942c980abbp+1", "0x1.d645f0e364ed4p+0"],
        ["0x1.08a6ccb00ebccp+1", "0x1.d7595840693c7p+0", "0x1.93e60d3eb40d8p+0"],
        "0x1.3a340b6e2615fp-1"),
    (HEAD_CRF, "random_seeded"): (
        "9801cbe03e2ad8b6",
        ["0x1.184779736407ep+3", "0x1.eb31daff2c9f5p+2", "0x1.9ab2a4006e713p+2"],
        ["0x1.a571a07576c18p+2", "0x1.62361f40be89fp+2", "0x1.2b4dd393daafap+2"],
        "0x1.66faefa4df1b8p+1"),
    (HEAD_CRF, "mean_vector"): (
        "9801cbe03e2ad8b6",
        ["0x1.184779736407ep+3", "0x1.eb31daff2c9f5p+2", "0x1.9ab2a4006e713p+2"],
        ["0x1.a5b80b684c670p+2", "0x1.631650f707b06p+2", "0x1.2cfad50559e9bp+2"],
        "0x1.66faefa4df1b8p+1"),
}


class TestOutOfVocabulary:
    @pytest.mark.parametrize("encoded", [False, True], ids=["lists", "encoder"])
    @pytest.mark.parametrize("head_kind,policy", list(OOV_FITS))
    def test_fit_through_the_oov_vectors_is_pinned(self, head_kind, policy,
                                                   encoded):
        train_split = toy_corpus(seed=84, size=10)
        # "Rash" takes the row of "rash"; "zyxqwv" and the validation's own
        # words take their OOV vectors
        val_split = toy_corpus(seed=85, size=4) + [make_tagged(
            ["Rash", "zyxqwv", "the", "zyxqwv"], ["B-SIGN", "O", "O", "O"])]
        vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
        assert "rash" in vocab and "Rash" not in vocab
        table = random_table(vocab, 5, seed=3, oov_policy=policy)
        if encoded:  # as cli train reads them: one word list for both
            encoder = Encoder(TAGS)
            train_split, val_split = (encoder.encode(
                (ts.tokens, ts.tags) for ts in split)[0]
                for split in (train_split, val_split))
        tagger = build_tagger(train_split, table, head_kind=head_kind,
                              hidden_dim=4, seed=3)
        config = FitConfig(learning_rate=0.05, max_epochs=3, batch_size=4,
                           hidden_dim=4, seed=3)
        tagger, history = fit(tagger, train_split, val_split, config)
        params = tagger.parameters()
        digest = hashlib.sha256(
            b"".join(params[k].tobytes() for k in sorted(params))).hexdigest()
        assert (digest[:16], [x.hex() for x in history.train_loss],
                [x.hex() for x in history.val_loss],
                history.max_gradient_norm.hex()) == OOV_FITS[head_kind, policy]
        assert (history.best_epoch, history.stopped_epoch,
                history.clipped_batches) == (3, 3, 0)
        # 41 training and 17 validation tokens, each looked up once per fit:
        # the three misses are "zyxqwv" twice and "asthma"; the rate is the
        # one that counting every epoch gave
        table = tagger.embedding
        assert (table._lookups, table._misses) == (41 + 17, 3)
        assert table.oov_rate().hex() == "0x1.a7b9611a7b961p-5"


class TestPredict:
    def test_uniform_model_breaks_ties_to_first_label(self):
        tagger, corpus = zero_head_tagger(HEAD_SOFTMAX)
        tags = predict(tagger, [corpus[0].tokens])[0]
        assert tags == [TAGS[0]] * len(corpus[0].tokens)

    @pytest.mark.parametrize("head_kind", [HEAD_SOFTMAX, HEAD_CRF])
    def test_constrained_output_is_valid(self, head_kind):
        rng = np.random.default_rng(6)
        tagger, corpus = small_tagger(head_kind, seed=6)
        if tagger.transitions is not None:
            tagger.transitions[:] = rng.normal(0, 3, tagger.transitions.shape)
        tagger.head_W[:] = rng.normal(0, 3, tagger.head_W.shape)
        for ts in corpus:
            assert validate(predict(tagger, [ts.tokens], constrained=True)[0]) == []

    @pytest.mark.parametrize("head_kind", [HEAD_SOFTMAX, HEAD_CRF])
    def test_constrained_output_is_the_best_valid_sequence(self, head_kind):
        rng = np.random.default_rng(8)
        tagger, corpus = small_tagger(head_kind, seed=8)
        L = len(tagger.label_set)
        transitions = np.zeros((L, L))
        if tagger.transitions is not None:
            tagger.transitions[:] = transitions = rng.normal(0, 3, (L, L))
        tagger.head_W[:] = rng.normal(0, 3, tagger.head_W.shape)
        for ts in corpus:
            for start in range(0, len(ts.tokens), 2):
                tokens = ts.tokens[start:start + 4]
                scores = forward_sentence(tagger, tokens)
                if head_kind == HEAD_SOFTMAX:  # each row's log normalizer
                    scores = np.log(scores)    # is constant over labels
                expected, ties = brute_valid_viterbi(
                    scores, transitions, tagger.label_set)
                assert ties == 1
                assert predict(tagger, [tokens], constrained=True)[0] == expected

    @pytest.mark.parametrize("head_kind", [HEAD_SOFTMAX, HEAD_CRF])
    def test_tag_in_passes_equals_one_sentence_predictions(self, head_kind):
        rng = np.random.default_rng(72)
        corpus = toy_corpus(seed=72, size=70)
        tagger, _ = small_tagger(head_kind, seed=72, hidden=4, dim=5,
                                 corpus=corpus)
        tagger.head_W[:] = rng.normal(0, 3, tagger.head_W.shape)
        sentences = [Sentence(ts.tokens) for ts in corpus]
        scores = neural._scores(tagger, [s.tokens for s in sentences])
        one_by_one = np.vstack([neural._scores(tagger, [s.tokens])
                                for s in sentences])
        assert np.max(np.abs(scores - one_by_one)) < 1e-12
        for constrained in (False, True):
            assert tagger.tag(sentences, constrained) == [
                predict(tagger, [s.tokens], constrained)[0] for s in sentences]
        assert tagger.tag([]) == []

    def test_trained_model_recovers_trigger_tags(self):
        train_split = toy_corpus(seed=61, size=60)
        vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
        table = random_table(vocab, 16, seed=1)
        tagger = build_tagger(train_split, table, head_kind=HEAD_CRF,
                              hidden_dim=16, seed=1)
        config = FitConfig(learning_rate=0.02, max_epochs=25, batch_size=8,
                           hidden_dim=16, seed=1)
        tagger, _ = fit(tagger, train_split, toy_corpus(seed=62, size=10), config)
        probe = make_tagged(
            ["the", "patient", "shows", "velmora", "syndrome"],
            ["O", "O", "O", "B-RAREDISEASE", "I-RAREDISEASE"],
        )
        assert predict(tagger, [probe.tokens])[0] == probe.tags
