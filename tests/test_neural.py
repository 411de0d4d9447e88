import math

import numpy as np
import pytest

from oracles import (
    brute_valid_viterbi,
    central_difference_gradient,
    max_relative_error,
)
from toy import make_tagged, toy_corpus
from raretag import chain, neural
from raretag.embeddings import random_table
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
    forward_sentence,
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
        expected = np.array([table.lookup(w) for w in words])
        table.reset_oov_counters()
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
        del fields["label_index"]
        fields[name] = fields[name].copy()
        fields[name].flat[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
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
