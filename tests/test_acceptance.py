"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line. No external data is required; the end-to-end
criteria drive the real CLI against the synthetic corpus generator."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    brute_log_partition,
    brute_span_prf,
    brute_token_counts,
    brute_viterbi,
    central_difference_gradient,
    max_relative_error,
    random_tags,
    random_valid_iob,
)
from toy import make_tagged, toy_corpus
from raretag import chain, cli, crf, metrics, neural
from raretag.crf import CrfModel, TrainConfig
from raretag.embeddings import random_table
from raretag.iob import decode, spans_to_tags, validate
from raretag.neural import EarlyStopping, FitConfig

TYPE_NAMES = ["DISEASE", "RAREDISEASE", "SIGN", "SYMPTOM"]


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def random_crf_model(rng, max_labels=5):
    n_labels = int(rng.integers(2, max_labels + 1))
    n_features = int(rng.integers(3, 9))
    return CrfModel(
        [f"L{i}" for i in range(n_labels)],
        {f"f{i}": i for i in range(n_features)},
        rng.normal(0, 1.5, (n_features, n_labels)),
        rng.normal(0, 1.5, (n_labels, n_labels)),
    )


def random_feature_lists(rng, model, length):
    names = list(model.feature_index)
    return [
        list(rng.choice(names, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(length)
    ]


def test_criterion_1_dynamic_programming_oracles():
    with criterion(1, "dynamic-programming oracle equivalence"):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(1000):
            model = random_crf_model(rng)
            length = int(rng.integers(1, 7))
            feats = random_feature_lists(rng, model, length)
            scores = model.state_scores(model.index_tokens(feats))
            trans = model.transition_weights

            got_log_z = crf.log_partition(model, feats)
            assert abs(got_log_z - brute_log_partition(scores, trans)) < 1e-8

            tags = crf.viterbi(model, [feats])[0]
            path = [model.label_index[t] for t in tags]
            expected_path, expected_score, ties = brute_viterbi(scores, trans)
            got_score = chain.sequence_score(scores, trans, path)
            assert abs(got_score - expected_score) < 1e-9
            if ties == 1:  # unique maximizer: paths must agree exactly
                assert path == expected_path
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_2_gradient_oracles():
    with criterion(2, "finite-difference gradient oracles"):
        started = time.monotonic()
        # CRF: regularized NLL over a small random batch
        rng = np.random.default_rng(202)
        model = random_crf_model(rng, max_labels=4)
        batch = []
        for _ in range(3):
            length = int(rng.integers(1, 6))
            feats = random_feature_lists(rng, model, length)
            gold = [model.label_set[rng.integers(len(model.label_set))]
                    for _ in range(length)]
            batch.append((feats, gold))
        config = TrainConfig(l2_coefficient=0.5)
        _, grad = crf.nll_and_gradient(model, batch, config)

        def crf_value():
            return crf.nll_and_gradient(model, batch, config)[0]

        fd = np.concatenate([
            central_difference_gradient(crf_value, model.state_weights,
                                        step=1e-5).ravel(),
            central_difference_gradient(crf_value, model.transition_weights,
                                        step=1e-5).ravel(),
        ])
        assert max_relative_error(grad, fd) < 1e-4

        # full BiLSTM and BiLSTM-CRF parameter gradients
        for head_kind in (neural.HEAD_SOFTMAX, neural.HEAD_CRF):
            corpus = [make_tagged([t.surface for t in ts.tokens][:4],
                                  ts.tags[:4])
                      for ts in toy_corpus(seed=7, size=3)]
            vocab = sorted({t.surface for ts in corpus for t in ts.tokens})
            table = random_table(vocab, 3, seed=5)
            tagger = neural.build_tagger(corpus, table, head_kind=head_kind,
                                         hidden_dim=3, seed=5)
            _, grads = neural.loss_and_gradients(tagger, corpus)

            def neural_value():
                return neural.loss(tagger, corpus)

            for name, param in tagger.parameters().items():
                fd = central_difference_gradient(neural_value, param, step=1e-5)
                err = max_relative_error(grads[name], fd)
                assert err < 1e-3, f"{head_kind}/{name}: {err}"
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_3_iob_codec():
    with criterion(3, "IOB2 codec round trip, totality, validation"):
        rng = np.random.default_rng(303)
        for _ in range(10_000):
            tags = random_valid_iob(rng, TYPE_NAMES, int(rng.integers(1, 14)))
            assert spans_to_tags(decode(tags), len(tags)) == tags
        for _ in range(10_000):
            tags = random_tags(rng, TYPE_NAMES, int(rng.integers(0, 14)))
            spans = decode(tags)  # must never raise
            for span in spans:
                assert 0 <= span.token_start < span.token_end <= len(tags)
            # validate flags exactly the I-X positions lacking a same-type
            # B/I immediately before (the tag-after-O constraint included)
            expected = [
                i for i, tag in enumerate(tags)
                if tag.startswith("I-") and (
                    i == 0
                    or tags[i - 1] == "O"
                    or tags[i - 1].split("-", 1)[1] != tag.split("-", 1)[1]
                )
            ]
            assert validate(tags) == expected
        assert validate(["O", "I-RAREDISEASE"]) == [1]


def test_criterion_4_metrics_oracle():
    with criterion(4, "metrics equal independent span-set counter"):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            gold = [random_tags(rng, TYPE_NAMES, int(rng.integers(1, 9)))
                    for _ in range(n)]
            pred = [random_tags(rng, TYPE_NAMES, len(g)) for g in gold]

            token_report = metrics.token_level(gold, pred)
            for label, (tp, fp, fn) in brute_token_counts(gold, pred).items():
                scores = token_report.per_label[label]
                assert scores.support == tp + fn
                assert scores.precision == (tp / (tp + fp) if tp + fp else 0.0)
                assert scores.recall == (tp / (tp + fn) if tp + fn else 0.0)

            entity_report = metrics.entity_level(gold, pred)
            expected = brute_span_prf(gold, pred)
            got_labels = {
                label for label, s in entity_report.per_label.items()
            }
            assert got_labels == set(expected)
            for label, (tp, fp, fn) in expected.items():
                scores = entity_report.per_label[label]
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * p * r / (p + r) if p + r else 0.0
                assert (scores.precision, scores.recall, scores.f1) == (p, r, f1)
                assert scores.support == tp + fn

        # frozen hand-computed fixture
        gold = [["B-SIGN", "I-SIGN", "O", "B-DISEASE", "O"]]
        pred = [["B-SIGN", "I-SIGN", "O", "B-DISEASE", "I-DISEASE"]]
        report = metrics.entity_level(gold, pred)
        assert report.micro.f1 == 0.5
        assert report.per_label["SIGN"].f1 == 1.0
        assert report.per_label["DISEASE"].f1 == 0.0


def test_criterion_5_end_to_end_synthetic(tmp_path):
    with criterion(5, "end-to-end synthetic pipeline"):
        def run(argv):
            return cli.main([str(a) for a in argv])

        corpus = tmp_path / "corpus"
        extra = tmp_path / "extra"
        train_conll = tmp_path / "train.conll"
        heldout_conll = tmp_path / "heldout.conll"
        val_conll = tmp_path / "val.conll"

        crf_started = time.monotonic()
        assert run(["gen-synthetic", corpus, "--seed", 7, "--size", 200]) == 0
        assert run(["convert", corpus / "train", train_conll]) == 0
        assert run(["convert", corpus / "heldout", heldout_conll]) == 0

        crf_cfg = tmp_path / "crf.cfg"
        crf_model = tmp_path / "crf.model"
        crf_cfg.write_text(
            f"model_kind = crf\ntrain = {train_conll}\n"
            f"model_out = {crf_model}\n"
        )
        assert run(["train", crf_cfg]) == 0
        assert run(["evaluate", crf_model, heldout_conll, "--level", "entity",
                    "--min", "micro_f1=0.95"]) == 0
        crf_elapsed = time.monotonic() - crf_started
        assert crf_elapsed < 120.0, f"CRF budget exceeded: {crf_elapsed:.1f}s"

        neural_started = time.monotonic()
        # separate synthetic sample for early stopping; final evaluation
        # stays on the untouched held-out split
        assert run(["gen-synthetic", extra, "--seed", 8, "--size", 40,
                    "--holdout-fraction", "0.0"]) == 0
        assert run(["convert", extra, val_conll]) == 0
        bl_cfg = tmp_path / "bl.cfg"
        bl_model = tmp_path / "bl.model"
        bl_cfg.write_text(
            f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
            f"validation = {val_conll}\nembedding = random\n"
            f"embedding_dim = 24\nhidden_dim = 24\nmax_epochs = 12\n"
            f"batch_size = 16\nlearning_rate = 0.01\nseed = 7\n"
            f"model_out = {bl_model}\n"
        )
        assert run(["train", bl_cfg]) == 0
        assert run(["evaluate", bl_model, heldout_conll, "--level", "entity",
                    "--min", "micro_f1=0.90"]) == 0
        neural_elapsed = time.monotonic() - neural_started
        assert neural_elapsed < 600.0, \
            f"BiLSTM-CRF budget exceeded: {neural_elapsed:.1f}s"


def test_criterion_6_early_stopping_contract():
    with criterion(6, "early stopping trace and restoration"):
        stopper = EarlyStopping(patience=4)
        trace = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98]
        decisions = [stopper.update(e, v)
                     for e, v in enumerate(trace, start=1)]
        assert decisions == [False, False, False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best == 0.9

        # restoration: the returned parameters reproduce the recorded best
        # validation loss exactly
        train_split = toy_corpus(seed=71, size=14)
        val_split = toy_corpus(seed=72, size=6)
        vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
        table = random_table(vocab, 8, seed=6)
        tagger = neural.build_tagger(train_split, table,
                                     head_kind=neural.HEAD_SOFTMAX,
                                     hidden_dim=6, seed=6)
        config = FitConfig(learning_rate=0.05, max_epochs=8, batch_size=4,
                           hidden_dim=6, seed=6, patience=4)
        tagger, history = neural.fit(tagger, train_split, val_split, config)
        best = min(history.val_loss)
        assert neural.loss(tagger, val_split) == best
        assert history.val_loss[history.best_epoch - 1] == best
        assert math.isfinite(best)
