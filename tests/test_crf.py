import numpy as np
import pytest

from oracles import (
    brute_log_partition,
    brute_valid_viterbi,
    brute_viterbi,
    central_difference_gradient,
    max_relative_error,
)
from toy import make_tagged, toy_corpus
from raretag import chain, crf, features
from raretag.chain import sequence_score
from raretag.crf import CrfModel, TrainConfig, make_zero_model
from raretag.features import features_per_token, sentence_features
from raretag.iob import TAGS, TaggedSentence, validate
from raretag.metrics import entity_level
from raretag.tokenizer import Sentence, Token


def random_model(rng, n_features=8, n_labels=4, scale=0.5):
    labels = [f"L{i}" for i in range(n_labels)]
    index = {f"f{i}": i for i in range(n_features)}
    state = rng.normal(0, scale, (n_features, n_labels))
    trans = rng.normal(0, scale, (n_labels, n_labels))
    return CrfModel(labels, index, state, trans)


def random_features(rng, model, length):
    names = list(model.feature_index)
    feats = []
    for _ in range(length):
        k = int(rng.integers(1, 4))
        feats.append(list(rng.choice(names, size=k, replace=False)))
    return feats


class TestLogPartition:
    def test_zero_weights_uniform(self):
        model = make_zero_model(["a", "b", "c"], {"f": 0})
        feats = [["f"], ["f"], ["f"], ["f"]]
        assert crf.log_partition(model, feats) == pytest.approx(
            4 * np.log(3), abs=1e-12
        )

    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            model = random_model(rng, n_labels=int(rng.integers(2, 6)))
            feats = random_features(rng, model, int(rng.integers(1, 7)))
            scores = model.state_scores(model.index_tokens(feats))
            assert crf.log_partition(model, feats) == pytest.approx(
                brute_log_partition(scores, model.transition_weights), abs=1e-8
            )

    def test_empty_sentence_rejected(self):
        model = make_zero_model(["a"], {"f": 0})
        with pytest.raises(ValueError):
            crf.log_partition(model, [])

    def test_unseen_features_dropped(self):
        model = make_zero_model(["a", "b"], {"f": 0})
        known = crf.log_partition(model, [["f"]])
        with_unknown = crf.log_partition(model, [["f", "never-seen"]])
        assert known == with_unknown
        model.state_weights[0] = [0.5, -1.5]
        scores = model.state_scores(model.index_tokens([["f"], ["never-seen"]]))
        assert np.array_equal(scores, [[0.5, -1.5], [0.0, 0.0]])

    def test_marginals_rows_sum_to_one(self):
        rng = np.random.default_rng(22)
        model = random_model(rng)
        feats = random_features(rng, model, 5)
        scores = model.state_scores(model.index_tokens(feats))
        log_z, unary, pairwise = chain.forward_backward(
            scores, model.transition_weights)
        assert np.max(np.abs(unary.sum(axis=1) - 1.0)) < 1e-10
        assert log_z == pytest.approx(crf.log_partition(model, feats))
        assert pairwise.shape == (4, 4, 4)


class TestModelFields:
    @pytest.mark.parametrize("window", [2.5, 8.0, -1, "2", None])
    def test_window_must_be_a_non_negative_int(self, window):
        with pytest.raises(ValueError, match="window"):
            make_zero_model(["O"], {"f": 0}, window)

    @pytest.mark.parametrize("labels,index", [([1], {"f": 0}), (["O"], {1: 0})])
    def test_labels_and_features_must_be_strings(self, labels, index):
        with pytest.raises(ValueError, match="strings"):
            make_zero_model(labels, index)

    @pytest.mark.parametrize("index", [{"a": 0, "b": 0}, {"a": 1},
                                       {"a": 0, "b": 2}, {"a": -1, "b": 0}])
    def test_feature_rows_must_be_each_row_once(self, index):
        # saving writes the names in row order and loading numbers them
        # 0 ... F-1, so any other map would reload with other weights
        with pytest.raises(ValueError, match="feature_index rows"):
            CrfModel(["O", "B"], index, np.ones((len(index), 2)),
                     np.zeros((2, 2)))


# Attribute values that a string template could confuse: the sentinels as
# tokens, the template's own punctuation, and case changes that alter length
TRICKY_VALUES = ["BOS", "EOS", "a]=b", "[x]", "k=v", "w[0]=x", "]=", "bias",
                 "İ", "ß", "ẞ", "The", "the"]


def tricky_sentences(rng, count):
    sentences = []
    for _ in range(count):
        tokens = []
        for start in range(int(rng.integers(1, 7))):
            surface, lemma, pos = rng.choice(TRICKY_VALUES, 3)
            tokens.append(Token(str(surface), start, start + 1, str(lemma),
                                str(pos)))
        sentences.append(Sentence(tokens))
    return sentences


class TestFeatureKeys:
    """The int64 keys of training and tagging against the feature names of
    ``features.sentence_features``, the reference."""

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_keys_index_tokens_as_their_feature_names(self, window):
        rng = np.random.default_rng(70 + window)
        train = tricky_sentences(rng, 15)
        names = list(dict.fromkeys(f for s in train
                                   for feats in sentence_features(s, window)
                                   for f in feats))
        # a model that holds part of them, in random order, so that tagging
        # meets unseen features and unseen values
        held = [names[i] for i in rng.permutation(len(names))
                if rng.random() < 0.6]
        model = make_zero_model(["O"], {f: i for i, f in enumerate(held)},
                                window)
        tagged = tricky_sentences(rng, 20)
        keys = model.feature_keys(tagged)
        tokens = sum(len(s.tokens) for s in tagged)
        assert keys.shape == (tokens, features_per_token(window))
        reference = model.index_tokens(
            [feats for s in tagged for feats in sentence_features(s, window)])
        indexed = model.index_tokens(keys)
        assert [r.tolist() for r in indexed] == [r.tolist() for r in reference]
        kept = sum(r.size for r in indexed)
        assert 0 < kept < keys.size

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_training_index_is_the_first_seen_feature_names(self, window):
        rng = np.random.default_rng(80 + window)
        sentences = tricky_sentences(rng, 25)
        corpus = [TaggedSentence(s.tokens, ["O"] * len(s.tokens))
                  for s in sentences]
        index = crf.build_feature_index(corpus, window)
        reference = [feats for s in sentences
                     for feats in sentence_features(s, window)]
        first_seen = {}
        for feats in reference:
            for f in feats:
                first_seen.setdefault(f, len(first_seen))
        assert list(index.items()) == list(first_seen.items())
        # training indexes the corpus through the zero model it then fits
        model = make_zero_model(list(TAGS), index, window)
        indexed = model.index_tokens(model.feature_keys(corpus))
        assert [r.tolist() for r in indexed] == [
            [index[f] for f in feats] for feats in reference]


class TestGatherSum:
    def test_equals_the_pair_by_pair_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rows, size, pairs = int(rng.integers(1, 9)), int(rng.integers(1, 9)), 40
            source = rng.normal(size=(rows, int(rng.integers(1, 6))))
            take = rng.integers(0, rows, pairs)
            put = rng.integers(0, size, pairs)
            expected = np.zeros((size, source.shape[1]))
            for k in range(pairs):  # the same summation order, so exact
                expected[put[k]] += source[take[k]]
            got = crf._gather_sum(source, take, put, size)
            assert np.array_equal(got, expected)
            assert got.flags.c_contiguous


class TestGradient:
    def test_closed_form_at_zero_weights(self):
        labels = ["x", "y", "z"]
        model = make_zero_model(labels, {"f0": 0, "f1": 1})
        _, grad = crf.nll_and_gradient(
            model, [([["f0"]], ["y"])], TrainConfig(l2_coefficient=0.0)
        )
        state = grad[: 2 * 3].reshape(2, 3)
        L = 3
        assert state[0, 1] == pytest.approx(1 / L - 1, abs=1e-12)
        assert state[0, 0] == pytest.approx(1 / L, abs=1e-12)
        assert state[0, 2] == pytest.approx(1 / L, abs=1e-12)
        assert np.all(state[1] == 0)  # inactive feature

    def test_empty_batch_rejected(self):
        model = make_zero_model(["a"], {"f": 0})
        with pytest.raises(ValueError):
            crf.nll_and_gradient(model, [], TrainConfig())

    def test_unknown_gold_label_rejected(self):
        model = make_zero_model(["a"], {"f": 0})
        with pytest.raises(ValueError, match="unknown label"):
            crf.nll_and_gradient(model, [([["f"]], ["zzz"])], TrainConfig())

    def test_each_sentence_needs_one_tag_per_token(self):
        model = make_zero_model(["a"], {"f": 0})
        # the batch's token and tag totals agree; its sentences do not
        batch = [([["f"], ["f"]], ["a"]), ([["f"]], ["a", "a"])]
        with pytest.raises(ValueError, match="length mismatch"):
            crf.nll_and_gradient(model, batch, TrainConfig())
        with pytest.raises(ValueError, match="empty sentence"):
            crf.nll_and_gradient(model, [([], [])], TrainConfig())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        model = random_model(rng, n_features=6, n_labels=3, scale=0.3)
        batch = []
        for _ in range(4):
            length = int(rng.integers(1, 6))
            feats = random_features(rng, model, length)
            tags = [model.label_set[rng.integers(3)] for _ in range(length)]
            batch.append((feats, tags))
        config = TrainConfig(l2_coefficient=0.7, l1_coefficient=0.0)
        _, grad = crf.nll_and_gradient(model, batch, config)

        def value():
            return crf.nll_and_gradient(model, batch, config)[0]

        fd_state = central_difference_gradient(value, model.state_weights)
        fd_trans = central_difference_gradient(value, model.transition_weights)
        fd = np.concatenate([fd_state.ravel(), fd_trans.ravel()])
        assert max_relative_error(grad, fd) < 1e-4

    def test_l1_term_included_in_value_only(self):
        rng = np.random.default_rng(34)
        model = random_model(rng)
        batch = [(random_features(rng, model, 3), ["L0", "L1", "L0"])]
        v0, g0 = crf.nll_and_gradient(model, batch, TrainConfig(l1_coefficient=0.0))
        v1, g1 = crf.nll_and_gradient(model, batch, TrainConfig(l1_coefficient=2.0))
        w_l1 = np.abs(model.state_weights).sum() + np.abs(model.transition_weights).sum()
        assert v1 == pytest.approx(v0 + 2.0 * w_l1, rel=1e-12)
        assert np.array_equal(g0, g1)


class TestViterbi:
    def test_emission_dominant(self):
        model = make_zero_model(["a", "b"], {"f0": 0, "f1": 1})
        model.state_weights[0, 0] = 1.0
        model.state_weights[1, 1] = 1.0
        assert crf.viterbi(model, [[["f0"], ["f1"]]]) == [["a", "b"]]

    def test_matches_enumeration(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            model = random_model(rng, n_labels=int(rng.integers(2, 6)))
            feats = random_features(rng, model, int(rng.integers(1, 7)))
            tags = crf.viterbi(model, [feats])[0]
            scores = model.state_scores(model.index_tokens(feats))
            expected_path, expected_score, ties = brute_viterbi(
                scores, model.transition_weights
            )
            path = [model.label_index[t] for t in tags]
            got = sequence_score(scores, model.transition_weights, path)
            assert got == pytest.approx(expected_score, abs=1e-9)
            if ties == 1:
                assert path == expected_path

    def test_constrained_output_always_valid(self):
        rng = np.random.default_rng(55)
        labels = list(TAGS)
        for _ in range(200):
            n_features = 5
            index = {f"f{i}": i for i in range(n_features)}
            model = CrfModel(
                labels, index,
                rng.normal(0, 2, (n_features, len(labels))),
                rng.normal(0, 2, (len(labels), len(labels))),
            )
            feats = random_features(rng, model, int(rng.integers(1, 8)))
            tags = crf.viterbi(model, [feats], constrained=True)[0]
            assert validate(tags) == []

    def test_constrained_output_is_the_best_valid_sequence(self):
        rng = np.random.default_rng(56)
        labels = list(TAGS)
        for _ in range(150):
            index = {f"f{i}": i for i in range(5)}
            model = CrfModel(
                labels, index,
                rng.normal(0, 2, (len(index), len(labels))),
                rng.normal(0, 2, (len(labels), len(labels))),
            )
            feats = random_features(rng, model, int(rng.integers(1, 5)))
            scores = model.state_scores(model.index_tokens(feats))
            expected, ties = brute_valid_viterbi(
                scores, model.transition_weights, labels)
            assert ties == 1
            assert crf.viterbi(model, [feats], constrained=True)[0] == expected

    def test_tag_in_passes_equals_one_sentence_decodes(self):
        corpus = toy_corpus(seed=45, size=70)
        model, _ = crf.train(corpus, TrainConfig(max_iterations=5))
        sentences = [Sentence(ts.tokens) for ts in corpus]
        for constrained in (False, True):
            assert model.tag(sentences, constrained) == [
                crf.viterbi(model, [sentence_features(s)], constrained)[0]
                for s in sentences]
        assert model.tag([]) == []


class TestTrain:
    def test_toy_corpus_fits_perfectly(self):
        corpus = toy_corpus(seed=1, size=50)
        model, result = crf.train(corpus, TrainConfig(max_iterations=100))
        gold = [ts.tags for ts in corpus]
        pred = model.tag([Sentence(ts.tokens) for ts in corpus])
        report = entity_level(gold, pred)
        assert report.micro.f1 == 1.0
        assert result.iterations <= 100

    def test_progress_gets_each_accepted_iteration(self):
        calls = []
        _, result = crf.train(toy_corpus(seed=3, size=10),
                              TrainConfig(max_iterations=5),
                              progress=lambda *step: calls.append(step))
        assert result.iterations >= 1
        assert calls == [(i, result.trace[i])
                         for i in range(1, result.iterations + 1)]

    def test_zero_iterations_returns_zero_model(self):
        corpus = toy_corpus(seed=2, size=5)
        model, _ = crf.train(corpus, TrainConfig(max_iterations=0))
        assert np.all(model.state_weights == 0)
        assert np.all(model.transition_weights == 0)

    def test_objective_strictly_decreases_on_toy_corpus(self):
        corpus = toy_corpus(seed=3, size=20)
        _, result = crf.train(corpus, TrainConfig(max_iterations=30))
        trace = result.trace
        assert len(trace) > 2
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_duplicated_corpus_same_decisions(self):
        corpus = toy_corpus(seed=4, size=30)
        heldout = toy_corpus(seed=5, size=15)
        single, _ = crf.train(corpus, TrainConfig(max_iterations=80))
        doubled, _ = crf.train(corpus + corpus, TrainConfig(max_iterations=80))
        for ts in heldout:
            sent = Sentence(ts.tokens)
            assert single.tag([sent]) == doubled.tag([sent])

    def test_l2_shrinkage_is_monotone(self):
        corpus = toy_corpus(seed=6, size=20)
        norms = []
        for l2 in (1.0, 100.0, 1e6):
            model, _ = crf.train(
                corpus, TrainConfig(l2_coefficient=l2, max_iterations=60)
            )
            norms.append(np.linalg.norm(model.state_weights)
                         + np.linalg.norm(model.transition_weights))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-3

    def test_feature_index_from_training_data_only(self):
        corpus = toy_corpus(seed=7, size=10)
        model, _ = crf.train(corpus, TrainConfig(max_iterations=5))
        unseen = make_tagged(["neverseen"], ["O"])
        feats = sentence_features(Sentence(unseen.tokens))
        before = len(model.feature_index)
        crf.viterbi(model, [feats])
        assert len(model.feature_index) == before

    def test_l1_training_sparsifies(self):
        corpus = toy_corpus(seed=8, size=20)
        dense, _ = crf.train(
            corpus, TrainConfig(l2_coefficient=0.0, l1_coefficient=0.0,
                                max_iterations=40)
        )
        sparse, _ = crf.train(
            corpus, TrainConfig(l2_coefficient=0.0, l1_coefficient=2.0,
                                max_iterations=40)
        )
        dense_zeros = np.sum(dense.state_weights == 0)
        sparse_zeros = np.sum(sparse.state_weights == 0)
        assert sparse_zeros > dense_zeros

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            crf.train([], TrainConfig())

    def test_first_seen_feature_order_without_feature_strings(
            self, monkeypatch):
        corpus = toy_corpus(seed=9, size=12)
        sentences = [Sentence(ts.tokens) for ts in corpus]

        def formatted(*args, **kwargs):
            raise AssertionError("a feature string was formatted")

        # training and tagging key the features and never name a token's
        monkeypatch.setattr(features, "extract_features", formatted)
        model, _ = crf.train(corpus, TrainConfig(max_iterations=5))
        tags = model.tag(sentences)
        monkeypatch.undo()
        assert tags == [crf.viterbi(model, [sentence_features(s)])[0]
                        for s in sentences]
        first_seen = {}
        for ts in corpus:
            for feats in sentence_features(Sentence(ts.tokens)):
                for f in feats:
                    first_seen.setdefault(f, len(first_seen))
        assert list(model.feature_index.items()) == list(first_seen.items())

    def test_one_forward_backward_per_objective_evaluation(self, monkeypatch):
        # perfbench/trace_stage.py counts chain.forward_backward calls and
        # cells per layer; a training path around it would make them read 0
        corpus = toy_corpus(seed=10, size=20)
        rows = []
        original = chain.forward_backward

        def counted(scores, *args, **kwargs):
            rows.append(scores.shape[0])
            return original(scores, *args, **kwargs)

        monkeypatch.setattr(chain, "forward_backward", counted)
        _, result = crf.train(corpus, TrainConfig(max_iterations=10))
        assert result.evaluations > 1
        tokens = sum(len(ts.tokens) for ts in corpus)
        assert rows == [tokens] * result.evaluations

    def test_training_sentence_checks(self):
        with pytest.raises(ValueError, match="empty sentence"):
            crf.train([make_tagged([], [])], TrainConfig(max_iterations=0))
        with pytest.raises(ValueError, match="unknown label"):
            crf.train([make_tagged(["a"], ["B-NOPE"])],
                      TrainConfig(max_iterations=0))
