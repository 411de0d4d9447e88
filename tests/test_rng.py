"""``rng.Pcg64`` against ``numpy.random.default_rng``, bit for bit."""

import numpy as np
import pytest

from toy import toy_corpus
from raretag import neural, rng
from raretag.embeddings import random_table

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 5, 2**200 + 9]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bound", [0.25, 0.1])
@pytest.mark.parametrize("size", [1, 24, (93, 24), (4, 3, 5)])
def test_uniform_is_default_rng(seed, bound, size):
    ours = rng.Pcg64(seed).uniform(-bound, bound, size)
    theirs = np.random.default_rng(seed).uniform(-bound, bound, size)
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", [0, 1, 2, 547])
def test_shuffle_is_default_rng(seed, length):
    ours, theirs = list(range(length)), np.arange(length)
    rng.Pcg64(seed).shuffle(ours)
    np.random.default_rng(seed).shuffle(theirs)
    assert ours == theirs.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_share_one_stream(seed):
    # an odd number of 32-bit draws leaves the upper half of a 64-bit draw
    # buffered; a double drawn in between must not consume it
    ours, theirs = rng.Pcg64(seed), np.random.default_rng(seed)
    for length, size in [(4, 3), (2, 1), (31, (2, 5)), (3, 7), (547, 2)]:
        a, b = np.arange(length), np.arange(length)
        ours.shuffle(a)
        theirs.shuffle(b)
        assert a.tolist() == b.tolist()
        assert (ours.uniform(-0.1, 0.1, size).tobytes()
                == theirs.uniform(-0.1, 0.1, size).tobytes())


@pytest.mark.parametrize("seed", [-1, 1.0, "7", None])
def test_bad_seeds_are_refused(seed):
    with pytest.raises(ValueError, match="seed"):
        rng.Pcg64(seed)


def _toy_fit(head_kind):
    train_split = toy_corpus(seed=31, size=12)
    val_split = toy_corpus(seed=32, size=6)
    vocab = sorted({t.surface for ts in train_split for t in ts.tokens})
    tagger = neural.build_tagger(train_split, random_table(vocab[:-3], 8, seed=4),
                                 head_kind=head_kind, hidden_dim=6, seed=4)
    config = neural.FitConfig(learning_rate=0.01, max_epochs=3, batch_size=4,
                              hidden_dim=6, seed=5)
    return neural.fit(tagger, train_split, val_split, config)


@pytest.mark.parametrize("head_kind", [neural.HEAD_SOFTMAX, neural.HEAD_CRF])
def test_training_equals_training_on_default_rng(head_kind, monkeypatch):
    # the table leaves three training words out, so their vectors come from
    # the seeded out-of-vocabulary stream too
    ours, our_history = _toy_fit(head_kind)
    monkeypatch.setattr(rng, "Pcg64", np.random.default_rng)
    theirs, their_history = _toy_fit(head_kind)
    assert our_history == their_history
    assert ours.parameters().keys() == theirs.parameters().keys()
    for key, value in ours.parameters().items():
        assert value.tobytes() == theirs.parameters()[key].tobytes(), key
