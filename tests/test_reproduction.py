"""Optional reproduction profile against the public RareDis corpus.

Not part of CI: point RAREDIS_DIR at a checkout containing train/dev (or
validation)/test subdirectories of Brat .txt/.ann pairs and run this
module directly. The CRF baseline trained on train+validation with
default hyperparameters is scored on the test split; targets carry a wide
tolerance because the original preprocessing pipeline (external
tokenizer, lemmas, PoS tags) is not reproducible here, but the per-type
ordering must hold exactly.
"""

import os
from pathlib import Path

import pytest

from raretag import brat, crf, iob, metrics
from raretag.crf import TrainConfig
from raretag.iob import TaggedSentence
from raretag.tokenizer import Sentence, tokenize_document

RAREDIS_DIR = os.environ.get("RAREDIS_DIR")

pytestmark = pytest.mark.skipif(
    not RAREDIS_DIR,
    reason="reproduction profile needs RAREDIS_DIR pointing at the corpus",
)

TARGET_MICRO_F1 = 0.6487
TARGET_RAREDISEASE_F1 = 0.8247
TOLERANCE = 0.05  # absolute F1 points


def _split_dir(name: str) -> Path:
    base = Path(RAREDIS_DIR)
    for candidate in (name, {"validation": "dev"}.get(name, name)):
        if (base / candidate).is_dir():
            return base / candidate
    raise FileNotFoundError(f"no {name} split under {base}")


def _load_split(name: str) -> list[TaggedSentence]:
    corpus, _ = brat.load_corpus_dir(
        _split_dir(name), split=name, lenient=True, skip_unpaired=True
    )
    sentences = []
    for doc in corpus.documents:
        resolved = brat.resolve_overlaps(doc)
        for sentence in tokenize_document(resolved.text):
            tagged = iob.encode(sentence, resolved.entities)
            sentences.append(tagged)
    return sentences


@pytest.fixture(scope="module")
def splits():
    return {
        name: _load_split(name) for name in ("train", "validation", "test")
    }


def test_crf_baseline_reproduction(splits):
    model, _ = crf.train(
        splits["train"] + splits["validation"], TrainConfig()
    )
    gold = [ts.tags for ts in splits["test"]]
    pred = model.tag([Sentence(ts.tokens) for ts in splits["test"]])
    report = metrics.entity_level(gold, pred)
    print()
    print(metrics.report_render(report, "table"))

    assert abs(report.micro.f1 - TARGET_MICRO_F1) <= TOLERANCE
    assert abs(report.per_label["RAREDISEASE"].f1 - TARGET_RAREDISEASE_F1) \
        <= TOLERANCE
    # per-type ordering must reproduce exactly
    f1 = {name: report.per_label[name].f1
          for name in ("RAREDISEASE", "SYMPTOM", "DISEASE", "SIGN")}
    assert f1["RAREDISEASE"] > f1["SYMPTOM"] > f1["DISEASE"] > f1["SIGN"]


def test_corpus_statistics_table(splits):
    corpus, _ = brat.load_corpus_dir(_split_dir("train"), split="train",
                                     lenient=True, skip_unpaired=True)
    stats = brat.corpus_statistics(corpus)
    print()
    print(stats.render())
    # annotation counts are intrinsic to the corpus files
    assert stats.documents == 729
    assert stats.entity_counts == {
        "DISEASE": 1647, "RAREDISEASE": 3608, "SYMPTOM": 319, "SIGN": 3744,
    }
    # token/sentence counts depend on the tokenizer: soft check only
    assert abs(stats.tokens - 135656) / 135656 < 0.05
