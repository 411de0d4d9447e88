import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from raretag import (
    brat, chain, cli, conll, crf, embeddings, features, iob, metrics, model_io,
    neural, synthetic,
)
from raretag.cli import CliError, parse_config, validate_run_config
from raretag.lbfgs import LineSearchError


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def brat_pair(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("X has anemia.")
    (corpus / "d1.ann").write_text("T1\tSIGN 6 12\tanemia\n")
    (corpus / "d2.txt").write_text("Velmora syndrome causes fatigue.")
    (corpus / "d2.ann").write_text(
        "T1\tRAREDISEASE 0 16\tVelmora syndrome\nT2\tSYMPTOM 24 31\tfatigue\n"
    )
    return corpus


@pytest.fixture(scope="module")
def trained_crf(tmp_path_factory):
    """Small end-to-end corpus plus a trained CRF model path."""
    tmp_path = tmp_path_factory.mktemp("trained_crf")
    corpus_dir = tmp_path / "syn"
    assert run(["gen-synthetic", corpus_dir, "--seed", 5, "--size", 24]) == 0
    train_conll = tmp_path / "train.conll"
    heldout_conll = tmp_path / "heldout.conll"
    assert run(["convert", corpus_dir / "train", train_conll]) == 0
    assert run(["convert", corpus_dir / "heldout", heldout_conll]) == 0
    config = tmp_path / "crf.cfg"
    model = tmp_path / "crf.model"
    config.write_text(
        f"model_kind = crf\ntrain = {train_conll}\n"
        f"model_out = {model}\nmax_iterations = 60\n"
    )
    assert run(["train", config]) == 0
    return model, train_conll, heldout_conll


@pytest.fixture(scope="module")
def trained_bilstm_crf(trained_crf, tmp_path_factory):
    """A BiLSTM-CRF model path, trained for one epoch on the same corpus."""
    _, train_conll, heldout_conll = trained_crf
    tmp_path = tmp_path_factory.mktemp("trained_bilstm_crf")
    config = tmp_path / "bl.cfg"
    model = tmp_path / "bl.model"
    config.write_text(
        f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
        f"validation = {heldout_conll}\nembedding = random\n"
        f"embedding_dim = 8\nhidden_dim = 5\nmax_epochs = 1\n"
        f"seed = 2\nmodel_out = {model}\n"
    )
    assert run(["train", config]) == 0
    return model


class TestConfig:
    def test_flat_key_values(self):
        cfg = parse_config("model_kind = crf\nseed = 3\n# comment\n\n")
        assert cfg == {"model_kind": "crf", "seed": 3}

    def test_inline_comment_and_types(self):
        cfg = parse_config("learning_rate = 0.01  # small\ntrain_embeddings = yes\n")
        assert cfg["learning_rate"] == 0.01
        assert cfg["train_embeddings"] is True

    def test_unknown_key_rejected(self):
        with pytest.raises(CliError, match="unknown key"):
            parse_config("explosions = 9\n")
        with pytest.raises(CliError, match="unknown key 'test'"):
            parse_config("test = x\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(CliError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_bad_value_names_line(self):
        with pytest.raises(CliError, match="line 2"):
            parse_config("model_kind = crf\nseed = banana\n")

    def test_kind_specific_keys_validated(self):
        # every key that only other kinds read, listed by hand
        crf_rejects = (
            ("learning_rate", 0.01), ("max_epochs", 2), ("patience", 4),
            ("batch_size", 8), ("hidden_dim", 5), ("seed", 1),
            ("gradient_clip_norm", 1.0), ("embedding", "random"),
            ("embedding_dim", 8), ("oov_policy", "zeros"),
            ("train_embeddings", True), ("history_out", "h.csv"),
        )
        neural_rejects = (
            ("l2_coefficient", 0.5), ("l1_coefficient", 0.1),
            ("max_iterations", 5), ("convergence_tol", 1e-3),
            ("lbfgs_memory", 3), ("window", 1),
        )
        pairs = [("crf", key, value) for key, value in crf_rejects]
        pairs += [(kind, key, value) for kind in ("bilstm", "bilstm-crf")
                  for key, value in neural_rejects]
        assert len(pairs) == 24
        required = {"crf": {},
                    "bilstm": {"validation": "v", "embedding": "random"},
                    "bilstm-crf": {"validation": "v", "embedding": "random"}}
        for kind, key, value in pairs:
            with pytest.raises(CliError,
                               match=f"not valid for model_kind={kind}: {key}$"):
                validate_run_config({
                    "model_kind": kind, "train": "x", "model_out": "m",
                    **required[kind], key: value,
                })

    def test_readme_defaults_are_the_dataclass_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = dict(re.findall(r"`(\w+)`\s+\(([-+.\deE]+)[),]", readme))
        for config_class in (crf.TrainConfig, neural.FitConfig):
            for field in dataclasses.fields(config_class):
                assert field.name in listed, f"README omits {field.name}"
                assert float(listed[field.name]) == field.default, field.name
        assert float(listed["embedding_dim"]) == cli.EMBEDDING_DIM
        text = " ".join(readme.split())
        for claim in ("`oov_policy` (`{}`)", "OOV policy is `{}` by default"):
            assert claim.format(embeddings.DEFAULT_OOV_POLICY) in text

    def test_out_of_range_settings_are_named(self, tmp_path, capsys):
        paths = (f"train = {tmp_path}/none.conll\n"
                 f"model_out = {tmp_path}/never.model\n")
        heads = {crf.TrainConfig: "model_kind = crf\n",
                 neural.FitConfig: ("model_kind = bilstm-crf\nvalidation = v\n"
                                    "embedding = random\n")}
        cases = [(crf.TrainConfig, "window", "-1")]
        for config_class in heads:
            cases += [(config_class, field.name, value)
                      for field in dataclasses.fields(config_class)
                      if isinstance(field.default, float)
                      for value in ("nan", "inf")]
        assert len(cases) == 11
        config = tmp_path / "run.cfg"
        for config_class, key, value in cases:
            config.write_text(f"{heads[config_class]}{paths}{key} = {value}\n")
            assert run(["train", config]) == 1, (key, value)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key} must be "), (key, value, err)
            assert err.count("\n") == 1

    def test_negative_seed_is_named_before_any_file_is_read(self, tmp_path,
                                                            capsys):
        config = tmp_path / "run.cfg"
        for line, named in (
            ("seed = -1", "seed must be >= 0, got -1"),
            ("embedding_dim = 0", "embedding_dim must be >= 1, got 0"),
            ("oov_policy = bogus", "unknown oov_policy 'bogus'"),
        ):
            config.write_text("model_kind = bilstm-crf\nvalidation = v\n"
                              f"embedding = random\ntrain = {tmp_path}/none.conll\n"
                              f"model_out = {tmp_path}/never.model\n{line}\n")
            assert run(["train", config]) == 1, line
            assert capsys.readouterr().err == f"error: {named}\n"
            assert list(tmp_path.iterdir()) == [config]

    def test_neural_requires_validation_and_embedding(self):
        with pytest.raises(CliError, match="validation"):
            validate_run_config({
                "model_kind": "bilstm-crf", "train": "x", "model_out": "m",
            })

    def test_unknown_model_kind(self):
        with pytest.raises(CliError, match="model_kind"):
            validate_run_config({"model_kind": "transformer", "train": "x",
                                 "model_out": "m"})

    @pytest.mark.parametrize("lines, named", [
        ("model_kind = crf\nmodel_out = {d}/m.model\n",
         "config missing required key 'train'"),
        ("model_kind = crf\ntrain = {d}/t.conll\n",
         "config missing required key 'model_out'"),
        ("model_kind = bilstm-crf\ntrain = {d}/t.conll\n"
         "validation = {d}/v.conll\nmodel_out = {d}/m.model\n",
         "bilstm-crf training requires 'embedding' "
         "(either 'random' or a vector file path)"),
    ], ids=["train", "model_out", "embedding"])
    def test_missing_required_key_is_named(self, lines, named, tmp_path,
                                           capsys):
        config = tmp_path / "run.cfg"
        config.write_text(lines.format(d=tmp_path))
        assert run(["train", config]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert list(tmp_path.iterdir()) == [config]

    def test_train_embeddings_false_reaches_the_model(self, trained_crf,
                                                      tmp_path, capsys):
        assert parse_config("train_embeddings = false\n") == {
            "train_embeddings": False}
        _, train_conll, heldout_conll = trained_crf
        config = tmp_path / "frozen.cfg"
        model = tmp_path / "frozen.model"
        config.write_text(
            f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
            f"validation = {heldout_conll}\nembedding = random\n"
            "train_embeddings = false\nembedding_dim = 8\nhidden_dim = 5\n"
            f"max_epochs = 1\nseed = 2\nmodel_out = {model}\n")
        assert run(["train", config]) == 0
        capsys.readouterr()
        assert run(["dump", model]) == 0
        dump = capsys.readouterr().out.splitlines()
        assert "  embedding_trainable: false" in dump


class TestConvert:
    def test_two_pairs_two_doc_sections(self, brat_pair, tmp_path, capsys):
        out = tmp_path / "out.conll"
        assert run(["convert", brat_pair, out]) == 0
        content = out.read_text()
        assert content.count("# doc_id =") == 2
        assert "B-SIGN" in content
        assert "B-RAREDISEASE" in content

    def test_overlap_reported_in_summary(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d.txt").write_text("severe skin rash today")
        (corpus / "d.ann").write_text(
            "T1\tSIGN 7 16\tskin rash\nT2\tSYMPTOM 12 16\trash\n"
        )
        assert run(["convert", corpus, tmp_path / "o.conll"]) == 0
        assert "overlaps dropped: 1" in capsys.readouterr().out

    def test_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["convert", empty, tmp_path / "o.conll"]) == 1

    def test_unpaired_fails_without_flag(self, brat_pair, tmp_path):
        (brat_pair / "orphan.txt").write_text("alone")
        assert run(["convert", brat_pair, tmp_path / "o.conll"]) == 1
        assert run(["convert", brat_pair, tmp_path / "o.conll",
                    "--skip-unpaired"]) == 0

    def test_undecodable_text_names_the_file(self, brat_pair, tmp_path,
                                             capsys):
        (brat_pair / "d1.txt").write_bytes(b"X has \xffanemia.")
        assert run(["convert", brat_pair, tmp_path / "o.conll"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {brat_pair / 'd1.txt'}: ")
        assert "0xff" in err

    def test_lenient_flag(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d.txt").write_text("X has anemia.")
        (corpus / "d.ann").write_text("T1\tSIGN 6 12\tanemXa\n")
        assert run(["convert", corpus, tmp_path / "o.conll"]) == 1
        assert run(["convert", corpus, tmp_path / "o.conll", "--lenient"]) == 0

    def test_shared_token_conflict_names_the_document(self, tmp_path, capsys):
        # character-disjoint, so both survive overlap resolution
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "doc1.txt").write_text("Notable skin hyperkeratosis.")
        (corpus / "doc1.ann").write_text(
            "T1\tSIGN 13 18\thyper\nT2\tSIGN 18 27\tkeratosis\n"
        )
        assert run(["convert", corpus, tmp_path / "o.conll"]) == 1
        assert capsys.readouterr().err == (
            "error: doc1: token 2 claimed by both T1 and T2; entities must be "
            "overlap-resolved before encoding\n"
        )

    def test_encode_sees_each_entity_about_once(self, tmp_path, monkeypatch):
        # one ~30k-token document: 800 synthetic documents joined
        text, entities = "", []
        config = synthetic.SyntheticConfig(seed=3, size=800)
        for doc in synthetic.generate_corpus(config):
            offset = len(text)
            text += doc.text + "\n\n"
            entities += [dataclasses.replace(
                e, id=f"T{len(entities) + k + 1}",
                fragments=tuple(brat.SpanFragment(f.start + offset, f.end + offset)
                                for f in e.fragments),
            ) for k, e in enumerate(doc.entities)]
        doc = brat.Document("big", text, entities)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for suffix, content in zip((".txt", ".ann"), brat.document_to_brat(doc)):
            (corpus / f"big{suffix}").write_text(content)

        passed = []
        encode = iob.encode

        def counting_encode(sentence, entities):
            passed.append(len(entities))
            return encode(sentence, entities)

        monkeypatch.setattr(iob, "encode", counting_encode)
        assert run(["convert", corpus, tmp_path / "o.conll"]) == 0
        kept = len(brat.resolve_overlaps(doc).entities)
        items = conll.read_conll((tmp_path / "o.conll").read_text())
        assert sum(len(item.sentence.tokens) for item in items) > 29_000
        assert len(passed) == len(items) and kept > 5000
        assert sum(passed) <= 2 * (kept + len(passed))


class TestTrain:
    def test_crf_writes_model_and_manifest(self, trained_crf):
        model, _, _ = trained_crf
        assert model.exists()
        manifest = json.loads(
            model.with_name(model.name + ".manifest.json").read_text()
        )
        assert manifest["config"]["model_kind"] == "crf"
        assert manifest["metrics"]["converged"] in (True, False)
        assert manifest["durations"]["train_seconds"] >= 0
        iterations = manifest["metrics"]["iterations"]
        assert len(manifest["metrics"]["objective_trace"]) == iterations + 1
        assert manifest["metrics"]["objective_evaluations"] >= iterations

    def test_missing_embedding_file_fails_before_training(self, trained_crf,
                                                          tmp_path):
        _, train_conll, heldout_conll = trained_crf
        config = tmp_path / "bad.cfg"
        model = tmp_path / "never.model"
        config.write_text(
            f"model_kind = bilstm\ntrain = {train_conll}\n"
            f"validation = {heldout_conll}\nembedding = /no/such/file.vec\n"
            f"model_out = {model}\n"
        )
        assert run(["train", config]) == 1
        assert not model.exists()

    def test_undecodable_inputs_name_the_file(self, trained_crf, tmp_path,
                                              capsys):
        _, train_conll, heldout_conll = trained_crf
        bad_conll = tmp_path / "bad.conll"
        bad_conll.write_bytes(b"x\tx\tX\tO\n\xff\tx\tX\tO\n")
        bad_vectors = tmp_path / "bad.vec"
        bad_vectors.write_bytes(b"x 0.1 \xff\n")
        bad_config = tmp_path / "bad.cfg"
        bad_config.write_bytes(b"model_kind = crf\n# \xff\n")
        crf_config = tmp_path / "crf.cfg"
        crf_config.write_text(f"model_kind = crf\ntrain = {bad_conll}\n"
                              f"model_out = {tmp_path}/never.model\n")
        neural_config = tmp_path / "bl.cfg"
        neural_config.write_text(
            f"model_kind = bilstm\ntrain = {train_conll}\n"
            f"validation = {heldout_conll}\nembedding = {bad_vectors}\n"
            f"model_out = {tmp_path}/never.model\n")
        for config, named in [(crf_config, bad_conll),
                              (neural_config, bad_vectors),
                              (bad_config, bad_config)]:
            assert run(["train", config]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {named}: "), err
            assert "0xff" in err
        assert not (tmp_path / "never.model").exists()

    def test_malformed_conll_names_file_and_line(self, tmp_path, capsys):
        bad_conll = tmp_path / "bad.conll"
        bad_conll.write_text("x\tx\tX\tO\nbad\tline\n")
        config = tmp_path / "crf.cfg"
        config.write_text(f"model_kind = crf\ntrain = {bad_conll}\n"
                          f"model_out = {tmp_path}/never.model\n")
        assert run(["train", config]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad_conll} line 2: expected 3 or 4 tab-separated "
            "columns, got 2\n")

    def test_conll_without_tag_column_is_named(self, tmp_path, capsys):
        untagged = tmp_path / "untagged.conll"
        untagged.write_text("x\tx\tX\n\ny\ty\tY\n")
        config = tmp_path / "crf.cfg"
        config.write_text(f"model_kind = crf\ntrain = {untagged}\n"
                          f"model_out = {tmp_path}/never.model\n")
        assert run(["train", config]) == 1
        assert capsys.readouterr().err == (
            f"error: {untagged}: sentence 0 has no tag column\n")
        assert not (tmp_path / "never.model").exists()

    def test_embedding_dim_must_match_the_vector_file(self, trained_crf,
                                                     tmp_path, capsys):
        _, train_conll, heldout_conll = trained_crf
        vectors = tmp_path / "v.vec"
        vectors.write_text("".join(f"{w} " + " ".join(["0.1"] * 8) + "\n"
                                   for w in ("the", "of", "rash")))
        model = tmp_path / "v.model"
        config = tmp_path / "v.cfg"
        base = (f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
                f"validation = {heldout_conll}\nembedding = {vectors}\n"
                f"hidden_dim = 4\nmax_epochs = 1\nmodel_out = {model}\n")
        config.write_text(base + "embedding_dim = 30\n")
        assert run(["train", config]) == 1
        err = capsys.readouterr().err
        assert "embedding_dim = 30" in err and "8-wide" in err
        assert not model.exists()
        config.write_text(base + "embedding_dim = 8\n")
        assert run(["train", config]) == 0
        assert model.exists()

    def test_missing_train_file_fails(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text(
            f"model_kind = crf\ntrain = {tmp_path}/nope.conll\n"
            f"model_out = {tmp_path}/m.bin\n"
        )
        assert run(["train", config]) == 1

    def test_neural_training_writes_history(self, trained_crf, tmp_path):
        _, train_conll, heldout_conll = trained_crf
        config = tmp_path / "bl.cfg"
        model = tmp_path / "bl.model"
        config.write_text(
            f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
            f"validation = {heldout_conll}\nembedding = random\n"
            f"embedding_dim = 12\nhidden_dim = 8\nmax_epochs = 3\n"
            f"batch_size = 8\nlearning_rate = 0.01\nseed = 1\n"
            f"model_out = {model}\n"
        )
        assert run(["train", config]) == 0
        history = (tmp_path / "bl.model.history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) >= 2
        manifest = json.loads((tmp_path / "bl.model.manifest.json").read_text())
        assert manifest["metrics"]["stopped_epoch"] <= 3
        assert manifest["metrics"]["best_epoch"] >= 1
        assert manifest["metrics"]["max_gradient_norm"] > 0
        assert isinstance(manifest["metrics"]["clipped_batches"], int)
        assert manifest["metrics"]["clipped_batches"] >= 0

    def test_line_search_failure_is_reported(self, trained_crf, tmp_path,
                                             monkeypatch, capsys):
        _, train_conll, _ = trained_crf
        config = tmp_path / "crf.cfg"
        config.write_text(f"model_kind = crf\ntrain = {train_conll}\n"
                          f"model_out = {tmp_path}/never.model\n")

        def fail(*args, **kwargs):
            raise LineSearchError("no Wolfe step within 20 expansions")

        monkeypatch.setattr(crf, "train", fail)
        assert run(["train", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: no Wolfe step within 20 expansions\n"
        assert not (tmp_path / "never.model").exists()

    def test_non_finite_loss_is_reported(self, trained_crf, tmp_path,
                                         monkeypatch, capsys):
        _, train_conll, heldout_conll = trained_crf
        config = tmp_path / "bl.cfg"
        config.write_text(
            f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
            f"validation = {heldout_conll}\nembedding = random\n"
            f"model_out = {tmp_path}/never.model\n"
        )

        def fail(*args, **kwargs):
            raise FloatingPointError("epoch 1, batch at index 0: non-finite loss nan")

        monkeypatch.setattr(neural, "fit", fail)
        assert run(["train", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: epoch 1, batch at index 0: non-finite loss nan\n"
        assert not (tmp_path / "never.model").exists()

    @pytest.mark.parametrize("kind", ["bilstm", "bilstm-crf"])
    def test_non_finite_validation_loss_names_its_epoch(self, kind,
                                                        trained_crf,
                                                        tmp_path, capsys):
        _, _, heldout_conll = trained_crf
        config = tmp_path / "bl.cfg"
        model = tmp_path / "never.model"
        # one batch per epoch: its loss is taken before the step that
        # overflows the weights, so a validation loss fails first
        config.write_text(
            f"model_kind = {kind}\ntrain = {heldout_conll}\n"
            f"validation = {heldout_conll}\nembedding = random\n"
            "embedding_dim = 8\nhidden_dim = 5\nbatch_size = 1000\n"
            f"learning_rate = 1e300\nmax_epochs = 3\nmodel_out = {model}\n")
        assert run(["train", config]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: epoch [123], validation: non-finite loss (inf|nan)\n",
            err), err
        assert not model.exists()

    @pytest.mark.parametrize("kind,failure", [
        ("bilstm", "batch at index 1: non-finite loss inf"),
        ("bilstm-crf", "batch at index 3: non-finite loss nan"),
    ], ids=["bilstm", "bilstm-crf"])
    def test_diverging_fit_prints_only_its_error(self, kind, failure,
                                                 trained_crf, tmp_path,
                                                 capsys):
        _, _, heldout_conll = trained_crf
        config = tmp_path / "bl.cfg"
        model = tmp_path / "never.model"
        # the first step overflows the weights; numpy warns on the way to
        # the first non-finite batch loss
        config.write_text(
            f"model_kind = {kind}\ntrain = {heldout_conll}\n"
            f"validation = {heldout_conll}\nembedding = random\n"
            f"batch_size = 1\nlearning_rate = 1e300\nmodel_out = {model}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", config]) == 1
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert capsys.readouterr().err == f"error: epoch 1, {failure}\n"
        assert not model.exists()

    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    @pytest.mark.parametrize("bad_key", ["train", "validation"])
    def test_unknown_gold_tag_fails_before_any_fit(self, kind, bad_key,
                                                   trained_crf, tmp_path,
                                                   monkeypatch, capsys):
        _, train_conll, heldout_conll = trained_crf
        paths = {"train": train_conll, "validation": heldout_conll}
        bad = tmp_path / f"bad-{bad_key}.conll"
        bad.write_text(paths[bad_key].read_text()
                       + "\nodd\todd\tX\tB-FOO\n")
        paths[bad_key] = bad

        def never(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(crf, "train", never)
        monkeypatch.setattr(neural, "fit", never)
        model = tmp_path / "never.model"
        config = tmp_path / "run.cfg"
        config.write_text(
            f"model_kind = {kind}\ntrain = {paths['train']}\n"
            f"validation = {paths['validation']}\nmodel_out = {model}\n"
            + ("embedding = random\n" if kind != "crf" else ""))
        assert run(["train", config]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: tags not in the model's label set: B-FOO\n")
        assert not model.exists()

    def test_crf_manifest_names_its_stop_reason(self, trained_crf, tmp_path):
        _, train_conll, _ = trained_crf
        model = tmp_path / "crf.model"
        config = tmp_path / "crf.cfg"
        config.write_text(f"model_kind = crf\ntrain = {train_conll}\n"
                          f"model_out = {model}\nmax_iterations = 2\n")
        assert run(["train", config]) == 0
        manifest = json.loads(
            model.with_name(model.name + ".manifest.json").read_text())
        assert manifest["metrics"]["stop_reason"] == "max_iterations reached"

    def test_config_file_sets_the_training_settings(self, trained_crf,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        _, train_conll, heldout_conll = trained_crf
        received = {}

        def capture(module, name, **short):
            real = getattr(module, name)

            def wrapper(*args):
                received[name] = args[-1]
                return real(*args[:-1], dataclasses.replace(args[-1], **short))

            monkeypatch.setattr(module, name, wrapper)

        capture(crf, "train", max_iterations=0)
        capture(neural, "fit", max_epochs=0)
        crf_lines = (f"model_kind = crf\ntrain = {train_conll}\n"
                     f"model_out = {tmp_path}/crf.model\n")
        neural_lines = (f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
                        f"validation = {heldout_conll}\nembedding = random\n"
                        f"seed = 3\nmodel_out = {tmp_path}/bl.model\n")
        config = tmp_path / "run.cfg"
        for lines, name, expected in (
            (crf_lines, "train", crf.TrainConfig()),
            (crf_lines + "l2_coefficient = 0.25\n", "train",
             crf.TrainConfig(l2_coefficient=0.25)),
            (neural_lines, "fit", neural.FitConfig(seed=3)),
            (neural_lines + "patience = 2\n", "fit",
             neural.FitConfig(seed=3, patience=2)),
        ):
            config.write_text(lines)
            assert run(["train", config]) == 0
            assert received.pop(name) == expected
        config.write_text(crf_lines + "history_out = h.csv\n")
        assert run(["train", config]) == 1
        assert capsys.readouterr().err == (
            "error: keys not valid for model_kind=crf: history_out\n")
        # a setting its dataclass rejects fails before any file is read
        config.write_text(f"model_kind = crf\ntrain = {tmp_path}/none.conll\n"
                          f"model_out = {tmp_path}/never.model\nlbfgs_memory = 0\n")
        assert run(["train", config]) == 1
        assert capsys.readouterr().err == (
            "error: invalid iteration/memory settings\n")

    def test_config_dir_env_var(self, trained_crf, tmp_path, monkeypatch):
        model, train_conll, _ = trained_crf
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "relocated.cfg").write_text(
            f"model_kind = crf\ntrain = {train_conll}\n"
            f"model_out = {tmp_path}/env.model\nmax_iterations = 2\n"
        )
        monkeypatch.setenv(cli.CONFIG_DIR_ENV, str(cfg_dir))
        assert run(["train", "relocated.cfg"]) == 0
        monkeypatch.delenv(cli.CONFIG_DIR_ENV)
        assert run(["train", "relocated.cfg"]) == 1


class TestEvaluate:
    def test_perfect_on_training_fixture(self, trained_crf, capsys):
        model, train_conll, _ = trained_crf
        assert run(["evaluate", model, train_conll, "--level", "entity",
                    "--min", "micro_f1=1.0"]) == 0
        assert "1.0000" in capsys.readouterr().out

    def test_heldout_meets_threshold(self, trained_crf):
        model, _, heldout_conll = trained_crf
        assert run(["evaluate", model, heldout_conll,
                    "--min", "micro_f1=0.95"]) == 0

    def test_min_threshold_failure_exit_code(self, trained_crf, tmp_path,
                                             capsys):
        _, train_conll, _ = trained_crf
        config = tmp_path / "zero.cfg"
        model = tmp_path / "zero.model"
        config.write_text(
            f"model_kind = crf\ntrain = {train_conll}\n"
            f"model_out = {model}\nmax_iterations = 0\n"
        )
        assert run(["train", config]) == 0
        code = run(["evaluate", model, train_conll, "--min", "micro_f1=0.99"])
        assert code == cli.EXIT_THRESHOLD
        assert "threshold" in capsys.readouterr().err

    def test_token_and_entity_levels_differ(self, trained_crf, capsys):
        model, _, heldout_conll = trained_crf
        assert run(["evaluate", model, heldout_conll, "--level", "token"]) == 0
        token_out = capsys.readouterr().out
        assert run(["evaluate", model, heldout_conll, "--level", "entity"]) == 0
        entity_out = capsys.readouterr().out
        assert token_out != entity_out
        assert "B-SIGN" in token_out
        assert "B-SIGN" not in entity_out

    def test_label_mismatch_named(self, trained_crf, tmp_path, capsys):
        model, _, _ = trained_crf
        weird = tmp_path / "weird.conll"
        weird.write_text("x\tx\tX\tB-PROTEIN\n")
        assert run(["evaluate", model, weird]) == 1
        assert "B-PROTEIN" in capsys.readouterr().err

    def test_bad_min_flag(self, trained_crf, tmp_path, capsys):
        model, train_conll, _ = trained_crf
        for flag, named in [("micro_f1", "metric=value"),
                            ("micro_f1=high", "not a number"),
                            ("micro_f2=0.5", "micro_f2"),
                            ("accuracy=0.5", "accuracy")]:
            assert run(["evaluate", model, train_conll, "--min", flag]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert named in err
        # a malformed flag is named before the model is read
        assert run(["evaluate", tmp_path / "missing.model", train_conll,
                    "--min", "micro_f1"]) == 1
        assert "metric=value" in capsys.readouterr().err

    def test_gold_without_tag_column_is_named(self, trained_crf, tmp_path,
                                              capsys):
        model, _, _ = trained_crf
        untagged = tmp_path / "untagged.conll"
        untagged.write_text("x\tx\tX\n")
        assert run(["evaluate", model, untagged]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {untagged}: sentence 0 has no tag column\n"

    def test_min_on_a_label_the_report_lacks(self, trained_crf, capsys):
        model, train_conll, _ = trained_crf
        assert run(["evaluate", model, train_conll,
                    "--min", "PROTEIN_f1=0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: unknown metric target 'PROTEIN'\n"

    def test_non_finite_min_bound_rejected(self, tmp_path, capsys):
        conll_path = tmp_path / "gold.conll"
        conll_path.write_text("x\tx\tX\tO\n")
        for flag in ("micro_f1=nan", "micro_f1=inf", "micro_f1=-inf"):
            # named before the (missing) model is read
            assert run(["evaluate", tmp_path / "missing.model", conll_path,
                        "--min", flag]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: --min {flag!r}: the bound must be finite\n"

    def test_token_level_accuracy_rows(self, trained_crf, tmp_path, capsys):
        model, train_conll, _ = trained_crf
        predicted = tmp_path / "pred.conll"
        assert run(["predict", model, train_conll, predicted,
                    "--constrained"]) == 0
        # the model's own tags as gold, with three O tokens made B-SIGN:
        # still valid IOB2, and exactly three tokens wrong
        lines = predicted.read_text().splitlines()
        tokens = [i for i, line in enumerate(lines)
                  if line and not line.startswith("#")]
        for i in [i for i in tokens if lines[i].endswith("\tO")][:3]:
            lines[i] = lines[i][: -len("O")] + "B-SIGN"
        gold = tmp_path / "gold.conll"
        gold.write_text("\n".join(lines) + "\n")
        accuracy = (len(tokens) - 3) / len(tokens)
        assert 0 < accuracy < 1
        rows = {}
        for fmt in ("tsv", "json-lines"):
            assert run(["evaluate", model, gold, "--level", "token",
                        "--format", fmt, "--constrained"]) == 0
            rows[fmt] = capsys.readouterr().out.splitlines()[-1]
        assert rows["tsv"] == f"accuracy\t{accuracy:.4f}\t\t\t"
        assert json.loads(rows["json-lines"]) == {
            "label": "accuracy", "value": round(accuracy, 4)}


class TestPredict:
    def test_writes_tag_column(self, trained_crf, tmp_path):
        model, _, heldout_conll = trained_crf
        untagged = tmp_path / "untagged.conll"
        untagged.write_text(
            "\n".join(
                line if not line or line.startswith("#")
                else "\t".join(line.split("\t")[:3])
                for line in heldout_conll.read_text().splitlines()
            ) + "\n"
        )
        out = tmp_path / "pred.conll"
        assert run(["predict", model, untagged, out]) == 0
        from raretag.conll import read_conll

        items = read_conll(out.read_text())
        assert all(item.tags is not None for item in items)

    def test_constrained_flag(self, trained_crf, tmp_path):
        model, _, heldout_conll = trained_crf
        out = tmp_path / "pred.conll"
        assert run(["predict", model, heldout_conll, out, "--constrained"]) == 0
        from raretag.conll import read_conll
        from raretag.iob import validate

        for item in read_conll(out.read_text()):
            assert validate(item.tags) == []


class TestTagging:
    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    def test_empty_input_tags_zero_sentences(self, kind, trained_crf,
                                             trained_bilstm_crf, tmp_path,
                                             capsys):
        model = trained_crf[0] if kind == "crf" else trained_bilstm_crf
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        out = tmp_path / "pred.conll"
        assert run(["predict", model, empty, out]) == 0
        assert capsys.readouterr().out.startswith("tagged 0 sentences")
        assert conll.read_conll(out.read_text()) == []
        assert run(["evaluate", model, empty]) == 0
        assert run(["evaluate", model, empty, "--level", "token",
                    "--constrained"]) == 0

    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    def test_predict_runs_through_the_traced_names(
            self, kind, trained_crf, trained_bilstm_crf, tmp_path,
            monkeypatch):
        # perfbench/trace_stage.py times and counts these names; a tagging
        # path around them would make its per-layer metrics read 0
        model = trained_crf[0] if kind == "crf" else trained_bilstm_crf
        train_conll = trained_crf[1]
        calls = {"crf.viterbi": 0, "neural.predict": 0, "chain.viterbi": 0}
        viterbi_rows = []

        def count(module, name, record=None):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[f"{module.__name__.split('.')[-1]}.{name}"] += 1
                if record is not None:
                    record(*args)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(crf, "viterbi")
        count(neural, "predict")
        count(chain, "viterbi", lambda scores, *_: viterbi_rows.append(
            scores.shape[0]))
        # the tracer's crf.active_pairs counts the rows of index_tokens'
        # argument and the sizes of its result
        row_lengths = []
        index_tokens = crf.CrfModel.index_tokens

        def counted_index(model, token_features):
            row_lengths.append([len(row) for row in token_features])
            return index_tokens(model, token_features)

        monkeypatch.setattr(crf.CrfModel, "index_tokens", counted_index)
        assert run(["predict", model, train_conll, tmp_path / "pred.conll",
                    "--constrained"]) == 0
        items = conll.read_conll(train_conll.read_text())
        passes = math.ceil(len(items) / chain.PASS_SENTENCES)
        assert len(items) > chain.PASS_SENTENCES
        tagger_name = "crf.viterbi" if kind == "crf" else "neural.predict"
        assert calls == {"crf.viterbi": 0, "neural.predict": 0,
                         tagger_name: passes, "chain.viterbi": passes}
        assert sum(viterbi_rows) == sum(len(item.sentence.tokens)
                                        for item in items)
        if kind == "crf":
            width = features.features_per_token(
                model_io.load_model(model).window)
            assert row_lengths == [
                [width] * sum(len(item.sentence.tokens) for item in part)
                for part in chain.passes(items)]
        else:
            assert row_lengths == []


    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    def test_constrained_tag_builds_the_iob_masks_once(
            self, kind, trained_crf, trained_bilstm_crf, tmp_path,
            monkeypatch):
        model = trained_crf[0] if kind == "crf" else trained_bilstm_crf
        items = conll.read_conll(trained_crf[1].read_text())
        items *= 2 * chain.PASS_SENTENCES // len(items) + 1
        assert len(list(chain.passes(items))) >= 3
        to_tag = tmp_path / "in.conll"
        to_tag.write_text(conll.write_conll(items))
        builds = []
        decode_masks = iob.decode_masks

        def counted(label_set):
            builds.append(label_set)
            return decode_masks(label_set)

        monkeypatch.setattr(iob, "decode_masks", counted)
        assert run(["predict", model, to_tag, tmp_path / "pred.conll",
                    "--constrained"]) == 0
        assert len(builds) <= 1


@pytest.fixture(scope="module")
def long_conll(trained_crf):
    """Three copies of the training split: six passes, the first of which
    ends inside a document."""
    items = conll.read_conll(trained_crf[1].read_text() * 3)
    P = chain.PASS_SENTENCES
    assert len(items) > 3 * P
    assert items[P - 1].doc_id == items[P].doc_id is not None
    return items


def _list_path(model_path, items, constrained):
    """The sentences tagged all at once, as one list."""
    preds = model_io.load_model(model_path).tag(
        [item.sentence for item in items], constrained)
    return [conll.ConllSentence(item.doc_id, item.sentence, tags)
            for item, tags in zip(items, preds)]


class TestStreaming:
    """predict and evaluate read, tag and write one pass at a time, with the
    outputs and the errors of reading the whole file first."""

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    def test_predict_is_byte_identical_to_the_list_path(
            self, kind, constrained, trained_crf, trained_bilstm_crf,
            long_conll, tmp_path):
        model = trained_crf[0] if kind == "crf" else trained_bilstm_crf
        source = tmp_path / "in.conll"
        source.write_text(conll.write_conll(long_conll))
        out = tmp_path / "out.conll"
        flags = ["--constrained"] if constrained else []
        assert run(["predict", model, source, out, *flags]) == 0
        expected = conll.write_conll(_list_path(model, long_conll, constrained))
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("level", ["entity", "token"])
    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    def test_evaluate_is_byte_identical_to_the_list_path(
            self, kind, level, trained_crf, trained_bilstm_crf, long_conll,
            tmp_path, capsys):
        model = trained_crf[0] if kind == "crf" else trained_bilstm_crf
        # a weak model, so that the report is not all ones
        items = [conll.ConllSentence(item.doc_id, item.sentence,
                                     ["O"] * len(item.tags) if i % 5 else item.tags)
                 for i, item in enumerate(long_conll)]
        gold = tmp_path / "gold.conll"
        gold.write_text(conll.write_conll(items))
        assert run(["evaluate", model, gold, "--level", level,
                    "--format", "tsv"]) == 0
        preds = [item.tags for item in _list_path(model, items, False)]
        score = metrics.entity_level if level == "entity" else metrics.token_level
        report = score([item.tags for item in items], preds)
        assert capsys.readouterr().out == metrics.report_render(report, "tsv")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_passes_run_through_the_traced_names(self, command, trained_crf,
                                                 long_conll, tmp_path,
                                                 monkeypatch):
        # perfbench/trace_stage.py times conll.read and conll.write, and
        # counts the bytes of each string that write_conll returns
        source = tmp_path / "in.conll"
        source.write_text(conll.write_conll(long_conll))
        reads, written = [], []
        read_conll, write_conll = conll.read_conll, conll.write_conll

        def counted_read(*args):
            reads.append(read_conll(*args))
            return reads[-1]

        def counted_write(*args):
            written.append(write_conll(*args))
            return written[-1]

        monkeypatch.setattr(conll, "read_conll", counted_read)
        monkeypatch.setattr(conll, "write_conll", counted_write)
        argv = [command, trained_crf[0], source]
        if command == "predict":
            argv.append(tmp_path / "out.conll")
        assert run(argv) == 0
        passes = math.ceil(len(long_conll) / chain.PASS_SENTENCES)
        assert [len(part) for part in reads] == [
            len(part) for part in chain.passes(long_conll)] + [0]
        if command == "predict":
            assert len(written) == passes
            assert "".join(written) == (tmp_path / "out.conll").read_text()

    @staticmethod
    def _fails(argv, tmp_path, capsys):
        """The error line of a command that must fail and write nothing."""
        before = sorted(tmp_path.iterdir())
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert sorted(tmp_path.iterdir()) == before  # no output, no temp file
        assert out == ""
        return err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_a_late_malformed_line_is_named_from_the_top(
            self, command, trained_crf, long_conll, tmp_path, capsys):
        lines = conll.write_conll(long_conll).splitlines()
        lineno = len(lines) - 3
        assert lines[lineno - 1].count("\t") == 3  # a token row in the last pass
        lines[lineno - 1] = "bad\tline"
        source = tmp_path / "in.conll"
        source.write_text("\n".join(lines) + "\n")
        argv = [command, trained_crf[0], source]
        if command == "predict":
            argv.append(tmp_path / "out.conll")
        assert self._fails(argv, tmp_path, capsys) == (
            f"error: {source} line {lineno}: expected 3 or 4 tab-separated "
            "columns, got 2\n")

    def test_tag_faults_are_named_over_the_whole_file(
            self, trained_crf, long_conll, tmp_path, capsys):
        model = trained_crf[0]
        gold = tmp_path / "gold.conll"
        P = chain.PASS_SENTENCES

        def write(untagged=(), first_tags={}):
            """The corpus without the tag column of the ``untagged``
            sentences, and with the first tag of others replaced."""
            items = [conll.ConllSentence(i.doc_id, i.sentence, list(i.tags))
                     for i in long_conll]
            for index in untagged:
                items[index].tags = None
            for index, tag in first_tags.items():
                items[index].tags[0] = tag
            gold.write_text(conll.write_conll(items))

        write(untagged=[3 * P + 5, 4 * P + 1])
        assert self._fails(["evaluate", model, gold], tmp_path, capsys) == (
            f"error: {gold}: sentence {3 * P + 5} has no tag column\n")
        write(first_tags={3: "B-ZETA", 5 * P: "B-ALPHA", 5 * P + 1: "B-ZETA"})
        assert self._fails(["evaluate", model, gold], tmp_path, capsys) == (
            f"error: {gold}: tags not in the model's label set: B-ALPHA, "
            "B-ZETA\n")
        # of several faults, the one that reading the whole file first finds
        write(untagged=[4 * P], first_tags={3: "B-ZETA"})
        assert self._fails(["evaluate", model, gold], tmp_path, capsys) == (
            f"error: {gold}: sentence {4 * P} has no tag column\n")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_of_several_faults_the_whole_file_one_is_named(
            self, command, trained_crf, long_conll, tmp_path, capsys):
        model = trained_crf[0]
        source = tmp_path / "in.conll"
        argv = [command, model, source]
        if command == "predict":
            argv.append(tmp_path / "out.conll")
        items = [conll.ConllSentence(i.doc_id, i.sentence, list(i.tags))
                 for i in long_conll]
        items[2].tags = None
        items[3].tags[0] = "B-ZETA"
        lines = conll.write_conll(items).splitlines()
        lineno = len(lines) - 3
        lines[lineno - 1] = "bad"
        # a malformed line comes before every tag fault
        source.write_text("\n".join(lines) + "\n")
        assert self._fails(argv, tmp_path, capsys) == (
            f"error: {source} line {lineno}: expected 3 or 4 tab-separated "
            "columns, got 1\n")
        # and an undecodable byte anywhere before a malformed line, named by
        # its offset in the file
        lines[10] = "bad"
        last_row = b"\xffx\tx\tX\tO\n"
        data = ("\n".join(lines) + "\n").encode() + last_row
        source.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as decoding:
            data.decode("utf-8")
        assert f"position {len(data) - len(last_row)}:" in str(decoding.value)
        assert self._fails(argv, tmp_path, capsys) == (
            f"error: {source}: {decoding.value}\n")

    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    def test_train_names_the_fault_of_reading_both_files_first(
            self, kind, long_conll, tmp_path, capsys, monkeypatch):
        # both kinds encode their files pass by pass; both name the same
        # fault, and before any fit
        def never(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(crf, "train", never)
        monkeypatch.setattr(neural, "fit", never)
        P = chain.PASS_SENTENCES
        paths = {key: tmp_path / f"{key}.conll"
                 for key in ("train", "validation")}
        config = tmp_path / "run.cfg"
        config.write_text(
            f"model_kind = {kind}\ntrain = {paths['train']}\n"
            f"validation = {paths['validation']}\n"
            f"model_out = {tmp_path / 'never.model'}\n"
            + ("embedding = random\n" if kind != "crf" else ""))

        def write(key, untagged=(), first_tags={}, malformed=False):
            """The corpus with tag faults, and a malformed row in its last
            pass if ``malformed``; returns that row's line number."""
            items = [conll.ConllSentence(i.doc_id, i.sentence, list(i.tags))
                     for i in long_conll]
            for index in untagged:
                items[index].tags = None
            for index, tag in first_tags.items():
                items[index].tags[0] = tag
            lines = conll.write_conll(items).splitlines()
            lineno = len(lines) - 3
            assert lines[lineno - 1].count("\t") in (2, 3)  # a token row
            if malformed:
                lines[lineno - 1] = "bad"
            paths[key].write_text("\n".join(lines) + "\n")
            return lineno

        def fault():
            return self._fails(["train", config], tmp_path, capsys)

        train, validation = paths["train"], paths["validation"]
        lineno = write("train", untagged=[P + 1], malformed=True)
        write("validation", malformed=True)
        assert fault() == (f"error: {train} line {lineno}: expected 3 or 4 "
                           "tab-separated columns, got 1\n")
        write("train", untagged=[3 * P + 5, 4 * P], first_tags={3: "B-ZETA"})
        assert fault() == (
            f"error: {train}: sentence {3 * P + 5} has no tag column\n")
        write("train", first_tags={5 * P: "B-ZETA"})
        write("validation", untagged=[2 * P], first_tags={0: "B-BETA"})
        assert fault() == (
            f"error: {validation}: sentence {2 * P} has no tag column\n")
        write("train", first_tags={5 * P: "B-ZETA", 1: "B-ALPHA"})
        write("validation", first_tags={0: "B-BETA"})
        assert fault() == (f"error: {train}: tags not in the model's label "
                           "set: B-ALPHA, B-ZETA\n")
        write("train")
        write("validation", first_tags={4 * P: "B-ZETA", 2: "B-BETA"})
        assert fault() == (f"error: {validation}: tags not in the model's "
                           "label set: B-BETA, B-ZETA\n")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_an_unreadable_input_is_named(self, command, trained_crf,
                                          tmp_path, capsys, monkeypatch):
        model, train_conll, _ = trained_crf
        source = tmp_path / "in.conll"
        source.write_text(train_conll.read_text())
        path_open = Path.open

        def open_or_deny(path, *args, **kwargs):
            if path == source:  # the model is read as it was
                raise PermissionError(13, "Permission denied", str(path))
            return path_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_or_deny)
        argv = [command, model, source]
        if command == "predict":
            argv.append(tmp_path / "out.conll")
        assert self._fails(argv, tmp_path, capsys) == (
            f"error: [Errno 13] Permission denied: '{source}'\n")

    def test_predict_memory_is_bounded_by_the_pass(self, trained_crf,
                                                   tmp_path):
        import tracemalloc

        model, train_conll, _ = trained_crf
        text = train_conll.read_text()
        out = tmp_path / "out.conll"
        peaks = {}
        for copies in (1, 10, 1):
            source = tmp_path / f"x{copies}.conll"
            source.write_text(text * copies)
            tracemalloc.start()
            try:
                assert run(["predict", model, source, out]) == 0
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the first run imports and caches; the last one is the baseline
        assert peaks[10] <= 1.5 * peaks[1], peaks

    def test_bilstm_train_memory_per_token_is_the_encoding(self, trained_crf,
                                                           tmp_path):
        # train reads its splits pass by pass into word-id and label-id
        # arrays; Token objects held for the whole fit cost about 230 B each
        import tracemalloc

        _, train_conll, heldout_conll = trained_crf
        text = train_conll.read_text()
        tokens = sum(len(item.sentence.tokens)
                     for item in conll.read_conll(text))
        peaks = {}
        for copies in (1, 10, 1):
            source = tmp_path / f"x{copies}.conll"
            source.write_text(text * copies)
            config = tmp_path / f"x{copies}.cfg"
            config.write_text(
                f"model_kind = bilstm-crf\ntrain = {source}\n"
                f"validation = {heldout_conll}\nembedding = random\n"
                "embedding_dim = 8\nhidden_dim = 5\nmax_epochs = 1\n"
                f"seed = 2\nmodel_out = {tmp_path / 'm.model'}\n")
            tracemalloc.start()
            try:
                assert run(["train", config]) == 0
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the first run imports and caches; the last one is the baseline
        per_token = (peaks[10] - peaks[1]) / (9 * tokens)
        assert per_token < 100, (per_token, peaks)

    def test_crf_fit_holds_no_token_object(self, trained_crf, tmp_path,
                                           monkeypatch):
        # train reads train and validation pass by pass into attribute value
        # ids; reading them whole held one Token per training token
        import gc

        from raretag import lbfgs
        from raretag.iob import TaggedSentence
        from raretag.tokenizer import Sentence, Token

        _, train_conll, heldout_conll = trained_crf
        config = tmp_path / "crf.cfg"
        config.write_text(
            f"model_kind = crf\ntrain = {train_conll}\n"
            f"validation = {heldout_conll}\nmax_iterations = 2\n"
            f"model_out = {tmp_path / 'm.model'}\n")
        kinds = (Token, Sentence, conll.ConllSentence, TaggedSentence)

        def live():
            gc.collect()
            return sum(isinstance(o, kinds) for o in gc.get_objects())

        minimize, at_fit = lbfgs.minimize, []

        def counted(*args, **kwargs):
            at_fit.append(live())
            return minimize(*args, **kwargs)

        monkeypatch.setattr(lbfgs, "minimize", counted)
        before = live()  # the other tests' fixtures hold some
        assert run(["train", config]) == 0
        assert [n - before for n in at_fit] == [0]

    def test_crf_train_memory_per_token_is_the_encoding(self, trained_crf,
                                                         tmp_path):
        # the fit's int32 feature rows and its [N, L] arrays grow with the
        # tokens; Token objects, int64 rows and an [N * K] gradient copy of
        # each label's column no longer do
        import tracemalloc

        _, train_conll, _ = trained_crf
        text = train_conll.read_text()
        tokens = sum(len(item.sentence.tokens)
                     for item in conll.read_conll(text))
        peaks = {}
        for copies in (1, 10, 1):
            source = tmp_path / f"x{copies}.conll"
            source.write_text(text * copies)
            config = tmp_path / f"x{copies}.cfg"
            config.write_text(
                f"model_kind = crf\ntrain = {source}\nmax_iterations = 2\n"
                f"model_out = {tmp_path / 'm.model'}\n")
            tracemalloc.start()
            try:
                assert run(["train", config]) == 0
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the first run imports and caches; the last one is the baseline.
        # It reads 612 B here and 805 B when train read Token lists
        per_token = (peaks[10] - peaks[1]) / (9 * tokens)
        assert per_token < 700, (per_token, peaks)


class TestImports:
    @staticmethod
    def run_fresh(code, argv, timeout=120):
        """Run ``code`` with ``argv`` in a new interpreter that imports
        raretag from this tree."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)

    def test_convert_and_gen_synthetic_never_load_numpy(self, tmp_path):
        code = (
            "import sys\n"
            "from raretag import cli\n"
            "for argv in (sys.argv[1:4], sys.argv[4:]):\n"
            "    assert cli.main(argv) == 0\n"
            "    assert 'numpy' not in sys.modules, argv[0]\n"
        )
        proc = self.run_fresh(
            code, ["gen-synthetic", tmp_path / "syn", "--size=6",
                   "convert", tmp_path / "syn" / "train",
                   tmp_path / "train.conll"], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "train.conll").read_text().startswith("# doc_id")


    def test_crf_commands_never_load_hashlib(self, trained_crf, tmp_path):
        # hashlib maps OpenSSL's libcrypto; only a hashed embedding word
        # needs it, and a CRF run hashes none
        _, train_conll, heldout_conll = trained_crf
        model = tmp_path / "crf.model"
        config = tmp_path / "crf.cfg"
        config.write_text(f"model_kind = crf\ntrain = {train_conll}\n"
                          f"model_out = {model}\nmax_iterations = 3\n")
        code = (
            "import sys\n"
            "from raretag import cli\n"
            "for argv in (sys.argv[1:3], sys.argv[3:7], sys.argv[7:]):\n"
            "    assert cli.main(argv) == 0, argv[0]\n"
            "    assert '_hashlib' not in sys.modules, argv[0]\n"
        )
        proc = self.run_fresh(
            code, ["train", config,
                   "predict", model, heldout_conll, tmp_path / "pred.conll",
                   "evaluate", model, heldout_conll])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pred.conll").is_file()

    def test_bilstm_crf_commands_never_load_numpy_random(self, trained_crf,
                                                         tmp_path):
        # numpy.random loads nine extension modules and, through secrets,
        # OpenSSL's libcrypto; rng.Pcg64 draws the same numbers without it.
        # The training files hold every word; the last predict and evaluate
        # read one out of the vocabulary, whose vector is seeded by a
        # blake2b hash, which hashlib would take from libcrypto too
        _, train_conll, heldout_conll = trained_crf
        model = tmp_path / "bl.model"
        config = tmp_path / "bl.cfg"
        config.write_text(
            f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
            f"validation = {train_conll}\nembedding = random\n"
            f"embedding_dim = 8\nhidden_dim = 5\nmax_epochs = 1\n"
            f"seed = 2\nmodel_out = {model}\n")
        oov = tmp_path / "oov.conll"
        oov.write_text("Zyxqwv\tzyxqwv\tX\tO\nhas\thas\tX\tO\n")
        code = (
            "import sys\n"
            "from raretag import cli\n"
            "for argv in (sys.argv[1:3], sys.argv[3:7], sys.argv[7:10],\n"
            "             sys.argv[10:14], sys.argv[14:]):\n"
            "    assert cli.main(argv) == 0, argv[0]\n"
            "    for name in ('numpy.random', 'secrets', '_hashlib'):\n"
            "        assert name not in sys.modules, (argv[0], name)\n"
        )
        proc = self.run_fresh(
            code, ["train", config,
                   "predict", model, train_conll, tmp_path / "pred.conll",
                   "evaluate", model, train_conll,
                   "predict", model, oov, tmp_path / "oov-pred.conll",
                   "evaluate", model, oov])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pred.conll").is_file()
        assert (tmp_path / "oov-pred.conll").is_file()
        tagger = model_io.load_model(model)
        assert "Zyxqwv" not in tagger.embedding.vocab
        assert tagger.embedding.oov_policy == "random_seeded"

    def test_tagging_commands_never_load_brat_or_synthetic(
            self, trained_crf, trained_bilstm_crf, tmp_path):
        # only convert reads Brat files and only gen-synthetic writes them;
        # only evaluate scores, with metrics; only training encodes
        _, train_conll, heldout_conll = trained_crf
        crf_config = tmp_path / "crf.cfg"
        crf_config.write_text(f"model_kind = crf\ntrain = {train_conll}\n"
                              f"model_out = {tmp_path / 'crf.model'}\n"
                              "max_iterations = 2\n")
        bl_config = tmp_path / "bl.cfg"
        bl_config.write_text(
            f"model_kind = bilstm-crf\ntrain = {train_conll}\n"
            f"validation = {heldout_conll}\nembedding = random\n"
            f"embedding_dim = 8\nhidden_dim = 5\nmax_epochs = 1\n"
            f"model_out = {tmp_path / 'bl.model'}\n")
        code = (
            "import sys\n"
            "from raretag import cli\n"
            "argv = sys.argv[1:]\n"
            "never = ['brat', 'synthetic']\n"
            "for run, unwanted in (\n"
            "        (argv[0:4], never + ['metrics', 'encoding']),\n"
            "        (argv[4:6], never + ['metrics']),\n"
            "        (argv[6:8], never + ['metrics']), (argv[8:], never)):\n"
            "    assert cli.main(run) == 0, run\n"
            "    loaded = [m for m in unwanted if f'raretag.{m}' in sys.modules]\n"
            "    assert not loaded, (run[:2], loaded)\n"
        )
        proc = self.run_fresh(
            code, ["predict", trained_bilstm_crf, heldout_conll,
                   tmp_path / "pred.conll", "train", crf_config,
                   "train", bl_config,
                   "evaluate", trained_bilstm_crf, heldout_conll])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pred.conll").is_file()
        assert (tmp_path / "bl.model").is_file()

    def test_crf_train_never_loads_bilstm_code(self, trained_crf, tmp_path):
        # the config schema's neural fields come from settings, not neural
        _, train_conll, _ = trained_crf
        config = tmp_path / "crf.cfg"
        config.write_text(f"model_kind = crf\ntrain = {train_conll}\n"
                          f"model_out = {tmp_path / 'crf.model'}\n"
                          f"max_iterations = 2\n")
        code = (
            "import sys\n"
            "from raretag import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "for name in ('neural', 'lstm', 'embeddings', 'rng'):\n"
            "    assert f'raretag.{name}' not in sys.modules, name\n"
        )
        proc = self.run_fresh(code, ["train", config])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "crf.model").is_file()

    def test_crf_predict_and_evaluate_never_load_bilstm_code(self, trained_crf,
                                                             tmp_path):
        # model_io imports neural, lstm and embeddings only to build or
        # save a BiLSTM model
        model, _, heldout_conll = trained_crf
        code = (
            "import sys\n"
            "from raretag import cli\n"
            "for argv in (sys.argv[1:5], sys.argv[5:]):\n"
            "    assert cli.main(argv) == 0, argv[0]\n"
            "    for name in ('neural', 'lstm', 'embeddings'):\n"
            "        assert f'raretag.{name}' not in sys.modules, (argv[0], name)\n"
        )
        proc = self.run_fresh(
            code, ["predict", model, heldout_conll, tmp_path / "pred.conll",
                   "evaluate", model, heldout_conll])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pred.conll").is_file()


class TestDeterminism:
    def test_crf_training_is_reproducible(self, trained_crf, tmp_path):
        _, train_conll, _ = trained_crf
        models = []
        for name in ("a", "b"):
            config = tmp_path / f"{name}.cfg"
            model = tmp_path / f"{name}.model"
            config.write_text(
                f"model_kind = crf\ntrain = {train_conll}\n"
                f"model_out = {model}\nmax_iterations = 20\n"
            )
            assert run(["train", config]) == 0
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_neural_training_is_reproducible(self, trained_crf, tmp_path):
        _, train_conll, heldout_conll = trained_crf
        models = []
        for name in ("a", "b"):
            config = tmp_path / f"n{name}.cfg"
            model = tmp_path / f"n{name}.model"
            config.write_text(
                f"model_kind = bilstm\ntrain = {train_conll}\n"
                f"validation = {heldout_conll}\nembedding = random\n"
                f"embedding_dim = 8\nhidden_dim = 5\nmax_epochs = 2\n"
                f"seed = 9\nmodel_out = {model}\n"
            )
            assert run(["train", config]) == 0
            models.append(model.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("kind", ["crf", "bilstm-crf"])
    def test_model_bytes_do_not_depend_on_the_blas_thread_count(
            self, kind, trained_crf, tmp_path):
        if kind == "crf":
            # 1,339 features and 12,132 weights: long enough that BLAS
            # would sum a 1-D product over them in per-thread chunks
            assert run(["gen-synthetic", tmp_path / "syn", "--seed", 7,
                        "--size", 150]) == 0
            train_conll = tmp_path / "train.conll"
            assert run(["convert", tmp_path / "syn" / "train",
                        train_conll]) == 0
            settings = "max_iterations = 3\nconvergence_tol = 0\n"
        else:
            _, train_conll, heldout_conll = trained_crf
            settings = (f"validation = {heldout_conll}\nembedding = random\n"
                        "embedding_dim = 8\nhidden_dim = 5\nmax_epochs = 1\n"
                        "seed = 2\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        models = []
        for threads in ("1", "2"):
            config = tmp_path / f"threads{threads}.cfg"
            model = tmp_path / f"threads{threads}.model"
            config.write_text(f"model_kind = {kind}\ntrain = {train_conll}\n"
                              f"model_out = {model}\n{settings}")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "raretag.cli", "train", str(config)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            models.append(model.read_bytes())
        if kind == "crf":
            fitted = model_io.load_model(model)
            assert (fitted.state_weights.size
                    + fitted.transition_weights.size) == 12_132
        assert models[0] == models[1]


class TestGenSynthetic:
    def test_byte_identical_for_same_seed(self, tmp_path):
        assert run(["gen-synthetic", tmp_path / "a", "--seed", 7,
                    "--size", 10]) == 0
        assert run(["gen-synthetic", tmp_path / "b", "--seed", 7,
                    "--size", 10]) == 0
        files_a = sorted((tmp_path / "a").rglob("*.ann"))
        files_b = sorted((tmp_path / "b").rglob("*.ann"))
        assert [f.read_bytes() for f in files_a] == \
            [f.read_bytes() for f in files_b]

    def test_zero_overlap_gives_empty_log(self, tmp_path, capsys):
        assert run(["gen-synthetic", tmp_path / "c", "--seed", 3, "--size", 20,
                    "--overlap-fraction", "0.0"]) == 0
        capsys.readouterr()
        assert run(["convert", tmp_path / "c" / "train",
                    tmp_path / "c.conll"]) == 0
        assert "overlaps dropped: 0" in capsys.readouterr().out


class TestDump:
    def test_dump_prints_text(self, trained_crf, capsys):
        model, _, _ = trained_crf
        assert run(["dump", model]) == 0
        assert capsys.readouterr().out.startswith("kind: crf")


class TestOsErrors:
    """A path that cannot be read or written is a named error, exit 1."""

    @pytest.mark.parametrize("command", [
        "convert {brat} {dir}",
        "train {dir}",
        "train {config_to_dir}",
        "predict {dir} {conll} {out}",
        "predict {model} {dir} {out}",
        "evaluate {dir} {conll}",
        "evaluate {model} {dir}",
        "dump {dir}",
        "gen-synthetic {file}",
    ])
    def test_directory_or_file_in_the_wrong_place(self, command, brat_pair,
                                                  trained_crf, tmp_path,
                                                  capsys):
        model, conll_path, _ = trained_crf
        directory = tmp_path / "a-directory"
        directory.mkdir()
        regular = tmp_path / "a-file"
        regular.write_text("")
        config = tmp_path / "dir.cfg"
        config.write_text(f"model_kind = crf\ntrain = {directory}\n"
                          f"model_out = {tmp_path / 'm.bin'}\n")
        argv = command.format(brat=brat_pair, dir=directory, file=regular,
                              config_to_dir=config, model=model,
                              conll=conll_path, out=tmp_path / "o.conll")
        assert run(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "predict", "dump",
                                         "train"])
    def test_permission_denied(self, command, trained_crf, tmp_path, capsys,
                               monkeypatch):
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        model, conll_path, _ = trained_crf
        config = tmp_path / "crf.cfg"
        config.write_text(f"model_kind = crf\ntrain = {conll_path}\n"
                          f"model_out = {tmp_path / 'm.bin'}\n")
        argv = {"evaluate": ["evaluate", model, conll_path],
                "predict": ["predict", model, conll_path, tmp_path / "o"],
                "dump": ["dump", model],
                "train": ["train", config]}[command]
        # every whole-file reader goes through one of these (the CoNLL input
        # streams through Path.open, see TestStreaming); the tests run as
        # root, which file modes do not stop
        monkeypatch.setattr(Path, "read_bytes", denied)
        monkeypatch.setattr(Path, "read_text", denied)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 13] Permission denied: ")

    def test_a_directory_target_is_named_and_left_clean(self, brat_pair,
                                                         tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert run(["convert", brat_pair, "d"]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'd'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "d"]
        assert list((tmp_path / "d").iterdir()) == []

    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_a_missing_output_directory_is_named_and_left_clean(
            self, command, trained_crf, tmp_path, capsys, monkeypatch):
        model, conll_path, _ = trained_crf
        monkeypatch.chdir(tmp_path)
        target = Path("nope") / "out"
        config = tmp_path / "crf.cfg"
        config.write_text(f"model_kind = crf\ntrain = {conll_path}\n"
                          f"model_out = {target}\nmax_iterations = 1\n")
        argv = {"predict": ["predict", model, conll_path, target],
                "train": ["train", config]}[command]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
            f"'{target}'\n")
        assert list(tmp_path.iterdir()) == [config]

    def test_broken_pipe_is_a_clean_exit(self, monkeypatch):
        def closed(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "cmd_dump", closed)
        assert run(["dump", "any.model"]) == 0
