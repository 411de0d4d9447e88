import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from raretag import (
    brat, chain, cli, conll, crf, embeddings, iob, neural, synthetic,
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
        with pytest.raises(CliError, match="not valid for model_kind=crf"):
            validate_run_config({
                "model_kind": "crf", "train": "x", "model_out": "m",
                "patience": 4,
            })
        with pytest.raises(CliError, match="not valid for model_kind=bilstm"):
            validate_run_config({
                "model_kind": "bilstm", "train": "x", "model_out": "m",
                "validation": "v", "embedding": "random",
                "l2_coefficient": 0.5,
            })
        for key, value in (("embedding", "random"), ("embedding_dim", 8),
                           ("oov_policy", "zeros"), ("history_out", "h.csv"),
                           ("seed", 1)):
            with pytest.raises(CliError,
                               match=f"not valid for model_kind=crf: {key}$"):
                validate_run_config({
                    "model_kind": "crf", "train": "x", "model_out": "m",
                    key: value,
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

    def test_neural_requires_validation_and_embedding(self):
        with pytest.raises(CliError, match="validation"):
            validate_run_config({
                "model_kind": "bilstm-crf", "train": "x", "model_out": "m",
            })

    def test_unknown_model_kind(self):
        with pytest.raises(CliError, match="model_kind"):
            validate_run_config({"model_kind": "transformer", "train": "x",
                                 "model_out": "m"})


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


class TestImports:
    def test_convert_and_gen_synthetic_never_load_numpy(self, tmp_path):
        code = (
            "import sys\n"
            "from raretag import cli\n"
            "for argv in (sys.argv[1:4], sys.argv[4:]):\n"
            "    assert cli.main(argv) == 0\n"
            "    assert 'numpy' not in sys.modules, argv[0]\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code,
             "gen-synthetic", str(tmp_path / "syn"), "--size=6",
             "convert", str(tmp_path / "syn" / "train"),
             str(tmp_path / "train.conll")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "train.conll").read_text().startswith("# doc_id")


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
