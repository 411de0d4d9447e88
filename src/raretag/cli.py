"""Command-line pipeline: convert, train, predict, evaluate, gen-synthetic.

Training is configured by a flat ``key = value`` text file (``#`` starts a
comment). Its training settings, and their defaults, are the fields of
``crf.TrainConfig`` (``crf``) or of ``neural.FitConfig`` plus the embedding
and history keys (``bilstm``, ``bilstm-crf``); keys that are unknown or that
the chosen kind does not use are rejected before any work starts. All
outputs are UTF-8. Models, manifests, histories and CoNLL files are written
atomically; ``gen-synthetic`` writes its corpus files directly, not atomically.
``RARETAG_CONFIG_DIR`` provides a default directory for relative config
paths. The numpy-backed modules are imported by the commands that use
them, so ``convert`` and ``gen-synthetic`` start without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

from . import brat, conll, iob, metrics, synthetic
from .atomic import atomic_write_text, read_utf8
from .iob import TaggedSentence
from .tokenizer import tokenize_document

CONFIG_DIR_ENV = "RARETAG_CONFIG_DIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_THRESHOLD = 2


class CliError(Exception):
    pass


# ---------------------------------------------------------------- config

_COMMON_KEYS = {
    "model_kind": str,
    "train": str,
    "validation": str,
    "model_out": str,
    "manifest_out": str,
}

# neural settings that are not fields of neural.FitConfig
_NEURAL_EXTRA_KEYS = {
    "embedding": str,
    "embedding_dim": int,
    "oov_policy": str,
    "train_embeddings": bool,
    "history_out": str,
}
EMBEDDING_DIM = 50  # of an ``embedding = random`` table

MODEL_KINDS = ("crf", "bilstm", "bilstm-crf")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _config_class(kind: str):
    """The dataclass whose fields are the training settings of ``kind``."""
    from . import crf, neural

    return crf.TrainConfig if kind == "crf" else neural.FitConfig


def _kind_keys(kind: str) -> dict[str, type]:
    """The keys a config of ``kind`` may set besides the common ones; a
    field is cast as the type of its default."""
    keys = {f.name: type(f.default)
            for f in dataclasses.fields(_config_class(kind))}
    return keys if kind == "crf" else {**keys, **_NEURAL_EXTRA_KEYS}


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines into a typed dict."""
    schema = {**_COMMON_KEYS, **_kind_keys("crf"), **_kind_keys("bilstm")}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise CliError(f"config line {lineno}: expected 'key = value'")
        key = key.strip()
        raw = raw.split("#", 1)[0].strip()
        if key not in schema:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise CliError(f"config line {lineno}: duplicate key {key!r}")
        caster = schema[key]
        try:
            values[key] = _parse_bool(raw) if caster is bool else caster(raw)
        except ValueError as err:
            raise CliError(f"config line {lineno}: {err}") from None
    return values


def validate_run_config(values: dict) -> dict:
    kind = values.get("model_kind")
    if kind not in MODEL_KINDS:
        raise CliError(
            f"model_kind must be one of {', '.join(MODEL_KINDS)}; got {kind!r}"
        )
    if "train" not in values:
        raise CliError("config missing required key 'train'")
    if "model_out" not in values:
        raise CliError("config missing required key 'model_out'")
    if kind != "crf":
        if "validation" not in values:
            raise CliError(f"{kind} training requires a 'validation' path")
        if "embedding" not in values:
            raise CliError(f"{kind} training requires 'embedding' "
                           "(either 'random' or a vector file path)")
    wrong = values.keys() - _COMMON_KEYS.keys() - _kind_keys(kind).keys()
    if wrong:
        raise CliError(
            f"keys not valid for model_kind={kind}: {', '.join(sorted(wrong))}"
        )
    return values


def _resolve_config_path(path_arg: str) -> Path:
    path = Path(path_arg)
    if path.exists():
        return path
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir and not path.is_absolute():
        candidate = Path(env_dir) / path
        if candidate.exists():
            return candidate
    raise CliError(f"config file not found: {path_arg}")


# ---------------------------------------------------------------- helpers

def _read_tagged_conll(path: str | Path, need_tags: bool = True):
    content = read_utf8(path, conll.ConllParseError)
    try:
        items = conll.read_conll(content)
    except conll.ConllParseError as err:  # it names the line, not the file
        raise conll.ConllParseError(f"{path} {err}") from None
    if need_tags:
        missing = [i for i, item in enumerate(items) if item.tags is None]
        if missing:
            raise CliError(f"{path}: sentence {missing[0]} has no tag column")
    return items


def _tagged_sentences(items) -> list[TaggedSentence]:
    return [TaggedSentence(item.sentence.tokens, item.tags) for item in items]


def _check_labels(items, label_set: list[str], path) -> None:
    known = set(label_set)
    unknown = sorted({
        t for item in items if item.tags for t in item.tags if t not in known
    })
    if unknown:
        raise CliError(
            f"{path}: tags not in the model's label set: {', '.join(unknown)}"
        )


# ---------------------------------------------------------------- convert

def cmd_convert(args) -> int:
    corpus, unpaired = brat.load_corpus_dir(
        args.brat_dir,
        lenient=args.lenient,
        skip_unpaired=args.skip_unpaired,
        offset_units=args.offset_units,
    )
    if unpaired:
        print(f"skipped unpaired files: {', '.join(unpaired)}", file=sys.stderr)
    if not corpus.documents:
        raise CliError(f"{args.brat_dir}: no .txt/.ann pairs found")
    out_items = []
    dropped = 0
    discontinuous = 0
    for doc in corpus.documents:
        resolved = brat.resolve_overlaps(doc)
        dropped += len(resolved.resolution_log) - len(doc.resolution_log)
        discontinuous += sum(1 for e in resolved.entities if e.is_discontinuous())
        sentences = tokenize_document(resolved.text)
        try:
            tagged = iob.encode_document(sentences, resolved.entities)
        except iob.IobError as err:
            raise CliError(f"{doc.doc_id}: {err}") from None
        out_items.extend(
            conll.ConllSentence(doc.doc_id, sentence, t.tags)
            for sentence, t in zip(sentences, tagged)
        )
    atomic_write_text(args.out_conll, conll.write_conll(out_items))
    print(
        f"converted {len(corpus.documents)} documents, {len(out_items)} "
        f"sentences; overlaps dropped: {dropped}; discontinuous flattened: "
        f"{discontinuous}"
    )
    return EXIT_OK


# ---------------------------------------------------------------- train

def _build_embedding_source(cfg: dict, train_sents, seed: int):
    from . import embeddings

    source = cfg["embedding"]
    policy = {"oov_policy": cfg["oov_policy"]} if "oov_policy" in cfg else {}
    if source == "random":
        vocab = sorted({t.surface for ts in train_sents for t in ts.tokens})
        return embeddings.random_table(
            vocab, cfg.get("embedding_dim", EMBEDDING_DIM), seed, **policy
        )
    if not Path(source).exists():
        raise CliError(f"embedding file not found: {source}")
    table = embeddings.load_text_format(source, seed=seed, **policy)
    if cfg.get("embedding_dim", table.dim) != table.dim:
        raise CliError(f"embedding_dim = {cfg['embedding_dim']}, but {source} "
                       f"holds {table.dim}-wide vectors")
    return table


def cmd_train(args) -> int:
    from . import crf, model_io, neural

    config_path = _resolve_config_path(args.config)
    cfg = validate_run_config(parse_config(read_utf8(config_path, CliError)))
    kind = cfg["model_kind"]
    config_class = _config_class(kind)
    fields = {f.name for f in dataclasses.fields(config_class)}
    settings = config_class(**{k: v for k, v in cfg.items() if k in fields})
    for key in ("train", "validation"):
        if key in cfg and not Path(cfg[key]).exists():
            raise CliError(f"{key} file not found: {cfg[key]}")

    train_items = _read_tagged_conll(cfg["train"])
    val_items = _read_tagged_conll(cfg["validation"]) if "validation" in cfg else []
    _check_labels(train_items, iob.TAGS, cfg["train"])
    _check_labels(val_items, iob.TAGS, cfg.get("validation"))
    train_sents = _tagged_sentences(train_items)
    val_sents = _tagged_sentences(val_items)
    started = time.monotonic()
    history_csv = None

    if kind == "crf":
        # default hyperparameters: train on train+validation together
        model, opt = crf.train(train_sents + val_sents, settings)
        final_metrics = {
            "objective": opt.fun,
            "iterations": opt.iterations,
            "converged": opt.converged,
            "stop_reason": opt.message,
            "features": len(model.feature_index),
            "objective_evaluations": opt.evaluations,
            "objective_trace": opt.trace,
        }
    else:
        source = _build_embedding_source(cfg, train_sents, settings.seed)
        head = neural.HEAD_CRF if kind == "bilstm-crf" else neural.HEAD_SOFTMAX
        tagger = neural.build_tagger(
            train_sents,
            source,
            head_kind=head,
            hidden_dim=settings.hidden_dim,
            seed=settings.seed,
            train_embeddings=cfg.get("train_embeddings"),
        )
        model, history = neural.fit(tagger, train_sents, val_sents, settings)
        history_csv = history.to_csv()
        final_metrics = {
            "best_epoch": history.best_epoch,
            "stopped_epoch": history.stopped_epoch,
            "best_val_loss": min(history.val_loss) if history.val_loss else None,
            "embedding_oov_rate": source.oov_rate(),
        }

    model_out = Path(cfg["model_out"])
    model_io.save_model(model, model_out)
    if history_csv is not None:
        history_out = Path(cfg.get("history_out", str(model_out) + ".history.csv"))
        atomic_write_text(history_out, history_csv)
    manifest = {
        "command": "train",
        "config": cfg,
        "seed": getattr(settings, "seed", None),
        "durations": {"train_seconds": round(time.monotonic() - started, 3)},
        "metrics": final_metrics,
        "model_path": str(model_out),
    }
    manifest_out = Path(cfg.get("manifest_out", str(model_out) + ".manifest.json"))
    atomic_write_text(manifest_out, json.dumps(manifest, indent=2) + "\n")
    print(f"trained {kind} model -> {model_out}")
    return EXIT_OK


# ---------------------------------------------------------------- predict

def cmd_predict(args) -> int:
    from . import model_io

    model = model_io.load_model(args.model)
    items = _read_tagged_conll(args.in_conll, need_tags=False)
    preds = model.tag([item.sentence for item in items], args.constrained)
    out_items = [
        conll.ConllSentence(item.doc_id, item.sentence, tags)
        for item, tags in zip(items, preds)
    ]
    atomic_write_text(args.out_conll, conll.write_conll(out_items))
    print(f"tagged {len(out_items)} sentences -> {args.out_conll}")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate

def _parse_min_flags(pairs: list[str]) -> dict[str, float]:
    thresholds = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise CliError(f"--min expects metric=value, got {pair!r}")
        try:
            bound = float(value)
        except ValueError:
            raise CliError(f"--min {pair!r}: not a number") from None
        if not math.isfinite(bound):
            raise CliError(f"--min {pair!r}: the bound must be finite")
        thresholds[name.strip()] = bound
    return thresholds


def cmd_evaluate(args) -> int:
    from . import model_io

    thresholds = _parse_min_flags(args.min or [])
    model = model_io.load_model(args.model)
    items = _read_tagged_conll(args.conll)
    label_set = model.label_set
    _check_labels(items, label_set, args.conll)
    gold = [item.tags for item in items]
    preds = model.tag([item.sentence for item in items], args.constrained)
    if args.level == "token":
        report = metrics.token_level(gold, preds)
    else:
        report = metrics.entity_level(gold, preds)
    # an unknown metric name fails before the report is written
    actual = {name: report.metric(name) for name in thresholds}
    sys.stdout.write(metrics.report_render(report, args.format))
    failures = [f"{name}={actual[name]:.4f} < {minimum:.4f}"
                for name, minimum in thresholds.items() if actual[name] < minimum]
    if failures:
        print("threshold check failed: " + "; ".join(failures), file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


# ---------------------------------------------------------------- gen

def cmd_gen_synthetic(args) -> int:
    config = synthetic.SyntheticConfig(
        seed=args.seed,
        size=args.size,
        discontinuous_fraction=args.discontinuous_fraction,
        overlap_fraction=args.overlap_fraction,
        holdout_fraction=args.holdout_fraction,
    )
    documents = synthetic.generate_corpus(config)
    train_dir, heldout_dir = synthetic.write_corpus(
        documents, args.out_dir, config.holdout_fraction
    )
    where = str(train_dir) if heldout_dir is None else \
        f"{train_dir} (+ heldout in {heldout_dir})"
    print(f"wrote {len(documents)} synthetic documents to {where}")
    return EXIT_OK


# ---------------------------------------------------------------- dump

def cmd_dump(args) -> int:
    from . import model_io

    sys.stdout.write(model_io.dump_text(args.model))
    return EXIT_OK


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raretag",
        description="Sequence-labeling toolkit for rare-disease NER",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="Brat directory -> CoNLL TSV")
    p.add_argument("brat_dir")
    p.add_argument("out_conll")
    p.add_argument("--lenient", action="store_true",
                   help="downgrade surface mismatches to warnings")
    p.add_argument("--skip-unpaired", action="store_true")
    p.add_argument("--offset-units", choices=("codepoints", "utf16"),
                   default="codepoints")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="tag a CoNLL file with a model")
    p.add_argument("model")
    p.add_argument("in_conll")
    p.add_argument("out_conll")
    p.add_argument("--constrained", action="store_true",
                   help="forbid invalid IOB2 transitions while decoding")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model against gold CoNLL")
    p.add_argument("model")
    p.add_argument("conll")
    p.add_argument("--level", choices=("token", "entity"), default="entity")
    p.add_argument("--format", choices=("table", "tsv", "json-lines"),
                   default="table")
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--min", action="append", metavar="METRIC=VALUE",
                   help="exit nonzero when a metric falls below a bound")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-synthetic", help="emit a synthetic Brat corpus")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--discontinuous-fraction", type=float, default=0.1)
    p.add_argument("--overlap-fraction", type=float, default=0.1)
    p.add_argument("--holdout-fraction", type=float, default=0.2)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("dump", help="print a lossless text dump of a model")
    p.add_argument("model")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, so it is caught first
        return EXIT_OK  # downstream pager/head closed the stream
    # every named parse error (Brat, CoNLL, metrics, embeddings, model
    # files) subclasses ValueError; FloatingPointError covers a non-finite
    # neural loss and a failed L-BFGS line search; OSError covers missing,
    # unreadable and directory paths
    except (CliError, FloatingPointError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
