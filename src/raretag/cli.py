"""Command-line pipeline: convert, train, predict, evaluate, gen-synthetic.

Training is configured by a flat ``key = value`` text file (``#`` starts a
comment). ``KINDS`` names each model kind once: the module whose
``train_run`` trains it (``crf``, or ``neural`` for ``bilstm`` and
``bilstm-crf``), the ``settings`` dataclass whose fields and defaults are
its training keys (``TrainConfig`` or ``FitConfig``), its other keys (the
neural embedding and history keys) and the keys it requires. A config is
read and checked against it before any file is read or any model code
loads. All outputs are UTF-8. Models, manifests, histories and CoNLL files
are written atomically; ``gen-synthetic`` writes its corpus files directly.
``RARETAG_CONFIG_DIR`` provides a default directory for relative config
paths. The numpy-backed modules, ``brat``, ``synthetic`` and ``metrics``
are imported by the commands that use them, so ``convert`` and
``gen-synthetic`` start without numpy, and CRF runs never load the BiLSTM
code. ``predict`` and ``evaluate`` stream their CoNLL input: they read,
tag and write (or score) one ``chain.PASS_SENTENCES`` pass at a time, so
they hold one pass of its tokens, not the whole file. ``train`` streams its
train and validation files the same way into one ``encoding.Encoded``
corpus each, as int arrays (word and label ids, and for the CRF each
token's four attribute value ids), so the fit holds no token object.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import conll, iob
from .atomic import atomic_write_text, atomic_writer, read_utf8
from .settings import (
    DEFAULT_OOV_POLICY, EMBEDDING_DIM, OOV_POLICIES, FitConfig, TrainConfig,
)

CONFIG_DIR_ENV = "RARETAG_CONFIG_DIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_THRESHOLD = 2


class CliError(Exception):
    pass


# ---------------------------------------------------------------- config

_COMMON_KEYS = dict.fromkeys(
    ("model_kind", "train", "validation", "model_out", "manifest_out"), str)


class Kind(NamedTuple):  # what a model kind reads, and where it trains
    module: str  # whose ``train_run`` trains the kind
    settings: type  # the dataclass whose fields are its training settings
    extra_keys: dict[str, type]  # its config keys besides those fields
    required: dict[str, str]  # the keys it requires, each with its message
    attributes: bool  # whether training interns the CRF's four attributes


_NEURAL = Kind(
    "neural", FitConfig,
    {"embedding": str, "embedding_dim": int, "oov_policy": str,
     "train_embeddings": bool, "history_out": str},
    {"validation": "a 'validation' path",
     "embedding": "'embedding' (either 'random' or a vector file path)"},
    False)
KINDS = {"crf": Kind("crf", TrainConfig, {}, {}, True),
         "bilstm": _NEURAL, "bilstm-crf": _NEURAL}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _kind_keys(kind: Kind) -> dict[str, type]:
    """The keys a config of ``kind`` may set besides the common ones; a
    field is cast as the type of its default."""
    return {f.name: type(f.default)
            for f in dataclasses.fields(kind.settings)} | kind.extra_keys


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines into a typed dict."""
    schema = {key: cast for kind in KINDS.values()
              for key, cast in _kind_keys(kind).items()} | _COMMON_KEYS
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
    if kind not in KINDS:
        raise CliError(f"model_kind must be one of {', '.join(KINDS)}; got {kind!r}")
    for key in ("train", "model_out"):
        if key not in values:
            raise CliError(f"config missing required key '{key}'")
    for key, what in KINDS[kind].required.items():
        if key not in values:
            raise CliError(f"{kind} training requires {what}")
    wrong = values.keys() - _COMMON_KEYS.keys() - _kind_keys(KINDS[kind]).keys()
    if wrong:
        raise CliError(
            f"keys not valid for model_kind={kind}: {', '.join(sorted(wrong))}"
        )
    if values.get("embedding_dim", EMBEDDING_DIM) < 1:
        raise CliError(f"embedding_dim must be >= 1, got {values['embedding_dim']}")
    if values.get("oov_policy", DEFAULT_OOV_POLICY) not in OOV_POLICIES:
        raise CliError(f"unknown oov_policy {values['oov_policy']!r}")
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

def _read_passes(path: str | Path):
    """The sentences of a CoNLL file, ``chain.PASS_SENTENCES`` at a time.

    A fault is the one that reading the whole file first would report: an
    undecodable byte anywhere in the file before a malformed line.
    """
    from .chain import PASS_SENTENCES

    try:
        with Path(path).open(encoding="utf-8", newline="") as f:
            # as str.splitlines splits the whole text
            sentences = conll.iter_conll(
                line for row in f for line in row.splitlines())
            while items := conll.read_conll(sentences, PASS_SENTENCES):
                yield items
    except (UnicodeDecodeError, conll.ConllParseError) as err:
        # an undecodable byte anywhere comes first, named by its offset in
        # the file, not in the block being decoded
        read_utf8(path, conll.ConllParseError)
        raise conll.ConllParseError(f"{path} {err}") from None


def _no_tag_column(path, index: int) -> CliError:
    return CliError(f"{path}: sentence {index} has no tag column")


def _check_tagged(tag_lists, path) -> None:
    """``tag_lists`` holds None for each sentence without a tag column."""
    missing = next((i for i, tags in enumerate(tag_lists) if tags is None),
                   None)
    if missing is not None:
        raise _no_tag_column(path, missing)


def _read_encoded_conll(encoder, path: str | Path):
    """The tagged sentences of a CoNLL file, encoded pass by pass, and the
    tags outside the encoder's label set; a missing tag column is named
    once the file is read, as reading it whole names it."""
    untagged = []  # the index of each sentence without a tag column

    def sentences():
        items = (item for items in _read_passes(path) for item in items)
        for index, item in enumerate(items):
            if item.tags is None:
                untagged.append(index)
            else:
                yield item.sentence.tokens, item.tags

    corpus, unknown = encoder.encode(sentences())
    if untagged:
        raise _no_tag_column(path, untagged[0])
    return corpus, unknown


def _check_labels(unknown, path) -> None:
    """Name the tags outside the label set, once each and sorted."""
    if unknown:
        raise CliError(f"{path}: tags not in the model's label set: "
                       f"{', '.join(sorted(set(unknown)))}")


# ---------------------------------------------------------------- convert

def cmd_convert(args) -> int:
    from . import brat
    from .tokenizer import tokenize_document

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

def cmd_train(args) -> int:
    from . import model_io
    from .encoding import Encoder

    config_path = _resolve_config_path(args.config)
    cfg = validate_run_config(parse_config(read_utf8(config_path, CliError)))
    kind = KINDS[cfg["model_kind"]]
    fields = {f.name for f in dataclasses.fields(kind.settings)}
    settings = kind.settings(**{k: v for k, v in cfg.items() if k in fields})
    for key in ("train", "validation"):
        if key in cfg and not Path(cfg[key]).exists():
            raise CliError(f"{key} file not found: {cfg[key]}")

    encoder = Encoder(iob.TAGS, attributes=kind.attributes)
    train, train_unknown = _read_encoded_conll(encoder, cfg["train"])
    val, val_unknown = (_read_encoded_conll(encoder, cfg["validation"])
                        if "validation" in cfg else (None, []))
    _check_labels(train_unknown, cfg["train"])
    _check_labels(val_unknown, cfg.get("validation"))
    started = time.monotonic()
    entry = importlib.import_module(f".{kind.module}", __package__).train_run
    model, final_metrics, files = entry(train, val, settings, options=cfg)

    model_out = Path(cfg["model_out"])
    model_io.save_model(model, model_out)
    for key, (suffix, text) in files.items():
        atomic_write_text(Path(cfg.get(key, str(model_out) + suffix)), text)
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
    print(f"trained {cfg['model_kind']} model -> {model_out}")
    return EXIT_OK


# ---------------------------------------------------------------- predict

def cmd_predict(args) -> int:
    from . import model_io

    model = model_io.load_model(args.model)
    count = 0
    last = None  # the sentence written last
    with atomic_writer(args.out_conll) as write:
        for items in _read_passes(args.in_conll):
            preds = model.tag([item.sentence for item in items],
                              args.constrained)
            out_items = [
                conll.ConllSentence(item.doc_id, item.sentence, tags)
                for item, tags in zip(items, preds)
            ]
            write(conll.write_conll(out_items, last).encode("utf-8"))
            last = out_items[-1]
            count += len(out_items)
    print(f"tagged {count} sentences -> {args.out_conll}")
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
    from . import metrics, model_io

    thresholds = _parse_min_flags(args.min or [])
    model = model_io.load_model(args.model)
    gold, preds = [], []
    for items in _read_passes(args.conll):
        gold += [item.tags for item in items]
        preds += model.tag([item.sentence for item in items], args.constrained)
    _check_tagged(gold, args.conll)
    _check_labels({t for tags in gold for t in tags} - set(model.label_set),
                  args.conll)
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
    from . import synthetic

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
