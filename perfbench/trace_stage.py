"""Run one raretag CLI stage in-process with a span around every layer call.

    python3 perfbench/trace_stage.py SPANS.json -- ARGV...

Wraps the public functions of each raretag module, calls
``raretag.cli.main(ARGV)`` and writes the spans, the counters and the
``time.monotonic()`` instants at which ``main`` started and ended to
SPANS.json. The process exits with ``main``'s exit code.

Each wrapper replaces the function under every name that refers to it in
any raretag module, so ``from``-imported names such as
``crf.sentence_features`` or ``neural.run_sequence`` are traced where they
are looked up. ``chain.logsumexp`` is left unwrapped: one CRF fit calls it
about half a million times, and a span per call would dwarf the work.

Counters named ``*_cells``, ``*_flops`` and ``crf.active_pairs`` are
computed from array sizes (T*L^2 per chain pass, 8*H*(D+H) per LSTM step
and direction, indices kept per token), not measured.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from raretag import (  # noqa: E402
    brat, chain, cli, conll, crf, embeddings, features, iob, lbfgs, lstm,
    metrics, model_io, neural, tokenizer,
)


class Tracer:
    """Spans ``(id, parent_id, name, start, end)`` and named counters."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.embedding_tables: list = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, count=None):
        """``fn`` with a span named ``name``; ``count(result, *args)`` runs
        after the span ends, so its bookkeeping stays out of the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(result, *args, **kwargs)
            return result

        return traced


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("raretag"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    c = tracer.counts

    def patch(name, owner, attr, count=None):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)

    def chain_cells(key):
        def count(result, scores, *args, **kwargs):
            T, L = scores.shape
            c[key] += T * L * L
        return count

    def count_index(result, model, token_features):
        looked = sum(len(feats) for feats in token_features)
        kept = sum(int(idx.size) for idx in result)
        c["crf.features_looked_up"] += looked
        c["crf.features_dropped"] += looked - kept
        c["crf.active_pairs"] += kept

    def count_lstm(result, cell, inputs, *args, **kwargs):
        H, D = cell.hidden_dim, cell.input_dim
        c["lstm.flops"] += 8 * H * (D + H) * inputs.shape[0]

    def count_load(result, *args, **kwargs):
        c["brat.docs"] += len(result[0].documents)

    def count_resolve(result, doc):
        c["brat.overlaps_dropped"] += (
            len(result.resolution_log) - len(doc.resolution_log))

    def count_tokens(result, *args, **kwargs):
        c["tokenizer.tokens"] += sum(len(s.tokens) for s in result)

    def count_written(result, *args, **kwargs):
        c["conll.bytes_written"] += len(result.encode("utf-8"))

    def count_saved(result, model, path):
        c["model_io.bytes"] += os.path.getsize(path)

    def count_minimize(result, *args, **kwargs):
        c["lbfgs.iterations"] += result.iterations

    def count_fit(result, *args, **kwargs):
        c["neural.epochs"] += len(result[1].epochs)

    def keep_table(result, *args, **kwargs):
        tracer.embedding_tables.append(result.embedding)

    def keep_loaded_table(result, *args, **kwargs):
        if isinstance(result, neural.BiLstmTagger):
            tracer.embedding_tables.append(result.embedding)

    patch("brat.load", brat, "load_corpus_dir", count_load)
    patch("brat.resolve", brat, "resolve_overlaps", count_resolve)
    patch("tokenizer.tokenize", tokenizer, "tokenize_document", count_tokens)
    patch("iob.encode", iob, "encode")
    patch("conll.read", conll, "read_conll")
    patch("conll.write", conll, "write_conll", count_written)
    patch("features.extract", features, "sentence_features")
    patch("crf.build_index", crf, "build_feature_index")
    patch("crf.index_tokens", crf.CrfModel, "index_tokens", count_index)
    patch("crf.train", crf, "train")
    patch("crf.viterbi", crf, "viterbi")
    patch("chain.forward_backward", chain, "forward_backward",
          chain_cells("chain.fb_cells"))
    patch("chain.viterbi", chain, "viterbi", chain_cells("chain.viterbi_cells"))
    patch("lstm.run_sequence", lstm, "run_sequence", count_lstm)
    patch("lstm.backprop_sequence", lstm, "backprop_sequence")
    patch("neural.build_tagger", neural, "build_tagger", keep_table)
    patch("neural.fit", neural, "fit", count_fit)
    patch("neural.loss_and_gradients", neural, "loss_and_gradients")
    patch("neural.val_loss", neural, "loss")
    patch("neural.clip", neural, "clip_gradients")
    patch("neural.adam_step", neural.AdamOptimizer, "step")
    patch("neural.predict", neural, "predict")
    patch("embeddings.build", embeddings, "random_table")
    patch("embeddings.build", embeddings, "load_text_format")
    patch("metrics.entity_level", metrics, "entity_level")
    patch("metrics.token_level", metrics, "token_level")
    patch("model_io.save", model_io, "save_model", count_saved)
    patch("model_io.load", model_io, "load_model", keep_loaded_table)

    # The CRF objective is a closure inside crf.train; trace it as the
    # callable that lbfgs.minimize receives.
    minimize = tracer.wrap("lbfgs.minimize", lbfgs.minimize, count_minimize)

    def minimize_with_traced_objective(fun, *args, **kwargs):
        return minimize(tracer.wrap("crf.objective", fun), *args, **kwargs)

    _replace_everywhere(lbfgs.minimize, minimize_with_traced_objective)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_stage.py SPANS.json -- ARGV...", file=sys.stderr)
        return 2
    out_path, cli_argv = Path(argv[0]), argv[2:]
    tracer = Tracer()
    install(tracer)
    main_start = time.monotonic()
    span_origin = time.perf_counter()
    rc = cli.main(cli_argv)
    main_end = time.monotonic()
    lookups = sum(t._lookups for t in tracer.embedding_tables)
    misses = sum(t._misses for t in tracer.embedding_tables)
    tracer.counts["embeddings.lookups"] += lookups
    tracer.counts["embeddings.misses"] += misses
    out_path.write_text(json.dumps({
        "rc": rc,
        "main_start": main_start,
        "main_end": main_end,
        "counts": tracer.counts,
        "spans": [(i, p, n, s - span_origin, e - span_origin)
                  for i, p, n, s, e in tracer.spans],
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
