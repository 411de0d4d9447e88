"""Benchmark of the raretag CLI on synthetic corpora.

    python3 perfbench/run.py --workload crf-train --seed 7 --seconds 45 --trace 0

A run first sets up its inputs from ``--seed`` (``gen-synthetic`` and
``convert``), then repeats the workload's timed round (train a model,
convert a separate corpus, tag and score it) until ``--seconds`` have been
measured. Every stage is its own ``raretag`` child process, started from
this one parent and run one at a time; a metric counts each distinct stage
once, at the median wall time of its executions. Every output is checked;
each check counts in ``attempted`` and, if it fails, in ``failed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
sets up once, runs one round with every stage under ``trace_stage.py``
(spans around each layer), then one untraced round, and reports the
per-layer metrics, including the tracing overhead (traced minus untraced
``wall_s``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, every stage and per-model figures. Without the raretag
sources beside this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_STAGE = HERE / "trace_stage.py"
WORK = ROOT / ".bench_work"

WORKLOADS = ("crf-train", "bilstm-crf-train")
MODEL_FILES = {"crf": "crf.model", "bilstm-crf": "bilstm-crf.model"}
F1_GATES = {"crf": 0.95, "bilstm-crf": 0.90}
CORPUS_SIZE = 200
# the corpus that each round converts, tags and scores: 300 documents,
# about 1k sentences and 11k tokens, unseen in training
LARGE_CORPUS_SIZE = 300
LARGE_SEED_OFFSET = 4  # the default seed 7 pairs with large-corpus seed 11
MODEL_SEED = 7
BILSTM_EPOCHS = 4
# On a shared 2-vCPU host the speed of the CPU drifts by 15% within seconds,
# so every stage is repeated across the run and reported at its median.
SETUP_REPEATS = 3
# The CRF runs exactly 15 L-BFGS iterations (about 6 s, not 13 to
# convergence), so that every seed does the same amount of optimisation and
# five rounds fit in a run. It scores held-out F1 at least 0.99 on every
# seed tried; 8 iterations fall below the 0.95 gate.
CRF_ITERATIONS = "max_iterations = 15\nconvergence_tol = 0\n"
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0

CONFIGS = {
    # the README's CRF config; set-up appends CRF_ITERATIONS
    "crf": "model_kind = crf\ntrain = train.conll\nmodel_out = crf.model\n",
    # the acceptance config, with patience above max_epochs so that early
    # stopping cannot change the amount of work
    "bilstm-crf": (
        "model_kind = bilstm-crf\ntrain = train.conll\n"
        "validation = heldout.conll\nembedding = random\n"
        "embedding_dim = 24\nhidden_dim = 24\nbatch_size = 16\n"
        f"learning_rate = 0.01\nseed = {MODEL_SEED}\n"
        f"max_epochs = {BILSTM_EPOCHS}\npatience = {BILSTM_EPOCHS + 1}\n"
        "model_out = bilstm-crf.model\n"
    ),
}

# per-layer counts derived from array shapes rather than timed or counted
COMPUTED_COUNTS = ("chain.fb_cells", "chain.viterbi_cells", "lstm.flops",
                   "crf.active_pairs")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_s": "s",
    "convert_tokens_per_s": "tok/s",
    "predict_tokens_per_s": "tok/s",
    "evaluate_s": "s",
    "entity_micro_f1": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Stage:
    """One finished child process."""

    argv: list[str]
    model: str | None
    wall_s: float
    rc: int
    rss_mb: float
    stdout: str
    tokens: int = 0
    f1: float | None = None
    trace: dict | None = None
    startup_s: float | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


class Runner:
    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.checks = Checks()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self._count = 0

    # ------------------------------------------------------------ stages

    def stage(self, cwd: Path, argv: list[str], traced: bool,
              model: str | None = None) -> Stage:
        self._count += 1
        tag = f"{self._count:03d}-{argv[0]}"
        spans_path = cwd / f"{tag}.spans.json"
        if traced:
            cmd = [sys.executable, str(TRACE_STAGE), str(spans_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "raretag.cli", *argv]
        out_path = cwd / f"{tag}.out"
        remaining = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(cwd / f"{tag}.err", "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        stage = Stage(argv, model, wall, proc.returncode,
                      usage.ru_maxrss / 1024.0,
                      out_path.read_text(encoding="utf-8", errors="replace"))
        ok = self.checks.record(
            stage.rc == 0, f"{' '.join(argv)}: exit code {stage.rc}")
        if traced and spans_path.exists():
            stage.trace = json.loads(spans_path.read_text(encoding="utf-8"))
            stage.startup_s = stage.trace["main_start"] - started
        print(f"stage {' '.join(argv)}  wall={wall:.4f}s rc={stage.rc} "
              f"rss={stage.rss_mb:.1f}MB", flush=True)
        if not ok:
            err_text = (cwd / f"{tag}.err").read_text(errors="replace")
            print(f"  stderr: {err_text.strip()[-500:]}", flush=True)
        return stage

    # ------------------------------------------------------------ set-up

    def setup(self, d: Path, traced: bool) -> list[Stage]:
        d.mkdir(parents=True)
        stages = [self.stage(d, ["gen-synthetic", "corpus", "--seed",
                                 str(self.seed), "--size", str(CORPUS_SIZE)],
                             traced)]
        self.check_docs(d / "corpus", CORPUS_SIZE)
        for split in ("train", "heldout"):
            stages.append(self.convert(d, f"corpus/{split}", f"{split}.conll",
                                       traced))
        for model, text in CONFIGS.items():
            if model == "crf":
                text += CRF_ITERATIONS
            (d / f"{model}.cfg").write_text(text, encoding="utf-8")
        stages.append(self.stage(
            d, ["gen-synthetic", "large",
                "--seed", str(self.seed + LARGE_SEED_OFFSET),
                "--size", str(LARGE_CORPUS_SIZE),
                "--holdout-fraction", "0"], traced))
        self.check_docs(d / "large", LARGE_CORPUS_SIZE)
        return stages

    def check_docs(self, brat_dir: Path, expected: int) -> None:
        docs = count_docs(brat_dir)
        self.checks.record(docs == expected,
                           f"gen-synthetic wrote {docs} documents, not {expected}")

    def convert(self, d: Path, brat_dir: str, out: str, traced: bool) -> Stage:
        stage = self.stage(d, ["convert", brat_dir, out], traced)
        if stage.rc == 0:
            problems, stage.tokens = check_converted(
                d / out, stage.stdout, count_docs(d / brat_dir))
            self.checks.record(not problems, f"convert {brat_dir}: {problems}")
        return stage

    def train(self, d: Path, model: str, traced: bool) -> Stage:
        stage = self.stage(d, ["train", f"{model}.cfg"], traced, model)
        if stage.rc == 0:
            manifest = json.loads((d / f"{MODEL_FILES[model]}.manifest.json")
                                  .read_text(encoding="utf-8"))
            if model == "bilstm-crf":
                epochs = manifest["metrics"]["stopped_epoch"]
                self.checks.record(
                    epochs == BILSTM_EPOCHS,
                    f"train {model}: stopped at epoch {epochs}, "
                    f"not {BILSTM_EPOCHS}")
        return stage

    # ------------------------------------------------------------ timed part

    def round(self, workload: str, d: Path, traced: bool) -> list[Stage]:
        """``train``, then ``convert``, tag and score the large corpus. The
        conversion, the shortest stage and mostly start-up, runs again at
        the end of the round, so that its median has twice the samples."""
        model = workload.removesuffix("-train")
        return [self.train(d, model, traced),
                self.convert(d, "large", "large.conll", traced),
                *self.tag_and_score(d, model, "large.conll", "large.conll",
                                    traced),
                self.convert(d, "large", "large.conll", traced)]

    def tag_and_score(self, d: Path, model: str, to_tag: str, gold: str,
                      traced: bool) -> list[Stage]:
        """``predict --constrained`` on ``to_tag``, the entity-level CI gate
        on ``gold``, then the token-level gate on the held-out split."""
        model_file = MODEL_FILES[model]
        gate = f"micro_f1={F1_GATES[model]}"
        predict = self.stage(
            d, ["predict", model_file, to_tag, f"pred-{model}.conll",
                "--constrained"], traced, model)
        if predict.rc == 0:
            problems, predict.tokens = check_prediction(
                d / to_tag, d / f"pred-{model}.conll")
            self.checks.record(not problems, f"predict {model}: {problems}")
        stages = [predict]
        for level, gold in (("entity", gold), ("token", "heldout.conll")):
            evaluate = self.stage(
                d, ["evaluate", model_file, gold, "--level", level,
                    "--format", "json-lines", "--min", gate], traced, model)
            f1 = micro_f1(evaluate.stdout)
            self.checks.record(
                f1 is not None and f1 >= F1_GATES[model],
                f"evaluate {model} {level}: micro-F1 {f1} below "
                f"{F1_GATES[model]}")
            if level == "entity":
                evaluate.f1 = f1 or 0.0
            stages.append(evaluate)
        return stages


# ---------------------------------------------------------------- checks

def count_docs(brat_dir: Path) -> int:
    return sum(1 for _ in brat_dir.rglob("*.txt"))


# The checks stream the CoNLL files rather than load them with raretag: a
# child's ru_maxrss includes this parent's peak resident size at the moment
# it was spawned, so this process must stay smaller than any child.

class CheckError(Exception):
    """An output file that cannot be read back."""


def conll_sentences(path: Path):
    """Yield each sentence of a CoNLL file as a list of column lists."""
    rows: list[list[str]] = []
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    if rows:
                        yield rows
                    rows = []
                    continue
                cols = line.split("\t")
                if len(cols) not in (3, 4):
                    raise CheckError(
                        f"{path.name} line {lineno}: {len(cols)} columns")
                rows.append(cols)
    except (OSError, UnicodeDecodeError) as err:
        raise CheckError(f"{path.name}: {err}") from None
    if rows:
        yield rows


def check_converted(path: Path, stdout: str, docs: int) -> tuple[str, int]:
    """Problems with a ``convert`` output ('' if none) and its token count."""
    sentences = tokens = 0
    try:
        for rows in conll_sentences(path):
            sentences += 1
            tokens += len(rows)
            # convert may write I- after O where it flattens a discontinuous
            # annotation, so only the presence of tags is checked here
            if any(len(cols) != 4 for cols in rows):
                return f"sentence {sentences - 1}: no tag column", tokens
    except CheckError as err:
        return str(err), tokens
    expected = f"converted {docs} documents, {sentences} sentences;"
    if not stdout.startswith(expected):
        return f"summary {stdout.strip()!r} does not match {expected!r}", tokens
    return "", tokens


def check_prediction(gold_path: Path, pred_path: Path) -> tuple[str, int]:
    """Problems with a ``predict --constrained`` output ('' if none) and the
    number of tokens it tagged: it must keep every sentence and token of its
    input and hold no IOB2 violation."""
    from raretag import iob

    tokens = 0
    gold, pred = conll_sentences(gold_path), conll_sentences(pred_path)
    try:
        for i, (g, p) in enumerate(zip_longest(gold, pred)):
            if g is None or p is None:
                n_gold = i + (g is not None) + sum(1 for _ in gold)
                n_pred = i + (p is not None) + sum(1 for _ in pred)
                return f"{n_pred} sentences, input has {n_gold}", tokens
            tokens += len(p)
            if [cols[0] for cols in g] != [cols[0] for cols in p]:
                return f"sentence {i}: tokens differ from the input", tokens
            if any(len(cols) != 4 for cols in p):
                return f"sentence {i}: no tag column", tokens
            tags = [cols[3] for cols in p]
            if iob.validate(tags):
                return f"sentence {i}: IOB2 violation in {tags}", tokens
    except (CheckError, iob.IobError) as err:
        return str(err), tokens
    return "", tokens


def micro_f1(report: str) -> float | None:
    """micro-avg F1 from an ``evaluate --format json-lines`` report."""
    for line in report.splitlines():
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict) and row.get("label") == "micro-avg":
            return float(row["f1"])
    return None


# ---------------------------------------------------------------- metrics

def figures(stages: list[Stage]) -> dict[str, float]:
    """End-to-end figures of one typical pass over ``stages``: each distinct
    stage (same argv) counts once, at the median wall of its executions. A
    figure is absent when no stage of its kind ran."""
    groups: dict[tuple, list[Stage]] = {}
    for s in stages:
        groups.setdefault(tuple(s.argv), []).append(s)
    typical = [(g[0], statistics.median(s.wall_s for s in g))
               for g in groups.values()]
    out = {"wall_s": sum(wall for _, wall in typical),
           "peak_rss_mb": max(s.rss_mb for s in stages)}
    by: dict[str, list[tuple[Stage, float]]] = {}
    for s, wall in typical:
        by.setdefault(s.command, []).append((s, wall))
        if s.model is not None:
            key = f"{s.command}_s.{s.model}"
            out[key] = out.get(key, 0.0) + wall
        if s.command == "predict":
            out[f"predict_tokens_per_s.{s.model}"] = s.tokens / wall
        if s.f1 is not None:
            out[f"entity_micro_f1.{s.model}"] = s.f1
    if "train" in by:
        out["train_s"] = sum(wall for _, wall in by["train"])
    for command in ("convert", "predict"):
        # tokens of the typical pass over its wall
        if command in by:
            out[f"{command}_tokens_per_s"] = (
                sum(s.tokens for s, _ in by[command])
                / sum(wall for _, wall in by[command]))
    if "evaluate" in by:
        out["evaluate_s"] = sum(wall for _, wall in by["evaluate"])
        out["entity_micro_f1"] = min(
            s.f1 or 0.0 for g in groups.values() for s in g
            if s.command == "evaluate" and "entity" in s.argv)
    return out


def end_to_end(setups: list[list[Stage]], rounds: list[list[Stage]]):
    """Figures of the rounds, with the set-ups' wall as ``setup_s``."""
    setup = figures([s for stages in setups for s in stages])
    out = figures([s for stages in rounds for s in stages])
    out["setup_s"] = setup["wall_s"]
    out["peak_rss_mb"] = max(out["peak_rss_mb"], setup["peak_rss_mb"])
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; (0, 0) with ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return 0.0, 0.0
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def per_layer(traced: list[Stage], traced_wall: float, untraced_wall: float
              ) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics (value, unit) and the self time of every layer."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    cli_self = 0.0
    for stage in traced:
        trace = stage.trace or {"spans": [], "counts": {},
                                "main_start": 0.0, "main_end": 0.0}
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
        child_time: dict[int | None, float] = {}
        for _, parent, _, start, end in trace["spans"]:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for span_id, _, name, start, end in trace["spans"]:
            dur = end - start
            layer = name.split(".")[0]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(dur)
            self_s[layer] = self_s.get(layer, 0.0) + dur - child_time.get(
                span_id, 0.0)
        cli_self += (trace["main_end"] - trace["main_start"]
                     - child_time.get(None, 0.0))

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return counts.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    objective_ms = [1e3 * x for x in durations.get("crf.objective", [])]
    batch_ms = [1e3 * x for x in durations.get("neural.loss_and_gradients", [])]
    obj_tail, obj_pct = tail(objective_ms)
    batch_tail, batch_pct = tail(batch_ms)
    evals = calls.get("crf.objective", 0)
    startups = [s.startup_s for s in traced if s.startup_s is not None]
    m = {
        "brat.load_s": (t("brat.load"), "s"),
        "brat.resolve_s": (t("brat.resolve"), "s"),
        "brat.docs": (n("brat.docs"), "count"),
        "brat.overlaps_dropped": (n("brat.overlaps_dropped"), "count"),
        "tokenizer.tokenize_s": (t("tokenizer.tokenize"), "s"),
        "tokenizer.tokens": (n("tokenizer.tokens"), "count"),
        "iob.encode_s": (t("iob.encode"), "s"),
        "conll.read_s": (t("conll.read"), "s"),
        "conll.write_s": (t("conll.write"), "s"),
        "conll.bytes_written": (n("conll.bytes_written"), "B"),
        "features.extract_s": (t("features.extract"), "s"),
        "crf.build_index_s": (t("crf.build_index"), "s"),
        "crf.index_tokens_s": (t("crf.index_tokens"), "s"),
        "crf.unseen_feature_rate": (
            ratio(n("crf.features_dropped"), n("crf.features_looked_up")),
            "ratio"),
        "crf.active_pairs": (n("crf.active_pairs"), "count"),
        "crf.viterbi_s": (t("crf.viterbi"), "s"),
        "crf.objective_s": (t("crf.objective"), "s"),
        "crf.objective_calls": (evals, "count"),
        "crf.objective_ms_p50": (
            statistics.median(objective_ms) if objective_ms else 0.0, "ms"),
        "crf.objective_ms_tail": (obj_tail, "ms"),
        "crf.objective_tail_pct": (obj_pct, "%"),
        "crf.self_s": (self_s.get("crf", 0.0), "s"),
        "chain.forward_backward_s": (t("chain.forward_backward"), "s"),
        "chain.forward_backward_calls": (
            calls.get("chain.forward_backward", 0), "count"),
        "chain.fb_cells": (n("chain.fb_cells"), "count"),
        "chain.fb_ns_per_cell": (
            1e9 * ratio(t("chain.forward_backward"), n("chain.fb_cells")),
            "ns"),
        "chain.viterbi_s": (t("chain.viterbi"), "s"),
        "chain.viterbi_calls": (calls.get("chain.viterbi", 0), "count"),
        "chain.viterbi_cells": (n("chain.viterbi_cells"), "count"),
        "lbfgs.iterations": (n("lbfgs.iterations"), "count"),
        "lbfgs.objective_evals": (evals, "count"),
        "lbfgs.evals_per_iteration": (
            ratio(evals, n("lbfgs.iterations")), "ratio"),
        "lbfgs.self_s": (self_s.get("lbfgs", 0.0), "s"),
        "lstm.run_sequence_s": (t("lstm.run_sequence"), "s"),
        "lstm.run_sequence_calls": (calls.get("lstm.run_sequence", 0),
                                    "count"),
        "lstm.backprop_sequence_s": (t("lstm.backprop_sequence"), "s"),
        "lstm.flops": (n("lstm.flops"), "count"),
        "lstm.gflops_per_s": (
            1e-9 * ratio(n("lstm.flops"), t("lstm.run_sequence")), "GFLOP/s"),
        "neural.loss_and_gradients_s": (t("neural.loss_and_gradients"), "s"),
        "neural.batch_ms_p50": (
            statistics.median(batch_ms) if batch_ms else 0.0, "ms"),
        "neural.batch_ms_tail": (batch_tail, "ms"),
        "neural.batch_tail_pct": (batch_pct, "%"),
        "neural.batches": (len(batch_ms), "count"),
        "neural.self_s": (self_s.get("neural", 0.0), "s"),
        "neural.adam_step_s": (t("neural.adam_step"), "s"),
        "neural.clip_s": (t("neural.clip"), "s"),
        "neural.val_loss_s": (t("neural.val_loss"), "s"),
        "neural.epochs": (n("neural.epochs"), "count"),
        "neural.predict_s": (t("neural.predict"), "s"),
        "embeddings.build_s": (t("embeddings.build"), "s"),
        "embeddings.oov_rate": (
            ratio(n("embeddings.misses"), n("embeddings.lookups")), "ratio"),
        "metrics.entity_level_s": (t("metrics.entity_level"), "s"),
        "metrics.token_level_s": (t("metrics.token_level"), "s"),
        "model_io.save_s": (t("model_io.save"), "s"),
        "model_io.load_s": (t("model_io.load"), "s"),
        "model_io.bytes": (n("model_io.bytes"), "B"),
        "cli.self_s": (cli_self, "s"),
        "cli.startup_s": (statistics.median(startups) if startups else 0.0,
                          "s"),
        "cli.stages": (len(traced), "count"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_frac": (ratio(traced_wall - untraced_wall,
                                      untraced_wall), "ratio"),
    }
    self_s["cli"] = cli_self
    return m, self_s


# ---------------------------------------------------------------- main

def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        # the ceiling keeps git from searching above a checkout without .git
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload, "seed": seed,
        "large_corpus_seed": seed + LARGE_SEED_OFFSET,
        "model_seed": MODEL_SEED, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": _version("numpy"),
        "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
        "pythonhashseed": 0, "commit": commit,
        "machine": platform.machine(), "system": platform.system(),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    runner = Runner(seed, started + RUN_LIMIT_S)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if trace:
            d = work / "traced"
            setup = runner.setup(d, traced=True)
            traced_round = runner.round(workload, d, traced=True)
            untraced_round = runner.round(workload, d, traced=False)
            traced_wall = sum(s.wall_s for s in traced_round)
            untraced_wall = sum(s.wall_s for s in untraced_round)
            metrics, self_s = per_layer(setup + traced_round, traced_wall,
                                        untraced_wall)
            details = {}
            print("layers by self time: " + ", ".join(
                f"{layer} {t:.3f}s" for layer, t in
                sorted(self_s.items(), key=lambda kv: -kv[1])))
            print("computed from array sizes, not measured: "
                  + ", ".join(COMPUTED_COUNTS))
        else:
            setups = []
            for i in range(SETUP_REPEATS):
                d = work / f"setup{i}"
                setups.append(runner.setup(d, traced=False))
            # whole rounds, the last one only if at least half of it fits
            # in --seconds, and none that would pass the deadline
            rounds = [runner.round(workload, d, False)]
            first = sum(s.wall_s for s in rounds[0])
            while (sum(s.wall_s for r in rounds for s in r) + first / 2
                   < seconds and time.monotonic() + first < runner.deadline):
                rounds.append(runner.round(workload, d, False))
            all_figures = end_to_end(setups, rounds)
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in all_figures.items() if k in END_TO_END_UNITS}
            details = {k: v for k, v in all_figures.items()
                       if k not in END_TO_END_UNITS}
            print(f"setups={len(setups)} rounds={len(rounds)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for name, value in sorted(details.items()):
        unit = END_TO_END_UNITS.get(name.split(".")[0], "s")
        print(f"detail {name} {value:.6g} {unit}")
    return {"checks": runner.checks, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "raretag" / "cli.py").is_file():
        print(f"error: raretag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # end through SystemExit, so that a running stage is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print("env " + json.dumps(environment(
        args.workload, args.seed, args.seconds, args.trace)), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    checks = result["checks"]
    for message in checks.messages:
        print(f"check failed: {message}")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"failed_frac {checks.failed / max(checks.attempted, 1):.6g} ratio")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
