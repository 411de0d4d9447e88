"""Tests of the benchmark's own checks and trace accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402

GOLD = """# doc_id = d1
Fabry\tfabry\tX\tB-RAREDISEASE
disease\tdisease\tX\tI-RAREDISEASE
causes\tcauses\tX\tO
pain\tpain\tX\tB-SYMPTOM

It\tit\tX\tO
hurts\thurts\tX\tO
"""


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def test_valid_prediction_passes(tmp_path):
    gold = _write(tmp_path / "gold.conll", GOLD)
    assert bench.check_prediction(gold, gold) == ("", 6)


def test_prediction_missing_a_token_is_caught(tmp_path):
    gold = _write(tmp_path / "gold.conll", GOLD)
    pred = _write(tmp_path / "pred.conll", GOLD.replace("causes\tcauses\tX\tO\n", ""))
    problem, _ = bench.check_prediction(gold, pred)
    assert "tokens differ" in problem


def test_prediction_missing_a_sentence_is_caught(tmp_path):
    gold = _write(tmp_path / "gold.conll", GOLD)
    pred = _write(tmp_path / "pred.conll", GOLD.split("\n\n")[0] + "\n")
    problem, _ = bench.check_prediction(gold, pred)
    assert "1 sentences, input has 2" in problem


def test_prediction_with_iob2_violation_is_caught(tmp_path):
    gold = _write(tmp_path / "gold.conll", GOLD)
    pred = _write(tmp_path / "pred.conll",
                  GOLD.replace("causes\tcauses\tX\tO", "causes\tcauses\tX\tI-SIGN"))
    problem, _ = bench.check_prediction(gold, pred)
    assert "IOB2 violation" in problem


def test_unreadable_prediction_is_caught(tmp_path):
    gold = _write(tmp_path / "gold.conll", GOLD)
    pred = _write(tmp_path / "pred.conll", "Fabry\tB-RAREDISEASE\n")
    problem, tokens = bench.check_prediction(gold, pred)
    assert "pred.conll" in problem and tokens == 0


def test_micro_f1_parse():
    report = "\n".join([
        json.dumps({"label": "SIGN", "f1": 0.5}),
        json.dumps({"label": "micro-avg", "f1": 0.8731}),
    ])
    assert bench.micro_f1(report) == 0.8731
    assert bench.micro_f1("error: no such file\n") is None


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(43)]
    value, pct = bench.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert abs(pct - 100 * 33 / 43) < 1e-12
    assert bench.tail(samples[:10]) == (0.0, 0.0)


def _tiny_setup(runner: bench.Runner, d: Path, traced: bool) -> None:
    d.mkdir()
    runner.stage(d, ["gen-synthetic", "corpus", "--seed", "3", "--size", "12"],
                 traced)
    for split in ("train", "heldout"):
        runner.convert(d, f"corpus/{split}", f"{split}.conll", traced)


def test_sub_gate_f1_is_caught(tmp_path):
    runner = bench.Runner(seed=3, deadline=time.monotonic() + 120)
    _tiny_setup(runner, tmp_path / "w", traced=False)
    # an untrained CRF tags everything O, so its entity micro-F1 is 0
    _write(tmp_path / "w" / "crf.cfg", bench.CONFIGS["crf"] + "max_iterations = 0\n")
    runner.train(tmp_path / "w", "crf", traced=False)
    assert runner.checks.failed == 0
    stages = runner.tag_and_score(tmp_path / "w", "crf", "heldout.conll",
                                  "heldout.conll", traced=False)
    assert stages[1].f1 == 0.0
    assert any("micro-F1 0.0 below 0.95" in m for m in runner.checks.messages)
    assert any("exit code 2" in m for m in runner.checks.messages)
    assert bench.figures(stages)["entity_micro_f1"] == 0.0


def test_computed_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        runner = bench.Runner(seed=3, deadline=time.monotonic() + 120)
        d = tmp_path / f"run{attempt}"
        _tiny_setup(runner, d, traced=True)
        _write(d / "crf.cfg", bench.CONFIGS["crf"] + "max_iterations = 3\n")
        stages = [runner.train(d, "crf", traced=True)]
        stages += runner.tag_and_score(d, "crf", "train.conll", "heldout.conll",
                                       traced=True)
        layers, _ = bench.per_layer(stages, 1.0, 1.0)
        counts.append({k: v for k, (v, unit) in layers.items()
                       if k in ("chain.fb_cells", "chain.viterbi_cells",
                                "crf.active_pairs", "lbfgs.objective_evals",
                                "chain.forward_backward_calls")})
    assert counts[0] == counts[1]
    assert counts[0]["chain.fb_cells"] > 0 and counts[0]["crf.active_pairs"] > 0


def test_wrappers_replace_names_where_they_are_looked_up():
    # in a child process, so the wrappers never reach other tests' modules
    code = """
import trace_stage
from raretag import chain, crf, lbfgs, lstm, neural
trace_stage.install(trace_stage.Tracer())
for fn in (crf.sentence_features, neural.run_sequence, lstm.run_sequence,
           neural.backprop_sequence, crf.viterbi, chain.forward_backward):
    assert hasattr(fn, "__wrapped__"), fn
assert neural.run_sequence is lstm.run_sequence
assert not hasattr(chain.logsumexp, "__wrapped__")
assert lbfgs.minimize.__name__ == "minimize_with_traced_objective"
"""
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                   timeout=60)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "crf-train", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
