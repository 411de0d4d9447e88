"""Hash every output of the CLI pipeline on one synthetic seed, so that two
trees can be checked for byte-identical models, predictions and reports.

    python3 tests/ref_outputs.py --seed 7 OUT_DIR

In OUT_DIR, which must not exist yet, it runs the raretag sources of this
tree, each command as its own ``python -m raretag.cli`` process set up as
``perfbench/run.py`` sets up its stages:

- ``gen-synthetic`` of the benchmark's corpus (seed ``--seed``) and of its
  large corpus (``--seed`` plus ``LARGE_SEED_OFFSET``, no held-out split),
  then ``convert`` of the train and held-out splits and of the large corpus;
- ``train`` of the CRF and of the BiLSTM-CRF at the benchmark's configs
  (``perfbench/run.py``'s ``CONFIGS``, the CRF's with ``CRF_ITERATIONS``);
- for each model, ``predict`` of the large corpus with and without
  ``--constrained``, and ``evaluate`` of the large corpus and of the
  held-out split at both levels in all three formats.

It prints one ``md5  name`` line per output. A Brat directory is hashed as
its files' names and bytes in name order; a train manifest is hashed
without its durations and paths; an ``evaluate`` report is its stdout.
The script uses the standard library and the CLI only; pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# the config keys that hold paths, which a manifest copies from its config
PATH_KEYS = ("train", "validation", "model_out", "manifest_out", "history_out")


def load_benchmark():
    """``perfbench/run.py`` as a module, for its configs and corpus sizes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


def tree_bytes(directory: Path) -> bytes:
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return b"".join(str(p.relative_to(directory)).encode("utf-8") + b"\0"
                    + p.read_bytes() + b"\0" for p in files)


def manifest_bytes(path: Path) -> bytes:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["durations"], manifest["model_path"]
    for key in PATH_KEYS:
        manifest["config"].pop(key, None)
    return json.dumps(manifest, sort_keys=True).encode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    work = args.out_dir
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS"), bench.BLAS_THREADS)}

    def raretag(*argv: str) -> bytes:
        proc = subprocess.run([sys.executable, "-m", "raretag.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        if proc.returncode != 0:
            sys.exit(f"raretag {' '.join(argv)}: exit code {proc.returncode}"
                     f"\n{proc.stderr.decode('utf-8', 'replace')}")
        return proc.stdout

    outputs: dict[str, bytes] = {}
    raretag("gen-synthetic", "corpus", "--seed", str(args.seed),
            "--size", str(bench.CORPUS_SIZE))
    raretag("gen-synthetic", "large",
            "--seed", str(args.seed + bench.LARGE_SEED_OFFSET),
            "--size", str(bench.LARGE_CORPUS_SIZE), "--holdout-fraction", "0")
    for brat_dir in ("corpus", "large"):
        outputs[f"{brat_dir}/"] = tree_bytes(work / brat_dir)
    for brat_dir, out in (("corpus/train", "train.conll"),
                          ("corpus/heldout", "heldout.conll"),
                          ("large", "large.conll")):
        raretag("convert", brat_dir, out)
        outputs[out] = (work / out).read_bytes()

    for model, config in bench.CONFIGS.items():
        if model == "crf":
            config += bench.CRF_ITERATIONS
        (work / f"{model}.cfg").write_text(config, encoding="utf-8")
        raretag("train", f"{model}.cfg")
        model_file = bench.MODEL_FILES[model]
        outputs[model_file] = (work / model_file).read_bytes()
        history = work / f"{model_file}.history.csv"
        if history.exists():
            outputs[history.name] = history.read_bytes()
        manifest = f"{model_file}.manifest.json"
        outputs[manifest] = manifest_bytes(work / manifest)
        for flags, out in (((), f"pred-{model}.conll"), (
                ("--constrained",), f"pred-{model}-constrained.conll")):
            raretag("predict", model_file, "large.conll", out, *flags)
            outputs[out] = (work / out).read_bytes()
        for gold in ("large.conll", "heldout.conll"):
            for level in ("entity", "token"):
                for fmt in ("table", "tsv", "json-lines"):
                    outputs[f"evaluate {model} {gold} {level} {fmt}"] = raretag(
                        "evaluate", model_file, gold, "--level", level,
                        "--format", fmt)

    for name, data in outputs.items():
        print(f"{hashlib.md5(data).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
