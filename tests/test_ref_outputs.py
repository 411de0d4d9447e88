"""Every output of the CLI pipeline on synthetic seed 7, byte for byte.

``tests/ref_outputs.py --seed 7`` hashes the corpora, the CoNLL files, both
models, their manifests and history, every prediction and every evaluate
report; ``data/ref_outputs_seed7.txt`` holds its output as committed. Float
results may differ between interpreter and numpy builds, so the committed
file names the versions it was made with, and another version fails here
rather than passing unchecked.
"""

import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
COMMITTED = TESTS / "data" / "ref_outputs_seed7.txt"


def hashes(lines):
    """``{name: md5}`` of ``md5  name`` lines."""
    return {name: md5 for md5, name in (line.split("  ", 1) for line in lines)}


def test_seed_7_outputs_are_the_committed_ones(tmp_path):
    header, *lines = COMMITTED.read_text(encoding="utf-8").splitlines()
    made_with = re.search(r"Python (\S+) and numpy (\S+)", header).groups()
    running = (platform.python_version(), np.__version__)
    if running != made_with:
        pytest.fail("the committed hashes were made with Python {} and numpy "
                    "{}; this is Python {} and numpy {}".format(*made_with,
                                                                *running))
    proc = subprocess.run(
        [sys.executable, str(TESTS / "ref_outputs.py"), "--seed", "7",
         str(tmp_path / "out")], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    expected, got = hashes(lines), hashes(proc.stdout.splitlines())
    differing = [name for name in {**expected, **got}
                 if expected.get(name) != got.get(name)]
    assert not differing, (f"outputs that differ from {COMMITTED.name}: "
                           + ", ".join(differing))
