"""scripts/worked_examples.py prints its pinned output byte for byte.

The script walks the bundled examples through sort, prune and colex, so any
change to an output of the pipeline shows here. tests/data/worked_examples.txt
holds the expected output; regenerate it with
  PYTHONPATH=src python scripts/worked_examples.py > tests/data/worked_examples.txt
only for a change that is meant to alter an output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from copar import cli

ROOT = Path(__file__).resolve().parents[1]


def test_worked_examples_output_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "worked_examples.py")], capture_output=True, env=env
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests" / "data" / "worked_examples.txt").read_bytes()
