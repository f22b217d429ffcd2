"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q

Run from the root of a copar checkout. Every workload must complete in both
modes with correct output, the traced run must write the CLI's bytes
(run.py fails the run otherwise), the metric names printed must be exactly
those of BENCHMARK.json, and the output checks must reject broken outputs.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_colex, check_sort  # noqa: E402
from workloads import WORKLOADS, standard_word, sturmian_prefix  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_completes_with_declared_metrics(workload, trace):
    p = smoke(workload, trace)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    for d in declared:
        assert result["metrics"][d["name"]]["unit"] == d["unit"]
        assert isinstance(result["metrics"][d["name"]]["value"], (int, float))
    printed = [ln.split()[1] for ln in p.stdout.splitlines() if ln.startswith("# ") and " = " in ln]
    assert printed == [d["name"] for d in declared]
    assert "HAVE_NUMBA=" in p.stdout


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = smoke("nfa-sort", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_sturmian_words():
    fib = [0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1]
    assert standard_word(len(fib), itertools.repeat(1)) == fib
    words = {tuple(sturmian_prefix(200, seed)) for seed in range(5)}
    assert len(words) > 1 and all(set(w) == {0, 1} for w in words)


SORT_OK = "ORDPART 3\n0: 0\n1: 2\n2: 1 3\nQUASI_WHEELER: true\n"
COLEX_OK = "RANKS 4\n0 0 0\n1 1 2\n2 1 3\n3 3 3\nCHAINS 2\n0 1 3\n2\n"


def test_checks_accept_good_outputs():
    assert check_sort(SORT_OK, 4, 0, True, False) == []
    assert check_colex(COLEX_OK, 4, 0) == []


@pytest.mark.parametrize("text,kwargs", [
    (SORT_OK.replace("2: 1 3", "2: 1"), {}),  # a state is missing
    (SORT_OK.replace("2: 1 3", "2: 1 2 3"), {}),  # a state is in two parts
    (SORT_OK.replace("2: 1 3", "2: 3 1"), {}),  # states out of order
    (SORT_OK.replace("0: 0\n1: 2", "0: 2\n1: 0"), {}),  # the source is not first
    (SORT_OK.replace("0: 0\n1: 2", "0: 0 2\n1: 2"), {}),  # source part is not a singleton
    (SORT_OK.replace("true", "false"), {}),  # flag must be true on this workload
    (SORT_OK.replace("ORDPART 3", "ORDPART 4"), {}),  # header count is wrong
    (SORT_OK, {"singletons": True}),  # a part has two states
])
def test_check_sort_rejects(text, kwargs):
    args = {"quasi_wheeler": True, "singletons": False} | kwargs
    assert check_sort(text, 4, 0, **args)


@pytest.mark.parametrize("text", [
    COLEX_OK.replace("1 1 2", "1 3 2"),  # inf > sup
    COLEX_OK.replace("0 0 0", "0 0 1"),  # source is not 0/0
    COLEX_OK.replace("0 1 3\n2", "0 1 3\n2 3"),  # a state is in two chains
    COLEX_OK.replace("0 1 3\n2", "0 1\n2"),  # a state is in no chain
    COLEX_OK.replace("0 1 3\n2", "0 2 1 3"),  # 2 -> 1 does not rise
    COLEX_OK.replace("CHAINS 2", "CHAINS 3"),  # count is wrong
])
def test_check_colex_rejects(text):
    assert check_colex(text, 4, 0)
