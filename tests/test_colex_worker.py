"""colex_order's forked sup worker: same answers as the in-process path,
taken only where it pays, and a failed worker changes nothing the caller
sees. The worker serves only the engine prunings, colex_order's fallback
from policy iteration, so every test caps policy iteration at 0 rankings.
Every test leaves no child process behind."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from copar import _kernels as K
from copar import cli, colex
from copar.automaton import serialize_automaton
from copar.examples import example_width_two_dfa
from copar.generators import gen_random_dfa

BIG_EDGES = 6000
assert BIG_EDGES >= colex.WORKER_MIN_EDGES


def _big(seed: int = 0):
    return gen_random_dfa(3000, 4, seed, m=BIG_EDGES)


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls, as if the process may run on two CPUs with the
    pure-Python kernels (a numba run does not fork)."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(colex, "HAVE_NUMBA", False)
    return calls


@pytest.fixture(autouse=True)
def engine_prunings(monkeypatch):
    monkeypatch.setattr(colex, "MAX_POLICY_ITERATIONS", 0)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_process(a, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(colex, "WORKER_MIN_EDGES", a.m + 1)
        return colex.colex_order(a)


def _assert_same(got, want):
    assert np.array_equal(got.inf_rank, want.inf_rank)
    assert np.array_equal(got.sup_rank, want.sup_rank)
    assert got.chains == want.chains
    assert (got.width, got.rounds) == (want.width, want.rounds)


@pytest.mark.parametrize("seed", range(6))
def test_worker_gives_the_in_process_answer(seed, forks, monkeypatch):
    a = _big(seed)
    _assert_same(colex.colex_order(a), _in_process(a, monkeypatch))
    assert len(forks) == 1
    sup = colex._prunings(a)[1]
    want = colex.refine_with_pruning(a, "sup")
    assert np.array_equal(sup.kept_src, want.kept_src)
    assert sup.partition == want.partition and not sup.partition.members.flags.writeable
    assert (sup.rounds, sup.max_splitter_count) == (want.rounds, want.max_splitter_count)
    assert sup.surviving_edges() == want.surviving_edges()
    assert sup.deleted_edges() == want.deleted_edges()


def test_worker_runs_only_where_it_pays(forks, monkeypatch):
    prune = colex.refine_with_pruning
    colex.colex_order(example_width_two_dfa())
    assert forks == []
    a = _big()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    colex.colex_order(a)
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    other.start()
    try:
        colex.colex_order(a)
    finally:
        stop.set()
        other.join(30)
    assert not other.is_alive()
    assert forks == []
    with monkeypatch.context() as mp:
        mp.setattr(colex, "HAVE_NUMBA", True)
        colex.colex_order(a)
    assert forks == []
    with monkeypatch.context() as mp:  # as perfbench/trace.py wraps it
        mp.setattr(colex, "refine_with_pruning", lambda *args, **kw: prune(*args, **kw))
        colex.colex_order(a)
    assert forks == []
    colex.colex_order(a)
    assert len(forks) == 1


def test_killed_worker_falls_back_to_the_in_process_pruning(forks, monkeypatch):
    a = _big()
    want = _in_process(a, monkeypatch)
    parent = os.getpid()
    run_full = K.run_full

    def killed_in_the_worker(*args):
        # the worker runs only the sup pruning
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_full(*args)

    monkeypatch.setattr(K, "run_full", killed_in_the_worker)
    _assert_same(colex.colex_order(a), want)
    assert len(forks) == 1


def test_failed_fork_falls_back_and_closes_the_pipe(monkeypatch):
    a = _big()
    want = _in_process(a, monkeypatch)

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(colex, "HAVE_NUMBA", False)
    fds = sorted(os.listdir("/proc/self/fd"))
    _assert_same(colex.colex_order(a), want)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_engine_status_error_in_both_processes_exits_1_once(tmp_path, capfd, forks, monkeypatch):
    def breach(regs, *args):
        regs[K.R_STATUS] = K.STATUS_HEAP_CAP

    path = tmp_path / "big.nfa"
    path.write_text(serialize_automaton(_big()))
    monkeypatch.setattr(K, "run_full", breach)
    assert cli.main(["colex", str(path)]) == 1
    assert len(forks) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: refinement engine invariant breached (status {K.STATUS_HEAP_CAP})\n"


def test_colex_stdout_equals_the_output_file(tmp_path):
    """A line buffered before the fork reaches stdout once, the worker
    writes nothing, and the result on stdout equals the -o file byte for
    byte. The parent notes each fork on stderr."""
    src = tmp_path / "big.nfa"
    src.write_text(serialize_automaton(_big()))
    dst = tmp_path / "out.txt"
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "real_fork = os.fork\n"
        "def fork():\n"
        "    pid = real_fork()\n"
        "    if pid:\n"
        "        sys.stderr.write('forked\\n')\n"
        "    return pid\n"
        "os.fork = fork\n"
        "import copar.colex\n"
        "copar.colex.HAVE_NUMBA = False\n"
        "copar.colex.MAX_POLICY_ITERATIONS = 0\n"
        "from copar.cli import main\n"
        "sys.stdout.write('# buffered\\n')\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe must be block-buffered
    runs = [
        subprocess.run([sys.executable, "-c", code, "colex", str(src), *extra],
                       capture_output=True, env=env, timeout=120)
        for extra in ([], ["-o", str(dst)])
    ]
    for run in runs:
        assert run.returncode == 0 and run.stderr == b"forked\n", run.stderr
    assert runs[1].stdout == b"# buffered\n"
    assert runs[0].stdout == b"# buffered\n" + dst.read_bytes()
    assert dst.read_bytes().startswith(b"RANKS 3000\n")


def test_worker_runs_with_no_stdout(tmp_path, forks, monkeypatch):
    """As under `copar colex BIG -o FILE 1>&-`, where sys.stdout is None."""
    src, dst = tmp_path / "big.nfa", tmp_path / "out.txt"
    a = _big()
    src.write_text(serialize_automaton(a))
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["colex", str(src), "-o", str(dst)]) == 0
    assert len(forks) == 1
    assert dst.read_text() == colex.serialize_colex(_in_process(a, monkeypatch))
