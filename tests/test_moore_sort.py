"""wheeler_preorder's ordered Moore rounds against the engine: on inputs
that are no tree, the same ORDPART bytes and flag, no engine run where the
rounds settle and one where they fall back, and each fallback taken."""

from __future__ import annotations

import random

import pytest

from copar import partition, refine
from copar.automaton import Automaton, path_dfa, serialize_ordered_partition
from copar.generators import gen_random_dfa, gen_random_nfa, gen_wheeler_nfa


@pytest.fixture(autouse=True)
def python_backend(monkeypatch):
    """The rounds run only with the pure-Python kernels; these tests run
    them on both backends."""
    monkeypatch.setattr(refine, "HAVE_NUMBA", False)


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts run_refinement calls. Both names are patched with one wrapper,
    so the gate still lets the rounds run."""
    calls = []
    run = partition.run_refinement

    def counted(ref):
        calls.append(ref.n)
        run(ref)

    monkeypatch.setattr(partition, "run_refinement", counted)
    monkeypatch.setattr(refine, "run_refinement", counted)
    return calls


@pytest.fixture
def stable_checks(monkeypatch):
    """The verdicts of _forward_stable, which runs once per fixpoint."""
    verdicts = []
    check = refine._forward_stable

    def recorded(*args):
        verdicts.append(check(*args))
        return verdicts[-1]

    monkeypatch.setattr(refine, "_forward_stable", recorded)
    return verdicts


def _engine(a: Automaton, monkeypatch) -> refine.WheelerPreorder:
    """wheeler_preorder forced onto the engine by a wrapper the gate sees."""
    run = refine.run_refinement
    with monkeypatch.context() as mp:
        mp.setattr(refine, "run_refinement", lambda ref: run(ref))
        return refine.wheeler_preorder(a)


def _same(a: Automaton, monkeypatch, engine_runs: list) -> int:
    """The engine runs of wheeler_preorder on the non-tree a, 0 or 1, after
    checking that its bytes and flag are the engine's and its engine fields
    0 where no engine ran."""
    assert a.m > a.n - 1
    engine_runs.clear()
    got = refine.wheeler_preorder(a)
    runs = len(engine_runs)
    want = _engine(a, monkeypatch)
    assert engine_runs == [a.n] * (runs + 1)
    assert serialize_ordered_partition(got.partition) == serialize_ordered_partition(want.partition)
    assert got.quasi_wheeler == want.quasi_wheeler
    if runs == 0:
        assert got.quasi_wheeler and (got.rounds, got.max_splitter_count) == (0, 0)
    return runs


def _random_input(rng: random.Random) -> Automaton:
    """A seeded Wheeler NFA, random DFA or random NFA with n <= 40, m >= n."""
    n = rng.randint(3, 40)
    sigma = rng.randint(1, min(4, n - 1))
    seed = rng.randrange(10**6)
    family = rng.randrange(3)
    if family == 0:
        return gen_wheeler_nfa(n, rng.randint(n, (sigma + 1) * (n - 1)), sigma, seed)
    if family == 1:
        return gen_random_dfa(n, sigma, seed, m=rng.randint(n, sigma * n))
    return gen_random_nfa(n, sigma, seed, m=rng.randint(n, 3 * (n - 1)))


def test_same_output_on_small_random_inputs(monkeypatch, engine_runs, stable_checks):
    rng = random.Random(28)
    tally = {"moore": 0, "engine": 0, "unstable": 0}
    for _ in range(1500):
        stable_checks.clear()
        runs = _same(_random_input(rng), monkeypatch, engine_runs)
        tally["engine" if runs else "moore"] += 1
        tally["unstable"] += stable_checks == [False]
        # the engine runs exactly where no fixpoint passed the stability check
        assert runs == (stable_checks != [True])
    assert tally["moore"] > 300 and tally["engine"] > 300 and tally["unstable"] > 0, tally


@pytest.mark.parametrize(
    ("make", "runs"),
    [
        (lambda: gen_wheeler_nfa(2_000, 5_000, 3, 1), 0),
        (lambda: gen_wheeler_nfa(10_000, 30_000, 4, 2), 0),
        (lambda: gen_random_dfa(3_000, 2, 3, m=4_000), 1),
        (lambda: gen_random_nfa(10_000, 3, 4, m=3 * 9_999), 1),
    ],
    ids=["wheeler-2e3", "wheeler-1e4", "dfa-3e3", "nfa-1e4"],
)
def test_same_output_on_larger_inputs(make, runs, monkeypatch, engine_runs):
    assert _same(make(), monkeypatch, engine_runs) == runs


def test_a_failed_round_check_falls_back(monkeypatch, engine_runs, stable_checks):
    """nfa-sort's shape: two same-letter classes whose in-neighbours
    interleave after a round, whatever the cap, so the rounds stop before
    any fixpoint and the engine finds no Wheeler order either."""
    a = gen_random_nfa(300, 3, 7, m=3 * 299)
    monkeypatch.setattr(refine, "MAX_MOORE_ROUNDS", a.n)
    assert _same(a, monkeypatch, engine_runs) == 1
    assert stable_checks == [] and not refine.wheeler_preorder(a).quasi_wheeler


def test_an_unstable_fixpoint_falls_back(monkeypatch, engine_runs, stable_checks):
    a = gen_random_nfa(4, 2, 2)
    assert _same(a, monkeypatch, engine_runs) == 1
    assert stable_checks[0] is False


def test_the_round_cap_falls_back(monkeypatch, engine_runs, stable_checks):
    """A Sturmian path with one more edge from the source is quasi-Wheeler
    and takes about 0.6 n rounds: past the cap the engine runs, and under a
    cap of n the rounds settle, with the same bytes."""
    rng = random.Random(40)
    word, prev = [0], [1]
    while len(word) < 39:
        word, prev = word * rng.randint(1, 3) + prev, word
    path = path_dfa(word[:39])
    a = Automaton(40, 2, 0, list(path.edges()) + [(0, 2, word[1])])
    assert _same(a, monkeypatch, engine_runs) == 1
    assert stable_checks == []
    monkeypatch.setattr(refine, "MAX_MOORE_ROUNDS", a.n)
    assert _same(a, monkeypatch, engine_runs) == 0
    assert stable_checks == [True]
