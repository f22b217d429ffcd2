"""colex_order's policy iteration against the engine prunings: the same
bytes and doubling rounds on every input family, the engine prunings as
the fallback once the iterations reach MAX_POLICY_ITERATIONS, and the
fast path only where the policy-iteration gate allows it."""

from __future__ import annotations

import collections
import os
import random

import numpy as np
import pytest

from copar import colex, prune
from copar.automaton import Automaton, path_dfa
from copar.generators import gen_random_dfa


@pytest.fixture(autouse=True)
def python_backend(monkeypatch):
    """Policy iteration runs only with the pure-Python kernels; these tests
    run it on both backends."""
    monkeypatch.setattr(colex, "HAVE_NUMBA", False)


@pytest.fixture
def rankings(monkeypatch):
    """Counts suffix_doubling_ranks calls: one per policy iteration, and one
    after the engine prunings."""
    calls = []
    ranks = colex.suffix_doubling_ranks

    def counted(*args, **kw):
        calls.append(1)
        return ranks(*args, **kw)

    monkeypatch.setattr(colex, "suffix_doubling_ranks", counted)
    return calls


@pytest.fixture
def prunings(monkeypatch):
    """Records the direction of each refine_with_pruning call. Both names
    are patched with one wrapper, so the fast path's gate still holds."""
    calls = []
    run = prune.refine_with_pruning

    def recorded(a, direction, **kw):
        calls.append(direction)
        return run(a, direction, **kw)

    monkeypatch.setattr(prune, "refine_with_pruning", recorded)
    monkeypatch.setattr(colex, "refine_with_pruning", recorded)
    return calls


def _engine(a: Automaton, monkeypatch) -> colex.ColexResult:
    with monkeypatch.context() as mp:
        mp.setattr(colex, "MAX_POLICY_ITERATIONS", 0)
        return colex.colex_order(a)


def _iterations(a: Automaton, monkeypatch, rankings: list) -> int:
    """The fast path's iteration count on a, after checking that its bytes
    and doubling rounds are the engine path's."""
    rankings.clear()
    got = colex.colex_order(a)
    iterations = len(rankings)
    assert iterations <= colex.MAX_POLICY_ITERATIONS
    want = _engine(a, monkeypatch)
    assert colex.serialize_colex(got) == colex.serialize_colex(want)
    assert got.rounds == want.rounds
    return iterations


def _sturmian_path(n: int, seed: int) -> Automaton:
    """Path DFA of a length-(n - 1) standard Sturmian word, directive digits
    drawn from 1..3."""
    rng = random.Random(seed)
    word, prev = [0], [1]
    while len(word) < n - 1:
        word, prev = word * rng.randint(1, 3) + prev, word
    return path_dfa(word[: n - 1])


def _cycle_dfa(n: int, sigma: int, seed: int, extra: int) -> Automaton:
    """The source enters a cycle 1 -> 2 -> ... -> n-1 -> 1, plus up to
    extra random chords; each state keeps one in-letter."""
    rng = random.Random(seed)
    lam = [-1] + list(range(sigma)) + [rng.randrange(sigma) for _ in range(n - 1 - sigma)]
    slots: set[tuple[int, int]] = set()
    edges = []
    pairs = [(0, 1)] + [(v, v + 1) for v in range(1, n - 1)] + [(n - 1, 1)]
    pairs += [(rng.randrange(n), rng.randrange(1, n)) for _ in range(extra)]
    for u, v in pairs:
        if (u, lam[v]) not in slots:
            slots.add((u, lam[v]))
            edges.append((u, v, lam[v]))
    return Automaton(n, sigma, 0, edges)


def _ladder(k: int) -> Automaton:
    """A DFA on which policy iteration takes k + 1 iterations, with about
    k^2 + 3k states.

    State v_j (in-letter 2) has two in-neighbours with in-letter 1: a trie
    state whose walk is 1 (21)^(j-1) 0^(k-j+1), and w_j, which follows
    v_(j-1) (v_0 is the source). Each v_j starts on the trie state, the
    smaller id, and switches to w_j only in the iteration after v_(j-1)
    switched, since the trie walk lies between w_j's walks before and after.
    """
    trie: dict[tuple[int, ...], int] = {(): 0}
    edges = []

    def state(word: tuple[int, ...]) -> int:
        if word not in trie:
            parent = state(word[:-1])
            trie[word] = len(trie)
            edges.append((parent, trie[word], word[-1]))
        return trie[word]

    fixed = [state((0,) * (k - j + 1) + (1, 2) * (j - 1) + (1,)) for j in range(1, k + 1)]
    prev, n = 0, len(trie)
    for p in fixed:
        w, v = n, n + 1
        edges += [(prev, w, 1), (w, v, 2), (p, v, 2)]
        prev, n = v, n + 2
    return Automaton(n, 3, 0, edges)


def test_same_output_on_random_dfas(monkeypatch, rankings):
    rng = random.Random(19)
    counts = collections.Counter()
    for seed in range(150):
        n, sigma = rng.randint(5, 200), rng.randint(2, 5)
        m = rng.randint(n - 1, min(sigma * (n - 1), 6 * n))
        counts[_iterations(gen_random_dfa(n, sigma, seed, m=m), monkeypatch, rankings)] += 1
    for seed in range(10):  # the densest, every slot but the source's taken
        n, sigma = rng.randint(20, 200), rng.randint(2, 5)
        counts[_iterations(gen_random_dfa(n, sigma, seed, m=sigma * (n - 1)), monkeypatch, rankings)] += 1
    assert max(counts) >= 4, counts


def test_same_output_on_path_dfas(monkeypatch, rankings):
    rng = random.Random(5)
    for _ in range(30):
        word = [rng.randrange(2) for _ in range(rng.randint(2, 300))]
        if len(set(word)) == 2:
            assert _iterations(path_dfa(word), monkeypatch, rankings) == 1
    for seed in range(4):
        assert _iterations(_sturmian_path(2001, seed), monkeypatch, rankings) == 1


def test_same_output_on_complete_binary_dfas(monkeypatch, rankings):
    counts = [
        _iterations(gen_random_dfa(n, 2, seed, m=2 * n), monkeypatch, rankings)
        for seed in range(25)
        for n in (random.Random(seed).randint(3, 200),)
    ]
    assert max(counts) >= 4, counts


def test_same_output_on_dfas_with_long_cycles(monkeypatch, rankings):
    counts = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 200)
        a = _cycle_dfa(n, rng.randint(1, min(4, n - 1)), seed, rng.randint(0, 2 * n))
        counts.append(_iterations(a, monkeypatch, rankings))
    assert max(counts) >= 3, counts


def test_same_output_at_n_1e5(monkeypatch, rankings):
    a = gen_random_dfa(100_000, 4, 7, m=200_000)
    assert _iterations(a, monkeypatch, rankings) == 4


@pytest.mark.parametrize("seed", range(6))
def test_engine_fallback_gives_the_policy_answer(seed, monkeypatch, prunings):
    """At m = 6000 both paths give the same ranks, chains, width and rounds,
    and the fallback runs each pruning once, without starting a process."""
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("colex_order forked"))
    a = gen_random_dfa(3000, 4, seed, m=6000)
    got = colex.colex_order(a)
    assert prunings == []
    want = _engine(a, monkeypatch)
    assert prunings == ["inf", "sup"]
    assert np.array_equal(got.inf_rank, want.inf_rank)
    assert np.array_equal(got.sup_rank, want.sup_rank)
    assert (got.chains, got.width, got.rounds) == (want.chains, want.width, want.rounds)


def test_ladder_takes_one_iteration_per_rung(monkeypatch, rankings):
    """The hardest input found: random DFAs took at most 9 iterations, the
    ladder takes one per rung plus the one that finds nothing to switch."""
    for k in (1, 2, 5):
        assert _iterations(_ladder(k), monkeypatch, rankings) == k + 1
    cap = colex.MAX_POLICY_ITERATIONS
    assert _iterations(_ladder(cap - 1), monkeypatch, rankings) == cap


def test_a_capped_run_falls_back_to_the_engine_prunings(monkeypatch, rankings, prunings):
    """At the default cap the ladder with one rung more falls back, and with
    a cap of 1 so does an input that needs two iterations. Both give the
    engine path's bytes, running each pruning once."""
    cap = colex.MAX_POLICY_ITERATIONS
    cases = [(_ladder(cap), cap), (_ladder(1), 1)]
    with monkeypatch.context() as mp:
        mp.setattr(colex, "MAX_POLICY_ITERATIONS", cap + 1)
        assert [_iterations(a, mp, rankings) for a, _ in cases] == [cap + 1, 2]
    for a, limit in cases:
        want = colex.serialize_colex(_engine(a, monkeypatch))
        prunings.clear()
        rankings.clear()
        monkeypatch.setattr(colex, "MAX_POLICY_ITERATIONS", limit)
        assert colex.serialize_colex(colex.colex_order(a)) == want
        assert prunings == ["inf", "sup"]
        assert len(rankings) == limit + 1


def test_fast_path_runs_only_where_the_gate_allows(monkeypatch, rankings, prunings):
    """Not with numba kernels, and not under a wrapper that perfbench's
    tracer puts on colex.refine_with_pruning alone."""
    a = _ladder(1)
    colex.colex_order(a)
    assert prunings == [] and len(rankings) == 2
    with monkeypatch.context() as mp:
        mp.setattr(colex, "HAVE_NUMBA", True)
        rankings.clear()
        colex.colex_order(a)
    assert prunings == ["inf", "sup"] and len(rankings) == 1
    wrapped = colex.refine_with_pruning
    monkeypatch.setattr(colex, "refine_with_pruning", lambda *args, **kw: wrapped(*args, **kw))
    prunings.clear()
    rankings.clear()
    colex.colex_order(a)
    assert prunings == ["inf", "sup"] and len(rankings) == 1
