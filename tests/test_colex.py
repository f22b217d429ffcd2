"""Merged-graph ranking, chain partition, and the co-lex order result."""

from __future__ import annotations

import bisect
import random

import numpy as np
import pytest

from copar import refine
from copar.automaton import Automaton, ValidationError
from copar.colex import (
    MergedGraph,
    build_merged_graph,
    colex_order,
    min_chain_partition,
    serialize_colex,
    suffix_doubling_ranks,
)
from copar.examples import example_loop_dfa, example_width_two_dfa
from copar.generators import gen_random_dfa
from copar.oracle import brute_colex_relation, check_colex_axioms, max_antichain
from copar.prune import refine_with_pruning


def test_loop_dfa_rank_golden():
    # epsilon < a^omega < ba < b
    res = colex_order(example_loop_dfa())
    assert res.inf_rank.tolist() == [0, 3, 1]
    assert res.sup_rank.tolist() == [0, 3, 2]
    assert res.chains == [[0, 2, 1]]
    assert res.width == 1
    assert res.rounds == 2  # round 2 adds no rank to round 1's four; ceil(log2(6)) = 3


def test_width_two_fixture_golden():
    res = colex_order(example_width_two_dfa())
    assert res.inf_rank.tolist() == [0, 1, 5, 6, 2, 3]
    assert res.sup_rank.tolist() == [0, 1, 5, 6, 4, 3]
    assert res.chains == [[0, 1, 4, 2, 3], [5]]
    assert res.width == 2
    assert not res.precedes(4, 5) and not res.precedes(5, 4)  # the antichain
    assert res.precedes(0, 5) and res.precedes(1, 4)
    assert not res.precedes(2, 2)


def test_merged_graph_structure():
    a = example_loop_dfa()
    inf_p = refine_with_pruning(a, "inf")
    sup_p = refine_with_pruning(a, "sup")
    g = build_merged_graph(inf_p, sup_p)
    assert g.n == 3
    assert g.letters.tolist() == [-1, 1, 0, -1, 1, 0]
    assert g.phi.tolist() == [0, 0, 2, 3, 3, 4]  # source copies loop on themselves


def test_merged_graph_rejects_mismatches():
    a = example_loop_dfa()
    inf_p = refine_with_pruning(a, "inf")
    sup_p = refine_with_pruning(a, "sup")
    with pytest.raises(ValueError, match="direction 'inf'"):
        build_merged_graph(sup_p, sup_p)
    with pytest.raises(ValueError, match="direction 'sup'"):
        build_merged_graph(inf_p, inf_p)
    other = refine_with_pruning(example_width_two_dfa(), "sup")
    with pytest.raises(ValueError, match="different automata"):
        build_merged_graph(inf_p, other)


def _plain_doubling(g: MergedGraph) -> list[np.ndarray]:
    """The ranks after each of rounds 0 .. ceil(log2(2n)) of prefix doubling
    with no early stop, ranked by np.unique on one packed key per node."""
    size = g.letters.size
    rank = np.unique(g.letters, return_inverse=True)[1].astype(np.int64)
    phik = g.phi.astype(np.int64)
    out = [rank]
    for _ in range((size - 1).bit_length()):
        rank = np.unique(rank * size + rank[phik], return_inverse=True)[1].astype(np.int64)
        phik = phik[phik]
        out.append(rank)
    return out


def _check_early_stop(g: MergedGraph) -> int:
    """suffix_doubling_ranks stops after the first round that adds no
    distinct rank, and its ranks equal those of full-length runs."""
    plain = _plain_doubling(g)
    bound = len(plain) - 1
    counts = [int(r.max()) + 1 for r in plain]
    want = next((k for k in range(1, bound + 1) if counts[k] == counts[k - 1]), bound)
    base = suffix_doubling_ranks(g)
    assert base.rounds == want <= bound
    assert np.array_equal(base.ranks, plain[-1])
    for extra in (1, 2):
        again = suffix_doubling_ranks(g, extra_rounds=extra)
        assert again.rounds == bound + extra
        assert np.array_equal(base.ranks, again.ranks)
    return base.rounds


def test_extra_doubling_round_never_changes_ranks():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 25)
        a = gen_random_dfa(n, rng.randint(1, min(3, n - 1)), seed)
        g = build_merged_graph(refine_with_pruning(a, "inf"), refine_with_pruning(a, "sup"))
        _check_early_stop(g)


def test_doubling_stops_early_on_hand_built_graphs():
    # one long path: node i spells a^i, so every round up to the bound splits
    for size in (2, 3, 8, 9, 64, 100):
        letters = np.zeros(size, dtype=np.int64)
        letters[0] = -1
        path = MergedGraph(n=size // 2, letters=letters, phi=np.maximum(np.arange(size) - 1, 0))
        assert _check_early_stop(path) == (size - 1).bit_length()
        assert suffix_doubling_ranks(path).ranks.tolist() == list(range(size))
    # a single-letter cycle never splits, so round 1 is the last
    cycle = MergedGraph(n=8, letters=np.zeros(16, dtype=np.int64), phi=(np.arange(16) + 1) % 16)
    assert _check_early_stop(cycle) == 1
    # random functional graphs
    rng = np.random.default_rng(14)
    for _ in range(200):
        size = int(rng.integers(1, 40)) * 2
        letters = rng.integers(-1, 3, size)
        _check_early_stop(MergedGraph(n=size // 2, letters=letters, phi=rng.integers(0, size, size)))


def test_doubling_rejects_negative_extra_rounds():
    g = build_merged_graph(*(refine_with_pruning(example_loop_dfa(), d) for d in ("inf", "sup")))
    with pytest.raises(ValueError, match="extra_rounds"):
        suffix_doubling_ranks(g, extra_rounds=-1)


def test_relation_matches_brute_and_axioms_on_corpus():
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        a = gen_random_dfa(n, rng.randint(1, min(3, n - 1)), 3_000 + seed)
        res = colex_order(a)
        rel = res.relation_pairs()
        assert rel == brute_colex_relation(a), seed
        assert check_colex_axioms(a, rel), seed
        assert res.width == max_antichain(n, rel), seed
        assert len([v for chain in res.chains for v in chain]) == n
        for chain in res.chains:
            for u, v in zip(chain, chain[1:]):
                assert res.precedes(u, v), (seed, chain)


def test_source_ranks_first_and_intervals_are_ordered():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 20)
        a = gen_random_dfa(n, rng.randint(1, min(3, n - 1)), 4_000 + seed)
        res = colex_order(a)
        assert res.inf_rank[a.source] == 0 and res.sup_rank[a.source] == 0
        assert np.all(res.inf_rank <= res.sup_rank)


def test_min_chain_partition_greedy_golden():
    inf = np.array([0, 0, 1, 2])
    sup = np.array([0, 3, 1, 2])
    # states 1 and 2 are incomparable, so two chains are unavoidable
    assert min_chain_partition(inf, sup) == [[0, 1], [2, 3]]
    assert min_chain_partition(np.array([0]), np.array([0])) == [[0]]


def _bisect_chain_partition(inf_rank: np.ndarray, sup_rank: np.ndarray) -> list[list[int]]:
    """Reference greedy sweep: chain tails in a list sorted by supRank."""
    sweep = np.lexsort((sup_rank, inf_rank)).tolist()
    infs, sups = np.asarray(inf_rank).tolist(), np.asarray(sup_rank).tolist()
    chains: list[list[int]] = []
    tail_sups: list[int] = []
    tail_chain: list[int] = []
    for v in sweep:
        i = bisect.bisect_right(tail_sups, infs[v]) - 1
        if i >= 0:
            c = tail_chain.pop(i)
            tail_sups.pop(i)
            chains[c].append(v)
        else:
            c = len(chains)
            chains.append([v])
        j = bisect.bisect_right(tail_sups, sups[v])
        tail_sups.insert(j, sups[v])
        tail_chain.insert(j, c)
    return chains


def _tied_intervals(rng: np.random.Generator, n: int, span: int) -> tuple[np.ndarray, np.ndarray]:
    """n intervals on few rank values: many with inf == sup, equal infs and equal sups."""
    inf = rng.integers(0, span, n)
    sup = inf + rng.integers(0, span // 2 + 1, n) * (rng.random(n) < 0.6)
    return inf, sup


def test_min_chain_partition_matches_bisect_sweep():
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 61))
        inf, sup = _tied_intervals(rng, n, int(rng.integers(1, 2 * n + 2)))
        shift = int(rng.integers(-3, 4))  # the sweep need not start at rank 0
        assert min_chain_partition(inf + shift, sup + shift) == _bisect_chain_partition(inf, sup)
    inf, sup = _tied_intervals(rng, 100_000, 40_000)
    assert min_chain_partition(inf, sup) == _bisect_chain_partition(inf, sup)


def test_min_chain_partition_rejects_inverted_intervals():
    with pytest.raises(ValueError, match="at most its supRank"):
        min_chain_partition(np.array([0, 2]), np.array([1, 1]))
    assert min_chain_partition(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == []


def test_colex_requires_dfa():
    nfa = Automaton(3, 1, 0, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])
    with pytest.raises(ValueError, match="DFA required"):
        colex_order(nfa)


def test_colex_checks_its_input_once(monkeypatch):
    """Both prunings trust colex_order's one validate and determinism check;
    a direct refine_with_pruning call still makes both."""
    calls = []
    validate, is_det = refine.validate, Automaton.is_deterministic
    monkeypatch.setattr(refine, "validate", lambda a: (calls.append("clean"), validate(a))[1])
    monkeypatch.setattr(Automaton, "is_deterministic", lambda a: (calls.append("dfa"), is_det(a))[1])
    colex_order(example_width_two_dfa())
    assert calls == ["clean", "dfa"]
    calls.clear()
    refine_with_pruning(example_width_two_dfa(), "sup")
    assert calls == ["clean", "dfa"]
    unclean = Automaton(3, 1, 0, [(0, 1, 0)])
    with pytest.raises(ValidationError):
        colex_order(unclean)


def test_serialize_colex_golden():
    text = serialize_colex(colex_order(example_loop_dfa()))
    assert text == "RANKS 3\n0 0 0\n1 3 3\n2 1 2\nCHAINS 1\n0 2 1\n"


def test_single_state_colex():
    res = colex_order(Automaton(1, 0, 0, []))
    assert res.width == 1 and res.chains == [[0]]
    assert res.inf_rank.tolist() == [0] and res.sup_rank.tolist() == [0]
