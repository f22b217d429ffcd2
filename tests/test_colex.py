"""Merged-graph ranking, chain partition, and the co-lex order result."""

from __future__ import annotations

import random

import numpy as np
import pytest

from copar import refine
from copar.automaton import Automaton, ValidationError
from copar.colex import (
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
    assert res.rounds == 3  # ceil(log2(6))


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


def test_extra_doubling_round_never_changes_ranks():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 25)
        a = gen_random_dfa(n, rng.randint(1, min(3, n - 1)), seed)
        g = build_merged_graph(refine_with_pruning(a, "inf"), refine_with_pruning(a, "sup"))
        base = suffix_doubling_ranks(g)
        assert base.rounds == max(1, (2 * n - 1).bit_length())
        for extra in (1, 2):
            again = suffix_doubling_ranks(g, extra_rounds=extra)
            assert np.array_equal(base.ranks, again.ranks), seed


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
