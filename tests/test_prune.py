"""Pruning runs: goldens, oracle agreement, and the deletion-order invariants."""

from __future__ import annotations

import random

import pytest

from copar import prune
from copar.automaton import Automaton, ValidationError, parse_automaton
from copar.examples import example_loop_dfa, example_width_two_dfa
from copar.generators import gen_random_dfa
from copar.oracle import brute_truncated_bounds, check_colex_axioms
from copar.partition import init_refinement, run_refinement
from copar.prune import backward_walk, refine_with_pruning, serialize_pruned


def test_loop_dfa_inf_golden():
    p = refine_with_pruning(example_loop_dfa(), "inf")
    assert p.deleted_edges() == [(1, 2, 0)]
    assert p.kept_src.tolist() == [-1, 0, 2]
    assert backward_walk(p, 2, 6) == (0, 0, 0, 0, 0, 0)  # "aaaaaa", truncated a^omega
    assert backward_walk(p, 1, 6) == (1,)
    assert backward_walk(p, 0, 6) == ()
    assert p.partition.parts == [[0], [2], [1]]


def test_loop_dfa_sup_golden():
    p = refine_with_pruning(example_loop_dfa(), "sup")
    assert p.deleted_edges() == [(2, 2, 0)]
    assert p.kept_src.tolist() == [-1, 0, 1]
    assert backward_walk(p, 2, 6) == (1, 0)  # "ba"
    assert p.partition.parts == [[1], [2], [0]]


def test_a_state_left_with_no_live_in_edge_is_refused():
    a = example_loop_dfa()
    ref = init_refinement(a, prune=True)
    run_refinement(ref)
    ref.in_len[2] = 0  # as if every in-edge of state 2 had been deleted
    with pytest.raises(RuntimeError, match="^pruning removed every in-edge of state 2$"):
        prune._assemble(a, "inf", ref)


def test_serialize_pruned_tags_direction():
    p = refine_with_pruning(example_loop_dfa(), "sup")
    text = serialize_pruned(p)
    assert text.splitlines()[0] == "# pruned sup"
    kept = parse_automaton(text)
    assert kept.sorted_edges() == [(0, 1, 1), (1, 2, 0)]
    assert kept.m == kept.n - 1  # exactly one in-edge per non-source state


def test_rejects_nfas_and_dirty_input():
    nfa = Automaton(3, 1, 0, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])
    with pytest.raises(ValueError, match="DFA required"):
        refine_with_pruning(nfa, "inf")
    with pytest.raises(ValidationError):
        refine_with_pruning(Automaton(3, 1, 0, [(0, 1, 0)]), "inf")
    with pytest.raises(ValueError, match="direction"):
        refine_with_pruning(example_loop_dfa(), "up")


def test_walks_match_brute_bounds_on_corpus():
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        sigma = rng.randint(1, min(3, n - 1))
        a = gen_random_dfa(n, sigma, seed)
        bounds = brute_truncated_bounds(a, 2 * n)
        inf_p = refine_with_pruning(a, "inf")
        sup_p = refine_with_pruning(a, "sup")
        for v in range(n):
            assert backward_walk(inf_p, v, 2 * n) == bounds[v][0], (seed, v)
            assert backward_walk(sup_p, v, 2 * n) == bounds[v][1], (seed, v)


def test_every_nonsource_state_keeps_an_in_edge():
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(2, 20)
        a = gen_random_dfa(n, rng.randint(1, min(3, n - 1)), 500 + seed)
        for d in ("inf", "sup"):
            p = refine_with_pruning(a, d)
            targets = {v for _, v, _ in p.surviving_edges()}
            assert targets == set(range(a.n)) - {a.source}
            assert all(s >= 0 for v, s in enumerate(p.kept_src) if v != a.source)
            smallest = {}
            for s, v, _ in p.surviving_edges():
                smallest[v] = min(smallest.get(v, s), s)
            assert all(int(p.kept_src[v]) == s for v, s in smallest.items())


def test_pruned_partition_equals_plain_run_on_kept_automaton():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        a = gen_random_dfa(n, rng.randint(1, min(3, n - 1)), 900 + seed)
        for d, order in (("inf", "ascending"), ("sup", "descending")):
            p = refine_with_pruning(a, d)
            rerun = init_refinement(p.kept_automaton(), order)
            run_refinement(rerun)
            assert p.partition == rerun.snapshot_partition(), (seed, d)


def _x_position(ref, state: int) -> int:
    return int(ref.xbeg[ref.xof[ref.partof[state]]])


def test_deletions_come_from_one_trailing_x_part():
    # per step, a state's deleted in-edges come from a single X-part; at
    # every round boundary no live in-edge's X-part follows a deleted one's
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        a = gen_random_dfa(n, rng.randint(1, min(3, n - 1)), seed)
        for order in ("ascending", "descending"):
            ref = init_refinement(a, order, prune=True)
            deleted: dict[int, list[int]] = {v: [] for v in range(n)}
            while not ref.done:
                dead = set(ref.deleted_edge_ids())
                ref.step()
                per_target: dict[int, set[int]] = {}
                for e in set(ref.deleted_edge_ids()) - dead:
                    s, t = int(a.esrc[e]), int(a.edst[e])
                    per_target.setdefault(t, set()).add(_x_position(ref, s))
                    deleted[t].append(s)
                for t, xs in per_target.items():
                    assert len(xs) == 1, (seed, order, t)
                for v in range(n):
                    if not deleted[v]:
                        continue
                    live = [int(a.esrc[e]) for e in ref.surviving_in_edges(v)]
                    if live:
                        assert max(_x_position(ref, s) for s in live) <= min(
                            _x_position(ref, s) for s in deleted[v]
                        ), (seed, order, v)


def test_final_positional_order_is_colex_on_kept_automaton():
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        a = gen_random_dfa(n, rng.randint(1, min(3, n - 1)), 1300 + seed)
        for d in ("inf", "sup"):
            p = refine_with_pruning(a, d)
            pos = {v: i for i, part in enumerate(p.partition.parts) for v in part}
            flip = d == "sup"  # the sup run sorts descending, so reverse it
            rel = {
                (u, v)
                for u in range(n)
                for v in range(n)
                if (pos[u] > pos[v] if flip else pos[u] < pos[v])
            }
            assert check_colex_axioms(p.kept_automaton(), rel), (seed, d)


def test_survivor_automaton_contains_kept_edges():
    a = example_width_two_dfa()
    for d in ("inf", "sup"):
        p = refine_with_pruning(a, d)
        surv = set(p.survivor_automaton().sorted_edges())
        kept = set(p.kept_automaton().sorted_edges())
        assert kept <= surv
        assert surv | set(p.deleted_edges()) == set(a.sorted_edges())
        assert not (surv & set(p.deleted_edges()))
