"""refine_all and wheeler_preorder against oracles and frozen fixtures."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from copar.automaton import Automaton, ValidationError, make_input_consistent, path_dfa, reverse_automaton
from copar.examples import example_quasi_wheeler_nfa, example_unordered_nfa
from copar.generators import gen_random_dfa, gen_random_nfa, gen_wheeler_nfa
from copar.oracle import (
    bisimilarity_partition,
    check_wheeler_order,
    naive_coarsest_forward_stable,
    naive_prefix_sort,
    same_language,
    same_reaching_strings,
)
from copar.partition import init_refinement, run_refinement
from copar.refine import _identity_wheeler_check, refine_all, wheeler_preorder


def test_quasi_wheeler_fixture_golden():
    res = wheeler_preorder(example_quasi_wheeler_nfa())
    assert res.partition.parts == [[0], [1, 2], [3], [4]]
    assert res.quasi_wheeler and res.violation is None
    assert res.quotient.sorted_edges() == [(0, 1, 0), (0, 2, 1), (1, 2, 1), (1, 3, 1)]
    assert res.quotient.n == 4


def test_unordered_fixture_golden():
    res = wheeler_preorder(example_unordered_nfa())
    assert res.partition.parts == [[0], [1], [2], [3]]
    assert not res.quasi_wheeler
    kind, witness = res.violation
    assert kind == "target-order" and witness is not None


def test_refine_all_requires_clean_input():
    with pytest.raises(ValidationError):
        refine_all(Automaton(3, 1, 0, [(0, 1, 0)]))  # unreachable state
    with pytest.raises(ValidationError):
        wheeler_preorder(Automaton(2, 2, 0, [(0, 1, 0)]))  # unused letter


def test_refine_all_matches_oracles_on_corpus():
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        sigma = rng.randint(1, min(3, n - 1))
        a = gen_random_nfa(n, sigma, seed)
        parts = {frozenset(p) for p in refine_all(a).parts}
        assert parts == naive_coarsest_forward_stable(a)
        assert parts == bisimilarity_partition(reverse_automaton(a))


def test_equivalent_states_reach_the_same_strings():
    """The paper's claim (1): the states of one part of the coarsest
    forward-stable partition are reached by the same strings, so each state
    keeps them in the quotient, which recognizes the same language. The
    oracles determinize, sharing no code with the engine."""
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        sigma = rng.randint(1, min(3, n - 1))
        wheeler = gen_wheeler_nfa(n, rng.randint(n - 1, (sigma + 1) * (n - 1)), sigma, seed)
        for a in (gen_random_nfa(n, sigma, seed), gen_random_dfa(n, sigma, seed), wheeler):
            for part in refine_all(a).parts:
                assert all(same_reaching_strings(a, a, u, v) for u, v in itertools.combinations(part, 2))
            res = wheeler_preorder(a)
            cls = res.partition.as_class_array()
            assert all(same_reaching_strings(a, res.quotient, v, int(cls[v])) for v in range(n))
            assert same_language(a, res.quotient)


def test_making_the_input_consistent_keeps_the_language():
    conflicts = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        # a random NFA's edges under random letters: in-letters conflict
        edges = [(u, v, rng.randrange(3)) for u, v, _ in gen_random_nfa(n, 1, seed).edges()]
        a = Automaton(n, 3, 0, edges)
        ic = make_input_consistent(a)[0]
        conflicts += ic.n > n + 1
        assert same_language(a, ic)
    assert conflicts >= 20


def test_identity_check_agrees_with_oracle_on_quotients():
    agree = disagree = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        sigma = rng.randint(1, min(3, n - 1))
        a = gen_random_nfa(n, sigma, 1_000_000 + seed)
        res = wheeler_preorder(a)
        oracle = check_wheeler_order(res.quotient, list(range(res.quotient.n)))
        assert res.quasi_wheeler == bool(oracle), (seed, res.violation, oracle)
        if res.quasi_wheeler:
            agree += 1
        else:
            disagree += 1
    assert agree > 0 and disagree > 0  # the corpus exercises both outcomes


def test_violation_kinds_match_oracle_kinds():
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(3, 10)
        a = gen_random_nfa(n, rng.randint(1, min(3, n - 1)), 2_000_000 + seed)
        res = wheeler_preorder(a)
        if not res.quasi_wheeler:
            oracle = check_wheeler_order(res.quotient, list(range(res.quotient.n)))
            assert res.violation[0] == oracle.kind
        if res.violation and res.violation[0] == "target-order":
            (u1, v1), (u2, v2), c = res.violation[1]
            edges = set(res.quotient.edges())
            assert (u1, v1, c) in edges and (u2, v2, c) in edges
            assert u1 < u2 and v1 > v2


def test_target_order_witness_is_the_first_edge_reaching_the_largest_target():
    # sources 1 and 2 both reach 5 on letter 1 before 3 reaches 4
    a = Automaton(6, 2, 0, [(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 5, 1), (2, 5, 1), (3, 4, 1)])
    assert _identity_wheeler_check(a) == (False, ("target-order", ((1, 5), (3, 4), 1)))


def test_identity_check_matches_the_oracle_on_arbitrary_automata():
    """Any source and conflicting in-letters too: the quotients that sort
    checks can only fail target-order. The witnesses of the first two
    kinds differ in form, so only the last two are compared."""
    seen = set()
    for seed in range(3000):
        rng = random.Random(seed)
        n, sigma = rng.randint(1, 7), rng.randint(1, 3)
        source = 0 if rng.random() < 0.5 else rng.randrange(n)
        lam = [rng.randrange(sigma) for _ in range(n)]
        consistent = rng.random() < 0.5
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            v = rng.randrange(n)
            edges.add((rng.randrange(n), v, lam[v] if consistent else rng.randrange(sigma)))
        a = Automaton(n, sigma, source, sorted(edges))
        ok, violation = _identity_wheeler_check(a)
        want = check_wheeler_order(a, range(n))
        assert (ok, violation and violation[0]) == (want.ok, want.kind), seed
        if violation and violation[0] in ("letter-order", "target-order"):
            assert violation[1] == want.witness, seed
        seen.add(want.kind)
    assert seen == {None, "source-not-first", "in-label-conflict", "letter-order", "target-order"}, seen


def test_wheeler_inputs_stay_quasi_wheeler():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 80)
        sigma = rng.randint(1, min(4, n - 1))
        m = rng.randint(n - 1, (sigma + 1) * (n - 1))
        g = gen_wheeler_nfa(n, m, sigma, seed)
        res = wheeler_preorder(g)
        assert res.quasi_wheeler
        # non-equivalent states keep their planted relative order
        highest = -1
        for part in res.partition.parts:
            assert min(part) > highest
            highest = max(part)


def test_path_dfa_refinement_is_prefix_sort():
    for seed in range(30):
        rng = random.Random(seed)
        s = [rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(1, 60))]
        p = refine_all(path_dfa(s))
        assert all(len(part) == 1 for part in p.parts)
        assert [part[0] for part in p.parts] == naive_prefix_sort(s)


def test_letter_order_flips_targets_blocks():
    a = example_quasi_wheeler_nfa()
    asc = refine_all(a)
    ref = init_refinement(a, "descending")
    run_refinement(ref)
    desc = ref.snapshot_partition()
    assert asc.parts == [[0], [1, 2], [3], [4]]
    assert {frozenset(p) for p in desc.parts} == {frozenset(p) for p in asc.parts}
    assert desc.parts != asc.parts  # block order reversed


def _letter_orders_agree(a: Automaton) -> bool:
    """Assert that the descending run gives the ascending run's part sets
    and, when the ascending order is quasi-Wheeler, exactly its reverse;
    return the flag. Only that much of the order is canonical: otherwise
    the splitter discipline fixes it."""
    res = wheeler_preorder(a)
    ref = init_refinement(a, "descending")
    run_refinement(ref)
    k = res.partition.k
    asc, desc = res.partition.as_class_array(), ref.snapshot_partition().as_class_array()
    image = np.zeros(k, dtype=np.int64)
    image[asc] = desc  # part i of the ascending run is part image[i] of the descending one
    assert np.array_equal(image[asc], desc) and np.array_equal(np.sort(image), np.arange(k))
    if res.quasi_wheeler:
        assert np.array_equal(desc, k - 1 - asc)
    return res.quasi_wheeler


def test_letter_orders_give_the_same_parts():
    flags = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 200)
        sigma = rng.randint(1, min(3, n - 1))
        m = rng.randint(n - 1, min(3 * (n - 1), n * (n - 1)))
        flags.append(_letter_orders_agree(gen_random_nfa(n, sigma, seed, m=m)))
        flags.append(_letter_orders_agree(gen_random_dfa(n, sigma, seed)))
        assert _letter_orders_agree(gen_wheeler_nfa(n, min(m, (sigma + 1) * (n - 1)), sigma, seed))
    assert not all(flags)  # the part sets are compared off the Wheeler inputs too
    n = 100_000
    assert _letter_orders_agree(gen_wheeler_nfa(n, 3 * (n - 1), 3, 7))


def test_single_state_automaton():
    a = Automaton(1, 0, 0, [])
    assert refine_all(a).parts == [[0]]
    res = wheeler_preorder(a)
    assert res.quasi_wheeler and res.quotient.n == 1
