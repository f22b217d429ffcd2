"""Relabelling the states leaves every answer the same up to the relabelling.

A metamorphic check at sizes no oracle reaches: permuting the state ids
(the source's too) must permute the Wheeler preorder's parts in place,
keeping their order, and must permute the co-lex ranks and keep the width.
On the pure-Python backend `sort` takes ordered Moore rounds on the Wheeler
NFAs and the engine on the random NFAs, and refine_all runs the engine on
the Wheeler NFAs too, so both meet every relabelled input.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from copar import refine
from copar.automaton import Automaton, OrderedPartition, path_dfa
from copar.colex import colex_order
from copar.generators import gen_random_dfa, gen_random_nfa, gen_wheeler_nfa
from copar.refine import refine_all, wheeler_preorder


def _relabel(a: Automaton, perm: np.ndarray) -> Automaton:
    """a with state v renamed perm[v]."""
    return Automaton(a.n, a.sigma, int(perm[a.source]), (perm[a.esrc], perm[a.edst], a.elab))


def _relabels(pa: OrderedPartition, pb: OrderedPartition, perm: np.ndarray) -> bool:
    """Whether pb is pa with state v renamed perm[v]."""
    return pb.parts == [sorted(perm[part].tolist()) for part in pa.parts]


def _sort_is_relabelled(a: Automaton, b: Automaton, perm: np.ndarray) -> bool:
    return _relabels(wheeler_preorder(a).partition, wheeler_preorder(b).partition, perm)


@pytest.mark.parametrize("seed", range(6))
def test_relabelled_sort_and_colex_answer_the_same(seed):
    rng = np.random.default_rng(seed)
    a = gen_wheeler_nfa(20000, 59997, 3, seed)
    perm = rng.permutation(a.n)
    b = _relabel(a, perm)
    assert _sort_is_relabelled(a, b, perm)
    assert _relabels(refine_all(a), refine_all(b), perm)
    a = gen_random_nfa(3000, 3, seed, m=9000)
    perm = rng.permutation(a.n)
    sa, sb = wheeler_preorder(a), wheeler_preorder(_relabel(a, perm))
    assert _relabels(sa.partition, sb.partition, perm)
    assert sa.rounds > 0 and sb.rounds > 0  # the engine ran
    a = gen_random_dfa(3000, 4, seed, m=6000)
    perm = rng.permutation(a.n)
    b = _relabel(a, perm)
    assert _sort_is_relabelled(a, b, perm)
    ca, cb = colex_order(a), colex_order(b)
    assert np.array_equal(cb.inf_rank[perm], ca.inf_rank)
    assert np.array_equal(cb.sup_rank[perm], ca.sup_rank)
    assert cb.width == ca.width


def test_relabelled_sturmian_path_sorts_the_same_at_n_1e5(monkeypatch):
    """A path takes wheeler_preorder's prefix doubling on the pure-Python
    backend; shuffling its ids moves the source off state 0."""
    monkeypatch.setattr(refine, "HAVE_NUMBA", False)
    rng = random.Random(10**5)
    word, prev = [0], [1]
    while len(word) < 10**5 - 1:
        word, prev = word * rng.randint(1, 3) + prev, word
    a = path_dfa(word[: 10**5 - 1])
    perm = np.random.default_rng(0).permutation(a.n)
    b = _relabel(a, perm)
    assert b.source != 0
    ra, rb = wheeler_preorder(a), wheeler_preorder(b)
    assert ra.rounds == rb.rounds == 0  # no engine ran
    assert rb.partition.parts == [sorted(perm[part].tolist()) for part in ra.partition.parts]
