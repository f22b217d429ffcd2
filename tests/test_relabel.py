"""Relabelling the states leaves every answer the same up to the relabelling.

A metamorphic check at sizes no oracle reaches: permuting the state ids
(the source's too) must permute the Wheeler preorder's parts in place,
keeping their order, and must permute the co-lex ranks and keep the width.
The inputs are large enough that numpy rounds run on the pure-Python
backend, and those order the states inside a part differently from the
kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from copar import _kernels as K
from copar import partition
from copar.automaton import Automaton
from copar.colex import colex_order
from copar.generators import gen_random_dfa, gen_random_nfa, gen_wheeler_nfa
from copar.refine import wheeler_preorder


def _relabel(a: Automaton, perm: np.ndarray) -> Automaton:
    """a with state v renamed perm[v]."""
    return Automaton(a.n, a.sigma, int(perm[a.source]), (perm[a.esrc], perm[a.edst], a.elab))


@pytest.fixture
def numpy_rounds(monkeypatch):
    """Counts the numpy rounds run while the test runs."""
    rounds = []
    one_round = partition._numpy_round

    def counted(ref):
        one_round(ref)
        rounds.append(ref.n)

    monkeypatch.setattr(partition, "_numpy_round", counted)
    return rounds


def _sort_is_relabelled(a: Automaton, b: Automaton, perm: np.ndarray) -> bool:
    parts = wheeler_preorder(a).partition.parts
    return wheeler_preorder(b).partition.parts == [sorted(perm[part].tolist()) for part in parts]


@pytest.mark.parametrize("seed", range(6))
def test_relabelled_sort_and_colex_answer_the_same(seed, numpy_rounds):
    rng = np.random.default_rng(seed)
    for a in (gen_wheeler_nfa(20000, 59997, 3, seed), gen_random_nfa(3000, 3, seed, m=9000)):
        perm = rng.permutation(a.n)
        assert _sort_is_relabelled(a, _relabel(a, perm), perm)
    a = gen_random_dfa(3000, 4, seed, m=6000)
    perm = rng.permutation(a.n)
    b = _relabel(a, perm)
    assert _sort_is_relabelled(a, b, perm)
    ca, cb = colex_order(a), colex_order(b)
    assert np.array_equal(cb.inf_rank[perm], ca.inf_rank)
    assert np.array_equal(cb.sup_rank[perm], ca.sup_rank)
    assert cb.width == ca.width
    assert numpy_rounds or K.HAVE_NUMBA
