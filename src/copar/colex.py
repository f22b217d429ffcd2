"""Smallest-width co-lex order of a DFA via merged-graph suffix doubling.

Each state carries two canonical reaching strings: the co-lex smallest
('inf') and greatest ('sup'), both spelled by kept in-edges after pruning.
Ranking all 2n of them together with prefix doubling yields per-state
(infRank, supRank) intervals; one state precedes another exactly when its
interval ends no later than the other's begins, and a greedy sweep packs
the states into the minimum number of chains of that order. The chain
count equals the order's width.

The kept strings come from one of two paths with the same output. Policy
iteration (_policy_ranks) reaches the prunings' fixpoint in numpy: it
ranks the 2n walks of a choice of in-edges, switches each state to a
strictly better in-neighbour, and stops once none switches, so its last
ranking is the result. It runs on the pure-Python backend, capped at
MAX_POLICY_ITERATIONS rankings. Past the cap, with numba kernels, or when
refine_with_pruning is wrapped (a tracer must see both prunings), the
fallback is the two engine prunings of the paper, one after the other,
which keep its O(m log n) bound.

copar.prune, and through it the engine, loads only for those prunings:
refine_with_pruning is bound here on first use (PEP 562), by the capped
fallback or by an attribute lookup such as a tracer's, whose wrapper stays
bound. So policy iteration loads no engine, and refine_with_pruning is
wrapped exactly when it is bound here to anything but
prune.refine_with_pruning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from copar import _bind, _lazy_getattr, _wrapped
from copar._kernels import HAVE_NUMBA
from copar.automaton import (
    _ROW_SEPS,
    Automaton,
    _int_text,
    _lines_text,
    csr,
    doubling_ranks,
)
from copar.refine import require_dfa

if TYPE_CHECKING:
    from copar.prune import PrunedAutomaton, refine_with_pruning

_PRUNE = {"refine_with_pruning": "prune"}
__getattr__ = _lazy_getattr(globals(), _PRUNE)

# Most rankings colex_order's policy iteration runs before the engine
# prunings take over and keep the O(m log n) bound. Howard's iteration on
# this deterministic MDP (discount 1/(sigma + 2)) needs O(m log n)
# iterations (Hansen, Miltersen and Zwick, J. ACM 2013); it took at most 5
# on random DFAs with n <= 2001 and at most 9 on complete binary ones with
# n <= 10^5, but the ladder of tests/test_colex_policy.py takes k + 1 with
# about k^2 + 3k states.
MAX_POLICY_ITERATIONS = 16


@dataclass(frozen=True)
class MergedGraph:
    """The two kept-edge walks as one functional graph on 2n nodes.

    Node v < n is the inf copy of state v, node n + v its sup copy.
    letters[x] is the node's in-letter (-1 on both source copies) and
    phi[x] the node it walks back to (the source copies loop on themselves,
    which pads shorter strings with the smallest symbol).
    """

    n: int
    letters: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class RankTable:
    """Dense ranks of the 2n merged nodes and the doubling rounds run."""

    ranks: np.ndarray
    rounds: int


def build_merged_graph(inf_p: PrunedAutomaton, sup_p: PrunedAutomaton) -> MergedGraph:
    """Join an inf pruning and a sup pruning of the same DFA."""
    if inf_p.direction != "inf":
        raise ValueError(f"first pruning must have direction 'inf', got {inf_p.direction!r}")
    if sup_p.direction != "sup":
        raise ValueError(f"second pruning must have direction 'sup', got {sup_p.direction!r}")
    if inf_p.base != sup_p.base:
        raise ValueError("prunings come from different automata")
    a = inf_p.base
    n = a.n
    lam = a.in_labels()
    letters = np.concatenate([lam, lam])
    phi = np.empty(2 * n, dtype=np.int64)
    phi[:n] = inf_p.kept_src
    phi[n:] = sup_p.kept_src + n
    phi[a.source] = a.source
    phi[n + a.source] = n + a.source
    return MergedGraph(n=n, letters=letters, phi=phi)


def suffix_doubling_ranks(g: MergedGraph, extra_rounds: int = 0) -> RankTable:
    """Rank the merged nodes by their backward walks, co-lex style, with
    automaton.doubling_ranks: at most ceil(log2(2n)) + extra_rounds rounds,
    stopping after the first that adds no rank when extra_rounds is 0."""
    ranks, rounds = doubling_ranks(g.letters, g.phi, extra_rounds)
    return RankTable(ranks=ranks, rounds=rounds)


def _policy_ranks(a: Automaton) -> RankTable | None:
    """The RankTable of the optimal inf and sup walks of the clean DFA a, by
    policy iteration; None if MAX_POLICY_ITERATIONS rankings do not settle.

    The policy is the merged graph's phi: one in-neighbour per non-source
    copy. Each copy starts from its best in-neighbour by in-letter; each
    iteration ranks the policy's 2n walks and moves every copy whose best
    in-neighbour ranks strictly better (lower for an inf copy, higher for a
    sup copy) to it, the smallest state id among equals. Every switch
    strictly improves its walk; once none does, every edge meets the
    Bellman conditions, so each walk is the optimal one and spells the
    same string as the engine pruning's kept walk. Equal strings rank
    alike, so the last ranking, its rounds included, is the one
    build_merged_graph's graph gives.
    """
    n = a.n
    lam = a.in_labels()
    letters = np.concatenate((lam, lam))
    # in-edges of both copies grouped by target, the inf copies' first
    rows, start, degree = csr(a.edst, n)
    src, dst = a.esrc[rows], a.edst[rows]
    msrc, mdst = np.concatenate((src, src + n)), np.concatenate((dst, dst + n))
    v = np.flatnonzero(degree)  # every state but the source
    targets, first = np.concatenate((v, v + n)), np.concatenate((start[v], start[v] + a.m))
    phi = np.arange(2 * n)  # the source copies loop on themselves

    def improve(key: np.ndarray, cur: np.ndarray) -> bool:
        """Move each copy whose least in-neighbour key is below its cur to
        the smallest in-neighbour with that key; whether any moved."""
        val, best = key[msrc], cur.copy()
        best[targets] = np.minimum.reduceat(val, first)
        take = (best < cur)[mdst] & (val == best[mdst])
        phi[mdst[take]] = 2 * n
        np.minimum.at(phi, mdst[take], msrc[take])
        return bool(take.any())

    # lower keys are better on both sides: the sup copies negate theirs
    improve(np.concatenate((lam, -lam)), np.full(2 * n, a.sigma + 1))
    for _ in range(MAX_POLICY_ITERATIONS):
        table = suffix_doubling_ranks(MergedGraph(n=n, letters=letters, phi=phi))
        key = np.concatenate((table.ranks[:n], -table.ranks[n:]))
        if not improve(key, key[phi]):
            return table
    return None


def min_chain_partition(inf_rank: np.ndarray, sup_rank: np.ndarray) -> list[list[int]]:
    """Partition the states into the fewest chains of the interval order.

    States are swept in ascending (infRank, supRank, id) order; each goes to
    the chain whose tail has the greatest supRank still at most the state's
    infRank, the newest on ties, or starts a new chain when no tail
    qualifies; this is optimal for interval orders, so there are width
    chains. infRank only rises, so the tails a rise frees have a greater
    supRank than all free tails: the free tails form a stack in (supRank,
    age) order, and the others wait in buckets keyed by supRank. Raises
    ValueError if some infRank exceeds its supRank.
    """
    inf_rank, sup_rank = np.asarray(inf_rank), np.asarray(sup_rank)
    if np.any(inf_rank > sup_rank):
        raise ValueError("every infRank must be at most its supRank")
    # lexsort is stable, so ties in both ranks keep id order
    sweep = np.lexsort((sup_rank, inf_rank))
    infs, sups, sweep = inf_rank[sweep].tolist(), sup_rank[sweep].tolist(), sweep.tolist()
    chains: list[list[int]] = []
    free: list[list[int]] = []  # chains whose tail's supRank is at most reached
    waiting: dict[int, list[list[int]]] = {}
    reached = infs[0] - 1 if infs else 0
    for v, i, s in zip(sweep, infs, sups):
        while reached < i:
            reached += 1
            free.extend(waiting.pop(reached, ()))
        if free:
            chain = free.pop()
            chain.append(v)
        else:
            chain = [v]
            chains.append(chain)
        if s <= reached:
            free.append(chain)
        else:
            waiting.setdefault(s, []).append(chain)
    return chains


@dataclass
class ColexResult:
    """Per-state rank interval, chain cover, and width of the co-lex order."""

    inf_rank: np.ndarray
    sup_rank: np.ndarray
    chains: list[list[int]]
    width: int
    rounds: int

    def precedes(self, u: int, v: int) -> bool:
        """Whether u comes strictly before v in the co-lex order."""
        return u != v and int(self.sup_rank[u]) <= int(self.inf_rank[v])

    def relation_pairs(self) -> set[tuple[int, int]]:
        """All ordered pairs of the relation (desk scale only)."""
        out: set[tuple[int, int]] = set()
        for v in range(len(self.inf_rank)):
            for u in np.flatnonzero(self.sup_rank <= self.inf_rank[v]):
                if int(u) != v:
                    out.add((int(u), v))
        return out


def colex_order(a: Automaton) -> ColexResult:
    """Compute the smallest-width co-lex order of a DFA.

    Finds the kept strings, ranks the 2n of them jointly, and covers the
    states with the minimum number of chains. Raises ValueError on
    nondeterministic input and ValidationError on unclean automata.

    On the pure-Python backend, unless refine_with_pruning is wrapped (a
    tracer's wrapper must see both calls), policy iteration finds and ranks
    the kept strings. Past MAX_POLICY_ITERATIONS rankings, and always with
    numba kernels, the two engine prunings find them instead, inf then sup.
    """
    require_dfa(a)
    fast = not HAVE_NUMBA and not _wrapped(globals(), _PRUNE, "refine_with_pruning")
    table = _policy_ranks(a) if fast else None
    if table is None:
        _bind(globals(), _PRUNE, "prune")
        prunings = refine_with_pruning(a, "inf", checked=True), refine_with_pruning(a, "sup", checked=True)
        table = suffix_doubling_ranks(build_merged_graph(*prunings))
    inf_rank = table.ranks[: a.n].copy()
    sup_rank = table.ranks[a.n :].copy()
    if int(inf_rank[a.source]) != 0 or int(sup_rank[a.source]) != 0:
        raise RuntimeError("source state must rank first on both sides")
    if np.any(inf_rank > sup_rank):
        bad = int(np.flatnonzero(inf_rank > sup_rank)[0])
        raise RuntimeError(f"state {bad} has infRank above its supRank")
    chains = min_chain_partition(inf_rank, sup_rank)
    return ColexResult(
        inf_rank=inf_rank,
        sup_rank=sup_rank,
        chains=chains,
        width=len(chains),
        rounds=table.rounds,
    )


def serialize_colex(res: ColexResult) -> str:
    """Write ranks and chains: 'RANKS n' + one 'v inf sup' line per state,
    then 'CHAINS p' + one space-separated chain per line."""
    n = len(res.inf_rank)
    ranks = np.stack((np.arange(n), res.inf_rank, res.sup_rank), axis=1)
    starts = np.cumsum([0] + [len(chain) for chain in res.chains])
    members = np.fromiter(itertools.chain.from_iterable(res.chains), np.int64, int(starts[-1]))
    return (
        f"RANKS {n}\n" + _int_text(ranks, _ROW_SEPS)
        + f"CHAINS {len(res.chains)}\n" + _lines_text(members, starts)
    )
