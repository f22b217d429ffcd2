"""Smallest-width co-lex order of a DFA via merged-graph suffix doubling.

Each state carries two canonical reaching strings: the co-lex smallest
('inf') and greatest ('sup'), both spelled by kept in-edges after pruning.
Ranking all 2n of them together with prefix doubling yields per-state
(infRank, supRank) intervals; one state precedes another exactly when its
interval ends no later than the other's begins, and a greedy sweep packs
the states into the minimum number of chains of that order. The chain
count equals the order's width.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from copar.automaton import Automaton, sorted_runs
from copar.prune import PrunedAutomaton, refine_with_pruning, require_dfa


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
    """Dense ranks of the 2n merged nodes and the doubling rounds used."""

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
    """Rank the merged nodes by their backward walks, co-lex style.

    Round zero ranks by in-letter alone; each round then compares twice as
    many trailing letters by pairing every node's rank with the rank at the
    end of its current hop and re-ranking densely. ceil(log2(2n)) rounds
    saturate; extra_rounds adds verification rounds past that point.
    """
    m = int(g.letters.size)
    rank = _dense_rank(g.letters)
    phik = g.phi.astype(np.int64)
    total = (m - 1).bit_length() + extra_rounds
    for _ in range(total):
        rank = _dense_rank(rank, rank[phik])
        phik = phik[phik]
    return RankTable(ranks=rank, rounds=total)


def _dense_rank(*cols: np.ndarray) -> np.ndarray:
    """Rank of each row among the distinct rows of cols: 0, 1, ... in sorted order."""
    order, new = sorted_runs(*cols)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank


def min_chain_partition(inf_rank: np.ndarray, sup_rank: np.ndarray) -> list[list[int]]:
    """Partition the states into the fewest chains of the interval order.

    States are swept in ascending (infRank, supRank, id) order; each goes to
    the chain whose tail has the greatest supRank still at most the state's
    infRank, or starts a new chain when no tail qualifies. For interval
    orders this sweep is optimal, so the chain count equals the width.
    """
    # lexsort is stable, so ties in both ranks keep id order
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

    Runs both prunings, ranks the 2n kept strings jointly, and covers the
    states with the minimum number of chains. Raises ValueError on
    nondeterministic input and ValidationError on unclean automata.
    """
    require_dfa(a)
    inf_p = refine_with_pruning(a, "inf", checked=True)
    sup_p = refine_with_pruning(a, "sup", checked=True)
    g = build_merged_graph(inf_p, sup_p)
    table = suffix_doubling_ranks(g)
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
    lines = [f"RANKS {len(res.inf_rank)}"]
    lines.extend(
        f"{v} {i} {s}" for v, (i, s) in enumerate(zip(res.inf_rank.tolist(), res.sup_rank.tolist()))
    )
    lines.append(f"CHAINS {len(res.chains)}")
    lines.extend(" ".join(str(v) for v in chain) for chain in res.chains)
    return "\n".join(lines) + "\n"
