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

import os
import pickle
import threading
from dataclasses import dataclass, replace

import numpy as np

from copar import prune
from copar._kernels import HAVE_NUMBA
from copar.automaton import Automaton, OrderedPartition, sorted_runs
from copar.prune import PrunedAutomaton, refine_with_pruning, require_dfa

# Fewest edges at which colex_order runs the sup pruning in a forked worker.
# The worker's fork, result pipe and reaping cost about 3 ms, as much as one
# pruning at m = 400. On a 2-vCPU x86-64 VM (pure-Python backend; random
# DFAs, m = 2n, in-process medians of 40) the worker's time over the
# in-process time read 1.1-1.8 at m = 700, 0.97-1.5 at m = 1000, 0.8-1.05 at
# m = 1400 and 0.7-0.9 at m = 2000, the spread coming from how often the
# second CPU was busy. No pruning round at m <= 2000 reaches the load of a
# numpy round, so that round does not bear on the break-even. The numba
# backend's break-even, with faster prunings and a worker that would compile
# its own kernels, is unmeasured, so there the prunings never fork.
WORKER_MIN_EDGES = 1000


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
    """Rank the merged nodes by their backward walks, co-lex style.

    Round zero ranks by in-letter alone; each round then compares twice as
    many trailing letters by pairing every node's rank with the rank at the
    end of its current hop and re-ranking densely. ceil(log2(2n)) rounds
    saturate, but they stop after the first that adds no distinct rank: if
    walks of length 2L split no class of length L, by Moore's argument no
    longer walk does. extra_rounds = k > 0 runs all k + ceil(log2(2n)).
    """
    if extra_rounds < 0:
        raise ValueError(f"extra_rounds must be at least 0, got {extra_rounds}")
    rank, classes = _dense_rank(g.letters)
    phik = g.phi.astype(np.int64)
    rounds = 0
    for rounds in range(1, (int(g.letters.size) - 1).bit_length() + extra_rounds + 1):
        before = classes
        rank, classes = _dense_rank(rank, rank[phik])
        if classes == before and not extra_rounds:
            break
        phik = phik[phik]
    return RankTable(ranks=rank, rounds=rounds)


def _dense_rank(*cols: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense rank of each row among the distinct rows of cols, and their number."""
    order, new = sorted_runs(*cols)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, int(np.count_nonzero(new))


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

    Runs both prunings, ranks the 2n kept strings jointly, and covers the
    states with the minimum number of chains. Raises ValueError on
    nondeterministic input and ValidationError on unclean automata.

    The sup pruning runs in a forked worker, alongside the inf pruning in
    this process, when a.m >= WORKER_MIN_EDGES, the kernels run as plain
    Python (not numba), os.fork exists, the process may run on two or more
    CPUs, no other Python thread runs and refine_with_pruning is not wrapped
    (a tracer's wrapper must see both calls). The CPU count is the affinity
    mask's: a cgroup CPU quota is not seen, so under a one-CPU quota the
    worker still runs and the two prunings take turns. The worker pickles
    its result back over a pipe. Both pruning engines are then alive at
    once, one per process, so the memory in use peaks near the automaton
    plus two engines, while ru_maxrss reports the larger process alone. If
    the worker fails in any way, the sup pruning runs again here, so errors
    and outputs are those of the in-process path.
    """
    require_dfa(a)
    inf_p, sup_p = _prunings(a)
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


def _prunings(a: Automaton) -> tuple[PrunedAutomaton, PrunedAutomaton]:
    """The inf and sup prunings of the DFA a, the sup one in a forked worker
    when that pays; if the worker fails, the sup pruning runs again here."""
    pays = (
        a.m >= WORKER_MIN_EDGES
        and not HAVE_NUMBA
        and refine_with_pruning is prune.refine_with_pruning
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )
    worker = _fork_sup_worker(a) if pays else None
    if worker is None:
        return refine_with_pruning(a, "inf", checked=True), refine_with_pruning(a, "sup", checked=True)
    pid, r = worker
    try:
        with open(r, "rb") as fh:
            inf_p = refine_with_pruning(a, "inf", checked=True)
            data = fh.read()
    except BaseException:
        import signal  # only here: the import would add about 1 ms to every CLI run

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        return inf_p, refine_with_pruning(a, "sup", checked=True)
    sup_p, members, starts = pickle.loads(data)
    return inf_p, replace(sup_p, base=a, partition=OrderedPartition.from_arrays(members, starts))


def _fork_sup_worker(a: Automaton) -> tuple[int, int] | None:
    """Fork a worker that pickles the sup pruning of a into a pipe, and
    return its pid and the pipe's read end; None if no process could start.

    The worker writes nothing to stdout or stderr. It exits 0 once the
    whole result is written, and 1 on any error, always through os._exit,
    so it never flushes its copies of the parent's stdio buffers.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        p = refine_with_pruning(a, "sup", checked=True)
        result = (replace(p, base=None, partition=None), p.partition.members, p.partition.starts)
        with open(w, "wb") as fh:
            pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


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
