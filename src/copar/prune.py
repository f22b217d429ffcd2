"""Refinement with pruning: one kept in-edge per state, infimum or supremum side.

Pruning runs the ordered refinement on a DFA and, whenever a part splits
with states fed from both ends of the splitter, deletes the in-edges from
the side that comes later in the part order. What survives per state is a
set of equivalent in-edges; the kept one (smallest source id) spells, walked
backwards, the co-lex smallest (direction 'inf') or greatest ('sup')
string reaching the state, letter by letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from copar.automaton import Automaton, OrderedPartition, serialize_automaton
from copar.partition import Refinement, init_refinement, run_refinement
from copar.refine import require_dfa


@dataclass
class PrunedAutomaton:
    """Result of a pruning run over a DFA.

    kept_src[v] is the source of v's kept in-edge (-1 for the source state);
    the in-letter of v is unchanged from the base automaton. partition is
    the final ordered partition of the pruned run; _alive[e] says whether
    edge e survived it.
    """

    base: Automaton
    direction: str
    kept_src: np.ndarray
    partition: OrderedPartition
    rounds: int
    max_splitter_count: int
    _alive: np.ndarray = field(repr=False)

    def surviving_edges(self) -> list[tuple[int, int, int]]:
        """Edges never deleted by pruning, sorted."""
        return _sorted_edge_list(self.base, np.flatnonzero(self._alive))

    def deleted_edges(self) -> list[tuple[int, int, int]]:
        """Edges deleted by pruning, sorted."""
        return _sorted_edge_list(self.base, np.flatnonzero(~self._alive))

    def survivor_automaton(self) -> Automaton:
        """The base automaton restricted to the surviving edges."""
        a = self.base
        ids = np.flatnonzero(self._alive)
        return Automaton(a.n, a.sigma, a.source, (a.esrc[ids], a.edst[ids], a.elab[ids]))

    def kept_automaton(self) -> Automaton:
        """The base automaton restricted to the kept in-edges (one per state)."""
        a = self.base
        dst = np.flatnonzero(np.arange(a.n) != a.source)
        src, lab = self.kept_src[dst], a.in_labels()[dst]
        rows = np.lexsort((dst, src))
        return Automaton(a.n, a.sigma, a.source, (src[rows], dst[rows], lab[rows]))


def _sorted_edge_list(a: Automaton, ids: np.ndarray) -> list[tuple[int, int, int]]:
    """The edges of a with the given ids, as sorted (from, to, letter) tuples."""
    rows = ids[np.lexsort((a.elab[ids], a.edst[ids], a.esrc[ids]))]
    return list(zip(a.esrc[rows].tolist(), a.edst[rows].tolist(), a.elab[rows].tolist()))


def refine_with_pruning(a: Automaton, direction: str, *, checked: bool = False) -> PrunedAutomaton:
    """Run pruning refinement over a DFA, toward 'inf' or 'sup' strings.

    'inf' starts from the ascending letter order and 'sup' from the
    descending one; both keep, per contested state, the in-edges from the
    side of the splitter that comes first in the part order. Raises
    ValueError for nondeterministic input and ValidationError for unclean
    automata, unless checked says that require_dfa(a) already passed.
    """
    if direction not in ("inf", "sup"):
        raise ValueError(f"direction must be 'inf' or 'sup', got {direction!r}")
    if not checked:
        require_dfa(a)
    letter_order = "ascending" if direction == "inf" else "descending"
    ref = init_refinement(a, letter_order, prune=True)
    run_refinement(ref)
    return _assemble(a, direction, ref)


def _assemble(a: Automaton, direction: str, ref: Refinement) -> PrunedAutomaton:
    n = a.n
    alive = ref.alive_edges()
    kept = np.full(n, n, dtype=np.int64)  # n: no live in-edge
    np.minimum.at(kept, a.edst[alive], a.esrc[alive])
    kept[a.source] = -1
    empty = np.flatnonzero(kept == n)
    if empty.size:
        raise RuntimeError(f"pruning removed every in-edge of state {int(empty[0])}")
    return PrunedAutomaton(
        base=a,
        direction=direction,
        kept_src=kept,
        partition=ref.snapshot_partition(),
        rounds=ref.rounds,
        max_splitter_count=ref.max_splitter_count,
        _alive=alive,
    )


def backward_walk(p: PrunedAutomaton, v: int, k: int) -> tuple[int, ...]:
    """Letters of the length-<=k backward walk from v along kept in-edges.

    Returned oldest letter first, i.e. as the string it spells. The walk
    stops early at the source.
    """
    if not 0 <= v < p.base.n:
        raise ValueError(f"state {v} out of range")
    lam = p.base.in_labels()
    letters: list[int] = []
    cur = v
    for _ in range(k):
        if cur == p.base.source:
            break
        letters.append(int(lam[cur]))
        cur = int(p.kept_src[cur])
    return tuple(reversed(letters))


def serialize_pruned(p: PrunedAutomaton) -> str:
    """Serialize the kept-edge automaton, tagged with the pruning direction."""
    return serialize_automaton(p.kept_automaton(), comment=f"pruned {p.direction}")
