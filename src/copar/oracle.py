"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favors obviousness over speed and shares no code with the
refinement engine: plain Python sets, dicts and quadratic (or worse) loops.
Intended for desk-scale inputs (roughly n <= 16 unless noted otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from copar.automaton import Automaton


def colex_key(s: Sequence[int]) -> tuple[int, ...]:
    """Sort key realizing the co-lex order: compare strings from the right."""
    return tuple(reversed(tuple(s)))


def colex_leq(x: Sequence[int], y: Sequence[int]) -> bool:
    """True when x precedes or equals y co-lexicographically."""
    return colex_key(x) <= colex_key(y)


# ---------------------------------------------------------------------------
# coarsest forward-stable partition


def naive_coarsest_forward_stable(a: Automaton) -> set[frozenset[int]]:
    """Coarsest forward-stable refinement of the in-letter partition.

    A part S is forward-stable for (T, c) when S is contained in or disjoint
    from the set of c-successors of T. Splits blocks until no (T, c) pair
    violates stability; the fixpoint is unique, so the result is returned as
    an unordered set of blocks.
    """
    lam = a.in_labels()
    by_letter: dict[int, set[int]] = {}
    for v in range(a.n):
        by_letter.setdefault(int(lam[v]), set()).add(v)
    blocks = [frozenset(block) for _, block in sorted(by_letter.items())]
    out = a.out_map()
    changed = True
    while changed:
        changed = False
        for splitter in list(blocks):
            for c in range(a.sigma):
                image = {v for u in splitter for v, letter in out[u] if letter == c}
                if not image:
                    continue
                next_blocks: list[frozenset[int]] = []
                for block in blocks:
                    inside = block & image
                    outside = block - image
                    if inside and outside:
                        next_blocks.append(frozenset(inside))
                        next_blocks.append(frozenset(outside))
                        changed = True
                    else:
                        next_blocks.append(block)
                blocks = next_blocks
    return set(blocks)


def bisimilarity_partition(a: Automaton) -> set[frozenset[int]]:
    """Strong bisimilarity classes of an automaton, by signature refinement.

    Two states are equivalent when their labeled successor classes coincide,
    recursively. Callers interested in the forward-stable partition of some
    automaton should pass its reversal here.
    """
    out = a.out_map()
    color = [0] * a.n
    ncolors = 1
    while True:
        sigs = []
        for v in range(a.n):
            succ = frozenset((c, color[w]) for w, c in out[v])
            sigs.append((color[v], succ))
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs), key=repr))}
        new_color = [palette[sig] for sig in sigs]
        if len(palette) == ncolors:
            break
        color, ncolors = new_color, len(palette)
    blocks: dict[int, set[int]] = {}
    for v, c in enumerate(color):
        blocks.setdefault(c, set()).add(v)
    return {frozenset(b) for b in blocks.values()}


# ---------------------------------------------------------------------------
# order axiom checkers


@dataclass(frozen=True)
class OrderCheck:
    """Outcome of an axiom check: ok flag plus the first violation found."""

    ok: bool
    kind: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_wheeler_order(a: Automaton, order: Sequence[int]) -> OrderCheck:
    """Check the Wheeler axioms for a total state order (source first).

    order lists the states smallest-first. Violation kinds, in scan order:
    'not-a-permutation', 'source-not-first', 'in-label-conflict',
    'letter-order' (a smaller in-letter placed after a larger one) and
    'target-order' (same letter, source before source', but some target of
    the earlier source lies strictly after a target of the later one).
    """
    order = [int(v) for v in order]
    if len(order) != a.n or sorted(order) != list(range(a.n)):
        return OrderCheck(False, "not-a-permutation", tuple(order))
    if order[0] != a.source:
        return OrderCheck(False, "source-not-first", (order[0],))
    pos = {v: i for i, v in enumerate(order)}
    in_letters: list[set[int]] = [set() for _ in range(a.n)]
    for _, v, c in a.edges():
        in_letters[v].add(c)
    for v in order:
        if len(in_letters[v]) > 1:
            return OrderCheck(False, "in-label-conflict", (v, tuple(sorted(in_letters[v]))))
    lam = [min(in_letters[v]) if in_letters[v] else -1 for v in range(a.n)]
    for i in range(a.n - 1):
        u, v = order[i], order[i + 1]
        if lam[u] > lam[v]:
            return OrderCheck(False, "letter-order", (u, v))
    # a letter that labels no edge adds no constraint, so only used ones are visited
    by_letter: dict[int, list[tuple[int, int, int, int]]] = {}
    for u, v, c in a.edges():
        by_letter.setdefault(c, []).append((pos[u], pos[v], u, v))
    for c in sorted(by_letter):
        edges_c = sorted(by_letter[c])
        prev_max_pos = -1
        prev_max_edge: tuple[int, int] | None = None
        i = 0
        while i < len(edges_c):
            j = i
            group_min_pos, group_max_pos = a.n, -1
            group_min_edge = group_max_edge = None
            while j < len(edges_c) and edges_c[j][0] == edges_c[i][0]:
                pu, pv, u, v = edges_c[j]
                if pv < group_min_pos:
                    group_min_pos, group_min_edge = pv, (u, v)
                if pv > group_max_pos:
                    group_max_pos, group_max_edge = pv, (u, v)
                j += 1
            if prev_max_edge is not None and group_min_pos < prev_max_pos:
                return OrderCheck(False, "target-order", (prev_max_edge, group_min_edge, c))
            if group_max_pos > prev_max_pos:
                prev_max_pos, prev_max_edge = group_max_pos, group_max_edge
            i = j
    return OrderCheck(True)


def check_colex_axioms(a: Automaton, rel: set[tuple[int, int]]) -> OrderCheck:
    """Check that rel is a strict partial order satisfying the co-lex axioms.

    rel holds pairs (u, v) meaning u strictly precedes v. Axioms: comparable
    states respect in-letters (treating the source's missing in-letter as
    smallest), and for any two same-letter edges u->v, u'->v' with v < v' and
    u != u', the sources must satisfy u < u'. The pairwise edge scan is
    quadratic in the edge count by design.
    """
    for u, v in rel:
        if u == v:
            return OrderCheck(False, "not-irreflexive", (u,))
        if (v, u) in rel:
            return OrderCheck(False, "not-antisymmetric", (u, v))
    for u, v in sorted(rel):
        for w, x in sorted(rel):
            if v == w and (u, x) not in rel:
                return OrderCheck(False, "not-transitive", (u, v, x))
    in_letters: list[set[int]] = [set() for _ in range(a.n)]
    for _, v, c in a.edges():
        in_letters[v].add(c)
    for v in range(a.n):
        if len(in_letters[v]) > 1:
            return OrderCheck(False, "in-label-conflict", (v, tuple(sorted(in_letters[v]))))
    lam = [min(in_letters[v]) if in_letters[v] else -1 for v in range(a.n)]
    for u, v in sorted(rel):
        if lam[u] > lam[v]:
            return OrderCheck(False, "letter-axiom", (u, v))
    edges = a.sorted_edges()
    for u, v, c in edges:
        for u2, v2, c2 in edges:
            if c == c2 and (v, v2) in rel and u != u2 and (u, u2) not in rel:
                return OrderCheck(False, "edge-axiom", ((u, v), (u2, v2), c))
    return OrderCheck(True)


# ---------------------------------------------------------------------------
# truncated infima / suprema and the co-lex relation


def brute_truncated_bounds(
    a: Automaton, k: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Co-lex smallest and greatest length-<=k reaching string per state.

    Strings reaching v and longer than k are truncated to their last k
    letters before comparing. Computed by k rounds of dynamic programming
    over dense ranks, so runtime stays polynomial even though the strings
    may repeat; the witness strings are rebuilt from argmin/argmax choices.
    Requires every non-source state to have an in-edge.
    """
    preds: list[list[int]] = [[] for _ in range(a.n)]
    for u, v, _ in a.edges():
        preds[v].append(u)
    for v in range(a.n):
        if v != a.source and not preds[v]:
            raise ValueError(f"state {v} has no in-edge; bounds undefined")
        preds[v] = sorted(set(preds[v]))
    choice_min = _truncated_choices(a, preds, k, 1)
    choice_max = _truncated_choices(a, preds, k, -1)
    return [(_rebuild(a, choice_min, v, k), _rebuild(a, choice_max, v, k)) for v in range(a.n)]


def _truncated_choices(a: Automaton, preds: list[list[int]], k: int, sign: int) -> list[list[int]]:
    """choice[t][v]: the predecessor of v picked at round t + 1, toward the
    co-lex smallest string (sign 1) or the greatest (sign -1)."""
    lam = a.in_labels()
    rank = [0] * a.n
    choice: list[list[int]] = []
    for _ in range(k):
        keys: list[tuple[int, int]] = []
        pick = [-1] * a.n
        for v in range(a.n):
            if v == a.source:
                keys.append((-1, -1))
                continue
            pick[v] = min(preds[v], key=lambda u: (sign * rank[u], u))
            keys.append((int(lam[v]), rank[pick[v]]))
        rank = _dense_ranks(keys)
        choice.append(pick)
    return choice


def _dense_ranks(keys: list[tuple[int, int]]) -> list[int]:
    palette = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [palette[key] for key in keys]


def _rebuild(a: Automaton, choice: list[list[int]], v: int, k: int) -> tuple[int, ...]:
    lam = a.in_labels()
    letters: list[int] = []
    t = k
    cur = v
    while t > 0 and cur != a.source:
        letters.append(int(lam[cur]))
        cur = choice[t - 1][cur]
        t -= 1
    return tuple(reversed(letters))


def brute_colex_relation(a: Automaton, k: int | None = None) -> set[tuple[int, int]]:
    """The smallest-width co-lex relation, from truncated bounds at depth k.

    Pair (u, v) is in the relation when the greatest truncated string of u
    precedes or equals the smallest truncated string of v. Depth defaults to
    2n, which is enough for the truncated comparison to settle.
    """
    if k is None:
        k = 2 * a.n
    bounds = brute_truncated_bounds(a, k)
    rel = set()
    for u in range(a.n):
        for v in range(a.n):
            if u != v and colex_leq(bounds[u][1], bounds[v][0]):
                rel.add((u, v))
    return rel


def max_antichain(n: int, rel: set[tuple[int, int]]) -> int:
    """Size of a maximum antichain of the strict partial order rel on 0..n-1.

    Computed as n minus a maximum bipartite matching of the comparability
    graph; by Dilworth's and Koenig's theorems this equals the minimum
    number of chains covering all states.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(rel):
        succ[u].append(v)
    match_right = [-1] * n

    def augment(u: int, seen: list[bool]) -> bool:
        for v in succ[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    matched = 0
    for u in range(n):
        if augment(u, [False] * n):
            matched += 1
    return n - matched


# ---------------------------------------------------------------------------
# strings, languages and prefix sorting


def naive_prefix_sort(s: Sequence[int]) -> list[int]:
    """Indices 0..len(s) of the prefixes of s, sorted co-lexicographically."""
    s = tuple(int(c) for c in s)
    return sorted(range(len(s) + 1), key=lambda i: colex_key(s[:i]))


def reachable_strings(a: Automaton, max_len: int) -> set[tuple[int, ...]]:
    """All strings of length <= max_len spelled by walks leaving the source.

    Literal breadth-first enumeration; exponential in max_len, so keep the
    bound tiny (single digits).
    """
    frontier: dict[tuple[int, ...], set[int]] = {(): {a.source}}
    found: set[tuple[int, ...]] = {()}
    out = a.out_map()
    for _ in range(max_len):
        next_frontier: dict[tuple[int, ...], set[int]] = {}
        for s, states in frontier.items():
            for u in states:
                for v, c in out[u]:
                    next_frontier.setdefault(s + (c,), set()).add(v)
        frontier = next_frontier
        found.update(frontier)
    return found


def _det_step(a: Automaton, subset: frozenset[int], c: int) -> frozenset[int]:
    out = a.out_map()
    return frozenset(v for u in subset for v, letter in out[u] if letter == c)


def same_language(a: Automaton, b: Automaton) -> bool:
    """True when a and b spell exactly the same set of strings from their sources.

    Every state counts as accepting (walk labels form a prefix-closed set).
    Exact product subset construction, for desk-scale state counts.
    """
    return _subset_pairs_agree(a, b, lambda pa, pb: bool(pa) == bool(pb))


def same_reaching_strings(a: Automaton, b: Automaton, u: int, v: int) -> bool:
    """True when the walks source->u in a and source->v in b spell the same set.

    Exact: determinizes both sides on the fly and compares membership of u
    resp. v at every reachable subset pair.
    """
    return _subset_pairs_agree(a, b, lambda pa, pb: (u in pa) == (v in pb))


def _subset_pairs_agree(a: Automaton, b: Automaton, agree) -> bool:
    """Whether agree(pa, pb) holds at every pair of subsets that one string
    reaches in a and in b (the product of both subset constructions)."""
    sigma = max(a.sigma, b.sigma)
    start = (frozenset({a.source}), frozenset({b.source}))
    seen = {start}
    queue = [start]
    while queue:
        pa, pb = queue.pop()
        if not agree(pa, pb):
            return False
        for c in range(sigma):
            nxt = (_det_step(a, pa, c), _det_step(b, pb, c))
            if nxt != (frozenset(), frozenset()) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True
