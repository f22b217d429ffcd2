"""Seeded generators for test corpora: Wheeler NFAs, random DFAs, random NFAs.

Every generated automaton is clean by construction: all states reachable,
no in-edges at the source, one in-letter per state, every letter used.
"""

from __future__ import annotations

import bisect
import random

from copar.automaton import Automaton


def _check_sigma(n: int, sigma: int) -> None:
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0 and n > 1:
        raise ValueError("sigma 0 allows only the single-state automaton")
    if n - 1 < sigma:
        raise ValueError(
            f"infeasible: need at least one non-source state per letter (n-1={n - 1} < sigma={sigma})"
        )


def gen_wheeler_nfa(n: int, m: int, sigma: int, seed: int) -> Automaton:
    """Random NFA that is Wheeler under the identity order of its states.

    States 1..n-1 form sigma consecutive blocks, one per letter, in letter
    order. Each block draws a nondecreasing backbone of sources below the
    block start, which keeps every state reachable; extra edges fill the
    slots between consecutive backbone sources (and above the last one for
    the block's last state), which preserves the per-letter source/target
    monotonicity. Feasible for n-1 >= sigma >= 1 and
    n-1 <= m <= (sigma+1)*(n-1).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if sigma < 1:
        raise ValueError("need sigma >= 1")
    _check_sigma(n, sigma)
    if not n - 1 <= m <= (sigma + 1) * (n - 1):
        raise ValueError(
            f"infeasible: need n-1 <= m <= (sigma+1)*(n-1), got m={m} for n={n}, sigma={sigma}"
        )
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(2, n), sigma - 1))
    bounds = [1] + cuts + [n]

    def draw_backbone(force_zero: bool) -> list[list[int]]:
        per_block = []
        for c in range(sigma):
            lo, hi = bounds[c], bounds[c + 1] - 1
            srcs = [0 if force_zero else rng.randint(0, lo - 1)]
            for _ in range(lo + 1, hi + 1):
                srcs.append(rng.randint(srcs[-1], lo - 1))
            per_block.append(srcs)
        return per_block

    backbones = draw_backbone(False)
    capacity = (n - 1) + sum(n - 1 - srcs[0] for srcs in backbones)
    if capacity < m:
        backbones = draw_backbone(True)

    edges: list[tuple[int, int, int]] = []
    slot_prefix: list[int] = [0]
    slot_base: list[int] = []
    slot_target: list[int] = []
    slot_letter: list[int] = []
    for c in range(sigma):
        lo, hi = bounds[c], bounds[c + 1] - 1
        srcs = backbones[c]
        for v, u in zip(range(lo, hi + 1), srcs):
            edges.append((u, v, c))
            top = srcs[v - lo + 1] if v < hi else n - 1
            if top > u:
                slot_prefix.append(slot_prefix[-1] + (top - u))
                slot_base.append(u)
                slot_target.append(v)
                slot_letter.append(c)
    extras = m - (n - 1)
    for idx in rng.sample(range(slot_prefix[-1]), extras):
        s = bisect.bisect_right(slot_prefix, idx) - 1
        w = slot_base[s] + 1 + (idx - slot_prefix[s])
        edges.append((w, slot_target[s], slot_letter[s]))
    return Automaton(n, sigma, 0, sorted(edges))


def _random_start(n: int, sigma: int, seed: int, m: int | None) -> random.Random:
    """Check the arguments shared by the random DFA and NFA; the seeded RNG."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_sigma(n, sigma)
    if n == 1 and m not in (None, 0):
        raise ValueError("single-state automaton has no edges")
    return random.Random(seed)


def _tree_letters(n: int, sigma: int, rng: random.Random) -> list[int]:
    """In-letter per state 1..n-1; states 1..sigma cover the alphabet."""
    return [v - 1 if v <= sigma else rng.randrange(sigma) for v in range(1, n)]


def gen_random_dfa(n: int, sigma: int, seed: int, m: int | None = None) -> Automaton:
    """Random input-consistent DFA built on a spanning tree.

    Each state v >= 1 draws a fixed in-letter (states 1..sigma take letters
    0..sigma-1 so every letter is used) and a tree parent below it with
    that out-slot free; extra edges are rejection-sampled among the
    remaining free (source, letter) slots. m counts all edges and defaults
    to a seed-dependent value in [n-1, min(3*(n-1), n*sigma)].
    """
    rng = _random_start(n, sigma, seed, m)
    if n == 1:
        return Automaton(1, sigma, 0, [])
    cap = n * sigma
    if m is None:
        m = rng.randint(n - 1, min(3 * (n - 1), cap))
    if not n - 1 <= m <= cap:
        raise ValueError(f"infeasible: need n-1 <= m <= n*sigma, got m={m} for n={n}, sigma={sigma}")
    lam = _tree_letters(n, sigma, rng)
    used: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    for v in range(1, n):
        c = lam[v - 1]
        while True:
            u = rng.randrange(v)
            if (u, c) not in used:
                break
        used.add((u, c))
        edges.append((u, v, c))
    need = m - (n - 1)
    attempts = 0
    while need > 0 and attempts < 50 * need + 200:
        attempts += 1
        v = rng.randrange(1, n)
        u = rng.randrange(n)
        c = lam[v - 1]
        if (u, c) in used:
            continue
        used.add((u, c))
        edges.append((u, v, c))
        need -= 1
    if need > 0:
        # near saturation rejection stalls; fill from the enumerated free slots
        by_letter: dict[int, list[int]] = {}
        for v in range(1, n):
            by_letter.setdefault(lam[v - 1], []).append(v)
        free = [(u, c) for u in range(n) for c in by_letter if (u, c) not in used]
        rng.shuffle(free)
        for u, c in free[:need]:
            edges.append((u, rng.choice(by_letter[c]), c))
    return Automaton(n, sigma, 0, sorted(edges))


def gen_random_nfa(n: int, sigma: int, seed: int, m: int | None = None) -> Automaton:
    """Random input-consistent NFA: like gen_random_dfa without the
    one-slot-per-(source, letter) constraint. m defaults like there and can
    reach n*(n-1), one edge per (source, target) pair."""
    rng = _random_start(n, sigma, seed, m)
    if n == 1:
        return Automaton(1, sigma, 0, [])
    cap = n * (n - 1)
    if m is None:
        m = rng.randint(n - 1, min(3 * (n - 1), cap))
    if not n - 1 <= m <= cap:
        raise ValueError(f"infeasible: need n-1 <= m <= n*(n-1), got m={m} for n={n}")
    lam = _tree_letters(n, sigma, rng)
    used: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    for v in range(1, n):
        u = rng.randrange(v)
        used.add((u, v))
        edges.append((u, v, lam[v - 1]))
    need = m - (n - 1)
    while need > 0:
        v = rng.randrange(1, n)
        u = rng.randrange(n)
        if (u, v) in used:
            continue
        used.add((u, v))
        edges.append((u, v, lam[v - 1]))
        need -= 1
    return Automaton(n, sigma, 0, sorted(edges))
