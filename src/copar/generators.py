"""Seeded generators for test corpora: Wheeler NFAs, random DFAs, random NFAs.

Every generated automaton is clean by construction: all states reachable,
no in-edges at the source, one in-letter per state, every letter used.
"""

from __future__ import annotations

import random

import numpy as np

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


def _skip_unit_draws(rng: random.Random, count: int) -> None:
    """Advance rng as count calls of rng.randint(x, x) would.

    In CPython, randint(x, x) is _randbelow(1): it draws 32-bit words until
    one has its top bit clear. Each call takes at least one word, so the
    next count words all belong to the count calls; getrandbits(32 * count)
    draws them at once, little-endian in draw order, and each clear word
    among them ends one call.
    """
    while count > 0:
        words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        count -= int(np.count_nonzero(np.frombuffer(words, dtype="<u4") < 1 << 31))


def _from_columns(n: int, sigma: int, src, dst, lab) -> Automaton:
    """The automaton with source 0 on these edge columns, rows sorted by
    (from, to, letter)."""
    src, dst, lab = (np.asarray(col, dtype=np.int64) for col in (src, dst, lab))
    o = np.lexsort((lab, dst, src))
    return Automaton._adopt(n, sigma, 0, src[o], dst[o], lab[o])


def gen_wheeler_nfa(n: int, m: int, sigma: int, seed: int) -> Automaton:
    """Random NFA that is Wheeler under the identity order of its states.

    States 1..n-1 form sigma consecutive blocks, one per letter, in letter
    order. Each block draws a nondecreasing backbone of sources below the
    block start, which keeps every state reachable; extra edges fill the
    slots between consecutive backbone sources (and above the last one for
    the block's last state), which preserves the per-letter source/target
    monotonicity. Feasible for n-1 >= sigma >= 1 and
    n-1 <= m <= (sigma+1)*(n-1).

    The edges are a fixed function of the seed. Only the random draws run
    in Python, in a fixed order: the rng.sample of the block cuts; per block
    the backbone's first source and its rng.randint(prev, lo - 1) draws
    while they stay below the block start lo; and one rng.sample of the
    extra edges' slots. Once a backbone reaches lo - 1, each later source is
    a forced randint(lo - 1, lo - 1), and _skip_unit_draws advances the
    generator past all of them in a few getrandbits blocks. Slots, sources
    and the edge sort are numpy passes.
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
    bounds = np.array([1] + cuts + [n])
    lows, sizes = bounds[:-1], np.diff(bounds)

    def draw_backbone(force_zero: bool) -> np.ndarray:
        # src[v - 1] is the backbone source of state v; a block's sources
        # end at lo - 1 once a draw reaches it
        src = np.repeat(lows - 1, sizes)
        for lo, size in zip(lows.tolist(), sizes.tolist()):
            srcs = [0 if force_zero else rng.randint(0, lo - 1)]
            while len(srcs) < size and srcs[-1] < lo - 1:
                srcs.append(rng.randint(srcs[-1], lo - 1))
            _skip_unit_draws(rng, size - len(srcs))
            src[lo - 1 : lo - 1 + len(srcs)] = srcs
        return src

    src = draw_backbone(False)
    capacity = (n - 1) + sigma * (n - 1) - int(src[lows - 1].sum())
    if capacity < m:
        src = draw_backbone(True)

    # state v's slots are the sources above its backbone source and up to
    # the next state's one, or up to n - 1 for a block's last state
    top = np.append(src[1:], n - 1)
    top[bounds[1:] - 2] = n - 1
    width = top - src
    slotted = np.flatnonzero(width > 0)
    slot_prefix = np.concatenate(([0], np.cumsum(width[slotted])))
    idx = np.array(rng.sample(range(int(slot_prefix[-1])), m - (n - 1)), dtype=np.int64)
    s = np.searchsorted(slot_prefix, idx, side="right") - 1
    rows = slotted[s]
    lab = np.repeat(np.arange(sigma), sizes)
    return _from_columns(
        n,
        sigma,
        np.concatenate((src, src[rows] + 1 + idx - slot_prefix[s])),
        np.concatenate((np.arange(1, n), rows + 1)),
        np.concatenate((lab, lab[rows])),
    )


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
    that out-slot free (with one letter only v - 1 has it, so the tree is
    the path, drawn in O(n)); extra edges are rejection-sampled among the
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
    # every edge carries its target's in-letter lam[v - 1]
    src: list[int] = []
    dst: list[int] = []
    for v in range(1, n):
        c = lam[v - 1]
        if sigma == 1:  # states 0 .. v - 2 have used their one out-slot
            u = v - 1
        else:
            while True:
                u = rng.randrange(v)
                if (u, c) not in used:
                    break
        used.add((u, c))
        src.append(u)
        dst.append(v)
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
        src.append(u)
        dst.append(v)
        need -= 1
    if need > 0:
        # near saturation rejection stalls; fill from the enumerated free slots
        by_letter: dict[int, list[int]] = {}
        for v in range(1, n):
            by_letter.setdefault(lam[v - 1], []).append(v)
        free = [(u, c) for u in range(n) for c in by_letter if (u, c) not in used]
        rng.shuffle(free)
        for u, c in free[:need]:
            src.append(u)
            dst.append(rng.choice(by_letter[c]))
    return _from_columns(n, sigma, src, dst, np.array(lam)[np.array(dst) - 1])


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
    # every edge carries its target's in-letter lam[v - 1]
    src: list[int] = []
    dst: list[int] = []
    for v in range(1, n):
        u = rng.randrange(v)
        used.add((u, v))
        src.append(u)
        dst.append(v)
    need = m - (n - 1)
    while need > 0:
        v = rng.randrange(1, n)
        u = rng.randrange(n)
        if (u, v) in used:
            continue
        used.add((u, v))
        src.append(u)
        dst.append(v)
        need -= 1
    return _from_columns(n, sigma, src, dst, np.array(lam)[np.array(dst) - 1])
