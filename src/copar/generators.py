"""Seeded generators for test corpora: Wheeler NFAs, random DFAs, random NFAs.

Every generated automaton is clean by construction: all states reachable,
no in-edges at the source, one in-letter per state, every letter used.

Each generator is specified by per-draw calls on random.Random(seed):
randrange, randint, sample, shuffle and choice, one call per value. It
makes the same draws in numpy passes instead, reading the generator's
32-bit words as a stream (_Words): every value is the one that call
returns, and whenever the generator is called directly again it is in the
state those calls leave, so later draws see the same words. Only
gen_random_dfa's spanning tree and near-saturation fallback and
gen_wheeler_nfa's block cuts and backbone climbs stay Python calls. This
rests on three CPython internals, the same in 3.10 to 3.13:

- getrandbits(32 * w) returns the next w 32-bit words of the Mersenne
  Twister, the first drawn least significant;
- _randbelow(b), under randrange, randint, sample, shuffle and choice,
  draws getrandbits(b.bit_length()), the top bits of one word, until the
  value is below b;
- sample(population, k) shuffles a pool when len(population) is at most
  its setsize, 21 + 4 ** ceil(log(3k, 4)) for k > 5, and otherwise draws
  until it has k distinct indices.

tests/test_generators.py keeps the per-call generators as references and
checks every generator and replay against them, on every Python that CI
runs.
"""

from __future__ import annotations

import math
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


# calls resolved per numpy pass; bounds the words held at once
_BLOCK = 1 << 14


class _Words:
    """rng's 32-bit words in draw order, for replayed _randbelow calls to
    read. The stream draws them ahead, so rng runs ahead of the calls;
    seek() puts it back where they leave it, before rng is called again."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.start = rng.getstate()
        self.read = 0  # words the calls took since start
        self.ahead = np.empty(0, dtype="<u4")  # words drawn after those

    def randbelow(self, bounds) -> tuple[np.ndarray, np.ndarray]:
        """The values of rng._randbelow(b) for b in bounds, called in order
        from the stream's place, and `read` at the end of each call. Every
        bound is in [1, 2**32).

        _randbelow(b) takes getrandbits(k), for k = b.bit_length(), until it
        is below b, and getrandbits(k) is the top k bits of one word: a call
        accepts a word below b << (32 - k) and returns it >> (32 - k). Each
        call takes at most two words on average, and each pass draws that
        many for up to _BLOCK calls at once, with one getrandbits call.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        values = np.empty(len(bounds), np.int64)
        ends = np.empty(len(bounds), np.int64)
        done = 0
        while done < len(bounds):
            b = bounds[done : done + _BLOCK]
            shift = 32 - np.frexp(b)[1]
            more = 2 * len(b) + 16 - len(self.ahead)
            if more > 0:
                drawn = self.rng.getrandbits(32 * more).to_bytes(4 * more, "little")
                self.ahead = np.concatenate((self.ahead, np.frombuffer(drawn, dtype="<u4")))
            w = self.ahead
            at = _accepted(b << shift, w)
            k = len(at)
            values[done : done + k] = w[at] >> shift[:k]
            ends[done : done + k] = self.read + at + 1
            # calls left over rejected every word after the last accepted one
            used = int(at[-1]) + 1 if k == len(b) else len(w)
            self.read += used
            self.ahead = w[used:]
            done += k
        return values, ends

    def seek(self, read: int) -> None:
        """Put the stream, and rng, `read` words past the start."""
        self.rng.setstate(self.start)
        for step in range(0, read, 16 * _BLOCK):
            self.rng.getrandbits(32 * min(16 * _BLOCK, read - step))
        self.read = read
        self.ahead = self.ahead[:0]


def _draw(rng: random.Random, bounds) -> np.ndarray:
    """rng._randbelow(b) for b in bounds, leaving rng as those calls do."""
    words = _Words(rng)
    values = words.randbelow(bounds)[0]
    words.seek(words.read)
    return values


def _accepted(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Where each call takes the word it accepts, for calls with thresholds
    t reading the words w in turn, as far as the calls or the words go.

    Call c reads words from the one after call c - 1's accepted word and
    accepts the first below t[c]. When the thresholds alternate between
    two values (one is the case of equal values), the parity of the call
    reading a word follows from the words before it: a word both calls
    accept flips it, a word one of them accepts sets it to the other's, and
    the others keep it. Otherwise the call reading each word is iterated
    from a guess, each call taking its mean count of words, to the unique
    fixed point: the decisions made under a guess that is right up to some
    word are right there, so each round is right one word further at
    least, and the rounds stop when the calls they count agree with the
    guess. A wrong guess changes few decisions where nearby calls have
    close thresholds, as on the generators' ramps of bounds, which settle in
    2 to 25 rounds a block; thresholds that jump from call to call would
    take about one round per few words.
    """
    a0 = w < t[0]
    if len(t) < 2 or t[1] == t[0] and (t == t[0]).all():
        return np.flatnonzero(a0)[: len(t)]
    if (t[2:] == t[:-2]).all():
        a1 = w < t[1]
        flips = np.cumsum(a0 & a1)
        set_at = np.maximum.accumulate(np.where(a0 != a1, np.arange(len(w)), -1))
        after = np.where(set_at < 0, flips, a0[set_at] + flips - flips[set_at]) & 1
        return np.flatnonzero(np.where(np.concatenate(([False], after[:-1] == 1)), a1, a0))[: len(t)]
    last = len(t) - 1
    # call c takes 2**32 / t[c] words on average; the guess counts the calls
    # whose mean end lies at or before each word
    mean_ends = np.minimum(np.cumsum(2.0**32 / t).astype(np.int64), len(w))
    guess = np.minimum(np.cumsum(np.bincount(mean_ends, minlength=len(w) + 1)[:-1]), last)
    while True:
        acc = w < t[guess]
        count = np.minimum(np.cumsum(acc) - acc, last)
        if np.array_equal(count, guess):
            return np.flatnonzero(acc)[: len(t)]
        guess = count


def _first(keys: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each key: a sort of the keys finds
    the repeated ones, and a stable sort orders only those."""
    k = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    repeated = k[1:][k[1:] == k[:-1]]
    if len(repeated):
        p = np.minimum(np.searchsorted(repeated, keys), len(repeated) - 1)
        i = np.flatnonzero(repeated[p] == keys)
        o = np.argsort(keys[i], kind="stable")
        r = keys[i][o]
        first[i[o[1:][r[1:] == r[:-1]]]] = False
    return first


def _taken(j: np.ndarray, size: int) -> np.ndarray:
    """The values a partial Fisher-Yates pass over range(size) takes: step i
    takes the value at position j[i] of the live prefix [0, size - i) and
    moves the last live value, at size - 1 - i, into position j[i].

    Step i takes the value the latest earlier step at position j[i] moved
    there, or j[i] itself if there is none. The value step i moves is the
    one the latest earlier step at position size - 1 - i moved there, and
    so on back, by pointer jumping, to a step whose last live position no
    earlier step took, which moves that position's own value.
    """
    k = len(j)
    key = j * k
    key += np.arange(k)
    key.sort()
    # positions in order, each one's steps in order; both below 2**31
    js, o = (x.astype(np.int32) for x in np.divmod(key, k))
    del key
    prev = np.full(k, -1, dtype=np.int32)
    again = np.flatnonzero(js[1:] == js[:-1]) + 1
    prev[o[again]] = o[again - 1]
    del again
    steps = np.arange(k, dtype=np.int32)
    last = size - 1 - steps
    p = np.maximum(np.searchsorted(js, last, side="right") - 1, 0)
    link = np.where(js[p] == last, o[p], steps)
    del js, o, p, last
    link = np.where(link < steps, link, steps)
    del steps
    while not np.array_equal(root := link[link], link):
        link = root
    return np.where(prev < 0, j, size - 1 - link[prev])


def _sample(rng: random.Random, size: int, k: int) -> np.ndarray:
    """rng.sample(range(size), k) as an array, leaving rng as that call
    leaves it.

    CPython takes the pool path, k steps of a partial Fisher-Yates pass
    drawing _randbelow(size - i), when size is at most its setsize;
    otherwise it draws _randbelow(size) until it has k distinct values.
    """
    if k == 0:
        return np.empty(0, np.int64)
    if size >= 1 << 32:
        return np.array(rng.sample(range(size), k), dtype=np.int64)
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if size <= setsize:
        return _taken(_draw(rng, np.arange(size, size - k, -1)), size)
    words = _Words(rng)
    values, ends = words.randbelow(np.full(k + k // 4 + 32, size))  # at least the mean: size > 3k
    while len(first := np.flatnonzero(_first(values))) < k:
        more, more_ends = words.randbelow(np.full(k - len(first) + 32, size))
        values, ends = np.concatenate((values, more)), np.concatenate((ends, more_ends))
    words.seek(int(ends[first[k - 1]]))
    return values[first[:k]]


def _from_columns(n: int, sigma: int, src, dst, lam: np.ndarray) -> Automaton:
    """The automaton with source 0 on the distinct edges src -> dst, each
    labelled with its target's in-letter lam[dst - 1], rows sorted by
    (from, to): the sorted keys from * n + to, which fit in int64."""
    key = np.asarray(src, dtype=np.int64) * n
    key += dst
    key.sort()
    src, dst = np.divmod(key, n)
    del key
    return Automaton._adopt(n, sigma, 0, src, dst, lam[dst - 1])


def gen_wheeler_nfa(n: int, m: int, sigma: int, seed: int) -> Automaton:
    """Random NFA that is Wheeler under the identity order of its states.

    States 1..n-1 form sigma consecutive blocks, one per letter, in letter
    order. Each block draws a nondecreasing backbone of sources below the
    block start, which keeps every state reachable; extra edges fill the
    slots between consecutive backbone sources (and above the last one for
    the block's last state), which preserves the per-letter source/target
    monotonicity. Feasible for n-1 >= sigma >= 1 and
    n-1 <= m <= (sigma+1)*(n-1).

    The draws come in a fixed order: the rng.sample of the block cuts; per
    block the backbone's first source and its rng.randint(prev, lo - 1)
    draws while they stay below the block start lo, a Python loop; and one
    rng.sample of the extra edges' slots, a numpy pass. Once a backbone
    reaches lo - 1, each later source is a forced randint(lo - 1, lo - 1),
    whose draws one numpy pass replays. Slots, sources and the edge sort
    are numpy passes too.
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
            _draw(rng, np.ones(size - len(srcs), np.int64))
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
    idx = _sample(rng, int(slot_prefix[-1]), m - (n - 1))
    s = np.searchsorted(slot_prefix, idx, side="right") - 1
    rows = slotted[s]
    return _from_columns(
        n,
        sigma,
        np.concatenate((src, src[rows] + 1 + idx - slot_prefix[s])),
        np.concatenate((np.arange(1, n), rows + 1)),
        np.repeat(np.arange(sigma), sizes),
    )


def _random_start(n: int, sigma: int, seed: int, m: int | None) -> random.Random:
    """Check the arguments shared by the random DFA and NFA; the seeded RNG."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_sigma(n, sigma)
    if n == 1 and m not in (None, 0):
        raise ValueError("single-state automaton has no edges")
    return random.Random(seed)


def _tree_letters(n: int, sigma: int, words: _Words) -> np.ndarray:
    """In-letter per state 1..n-1; states 1..sigma cover the alphabet and
    the others draw rng.randrange(sigma)."""
    return np.concatenate((np.arange(sigma), words.randbelow(np.full(n - 1 - sigma, sigma))[0]))


def _extra_pairs(words: _Words, n: int, pairs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, u, ends): the draws v = rng.randrange(1, n), u = rng.randrange(n)
    of `pairs` candidate extra edges u -> v, and the stream's `read` at
    each pair's end."""
    values, ends = words.randbelow(np.tile(np.array([n - 1, n]), pairs))
    return values[0::2] + 1, values[1::2], ends[1::2]


def _pairs_for(total: int, free: int, need: int) -> int:
    """About the candidates, uniform over `total` slots of which `free` are
    free, that it takes to hit `need` distinct free slots."""
    return int(total * math.log((free + 0.5) / (free - need + 0.5)) * 1.1) + 32


def _dfa_extras(words: _Words, n: int, sigma: int, lam: np.ndarray, taken: np.ndarray, need: int):
    """(u, v, end): the extra edges gen_random_dfa's rejection loop keeps,
    their slots u * sigma + lam[v - 1] marked in taken, and the stream's
    `read` after the loop's last draw. Candidate a is drawn while edges are
    still needed and a < 50 * (those) + 200; it is kept if its slot is
    free."""
    most = 50 * need + 200
    v, u, ends = _extra_pairs(words, n, min(most, _pairs_for(len(taken), len(taken) - (n - 1), need)))
    while True:
        slot = u * sigma + lam[v - 1]
        new = _first(slot) & ~taken[slot]
        left = need - (np.cumsum(new) - new)
        stop = np.flatnonzero((left == 0) | (np.arange(len(u)) >= 50 * left + 200))
        if len(stop) or len(u) == most:
            break
        more = _extra_pairs(words, n, min(len(u), most - len(u)))
        v, u, ends = (np.concatenate(x) for x in zip((v, u, ends), more))
    drawn = int(stop[0]) if len(stop) else most  # at least 200
    kept = np.flatnonzero(new[:drawn])
    taken[slot[kept]] = True
    return u[kept], v[kept], int(ends[drawn - 1])


def gen_random_dfa(n: int, sigma: int, seed: int, m: int | None = None) -> Automaton:
    """Random input-consistent DFA built on a spanning tree.

    Each state v >= 1 draws a fixed in-letter (states 1..sigma take letters
    0..sigma-1 so every letter is used) and a tree parent below it with
    that out-slot free (with one letter only v - 1 has it, so the tree is
    the path, drawn in O(n)); extra edges are rejection-sampled among the
    remaining free (source, letter) slots, and when that stalls the rest
    come from the free slots in shuffled order. m counts all edges and
    defaults to a seed-dependent value in [n-1, min(3*(n-1), n*sigma)].

    The tree parents are a Python loop, as each state's draws depend on the
    slots earlier states took, and so is the fallback's shuffle and choice;
    the letters and the rejection-sampled candidates are numpy passes.
    """
    rng = _random_start(n, sigma, seed, m)
    if n == 1:
        return Automaton(1, sigma, 0, [])
    cap = n * sigma
    if m is None:
        m = rng.randint(n - 1, min(3 * (n - 1), cap))
    if not n - 1 <= m <= cap:
        raise ValueError(f"infeasible: need n-1 <= m <= n*sigma, got m={m} for n={n}, sigma={sigma}")
    words = _Words(rng)
    lam = _tree_letters(n, sigma, words)
    words.seek(words.read)
    letters = lam.tolist()
    used = bytearray(cap)  # used[u * sigma + c]: u's out-slot for letter c is taken
    parent: list[int] = []
    for v in range(1, n):
        c = letters[v - 1]
        if sigma == 1:  # states 0 .. v - 2 have used their one out-slot
            u = v - 1
        else:
            u = rng.randrange(v)
            while used[u * sigma + c]:
                u = rng.randrange(v)
        used[u * sigma + c] = 1
        parent.append(u)
    del letters
    src, dst = [np.array(parent, dtype=np.int64)], [np.arange(1, n)]
    del parent
    taken = np.frombuffer(used, dtype=bool)
    need = m - (n - 1)
    if need:
        words = _Words(rng)
        u, v, end = _dfa_extras(words, n, sigma, lam, taken, need)
        src.append(u)
        dst.append(v)
        need -= len(u)
    if need:
        # near saturation rejection stalls: shuffle the free slots, in
        # (source, letter) order, and give each of the first `need` a
        # target drawn from the states with its letter
        words.seek(end)
        free = np.flatnonzero(~taken).tolist()
        rng.shuffle(free)
        free = np.array(free[:need])
        letter = free % sigma
        by_letter = np.sort(lam * n + np.arange(n - 1)) % n + 1
        counts = np.bincount(lam, minlength=sigma)
        pick = [rng.choice(range(count)) for count in counts[letter].tolist()]
        src.append(free // sigma)
        dst.append(by_letter[np.cumsum(counts)[letter] - counts[letter] + pick])
    return _from_columns(n, sigma, np.concatenate(src), np.concatenate(dst), lam)


def _nfa_extras(words: _Words, n: int, parent: np.ndarray, need: int):
    """(u, v) of the extra edges gen_random_nfa's rejection loop keeps: the
    first `need` candidates whose pair is new among the tree edges and the
    earlier candidates. These are the generator's last draws, so the
    stream may stop past them."""
    v, u, _ = _extra_pairs(words, n, _pairs_for(n * (n - 1), n * (n - 1) - (n - 1), need))
    while len(kept := np.flatnonzero(_first(u * n + v) & (u != parent[v - 1]))) < need:
        more_v, more_u, _ = _extra_pairs(words, n, len(u))
        v, u = np.concatenate((v, more_v)), np.concatenate((u, more_u))
    return u[kept[:need]], v[kept[:need]]


def gen_random_nfa(n: int, sigma: int, seed: int, m: int | None = None) -> Automaton:
    """Random input-consistent NFA: like gen_random_dfa without the
    one-slot-per-(source, letter) constraint. m defaults like there and can
    reach n*(n-1), one edge per (source, target) pair.

    Every draw is a numpy pass: the letters, the tree parents
    rng.randrange(v) for v = 1..n-1, and the extra edges' candidates."""
    rng = _random_start(n, sigma, seed, m)
    if n == 1:
        return Automaton(1, sigma, 0, [])
    cap = n * (n - 1)
    if m is None:
        m = rng.randint(n - 1, min(3 * (n - 1), cap))
    if not n - 1 <= m <= cap:
        raise ValueError(f"infeasible: need n-1 <= m <= n*(n-1), got m={m} for n={n}")
    words = _Words(rng)
    lam = _tree_letters(n, sigma, words)
    parent = words.randbelow(np.arange(1, n))[0]
    src, dst = [parent], [np.arange(1, n)]
    if m > n - 1:
        u, v = _nfa_extras(words, n, parent, m - (n - 1))
        src.append(u)
        dst.append(v)
    return _from_columns(n, sigma, np.concatenate(src), np.concatenate(dst), lam)
