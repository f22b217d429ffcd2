"""Random-instance generators: feasibility, validity, reproducibility, the
same edges as the per-edge Python generators they replaced, and the numpy
draw replays against the random.Random methods they replay."""

from __future__ import annotations

import bisect
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copar.automaton import Automaton, validate
from copar.generators import (
    _BLOCK,
    _sample,
    _Words,
    gen_random_dfa,
    gen_random_nfa,
    gen_wheeler_nfa,
)
from copar.oracle import check_wheeler_order

# --- the reference generators: every draw a Python call, edges as tuples ---


def ref_gen_wheeler_nfa(n: int, m: int, sigma: int, seed: int) -> Automaton:
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


def _ref_tree_letters(n: int, sigma: int, rng: random.Random) -> list[int]:
    return [v - 1 if v <= sigma else rng.randrange(sigma) for v in range(1, n)]


def ref_gen_random_dfa(n: int, sigma: int, seed: int, m: int | None = None) -> Automaton:
    rng = random.Random(seed)
    if n == 1:
        return Automaton(1, sigma, 0, [])
    if m is None:
        m = rng.randint(n - 1, min(3 * (n - 1), n * sigma))
    lam = _ref_tree_letters(n, sigma, rng)
    used: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    for v in range(1, n):
        c = lam[v - 1]
        if sigma == 1:  # only v - 1 has its one out-slot free
            u = v - 1
        else:
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
        by_letter: dict[int, list[int]] = {}
        for v in range(1, n):
            by_letter.setdefault(lam[v - 1], []).append(v)
        free = [(u, c) for u in range(n) for c in by_letter if (u, c) not in used]
        rng.shuffle(free)
        for u, c in free[:need]:
            edges.append((u, rng.choice(by_letter[c]), c))
    return Automaton(n, sigma, 0, sorted(edges))


def ref_gen_random_nfa(n: int, sigma: int, seed: int, m: int | None = None) -> Automaton:
    rng = random.Random(seed)
    if n == 1:
        return Automaton(1, sigma, 0, [])
    if m is None:
        m = rng.randint(n - 1, min(3 * (n - 1), n * (n - 1)))
    lam = _ref_tree_letters(n, sigma, rng)
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


def assert_same_automaton(a: Automaton, b: Automaton) -> None:
    assert (a.n, a.sigma, a.source) == (b.n, b.sigma, b.source)
    for x, y in ((a.esrc, b.esrc), (a.edst, b.edst), (a.elab, b.elab)):
        assert np.array_equal(x, y)


def test_wheeler_generator_output_is_wheeler_under_identity():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        sigma = rng.randint(1, min(4, n - 1))
        m_max = (sigma + 1) * (n - 1)
        m = rng.randint(n - 1, m_max)
        a = gen_wheeler_nfa(n, m, sigma, seed)
        assert a.n == n and a.m == m and a.sigma == sigma
        assert validate(a) == []
        res = check_wheeler_order(a, list(range(n)))
        assert res.ok, (seed, res.kind, res.witness)


def test_wheeler_generator_feasibility_errors():
    with pytest.raises(ValueError, match="n >= 2"):
        gen_wheeler_nfa(1, 0, 1, 0)
    with pytest.raises(ValueError, match="sigma"):
        gen_wheeler_nfa(3, 2, 0, 0)
    with pytest.raises(ValueError, match="sigma"):
        gen_wheeler_nfa(3, 2, 3, 0)  # needs n - 1 >= sigma
    with pytest.raises(ValueError, match="m"):
        gen_wheeler_nfa(4, 2, 2, 0)  # fewer than n - 1 edges
    with pytest.raises(ValueError, match="m"):
        gen_wheeler_nfa(4, 100, 2, 0)  # above (sigma + 1)(n - 1)


def test_wheeler_generator_extremes():
    tree = gen_wheeler_nfa(10, 9, 3, 7)
    assert tree.m == 9 and validate(tree) == []
    full = gen_wheeler_nfa(10, 4 * 9, 3, 7)
    assert full.m == 36 and validate(full) == []
    assert check_wheeler_order(full, list(range(10))).ok


def test_dfa_generator_is_deterministic_and_clean():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        sigma = rng.randint(1, 4) if n > 1 else 0
        a = gen_random_dfa(n, sigma, seed)
        assert a.is_deterministic()
        assert validate(a) == []
        assert n - 1 <= a.m <= n * a.sigma


def test_dfa_generator_exact_edge_count():
    a = gen_random_dfa(8, 3, 5, m=15)
    assert a.m == 15 and a.is_deterministic() and validate(a) == []
    with pytest.raises(ValueError, match="m"):
        gen_random_dfa(8, 2, 5, m=100)  # above n * sigma
    with pytest.raises(ValueError, match="m"):
        gen_random_dfa(8, 2, 5, m=3)  # below n - 1


def test_dfa_generator_single_state():
    a = gen_random_dfa(1, 0, 0)
    assert a.n == 1 and a.m == 0 and validate(a) == []


def test_one_letter_dfa_draws_its_tree_in_linear_time():
    """With one letter only state v - 1 has its out-slot free when v draws
    its tree parent; sampling parents below v until the free one came up
    took about v draws a state, 45 s at this size."""
    t = time.perf_counter()
    a = gen_random_dfa(16_000, 1, 10, m=16_000)
    assert time.perf_counter() - t < 1.0
    assert a.m == 16_000 and a.is_deterministic() and validate(a) == []
    tree = np.flatnonzero(a.esrc + 1 == a.edst)
    assert tree.size >= 15_999  # the path 0 -> 1 -> ... -> n - 1


def test_nfa_generator_is_clean():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        sigma = rng.randint(1, 4) if n > 1 else 0
        a = gen_random_nfa(n, sigma, seed)
        assert validate(a) == []
        assert n - 1 <= a.m <= n * (n - 1)


def test_generators_are_reproducible():
    for gen, args in (
        (gen_wheeler_nfa, (12, 20, 3)),
        (gen_random_dfa, (12, 3)),
        (gen_random_nfa, (12, 3)),
    ):
        first = gen(*args, 99)
        second = gen(*args, 99)
        assert first.sorted_edges() == second.sorted_edges()
        other = gen(*args, 100)
        assert first.sorted_edges() != other.sorted_edges()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wheeler_generator_feasible_space(data):
    n = data.draw(st.integers(min_value=2, max_value=24))
    sigma = data.draw(st.integers(min_value=1, max_value=n - 1))
    m = data.draw(st.integers(min_value=n - 1, max_value=(sigma + 1) * (n - 1)))
    seed = data.draw(st.integers(min_value=0, max_value=2**20))
    a = gen_wheeler_nfa(n, m, sigma, seed)
    assert a.m == m and validate(a) == []
    res = check_wheeler_order(a, list(range(n)))
    assert res.ok, (res.kind, res.witness)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_wheeler_generator_matches_the_reference(data):
    n = data.draw(st.integers(min_value=2, max_value=120))
    sigma = data.draw(st.integers(min_value=1, max_value=min(6, n - 1)))
    top = (sigma + 1) * (n - 1)
    m = data.draw(st.sampled_from([n - 1, top]) | st.integers(min_value=n - 1, max_value=top))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    assert_same_automaton(gen_wheeler_nfa(n, m, sigma, seed), ref_gen_wheeler_nfa(n, m, sigma, seed))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_generators_match_the_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=60))
    sigma = data.draw(st.integers(min_value=1, max_value=min(5, n - 1))) if n > 1 else 0
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    m = None
    if n > 1 and data.draw(st.booleans()):
        m = data.draw(st.integers(min_value=n - 1, max_value=n * sigma))
    assert_same_automaton(gen_random_dfa(n, sigma, seed, m), ref_gen_random_dfa(n, sigma, seed, m))
    if n > 1 and data.draw(st.booleans()):
        m = data.draw(st.integers(min_value=n - 1, max_value=n * (n - 1)))
    assert_same_automaton(gen_random_nfa(n, sigma, seed, m), ref_gen_random_nfa(n, sigma, seed, m))


@pytest.mark.parametrize(
    "n,m,sigma,seed",
    [
        (2, 1, 1, 0),  # the smallest automaton: one edge, one block
        (2, 2, 1, 3),
        (40, 39, 1, 5),  # one letter, a tree
        (40, 78, 1, 5),  # one letter, every slot filled
        (300, 299, 3, 11),  # m = n - 1: no extra edges
        (300, 4 * 299, 3, 11),  # m = (sigma + 1)(n - 1): the backbone from source 0
        (30, 29 * 30, 29, 2),  # every block a single state
        (30, 40, 28, 2),  # one-state blocks and one two-state block
        (10**5, 3 * (10**5 - 1), 3, 1729),
        (10**5, 10**5 + 9, 10**5 - 1, 3),  # over 2**32 slots, past one word per draw
    ],
)
def test_wheeler_generator_matches_the_reference_at_fixed_cases(n, m, sigma, seed):
    assert_same_automaton(gen_wheeler_nfa(n, m, sigma, seed), ref_gen_wheeler_nfa(n, m, sigma, seed))


# m = n * sigma fills the last free slots from their list after rejection stalls
@pytest.mark.parametrize(
    "n,sigma,seed,m", [(2, 1, 0, None), (2, 1, 0, 2), (40, 1, 5, 39), (40, 2, 5, 80), (10**5, 4, 7, 2 * 10**5)]
)
def test_dfa_generator_matches_the_reference_at_fixed_cases(n, sigma, seed, m):
    assert_same_automaton(gen_random_dfa(n, sigma, seed, m), ref_gen_random_dfa(n, sigma, seed, m))


@pytest.mark.parametrize(
    "n,sigma,seed,m", [(2, 1, 0, None), (2, 1, 0, 2), (40, 1, 5, 39), (10**5, 3, 7, 3 * (10**5 - 1))]
)
def test_nfa_generator_matches_the_reference_at_fixed_cases(n, sigma, seed, m):
    assert_same_automaton(gen_random_nfa(n, sigma, seed, m), ref_gen_random_nfa(n, sigma, seed, m))


# gen_random_dfa(2000, 3, 1, 6000) runs its rejection loop until the attempts
# cap, then fills the rest of the slots by the shuffle and choice fallback
@pytest.mark.parametrize("n,sigma,seed,m", [(2000, 3, 1, 6000), (500, 2, 9, 1000)])
def test_dfa_generator_matches_the_reference_at_saturation(n, sigma, seed, m):
    assert_same_automaton(gen_random_dfa(n, sigma, seed, m), ref_gen_random_dfa(n, sigma, seed, m))


@pytest.mark.parametrize(
    "n,sigma,seed,m",
    [
        # n a power of two: the candidates' bounds n - 1 and n differ in bit length
        (64, 3, 11, 3 * 63),
        (1024, 2, 5, 3 * 1023),
        # m = n(n - 1): every (source, target) pair, to the last free one
        (12, 3, 4, 12 * 11),
        (64, 2, 8, 64 * 63),
    ],
)
def test_nfa_generator_matches_the_reference_at_edge_cases(n, sigma, seed, m):
    assert_same_automaton(gen_random_nfa(n, sigma, seed, m), ref_gen_random_nfa(n, sigma, seed, m))


# --- the numpy draw replays against the random.Random calls they replay ---


def assert_replays_randbelow(bounds: list[int], seed: int) -> None:
    """A word stream, read by two randbelow calls, gives _randbelow's values;
    seek(read) leaves the generator as the calls leave it, and seek(ends[i])
    as call i does."""
    ours, ref = random.Random(seed), random.Random(seed)
    words = _Words(ours)
    half = len(bounds) // 2
    values, ends = (np.concatenate(x) for x in zip(words.randbelow(bounds[:half]), words.randbelow(bounds[half:])))
    probes = {0, len(bounds) // 2, len(bounds) - 1} if bounds else set()
    expected, states = [], {}
    for i, b in enumerate(bounds):
        expected.append(ref._randbelow(b))
        if i in probes:
            states[i] = ref.getstate()
    assert values.tolist() == expected
    words.seek(words.read)
    assert ours.random() == ref.random()
    for i, state in states.items():
        words.seek(int(ends[i]))
        assert ours.getstate() == state


POWER_EDGES = [b for k in (1, 2, 3, 16, 31) for b in (2**k - 1, 2**k, 2**k + 1)] + [2**32 - 1]


@pytest.mark.parametrize(
    "bounds",
    [
        [],
        [1] * 200,
        [2] * 200,
        *([b] * 80 for b in POWER_EDGES),
        [3, 4] * 60,  # alternating bounds of different bit lengths
        [1023, 1024] * 60,
        list(range(1, 300)),  # the tree parents' bounds
        list(range(400, 0, -1)),  # a full pool sample's bounds
        POWER_EDGES * 8,
    ],
    ids=lambda b: f"{len(b)}:{b[:3]}",
)
def test_words_replay_randbelow(bounds):
    for seed in range(4):
        assert_replays_randbelow(bounds, seed)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(POWER_EDGES) | st.integers(min_value=1, max_value=2**32 - 1), max_size=100))
def test_words_replay_mixed_bounds(bounds):
    assert_replays_randbelow(bounds, len(bounds))


def test_words_replay_across_blocks():
    assert_replays_randbelow(list(range(1, _BLOCK + 100)), 5)
    assert_replays_randbelow([1000, 1001] * (_BLOCK // 2 + 50), 6)
    assert_replays_randbelow([1] * (2 * _BLOCK + 50), 7)  # passes that leave calls over


def setsize(k: int) -> int:
    """CPython's threshold in Random.sample: the pool path at most."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


@pytest.mark.parametrize("k", [0, 1, 5, 6, 7, 50, 1000])
@pytest.mark.parametrize("above", [0, 1])  # the pool path, then the set path
def test_sample_replays_random_sample(k, above):
    size = setsize(k) + above
    for seed in range(4):
        ours, ref = random.Random(seed), random.Random(seed)
        assert _sample(ours, size, k).tolist() == ref.sample(range(size), k)
        assert ours.random() == ref.random()


def test_sample_replays_a_full_pool():
    for size in (1, 2, 3, 30, 500):
        ours, ref = random.Random(size), random.Random(size)
        assert _sample(ours, size, size).tolist() == ref.sample(range(size), size)
        assert ours.random() == ref.random()
