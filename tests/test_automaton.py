"""Automaton construction, file formats, validation, and rewrites."""

from __future__ import annotations

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copar import automaton
from copar.automaton import (
    Automaton,
    DuplicateEdgeWarning,
    OrderedPartition,
    ParseError,
    doubling_ranks,
    make_input_consistent,
    parse_automaton,
    parse_order,
    parse_ordered_partition,
    path_dfa,
    quotient,
    reachable_mask,
    reverse_automaton,
    serialize_automaton,
    serialize_order,
    serialize_ordered_partition,
    validate,
)
from copar.examples import example_loop_dfa, example_quasi_wheeler_nfa
from copar.generators import gen_wheeler_nfa


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Automaton(2, 1, 0, [(0, 2, 0)])
    with pytest.raises(ValueError):
        Automaton(2, 1, 0, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Automaton(2, 1, 2, [(0, 1, 0)])
    with pytest.raises(ValueError):
        Automaton(2, 1, 0, [(0, 1, 0), (0, 1, 0)])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Automaton(0, 1, 0, []), "need at least one state, got n=0"),
        (lambda: Automaton(2, -1, 0, []), "alphabet size must be >= 0, got -1"),
        (lambda: Automaton(2, 1, 0, (np.array([0]), np.array([1]), np.array([], dtype=np.int64))),
         "edge arrays must have equal length"),
        (lambda: quotient(example_loop_dfa(), OrderedPartition([[0], [1]])),
         "partition covers 2 states, automaton has 3"),
        (lambda: path_dfa([0, -1, 1]), "letters must be >= 0"),
    ],
    ids=["no-states", "negative-sigma", "unequal-columns", "quotient-over-another-n", "negative-letter"],
)
def test_malformed_arguments_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_duplicate_check_does_not_wrap_on_large_headers():
    # (src * n + dst) * sigma + letter would wrap around int64 here
    a = Automaton(2**62, 1, 0, [(0, 5, 0), (4, 5, 0)])
    assert a.m == 2
    assert Automaton(2**62, 4, 0, [(0, 1, 0), (2**62 - 1, 1, 0)]).m == 2
    assert Automaton(8, 2**62, 0, [(0, 1, 0), (4, 1, 0)]).is_deterministic()
    assert not Automaton(3, 2**62, 0, [(0, 1, 2**62 - 1), (0, 2, 2**62 - 1)]).is_deterministic()


def test_sorted_rows_with_an_adjacent_duplicate_are_refused():
    # strictly increasing rows skip the sort; one equal neighbour must not
    with pytest.raises(ValueError, match="duplicate"):
        Automaton(4, 2, 0, [(0, 1, 0), (0, 2, 1), (0, 2, 1), (1, 3, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Automaton(2, 1, 0, [(0, 1, 0), (0, 1, 0)])
    assert Automaton(4, 2, 0, [(0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 0, 1)]).m == 4


def test_unsorted_rows_with_a_distant_duplicate_are_refused():
    with pytest.raises(ValueError, match="duplicate"):
        Automaton(4, 2, 0, [(1, 3, 0), (0, 1, 0), (2, 2, 1), (0, 2, 1), (1, 3, 0)])
    # a row smaller than its neighbour but repeated nowhere is accepted
    assert Automaton(4, 2, 0, [(1, 3, 0), (0, 1, 0), (2, 2, 1), (0, 2, 1)]).m == 4


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_constructor_keeps_the_callers_arrays_apart(dtype):
    cols = tuple(np.array(c, dtype=dtype) for c in ([0, 0, 1], [1, 2, 2], [0, 1, 0]))
    a = Automaton(3, 2, 0, cols)
    for col in cols:
        col[:] = 2
    assert a.sorted_edges() == [(0, 1, 0), (0, 2, 1), (1, 2, 0)]
    assert not any(np.shares_memory(c, x) for c in cols for x in (a.esrc, a.edst, a.elab))


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=12), st.booleans())
def test_duplicate_check_matches_a_set(rows, sort):
    rows = sorted(rows) if sort else rows
    if len(set(rows)) < len(rows):
        with pytest.raises(ValueError, match="duplicate"):
            Automaton(4, 4, 0, rows)
    else:
        assert Automaton(4, 4, 0, rows).m == len(rows)


def test_in_labels_takes_the_smallest_letter():
    edges = [(0, 3, 2), (0, 1, 1), (1, 3, 0), (2, 1, 2), (0, 3, 1)]
    a = Automaton(5, 3, 0, edges)
    assert a.in_labels().tolist() == [-1, 1, -1, 0, -1]
    rev = Automaton(5, 3, 0, edges[::-1])
    assert rev.in_labels().tolist() == [-1, 1, -1, 0, -1]


def _in_labels_by_lexsort(a):
    """Each state's smallest in-letter, -1 without in-edges: the first row
    of each target's run in (target, letter) order."""
    lam = np.full(a.n, -1, dtype=np.int64)
    order = np.lexsort((a.elab, a.edst))
    dst = a.edst[order]
    first = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]]) if a.m else []
    lam[dst[first]] = a.elab[order[first]]
    return lam


@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 40), st.randoms(use_true_random=False))
def test_in_labels_matches_a_lexsort(n, sigma, m, rng):
    # with several letters per target the smallest must win; m = 0 leaves
    # every state at -1
    rows = {(rng.randrange(n), rng.randrange(n), rng.randrange(sigma)) for _ in range(m)}
    a = Automaton(n, sigma, 0, sorted(rows, key=lambda r: rng.random()))
    assert a.in_labels().tolist() == _in_labels_by_lexsort(a).tolist()


def test_in_labels_of_wide_letters_and_no_edges():
    big = 2**62
    a = Automaton(4, big + 2, 0, [(0, 1, big + 1), (2, 1, big), (0, 2, 0), (1, 2, big)])
    assert a.in_labels().tolist() == [-1, big, 0, -1] == _in_labels_by_lexsort(a).tolist()
    assert Automaton(3, 2, 1, []).in_labels().tolist() == [-1, -1, -1]


def test_basic_accessors():
    a = example_quasi_wheeler_nfa()
    assert (a.n, a.m, a.sigma, a.source) == (5, 7, 2, 0)
    assert a.in_labels().tolist() == [-1, 0, 0, 1, 1]
    assert not a.is_deterministic()
    assert example_loop_dfa().is_deterministic()


def test_parse_serialize_round_trip():
    a = example_quasi_wheeler_nfa()
    text = serialize_automaton(a, comment="round trip")
    assert text.startswith("# round trip\nNFA 5 7 0 2\n")
    assert parse_automaton(text) == a


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_automaton("NFA 2 1 0\n0 1 0\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_automaton("NFA 2 1 0 1\n0 1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_automaton("NFA 2 2 0 1\n0 1 0\n")  # fewer edges than declared
    with pytest.raises(ParseError):
        parse_automaton("NFA 2 1 0 1\n0 1 0\n1 0 0\n")  # more edges than declared


def test_duplicate_edge_line_warns_and_drops():
    text = "NFA 2 2 0 1\n0 1 0\n0 1 0\n"
    with pytest.warns(DuplicateEdgeWarning):
        a = parse_automaton(text)
    assert a.m == 1


def test_validate_clean_and_dirty():
    assert validate(example_quasi_wheeler_nfa()) == []
    dirty = Automaton(4, 3, 0, [(0, 1, 0), (1, 0, 0), (1, 3, 0), (2, 3, 1)])
    codes = sorted(d.code for d in validate(dirty))
    assert codes == ["in-label-conflict", "source-in-edge", "unreachable", "unused-letter"]
    # several conflicted states, their letters stored out of order
    dirty = Automaton(7, 5, 0, [
        (0, 1, 0), (0, 2, 0), (1, 2, 2), (2, 3, 1), (3, 4, 3), (1, 4, 1),
        (2, 4, 2), (4, 5, 0), (5, 5, 3), (3, 0, 1), (6, 6, 1),
    ])
    assert [(d.code, d.subject, d.message) for d in validate(dirty)] == [
        ("in-label-conflict", 2, "in-edges carry distinct letters {0,2}"),
        ("in-label-conflict", 4, "in-edges carry distinct letters {1,2,3}"),
        ("in-label-conflict", 5, "in-edges carry distinct letters {0,3}"),
        ("source-in-edge", 0, "source state has an in-edge"),
        ("unreachable", 6, "state is unreachable from the source"),
        ("unused-letter", 4, "letter labels no edge"),
    ]


def test_reachable_mask():
    a = Automaton(3, 1, 0, [(0, 1, 0), (2, 1, 0)])
    assert reachable_mask(a).tolist() == [True, True, False]


def _bfs_reachable(a: Automaton) -> list[bool]:
    """Reference: a plain queue-based BFS over Python adjacency lists."""
    out: list[list[int]] = [[] for _ in range(a.n)]
    for u, v, _ in a.edges():
        out[u].append(v)
    seen = [False] * a.n
    seen[a.source] = True
    queue = [a.source]
    for u in queue:
        for v in out[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


@st.composite
def _reachability_graphs(draw):
    """Deep paths, wide stars, cycles and unreachable islands, mixed."""
    n = draw(st.integers(1, 300))
    source = draw(st.integers(0, n - 1))
    edges: set[tuple[int, int, int]] = set()
    # a deep path from the source through a random order of some states
    path = [source] + draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    edges.update((u, v, 0) for u, v in zip(path, path[1:]) if u != v)
    # a wide star, wider than the plain-Python level limit when n allows
    hub = draw(st.integers(0, n - 1))
    width = draw(st.integers(0, n))
    edges.update((hub, v, 1) for v in range(width))
    # random extra edges: cycles, back edges and islands among the rest
    k = draw(st.integers(0, 2 * n))
    edges.update(
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), 0) for _ in range(k)
    )
    # grouped by source, as serialized texts are, or in a random order
    rows = sorted(edges)
    return Automaton(n, 2, source, rows if draw(st.booleans()) else draw(st.permutations(rows)))


@settings(max_examples=200, deadline=None)
@given(_reachability_graphs())
def test_reachable_mask_matches_plain_bfs(a):
    assert reachable_mask(a).tolist() == _bfs_reachable(a)


def test_reachable_mask_without_edges_and_away_from_state_zero():
    assert reachable_mask(Automaton(4, 0, 2, [])).tolist() == [False, False, True, False]
    # a wide level past the plain-Python limit, then a deep tail
    k = 3 * automaton.SMALL_LEVEL_EDGES
    edges = [(k + 1, v, 0) for v in range(k)] + [(v, v + 1, 0) for v in range(k + 2, 2 * k)]
    edges.append((0, k + 2, 0))
    a = Automaton(2 * k + 1, 1, k + 1, edges)
    assert reachable_mask(a).tolist() == _bfs_reachable(a)


@settings(max_examples=100, deadline=None)
@given(_reachability_graphs(), st.integers(1, 2 * automaton.SMALL_LEVEL_EDGES))
def test_reachable_mask_in_small_blocks_matches_plain_bfs(a, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "PARSE_BLOCK", block)
        assert reachable_mask(a).tolist() == _bfs_reachable(a)


@pytest.mark.parametrize("block", [1, 7, 48, 1 << 16])
@pytest.mark.parametrize("grouped", [True, False])
def test_a_wide_level_in_several_blocks(block, grouped, monkeypatch):
    """The source's k out-edges are one vectorized level, and the 4k
    out-edges of its targets the next, split into blocks of the patched
    size. Those edges repeat targets within and across blocks, lead back
    to visited states and leave some states unreachable."""
    k = 3 * automaton.SMALL_LEVEL_EDGES
    rng = np.random.default_rng(block)
    hops = {(u, int(v), 0) for u in range(1, k + 1) for v in rng.integers(0, 3 * k, 4)}
    rows = sorted({(0, u, 0) for u in range(1, k + 1)} | hops)
    a = Automaton(3 * k, 1, 0, rows if grouped else [rows[i] for i in rng.permutation(len(rows))])
    monkeypatch.setattr(automaton, "PARSE_BLOCK", block)
    want = _bfs_reachable(a)
    assert reachable_mask(a).tolist() == want
    assert k < sum(want) < 3 * k


def test_reachable_mask_allocates_nothing_per_edge_on_grouped_edges(monkeypatch):
    """At fixed n, raising m eight-fold on edges grouped by source (as
    gen_wheeler_nfa and every serialized text give them) raises the
    tracemalloc peak of reachable_mask by under 6 bytes an added edge, less
    than one int64 copy of a column: the edges are read where they lie, and
    a BFS level is expanded a block at a time (the patched block keeps its
    slices small at both sizes). What grows is one bool an edge, the test
    that the sources never fall, and the n-sized arrays of a level, wider
    on a denser graph. Copying the edges into CSR order held about 34
    bytes an added edge here."""
    monkeypatch.setattr(automaton, "PARSE_BLOCK", 1024)
    n, ms, peaks = 20_000, (2 * 20_000, 16 * 20_000), []
    for m in ms:
        a = gen_wheeler_nfa(n, m, 16, 7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert reachable_mask(a).all()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 6 * (ms[1] - ms[0]), peaks


class _CountingNumpy:
    """Stands in for the numpy module and counts the functions looked up on
    it, keeping their names."""

    def __init__(self) -> None:
        self.calls = 0
        self.names: set[str] = set()

    def __getattr__(self, name: str):
        attr = getattr(np, name)
        if callable(attr):
            self.calls += 1
            self.names.add(name)
        return attr


def test_reachable_mask_makes_no_numpy_call_per_level(monkeypatch):
    counts = []
    for n in (100, 100_000):
        a = Automaton(n, 1, 0, (np.arange(n - 1), np.arange(1, n), np.zeros(n - 1, np.int64)))
        proxy = _CountingNumpy()
        monkeypatch.setattr(automaton, "np", proxy)
        assert reachable_mask(a).all()
        monkeypatch.undo()
        counts.append(proxy.calls)
    assert counts[0] == counts[1] > 0


def test_reachable_mask_bfs_makes_no_numpy_call_per_level(monkeypatch):
    """A path with one more edge has a state of in-degree two, so it takes
    the BFS, not the pointer jumping of in-degree-one graphs."""
    counts = []
    for n in (100, 100_000):
        src, dst = np.append(np.arange(n - 1), 0), np.append(np.arange(1, n), 2)
        a = Automaton(n, 2, 0, (src, dst, np.append(np.zeros(n - 1, np.int64), 1)))
        proxy = _CountingNumpy()
        monkeypatch.setattr(automaton, "np", proxy)
        assert reachable_mask(a).all()
        monkeypatch.undo()
        counts.append(proxy.calls)
    assert counts[0] == counts[1] > 0


# in-degree-one graphs, and graphs of n - 1 edges one edge away from them
POINTER_JUMPING_KINDS = ("tree", "path", "tree-and-cycle")
NEAR_MISS_KINDS = ("source-in-edge", "two-in-edges")


@st.composite
def _parent_graphs(draw):
    """(kind, automaton) built from a parent array, with the states renamed
    at random: a random tree, a path of up to 10^5 states, a tree plus a
    detached cycle (or self-loop), and two graphs of n - 1 edges that are
    not in-degree one: the source with an in-edge, a state with two."""
    kind = draw(st.sampled_from(POINTER_JUMPING_KINDS + NEAR_MISS_KINDS))
    n = draw(st.integers(3 if kind == "two-in-edges" else 2, 10**5 if kind == "path" else 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = np.arange(n)
    parent = states - 1 if kind == "path" else (rng.random(n) * states).astype(np.int64)
    src, dst = parent[1:], states[1:]
    if kind == "tree-and-cycle":
        first = int(rng.integers(1, n))  # states first..n-1 form the cycle
        src = np.where(dst == first, n - 1, np.where(dst > first, dst - 1, src))
    elif kind in NEAR_MISS_KINDS:
        # one state loses its in-edge, and the source or another state
        # gets one from a state that is not yet its parent
        lost = int(rng.integers(1, n))
        gains = 0 if kind == "source-in-edge" else int(rng.choice(np.delete(states[1:], lost - 1)))
        tail = int(rng.choice(np.delete(states, parent[gains] if gains else [])))
        keep = dst != lost
        src, dst = np.append(src[keep], tail), np.append(dst[keep], gains)
    rename = rng.permutation(n)
    letters = rng.integers(0, 2, src.size)
    return kind, Automaton(n, 2, int(rename[0]), (rename[src], rename[dst], letters))


@settings(max_examples=80, deadline=None)
@given(_parent_graphs())
def test_reachable_mask_by_pointer_jumping_matches_plain_bfs(case):
    """Against the plain BFS, with validate's diagnostics unchanged; the
    BFS (its out-edge offsets a cumsum) runs only on the graphs that are
    not in-degree one, and sorts their edges by source only when they are
    not already grouped so."""
    kind, a = case
    want = _bfs_reachable(a)
    proxy = _CountingNumpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "np", proxy)
        assert reachable_mask(a).tolist() == want
    grouped = bool(np.all(a.esrc[1:] >= a.esrc[:-1]))
    assert ("cumsum" in proxy.names) == (kind in NEAR_MISS_KINDS) and a.m == a.n - 1
    assert ("argsort" in proxy.names) == (kind in NEAR_MISS_KINDS and not grouped)
    got = validate(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "reachable_mask", lambda b: np.array(want))
        assert got == validate(a)


def test_make_input_consistent_splits_conflicts():
    a = Automaton(3, 2, 0, [(0, 1, 0), (0, 2, 1), (2, 1, 1)])
    ic, mapping = make_input_consistent(a)
    assert validate(ic) == []
    assert mapping[0] == 0
    assert sorted(mapping) == [0, 1, 1, 2]
    # an already consistent automaton passes through unchanged
    b = example_quasi_wheeler_nfa()
    same, ident = make_input_consistent(b)
    assert same == b
    assert ident == list(range(b.n))


def _make_input_consistent_by_sets(a):
    """make_input_consistent spelled out with one set of in-letters per state."""
    in_letters = [set() for _ in range(a.n)]
    for _, v, c in a.edges():
        in_letters[v].add(c)
    copies = [(a.source, -1)] + [(v, c) for v in range(a.n) for c in sorted(in_letters[v])]
    index = {vc: i for i, vc in enumerate(copies)}
    edges = sorted(
        (i, index[(v, c)], c) for i, (u, _) in enumerate(copies) for v, c in a.out_map()[u]
    )
    return len(copies), edges, [v for v, _ in copies]


@given(st.integers(1, 7), st.integers(0, 3), st.randoms(use_true_random=False))
def test_make_input_consistent_matches_set_construction(n, sigma, rng):
    edges = list({(rng.randrange(n), rng.randrange(n), rng.randrange(sigma))
                  for _ in range(rng.randint(0, 16) if sigma else 0)})
    rng.shuffle(edges)
    a = Automaton(n, sigma, rng.randrange(n), edges)
    ic, mapping = make_input_consistent(a)
    assert (ic.n, list(ic.edges()), mapping) == _make_input_consistent_by_sets(a)
    assert (ic.sigma, ic.source) == (a.sigma, 0)


def ref_doubling_ranks(letters, phi, extra_rounds=0):
    """The reference for doubling_ranks: every round a stable two-column
    lexsort of (rank, rank at the hop's end), with no packed key."""

    def dense(*cols):
        order = np.lexsort(cols[::-1])
        new = np.zeros(order.size, dtype=bool)
        new[:1] = True
        for col in cols:
            c = col[order]
            new[1:] |= c[1:] != c[:-1]
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.cumsum(new) - 1
        return rank, int(np.count_nonzero(new))

    rank, classes = dense(letters)
    phik = phi.astype(np.int64)
    rounds = 0
    for rounds in range(1, (int(letters.size) - 1).bit_length() + extra_rounds + 1):
        before = classes
        rank, classes = dense(rank, rank[phik])
        if classes == before and not extra_rounds:
            break
        phik = phik[phik]
    return rank, rounds


def _functional_graphs(rng, size, sigma):
    """(letters, phi) pairs over size nodes, letters in -1..sigma-1: random,
    all self-loops, one long cycle, and with every letter equal on a long
    path and on a random graph."""
    same = np.zeros(size, dtype=np.int64)
    path = np.maximum(np.arange(size) - 1, 0)
    yield rng.integers(-1, sigma, size), rng.integers(0, size, size)
    yield rng.integers(-1, sigma, size), np.arange(size)
    yield rng.integers(-1, sigma, size), (np.arange(size) + 1) % max(size, 1)
    yield same, path
    yield same, rng.integers(0, size, size)
    if size:
        letters = same.copy()
        letters[0] = -1
        yield letters, path


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_doubling_ranks_match_the_lexsort_rounds(extra):
    rng = np.random.default_rng(22 + extra)
    sizes = [0, 1, 2, 3, 5, 17, 64, 257, 1000, 4099] + rng.integers(3, 3000, 6).tolist()
    for size in sizes:
        for sigma in (1, 2, 4):
            for letters, phi in _functional_graphs(rng, size, sigma):
                rank, rounds = doubling_ranks(letters, phi, extra)
                want, want_rounds = ref_doubling_ranks(letters, phi, extra)
                assert rank.dtype == np.int64
                assert rank.tolist() == want.tolist() and rounds == want_rounds


def test_doubling_ranks_of_zero_and_one_node():
    empty = np.zeros(0, dtype=np.int64)
    rank, rounds = doubling_ranks(empty, empty)
    assert (rank.tolist(), rounds) == ([], 1)
    rank, rounds = doubling_ranks(np.array([-1]), np.array([0]))
    assert (rank.tolist(), rounds) == ([0], 0)


def test_reverse_automaton_flips_edges():
    a = example_loop_dfa()
    r = reverse_automaton(a)
    assert r.sorted_edges() == [(1, 0, 1), (2, 1, 0), (2, 2, 0)]
    # the constructor's copies keep the reversal apart from its input
    assert not any(np.shares_memory(x, y) for x in (r.esrc, r.edst, r.elab) for y in (a.esrc, a.edst, a.elab))


def test_quotient_collapses_parts():
    a = example_quasi_wheeler_nfa()
    p = OrderedPartition([[0], [1, 2], [3], [4]])
    q = quotient(a, p)
    assert q.n == 4
    assert q.sorted_edges() == [(0, 1, 0), (0, 2, 1), (1, 2, 1), (1, 3, 1)]
    with pytest.raises(ValueError):
        quotient(a, OrderedPartition([[0, 1], [2], [3], [4]]))  # source not singleton


def test_quotient_does_not_wrap_on_large_alphabets():
    # a packed (source, target, letter) key would wrap around int64 here
    a = Automaton(3, 2**62, 0, [(0, 1, 0), (1, 2, 2**62 - 1)])
    q = quotient(a, OrderedPartition([[0], [1], [2]]))
    assert q.sorted_edges() == [(0, 1, 0), (1, 2, 2**62 - 1)]


@given(st.integers(1, 9), st.integers(1, 4), st.randoms(use_true_random=False))
def test_quotient_stores_the_distinct_class_rows_in_order(n, sigma, rng):
    """The packed key's sort and decode against a set of (class, class,
    letter) rows, sorted, on random ordered partitions with the source
    alone in its part."""
    rows = {(rng.randrange(n), rng.randrange(n), rng.randrange(sigma)) for _ in range(rng.randint(0, 24))}
    a = Automaton(n, sigma, 0, sorted(rows, key=lambda r: rng.random()))
    others = rng.sample(range(1, n), n - 1)
    cuts = sorted(rng.sample(range(1, n - 1), rng.randint(0, n - 2))) if n > 2 else []
    parts = [[0]] + [others[i:j] for i, j in zip([0] + cuts, cuts + [n - 1]) if i < j]
    rng.shuffle(parts)
    cls = {v: i for i, part in enumerate(parts) for v in part}
    q = quotient(a, OrderedPartition(parts))
    assert list(q.edges()) == sorted({(cls[u], cls[v], c) for u, v, c in rows})
    assert (q.n, q.sigma, q.source) == (len(parts), sigma, cls[0])


def test_path_dfa_shape():
    a = path_dfa([2, 0, 2])
    assert (a.n, a.m, a.source) == (4, 3, 0)
    assert a.is_deterministic()
    assert validate(a) == []
    # letters are densely remapped but keep their relative order
    assert a.in_labels().tolist() == [-1, 1, 0, 1]


def test_ordered_partition_formats():
    p = OrderedPartition([[0], [2, 1], [3]])
    assert p.parts == [[0], [1, 2], [3]]  # members sorted inside a part
    text = serialize_ordered_partition(p)
    assert text == "ORDPART 3\n0: 0\n1: 1 2\n2: 3\n"
    assert parse_ordered_partition(text) == p
    with pytest.raises(ParseError):
        parse_ordered_partition("ORDPART 2\n0: 0\n")
    with pytest.raises(ParseError):
        parse_ordered_partition("ORDPART 1\n1: 0\n")
    with pytest.raises(ValueError):
        OrderedPartition([[0], [0, 1]])  # not a partition


def test_order_format_round_trip():
    text = serialize_order([2, 0, 1])
    assert text == "ORDER 3\n2 0 1\n"
    assert parse_order(text) == [2, 0, 1]
    with pytest.raises(ParseError):
        parse_order("ORDER 3\n0 1 1\n")


@st.composite
def order_texts(draw):
    """ORDPART and ORDER texts that are mostly well formed, with stray header
    words, colons, dashes, comments, odd line breaks, signs, overlong digit
    runs and non-ASCII digits mixed in."""
    ordpart = draw(st.booleans())
    n = draw(st.integers(1, 5))
    perm = [str(v) for v in draw(st.permutations(range(n)))]
    bounds = [0, *sorted(draw(st.sets(st.integers(1, n), max_size=3))), n]
    rows = [perm[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if ordpart:
        rows = [[f"{i}:", *row] for i, row in enumerate(rows)]
    rows.insert(0, ["ORDPART" if ordpart else "ORDER", str(len(rows) if ordpart else n)])
    noise = ["ORDPART", "ORDER", ":", "0:", "-", "-1", "+1", "#", "1" * 25, "7" * 5000, "\u0663", "\uff11"]
    lines = []
    for row in rows:
        fields = [draw(st.sampled_from(noise)) if draw(st.integers(0, 15)) == 0 else f for f in row]
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(fields))
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "# note", "ORDER 2", "0: 0"]), max_size=1)))
    breaks = ["\n"] * 12 + ["\r\n", "\r", "\x0b", "\x0c", ":", "-"]
    return "".join(ln + draw(st.sampled_from(breaks)) for ln in lines)


@settings(max_examples=300, deadline=None)
@given(order_texts())
def test_order_parsers_give_a_value_or_a_parse_error(text):
    try:
        p = parse_ordered_partition(text)
        assert p.n >= 1 and p.parts
    except ParseError:
        pass
    try:
        order = parse_order(text)
        assert sorted(order) == list(range(len(order)))
    except ParseError:
        pass


def test_class_array_matches_parts():
    p = OrderedPartition([[1, 3], [0], [2]])
    assert p.as_class_array().tolist() == [1, 0, 2, 0]


def test_ordered_partition_arrays():
    p = OrderedPartition.from_arrays(np.array([3, 1, 0, 2]), np.array([0, 2, 3, 4]))
    assert p.parts == [[1, 3], [0], [2]]  # sorted inside each part, part order kept
    assert p.members.tolist() == [1, 3, 0, 2] and p.starts.tolist() == [0, 2, 3, 4]
    assert (p.n, p.k) == (4, 3)
    assert p == OrderedPartition([[3, 1], [0], [2]])
    assert p != OrderedPartition([[0], [1, 3], [2]])
    with pytest.raises(ValueError):
        p.members[0] = 0  # read-only, so parts stays in step with the arrays
    with pytest.raises(ValueError, match="part 1 is empty"):
        OrderedPartition([[0], [], [1]])
    with pytest.raises(ValueError):
        OrderedPartition([[0], [2**70]])
    with pytest.raises(ValueError):
        OrderedPartition.from_arrays(np.array([0, 1, 1]), np.array([0, 1, 3]))


@pytest.mark.parametrize(
    "members, starts",
    [
        ([0, 2], [0, 1, 2]),  # state 1 missing, 2 out of range
        ([0, 1, 1], [0, 1, 3]),  # state 1 twice, 2 missing
        ([1, 0, 1], [0, 1, 3]),  # state 1 twice in different parts
        ([0, -1, 2], [0, 1, 3]),  # negative state
        ([0, 3, 2], [0, 1, 3]),  # state 3 past n = 3
        ([0, 1, 2], [1, 2, 3]),  # parts that do not start at 0
        ([0, 1, 2], [0, 1, 2]),  # parts that do not reach the last member
    ],
)
def test_ordered_partition_refuses_what_is_not_a_partition(members, starts):
    with pytest.raises(ValueError, match=r"^parts must partition the states 0\.\.n-1$"):
        OrderedPartition.from_arrays(np.array(members), np.array(starts))
    if starts[0] == 0 and starts[-1] == len(members):
        parts = [members[lo:hi] for lo, hi in zip(starts, starts[1:])]
        with pytest.raises(ValueError, match=r"^parts must partition the states 0\.\.n-1$"):
            OrderedPartition(parts)


@given(st.integers(1, 40), st.randoms(use_true_random=False), st.booleans())
def test_ordered_partition_sorts_inside_each_part(n, rng, rising):
    ids = list(range(n))
    rng.shuffle(ids)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    starts = [0] + cuts + [n]
    parts = [ids[lo:hi] for lo, hi in zip(starts, starts[1:])]
    if rising:
        parts = [sorted(part) for part in parts]
    members = np.array([v for part in parts for v in part])
    p = OrderedPartition.from_arrays(members, np.array(starts))
    assert p.parts == [sorted(part) for part in parts]
    assert p.starts.tolist() == starts
    assert members.flags.writeable  # the caller's array is not frozen
    assert p.members.tolist() == [v for part in parts for v in sorted(part)]
    assert p == OrderedPartition(parts)


def test_ordered_partition_of_no_states():
    p = OrderedPartition([])
    assert (p.n, p.k, p.parts) == (0, 0, [])


def test_equality_ignores_edge_storage_order():
    edges = [(0, 1, 0), (0, 2, 1), (1, 2, 1), (2, 2, 1)]
    a = Automaton(3, 2, 0, edges)
    b = Automaton(3, 2, 0, edges[::-1])
    assert a == a and a == b and b == a
    c = Automaton(3, 2, 0, edges[:-1] + [(2, 2, 0)])  # one letter differs
    assert a != c and c != a
    assert a != Automaton(3, 2, 0, edges[:-1])
    assert a != Automaton(3, 2, 1, edges)


@given(st.integers(2, 8), st.integers(0, 30), st.randoms(use_true_random=False))
def test_serialization_round_trip_random(n, extra, rng):
    sigma = rng.randint(1, 3)
    edges = {(rng.randrange(n), rng.randint(1, n - 1), rng.randrange(sigma)) for _ in range(extra)}
    edges.add((0, 1, 0))
    a = Automaton(n, sigma, 0, sorted(edges))
    b = parse_automaton(serialize_automaton(a))
    assert a == b
    assert np.array_equal(a.in_labels(), b.in_labels())


@given(st.integers(1, 30), st.integers(0, 60), st.booleans(), st.randoms(use_true_random=False))
def test_serialize_matches_python_sorted_text(n, extra, big, rng):
    sigma = rng.randint(1, 4)
    if big:  # ids and letters past 32 bits
        n, sigma = n + 2**62, sigma + 2**40
    draw = [(rng.randrange(n), rng.randrange(n), rng.randrange(sigma)) for _ in range(extra)]
    edges = list(dict.fromkeys(draw))
    rng.shuffle(edges)
    a = Automaton(n, sigma, rng.randrange(n), edges)
    lines = ["# c", f"NFA {a.n} {a.m} {a.source} {a.sigma}"]
    assert a.sorted_edges() == sorted(a.edges())
    lines += [f"{u} {v} {c}" for u, v, c in sorted(a.edges())]
    assert serialize_automaton(a, comment="c") == "\n".join(lines) + "\n"


# --- parse_automaton: vectorized path against the line-by-line parse ---


def _outcome(parse, text):
    """(automaton fields in storage order, or the ParseError text; warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            a = parse(text)
            result = (a.n, a.sigma, a.source, a.esrc.tolist(), a.edst.tolist(), a.elab.tolist())
        except ParseError as exc:
            result = ("ParseError", str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@st.composite
def nfa_texts(draw):
    """NFA texts that are mostly well formed, with the anomalies the parse
    must hand to the line loop mixed in."""
    n = draw(st.integers(1, 5))
    sigma = draw(st.integers(0, 3))
    source = draw(st.integers(0, n - 1))
    noise = ["+1", "-1", "٣", "1" * 25, "0" * 19 + "1", str(n)]

    def field(value):
        return draw(st.sampled_from([str(value)] * 6 + [f"0{value}"] + noise))

    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, state, st.integers(0, max(sigma - 1, 0))), max_size=8))
    body = []
    for edge in edges:
        fields = [field(x) for x in edge]
        if draw(st.integers(0, 9)) == 0:
            fields = fields[: draw(st.integers(0, 4))] + ["0"] * draw(st.integers(0, 1))
        line = draw(st.sampled_from([" ", "\t", " \t "])).join(fields)
        line += draw(st.sampled_from([""] * 6 + [" ", "# c", " # edge"]))
        body.append(line)
        if draw(st.integers(0, 7)) == 0:
            body.append(line)  # a duplicate edge line
        body.extend(draw(st.lists(st.sampled_from(["", "  ", "# note", "\t"]), max_size=1)))
    m = len([ln for ln in body if automaton._strip_comment(ln)]) + draw(
        st.sampled_from([0] * 6 + [-1, 1])
    )
    header = draw(st.sampled_from([[], ["# seed 7"], ["", "# a", "  "]]))
    lines = header + [f"NFA {n} {m} {source} {sigma}" + draw(st.sampled_from(["", " # h"]))] + body
    breaks = ["\n"] * 8 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c"]
    text = "".join(ln + draw(st.sampled_from(breaks)) for ln in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@settings(max_examples=300, deadline=None)
@given(nfa_texts())
def test_parse_matches_line_loop(text):
    assert _outcome(parse_automaton, text) == _outcome(automaton._parse_lines, text)


@pytest.fixture
def line_loop_calls(monkeypatch):
    """The texts parse_automaton hands to the line-by-line parse."""
    calls = []
    loop = automaton._parse_lines

    def spy(text):
        calls.append(text)
        return loop(text)

    monkeypatch.setattr(automaton, "_parse_lines", spy)
    return calls


@pytest.mark.parametrize(
    "text",
    [
        "NFA 3 2 0 1\n0 1 0\n0 2 0\n",
        "# seed 7\n\nNFA 3 2 0 1 # header\n0 1 0\n\n  \n0\t2   0",
        "NFA 3 2 0 1\r\n0 1 0\r\n0 2 0\r\n",
        "NFA 3 2 0 2\n00 01 001\n0 2 0\n",
        "NFA 1000000000000 0 0 0\n",
        "NFA 2 0 0 1\n\n\n",
    ],
)
def test_well_formed_text_is_parsed_without_the_line_loop(text, line_loop_calls):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_automaton(text)
    assert line_loop_calls == []
    assert _outcome(parse_automaton, text) == _outcome(automaton._parse_lines, text)


@pytest.mark.parametrize(
    "text",
    [
        "NFA 3 3 0 1\n0 1 0\n0 2 0\n0 1 0\n",  # duplicate edge
        "NFA 3 2 0 1\n0 1 0 # edge\n0 2 0\n",  # '#' after the header
        "NFA 3 2 0 1\n0 1 0\n0 0000000000000000002 0\n",  # 19 digits
        "NFA 3 2 0 1\n0 1 0\n0 ٢ 0\n",  # non-ASCII digit
        "NFA 3 2 0 1\n0 +1 0\n0 2 0\n",  # sign
        "NFA 3 2 0 1\n0 1 0\n0 -1 0\n",  # negative endpoint
        "NFA 3 2 0 1\n0 1 0\r0 2 0\n",  # lone CR
        "NFA 3 2 0 1\n0 1\r0\n0 2 0\n",  # lone CR inside a 3-token line
        "NFA 3 2 0 1\n0 1 0\x0b0 2 0\n",  # vertical tab
        "NFA 3 2 0 1\n0 1 0\x0c0 2 0\n",  # form feed
        "NFA 3 2 0 1\n0 1 0\x1c0 2 0\n",  # file separator
        "# c\rNFA 3 2 0 1\n0 1 0\n0 2 0\n",  # lone CR before the header
        "# c\x0bNFA 2 0 0 1\nNFA 3 0 0 1\n",  # a header the comment does not hide
        "NFA 3 2 0 1\n0 3 0\n0 2 0\n",  # endpoint out of range
        "NFA 3 2 0 1\n0 1 1\n0 2 0\n",  # letter out of range
        "NFA 3 2 0 3\n0 1 0 1\n2 2\n",  # wrong field count, right total
        "NFA 3 3 0 1\n0 1 0\n0 2 0\n",  # fewer edges than declared
        "NFA 3 1 0 1\n0 1 0\n0 2 0\n",  # more edges than declared
        "NFA 3 2 0\n0 1 0\n0 2 0\n",  # bad header
        "",  # no header
    ],
)
def test_anomalies_fall_back_to_the_line_loop(text, line_loop_calls):
    got = _outcome(parse_automaton, text)
    assert line_loop_calls == [text]
    assert got == _outcome(automaton._parse_lines, text)


@pytest.mark.parametrize("byte", ["/", ":", "\x00", "\x7f", "\x1f"])  # next to the body set
@pytest.mark.parametrize(
    "text",
    [
        "NFA 3 2 0 1\n0 1 0\n0 2{}0\n",  # between two fields
        "NFA 3 2 0 1\n0 1{}\n0 2 0\n",  # inside a field
        "NFA 3 2 0 1\n0 1 0\n0 2 0\n{}",  # after the last line
        "NFA 3 2 0 1\n0 1 0\n{}\n0 2 0\n",  # alone on a line
    ],
)
def test_bytes_outside_the_body_set_reach_the_line_loop(byte, text, line_loop_calls):
    text = text.format(byte)
    got = _outcome(parse_automaton, text)
    assert line_loop_calls == [text]
    assert got == _outcome(automaton._parse_lines, text)


def test_fallback_keeps_line_numbers_and_warning_texts():
    result, caught = _outcome(parse_automaton, "NFA 3 3 0 1\n\n0 1 0\n0 2 0\n0 1 0\n")
    assert result == (3, 1, 0, [0, 0], [1, 2], [0, 0])
    assert caught == [(DuplicateEdgeWarning, "line 5: duplicate edge (0, 1, 0) dropped")]
    result, _ = _outcome(parse_automaton, "NFA 3 2 0 1\n0 1 0\n0 1\r0\n")
    assert result == ("ParseError", "line 3: edge line needs exactly '<from> <to> <letter>'")


# --- parse_automaton in blocks: block boundaries against the line loop ---


@settings(max_examples=300, deadline=None)
@given(nfa_texts(), st.integers(1, 24))
def test_parse_in_small_blocks_matches_line_loop(text, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "PARSE_BLOCK", block)
        assert _outcome(parse_automaton, text) == _outcome(automaton._parse_lines, text)


# blocks of 1 to 7 characters cut every line of these texts, 12 and 13 hold
# one or two edge lines, 40 most of the body
_BLOCKS = [1, 2, 3, 7, 12, 13, 40]
_HEAD = "# seed 7 · Grüße ✓\nNFA 20 6 0 3\n"  # a non-ASCII comment before the header
_LINES = ["12 13 1", "13\t14  2", "  ", "", "14 15 0", "\t", "15 19 2", "0 1 0", "1 2 1"]


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize(
    "text",
    [
        _HEAD + "\n".join(_LINES) + "\n",
        _HEAD + "\n".join(_LINES),  # the last line has no "\n"
        _HEAD + "\r\n".join(_LINES) + "\r\n",  # "\r\n" at every block end
        _HEAD + "\n".join(_LINES) + "\n\n  \n",  # blank lines after the last edge
    ],
)
def test_well_formed_text_in_small_blocks_skips_the_line_loop(text, block, line_loop_calls, monkeypatch):
    monkeypatch.setattr(automaton, "PARSE_BLOCK", block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_automaton(text)
    assert line_loop_calls == []
    assert _outcome(parse_automaton, text) == _outcome(automaton._parse_lines, text)


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize(
    "last, m",  # the text's last lines, after six good ones, and its declared edge count
    [
        ("19 0000000000000000001 0\n", 7),  # 19 digits
        ("19 1\n0 19 2 1\n", 8),  # a 2-field line, then a 4-field line
        ("19 1 0 0 19 1\n", 8),  # two edges on one line
        ("19 1 0\r0 19 1\n", 7),  # lone CR
        ("19 1 0\n0 19\r", 7),  # lone CR at the end of the text
        ("0 1 0\n", 7),  # duplicate edge
        ("19 1 3\n", 7),  # letter out of range
        ("19 1 0\n19 2 0\n", 7),  # more edges than declared
        ("  \n", 7),  # fewer edges than declared, in a body long enough for them
        ("19 1 ٣\n", 7),  # non-ASCII digit
    ],
)
def test_anomaly_in_a_later_block_falls_back(last, m, block, line_loop_calls, monkeypatch):
    monkeypatch.setattr(automaton, "PARSE_BLOCK", block)
    text = f"NFA 20 {m} 0 3\n" + "\n".join(_LINES) + "\n" + last
    got = _outcome(parse_automaton, text)
    assert line_loop_calls == [text]
    assert got == _outcome(automaton._parse_lines, text)


def test_a_huge_declared_edge_count_allocates_nothing(line_loop_calls):
    # 3m values would need 24 PB; a body this short cannot hold m edge lines
    text = "NFA 2 1000000000000000 0 1\n0 1 0\n"
    got = _outcome(parse_automaton, text)
    assert line_loop_calls == [text]
    assert got == (("ParseError", "line 3: declared 1000000000000000 edges but found 1"), [])


def test_parse_peak_memory_scales_with_the_edges_not_the_text():
    """The parse's tracemalloc peak stays below len(text) + 28 * m bytes.

    28 bytes an edge pay for one copy of the edges, the Automaton's three
    int64 columns (24 bytes), into which each block's values go, and the
    bool temporaries of the constructor's row checks, about 4 bytes an
    edge. Everything else (a block's text and bytes, its masks, digit-run
    bounds, newline positions and values) scales with PARSE_BLOCK, not with
    the text. On this text, about 13 characters an edge line, the parse
    peaks near 30 * m, 0.5 bytes a character above the columns, and the
    bound leaves 0.8 bytes a character of headroom; so one whole-text
    temporary of one byte a character, such as an encoded copy of the body
    or a mask over it, breaks the bound, as does a second copy of the
    edges: parsing into an array of the 3m values that the constructor
    then copied peaked near 52 * m.
    """
    text = serialize_automaton(gen_wheeler_nfa(50_000, 3 * 49_999, 3, 7))
    assert 1.9e6 < len(text) < 2.1e6
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        a = parse_automaton(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert a.m == 3 * 49_999
    assert peak < len(text) + 28 * a.m, (peak, len(text), a.m)
