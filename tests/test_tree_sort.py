"""wheeler_preorder's prefix doubling on trees against the engine: the same
partition, flag and ORDPART bytes on paths, stars and tries, the engine
fields 0 where no engine ran, and the engine wherever the gate says so."""

from __future__ import annotations

import random

import pytest

from copar import partition, refine
from copar.automaton import Automaton, ValidationError, path_dfa, serialize_ordered_partition
from copar.examples import example_unordered_nfa
from copar.oracle import naive_prefix_sort


@pytest.fixture(autouse=True)
def python_backend(monkeypatch):
    """The doubling runs only with the pure-Python kernels; these tests run
    it on both backends."""
    monkeypatch.setattr(refine, "HAVE_NUMBA", False)


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts run_refinement calls. Both names are patched with one wrapper,
    so the doubling's gate still holds."""
    calls = []
    run = partition.run_refinement

    def counted(ref):
        calls.append(ref.n)
        run(ref)

    monkeypatch.setattr(partition, "run_refinement", counted)
    monkeypatch.setattr(refine, "run_refinement", counted)
    return calls


def _engine(a: Automaton, monkeypatch) -> refine.WheelerPreorder:
    """wheeler_preorder forced onto the engine by a wrapper the gate sees."""
    run = refine.run_refinement
    with monkeypatch.context() as mp:
        mp.setattr(refine, "run_refinement", lambda ref: run(ref))
        return refine.wheeler_preorder(a)


def _same(a: Automaton, monkeypatch, engine_runs: list) -> refine.WheelerPreorder:
    """The doubling's result on the tree a, after checking that no engine ran
    and that it is the engine's."""
    engine_runs.clear()
    got = refine.wheeler_preorder(a)
    assert engine_runs == []
    assert (got.rounds, got.max_splitter_count) == (0, 0)
    want = _engine(a, monkeypatch)
    assert engine_runs == [a.n]
    assert got.partition == want.partition
    assert got.quasi_wheeler and want.quasi_wheeler
    assert serialize_ordered_partition(got.partition) == serialize_ordered_partition(want.partition)
    return got


def _tree(parent: list[int], letter: list[int], perm: list[int]) -> Automaton:
    """The tree with an edge parent[v] -> v reading letter[v] for v >= 1,
    rooted at 0, with state v renamed perm[v] and the letters remapped
    monotonically onto 0..sigma-1."""
    used = sorted(set(letter[1:]))
    remap = {c: i for i, c in enumerate(used)}
    edges = [(perm[parent[v]], perm[v], remap[letter[v]]) for v in range(1, len(parent))]
    return Automaton(len(parent), len(used), perm[0], edges)


def _random_tree(rng: random.Random, n: int, sigma: int) -> Automaton:
    """A random out-tree with a random source; most children copy a
    sibling's letter, so many siblings share one."""
    parent, letter = [0], [-1]
    children: dict[int, list[int]] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        siblings = children.setdefault(u, [])
        c = letter[rng.choice(siblings)] if siblings and rng.random() < 0.7 else rng.randrange(sigma)
        parent.append(u)
        letter.append(c)
        siblings.append(v)
    perm = list(range(n))
    rng.shuffle(perm)
    return _tree(parent, letter, perm)


def _sturmian_path(n: int, seed: int) -> Automaton:
    """Path DFA of a length-(n - 1) standard Sturmian word, directive digits
    drawn from 1..3."""
    rng = random.Random(seed)
    word, prev = [0], [1]
    while len(word) < n - 1:
        word, prev = word * rng.randint(1, 3) + prev, word
    return path_dfa(word[: n - 1])


def test_same_output_on_random_trees(monkeypatch, engine_runs):
    rng = random.Random(20)
    shared = moved = 0
    for _ in range(300):
        a = _random_tree(rng, rng.randint(2, 300), rng.randint(1, 4))
        got = _same(a, monkeypatch, engine_runs)
        shared += got.partition.k < a.n
        moved += a.source != 0
    # most trees have two states reading one string and a source other than 0
    assert shared > 200 and moved > 250


def test_same_output_on_stars(monkeypatch, engine_runs):
    for n, sigma in ((2, 1), (50, 1), (50, 3), (500, 7)):
        rng = random.Random(n)
        perm = list(range(n))
        rng.shuffle(perm)
        letter = [-1] + [v % sigma for v in range(1, n)]
        got = _same(_tree([0] * n, letter, perm), monkeypatch, engine_runs)
        assert got.partition.k == 1 + sigma


def test_same_output_on_paths(monkeypatch, engine_runs):
    fib, prev = [0], [1]
    while len(fib) < 3000:
        fib, prev = fib + prev, fib
    rng = random.Random(2)
    words = [[0] * 1000, [rng.randrange(2) for _ in range(3000)], fib[:3000]]
    for word in words:
        got = _same(path_dfa(word), monkeypatch, engine_runs)
        assert got.partition.k == len(word) + 1


@pytest.mark.parametrize("n", [2, 300, 12_000, 100_000])
def test_same_output_on_sturmian_paths(n, monkeypatch, engine_runs):
    got = _same(_sturmian_path(n, n), monkeypatch, engine_runs)
    assert got.partition.k == n


def test_one_state(monkeypatch, engine_runs):
    got = _same(Automaton(1, 0, 0, []), monkeypatch, engine_runs)
    assert got.partition.parts == [[0]]


def test_engine_runs_where_the_gate_says_so(monkeypatch, engine_runs):
    """Under a wrapper on refine.run_refinement alone (perfbench's tracer
    puts one there), with numba kernels, and on an input that is no tree
    and admits no Wheeler order. A quasi-Wheeler input that is no tree
    takes Moore rounds, as tests/test_moore_sort.py checks."""
    tree = path_dfa([0, 1, 1, 0, 1])
    refine.wheeler_preorder(tree)
    assert engine_runs == []
    _engine(tree, monkeypatch)
    assert engine_runs == [6]
    engine_runs.clear()
    with monkeypatch.context() as mp:
        mp.setattr(refine, "HAVE_NUMBA", True)
        res = refine.wheeler_preorder(tree)
    assert engine_runs == [6] and res.rounds > 0
    engine_runs.clear()
    extra = Automaton(6, 2, 0, list(tree.edges()) + [(0, 2, 1)])  # state 2 gets a second in-edge
    assert refine.wheeler_preorder(extra).quasi_wheeler
    assert engine_runs == []
    want = refine.wheeler_preorder(example_unordered_nfa())
    assert engine_runs == [4] and want.rounds > 0 and not want.quasi_wheeler


def test_an_edge_into_the_source_is_refused_before_either_path(engine_runs):
    """validate refuses it, so after require_clean a.m == a.n - 1 leaves
    every state but the source exactly one in-edge."""
    back = Automaton(3, 2, 0, [(0, 1, 0), (1, 2, 1), (2, 0, 0)])
    with pytest.raises(ValidationError, match="source-in-edge"):
        refine.wheeler_preorder(back)
    assert engine_runs == []


def test_refine_all_still_runs_the_engine(engine_runs):
    """Criterion 7 and `copar check --partition` check the paper's algorithm
    on paths, so refine_all keeps the engine there."""
    s = [2, 0, 1, 0, 2, 2, 1]
    parts = refine.refine_all(path_dfa(s)).parts
    assert engine_runs == [len(s) + 1]
    assert [p for (p,) in parts] == naive_prefix_sort(s)
