"""Stepwise refinement engine: traces, contracts, and invariant scans."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copar import _kernels as K
from copar.automaton import Automaton, OrderedPartition
from copar.examples import example_loop_dfa, example_quasi_wheeler_nfa
from copar.generators import gen_random_dfa, gen_random_nfa
from copar.partition import PRUNE_MODES, Refinement, init_refinement, run_refinement


def test_initial_layout_letter_orders():
    a = example_loop_dfa()
    asc = init_refinement(a, "ascending")
    assert asc.snapshot_partition().parts == [[0], [2], [1]]
    desc = init_refinement(a, "descending")
    assert desc.snapshot_partition().parts == [[1], [2], [0]]
    with pytest.raises(ValueError):
        init_refinement(a, "sideways")


def test_init_rejects_in_label_conflicts():
    conflicted = Automaton(3, 2, 0, [(0, 1, 0), (0, 2, 1), (2, 1, 1)])
    with pytest.raises(ValueError, match="consistent"):
        init_refinement(conflicted)
    # state 2 takes letters {0, 1}, the larger one stored first
    conflicted = Automaton(4, 2, 0, [(0, 2, 1), (0, 1, 0), (1, 2, 0), (0, 3, 1)])
    with pytest.raises(ValueError, match="consistent"):
        Refinement(conflicted, "descending")


def test_stepwise_trace_quasi_fixture():
    ref = init_refinement(example_quasi_wheeler_nfa(), "ascending")
    assert ref.snapshot_partition().parts == [[0], [1, 2], [3, 4]]
    assert not ref.done

    ch = ref.select_splitter()
    assert (ch.members, ch.b_is_first, ch.x_span) == ((0,), True, (0, 5))
    rep = ref.three_way_split(ch)
    assert rep.created_parts == ((3, (3,)),)
    assert rep.deleted_edges == ()

    ch = ref.select_splitter()
    assert (ch.members, ch.b_is_first) == ((4,), False)
    assert ref.three_way_split(ch).created_parts == ()

    ch = ref.select_splitter()
    assert (ch.members, ch.b_is_first) == ((3,), False)
    ref.three_way_split(ch)

    assert ref.done
    assert ref.select_splitter() is None
    assert ref.snapshot_partition().parts == [[0], [1, 2], [3], [4]]
    assert ref.rounds == 3
    assert ref.max_splitter_count == 1


@pytest.mark.parametrize(
    "mode,order,expect_deleted,expect_parts",
    [
        ("keep-first", "ascending", [(1, 2, 0)], [[0], [2], [1]]),
        ("keep-first", "descending", [(2, 2, 0)], [[1], [2], [0]]),
        ("keep-last", "ascending", [(2, 2, 0)], [[0], [2], [1]]),
        ("keep-last", "descending", [(1, 2, 0)], [[1], [2], [0]]),
    ],
)
def test_pruning_traces_loop_dfa(mode, order, expect_deleted, expect_parts):
    ref = init_refinement(example_loop_dfa(), order)
    deleted = []
    while not ref.done:
        deleted.extend(ref.step(mode).deleted_edges)
    assert deleted == expect_deleted
    assert ref.snapshot_partition().parts == expect_parts
    ref.check_invariants()


def test_split_contract_errors():
    ref = init_refinement(example_quasi_wheeler_nfa())
    with pytest.raises(RuntimeError, match="select_splitter"):
        ref.three_way_split(None)  # type: ignore[arg-type]
    ch = ref.select_splitter()
    with pytest.raises(RuntimeError, match="not yet consumed"):
        ref.select_splitter()
    wrong = ch.__class__(x_span=ch.x_span, part=ch.part, members=(9,), b_is_first=ch.b_is_first)
    with pytest.raises(ValueError, match="pending"):
        ref.three_way_split(wrong)
    ref.three_way_split(ch)  # the real one still goes through
    with pytest.raises(RuntimeError, match="pending"):
        run_refinement(_with_pending(example_quasi_wheeler_nfa()))


def _with_pending(a: Automaton) -> Refinement:
    ref = init_refinement(a)
    ref.select_splitter()
    return ref


def test_created_parts_report_matches_snapshot_delta():
    ref = init_refinement(example_quasi_wheeler_nfa())
    before = {tuple(p) for p in ref.snapshot_partition().parts}
    rep = ref.step()
    after = {tuple(p) for p in ref.snapshot_partition().parts}
    for _, members in rep.created_parts:
        assert members in after and members not in before


def test_splitter_members_never_exceed_half_of_span():
    for seed in range(25):
        a = gen_random_nfa(random.Random(seed).randint(2, 20), 2, seed)
        ref = init_refinement(a)
        while True:
            ch = ref.select_splitter()
            if ch is None:
                break
            lo, hi = ch.x_span
            assert 2 * len(ch.members) <= hi - lo
            ref.three_way_split(ch)


def test_run_is_deterministic():
    a = gen_random_nfa(30, 3, 99)
    runs = []
    for _ in range(2):
        ref = init_refinement(a)
        run_refinement(ref)
        runs.append(ref.snapshot_partition())
    assert runs[0] == runs[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["off", "keep-first", "keep-last"]))
def test_invariants_hold_after_every_step(seed, mode):
    rng = random.Random(seed)
    n = rng.randint(2, 16)
    sigma = rng.randint(1, min(3, n - 1))
    if mode == "off":
        a = gen_random_nfa(n, sigma, seed)
    else:
        a = gen_random_dfa(n, sigma, seed)
    order = rng.choice(["ascending", "descending"])
    ref = init_refinement(a, order)
    ref.check_invariants()
    while not ref.done:
        ref.step(mode)
        ref.check_invariants()
    # and the monolithic path lands on the same partition
    ref2 = init_refinement(a, order)
    run_refinement(ref2, mode)
    assert ref.snapshot_partition() == ref2.snapshot_partition()
    assert sorted(ref.deleted_edge_ids()) == sorted(ref2.deleted_edge_ids())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_splitter_count_is_logarithmic(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 200)
    sigma = rng.randint(1, min(4, n - 1))
    a = gen_random_nfa(n, sigma, seed)
    ref = init_refinement(a)
    run_refinement(ref)
    assert ref.max_splitter_count <= n.bit_length()  # floor(log2 n) + 1


def _snapshot_by_parts(ref: Refinement) -> list[list[int]]:
    """Reference: the per-part sorted() construction snapshot_partition replaced."""
    parts = []
    i = 0
    while i < ref.n:
        hi = int(ref.pend[ref.partof[ref.elems[i]]])
        parts.append(sorted(int(v) for v in ref.elems[i:hi]))
        i = hi
    return parts


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from(["ascending", "descending"]),
    st.sampled_from(["off", "keep-first"]),
)
def test_snapshot_matches_per_part_construction(seed, dfa, order, mode):
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    sigma = rng.randint(1, min(3, n - 1))
    # pruning is defined for DFAs only
    a = gen_random_dfa(n, sigma, seed) if dfa or mode != "off" else gen_random_nfa(n, sigma, seed)
    ref = init_refinement(a, order)
    while True:
        snap = ref.snapshot_partition()
        assert snap.parts == _snapshot_by_parts(ref)
        assert snap == OrderedPartition(_snapshot_by_parts(ref))
        if ref.step(mode) is None:
            break


def test_edge_free_automaton():
    a = Automaton(1, 0, 0, [])
    ref = init_refinement(a)
    assert ref.done
    assert ref.snapshot_partition().parts == [[0]]
    run_refinement(ref)
    assert ref.snapshot_partition().parts == [[0]]


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("kind,mode", [("nfa", "off"), ("dfa", "keep-first")])
@pytest.mark.parametrize("seed", range(12))
def test_kernel_views_match_numpy_arrays(seed, kind, mode, order):
    """run_refinement hands the kernels kernel_view()s of the engine arrays;
    the same run_full on the raw numpy arrays is the reference."""
    n = random.Random(seed).randint(2, 120)
    if kind == "nfa":
        a = gen_random_nfa(n, min(3, n - 1), seed, m=min(3 * (n - 1), n * (n - 1)))
    else:
        a = gen_random_dfa(n, min(4, n - 1), seed)
    ref = init_refinement(a, order)
    run_refinement(ref, mode)
    base = init_refinement(a, order)
    raw = K.Engine(*(np.asarray(v) for v in base._st))
    K.run_full(base.regs, raw, PRUNE_MODES[mode], base.n + 1)
    base._raise_status()
    assert ref.rounds > 0
    assert np.array_equal(ref.regs, base.regs)
    for got, want in zip(ref._st, raw):
        assert np.array_equal(np.asarray(got), want)
    assert ref.snapshot_partition() == base.snapshot_partition()
    assert ref.deleted_edge_ids() == base.deleted_edge_ids()
    stepwise = init_refinement(a, order)
    stepwise.run_to_completion(mode)
    assert stepwise.snapshot_partition() == base.snapshot_partition()


def _parts_by_id(ref: Refinement) -> dict[int, tuple[int, ...]]:
    parts = {}
    for p in {int(v) for v in ref.partof}:
        parts[p] = tuple(sorted(int(v) for v in ref.elems[ref.pbeg[p] : ref.pend[p]]))
    return parts


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([("nfa", "off"), ("dfa", "keep-first"), ("dfa", "keep-last")]),
    st.sampled_from(["ascending", "descending"]),
)
def test_records_and_created_parts_at_larger_sizes(seed, kind_mode, order):
    """Exact count records, no record shared by two groups, and created_parts
    equal to the snapshot delta after every step, three-way splits included."""
    kind, mode = kind_mode
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    sigma = rng.randint(1, min(4, n - 1))
    if kind == "nfa":
        a = gen_random_nfa(n, sigma, seed, m=rng.randint(n - 1, min(4 * (n - 1), n * (n - 1))))
    else:
        a = gen_random_dfa(n, sigma, seed)
    ref = init_refinement(a, order)
    before = _parts_by_id(ref)
    while (rep := ref.step(mode)) is not None:
        ref.check_invariants()
        after = _parts_by_id(ref)
        created = dict(rep.created_parts)
        assert created == {q: after[q] for q in after.keys() - before.keys()}
        changed = {after[p] for p in before if after[p] != before[p]}
        assert set(after.values()) - set(before.values()) == set(created.values()) | changed
        before = after
