"""Stepwise refinement engine: traces, contracts, and invariant scans."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copar import _kernels as K
from copar import prune
from copar.automaton import Automaton, OrderedPartition, path_dfa
from copar.examples import example_loop_dfa, example_quasi_wheeler_nfa
from copar.generators import gen_random_dfa, gen_random_nfa, gen_wheeler_nfa
from copar.partition import Refinement, init_refinement, run_refinement

# test ids name the two ways a refinement runs
PRUNE = {"off": False, "keep-first": True}


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


def _select(ref: Refinement) -> tuple[tuple[int, ...], bool, tuple[int, int]] | None:
    """The splitter the next step takes, predicted without changing the
    engine: S is the X-part at the heap root and B the smaller of its end
    parts, ties to the first. Returns B's states, whether B was first and
    S's span; None once the refinement is done."""
    if ref.done:
        return None
    s = int(ref.heap[0]) % ref.xbeg.shape[0]
    lo, hi = int(ref.xbeg[s]), int(ref.xend[s])
    b, last = int(ref.partof[ref.elems[lo]]), int(ref.partof[ref.elems[hi - 1]])
    first = ref.pend[b] - ref.pbeg[b] <= ref.pend[last] - ref.pbeg[last]
    if not first:
        b = last
    members = tuple(int(v) for v in ref.elems[ref.pbeg[b] : ref.pend[b]])
    return members, bool(first), (lo, hi)


def _split_against(ref: Refinement, choice: tuple[tuple[int, ...], bool, tuple[int, int]]) -> None:
    """After a step, check that it split against the predicted splitter:
    the X-part the round made, id ROUNDS, spans exactly B's states."""
    x = ref.rounds
    spanned = ref.elems[ref.xbeg[x] : ref.xend[x]]
    assert sorted(int(v) for v in spanned) == sorted(choice[0])


def _step_delta(ref: Refinement) -> tuple[dict[int, tuple[int, ...]], list[tuple[int, int, int]]] | None:
    """One step and what it made, read from the engine: the new parts, ids
    from NPARTS before the step on, each with its states sorted, and the
    edges it deleted as (from, to, letter) by ascending id; None once done."""
    nparts, dead = int(ref.regs[K.R_NPARTS]), set(ref.deleted_edge_ids())
    if not ref.step():
        return None
    created = {
        q: tuple(sorted(int(v) for v in ref.elems[ref.pbeg[q] : ref.pend[q]]))
        for q in range(nparts, int(ref.regs[K.R_NPARTS]))
    }
    a = ref.automaton
    new = [e for e in ref.deleted_edge_ids() if e not in dead]
    return created, [(int(a.esrc[e]), int(a.edst[e]), int(a.elab[e])) for e in new]


def _step_to_end(ref: Refinement) -> None:
    while ref.step():
        pass


def test_stepwise_trace_quasi_fixture():
    ref = init_refinement(example_quasi_wheeler_nfa(), "ascending")
    assert ref.snapshot_partition().parts == [[0], [1, 2], [3, 4]]
    assert not ref.done

    choice = _select(ref)
    assert choice == ((0,), True, (0, 5))
    assert _step_delta(ref) == ({3: (3,)}, [])
    _split_against(ref, choice)

    choice = _select(ref)
    assert choice[:2] == ((4,), False)
    assert _step_delta(ref) == ({}, [])
    _split_against(ref, choice)

    choice = _select(ref)
    assert choice[:2] == ((3,), False)
    assert ref.step()
    _split_against(ref, choice)

    assert ref.done
    assert _select(ref) is None
    assert not ref.step()
    assert ref.snapshot_partition().parts == [[0], [1, 2], [3], [4]]
    assert ref.rounds == 3
    assert ref.max_splitter_count == 1


@pytest.mark.parametrize("mode", sorted(PRUNE))
def test_step_when_done_changes_nothing(mode):
    a = gen_random_dfa(30, 3, 2)
    ref = init_refinement(a, prune=PRUNE[mode])
    run_refinement(ref)
    regs = ref.regs.copy()
    arrays = {f: getattr(ref, f).copy() for f in K.Engine._fields}
    assert ref.done and not ref.step()
    assert np.array_equal(ref.regs, regs)
    for f, want in arrays.items():
        assert np.array_equal(getattr(ref, f), want), f


@pytest.mark.parametrize(
    "mode,order,expect_deleted,expect_parts",
    [
        ("keep-first", "ascending", [(1, 2, 0)], [[0], [2], [1]]),
        ("keep-first", "descending", [(2, 2, 0)], [[1], [2], [0]]),
    ],
)
def test_pruning_traces_loop_dfa(mode, order, expect_deleted, expect_parts):
    ref = init_refinement(example_loop_dfa(), order, prune=PRUNE[mode])
    deleted = []
    while (delta := _step_delta(ref)) is not None:
        deleted.extend(delta[1])
    assert deleted == expect_deleted
    assert ref.snapshot_partition().parts == expect_parts
    ref.check_invariants()


def test_only_a_pruning_refinement_builds_the_deletion_arrays():
    a = gen_random_dfa(20, 2, 4)
    plain = init_refinement(a)
    pruning = init_refinement(a, prune=True)
    for f, size in (("in_lst", a.m), ("in_ptr", a.n), ("in_len", a.n), ("in_pos", a.m), ("out_pos", a.m)):
        assert getattr(plain, f).size == 1, f
        assert getattr(pruning, f).size == size, f
    for v in range(a.n):
        assert sorted(plain.surviving_in_edges(v)) == sorted(pruning.surviving_in_edges(v))
    run_refinement(plain)
    run_refinement(pruning)
    assert plain.deleted_edge_ids() == [] and plain.alive_edges().all()
    assert pruning.deleted_edge_ids()
    live = {e for v in range(a.n) for e in pruning.surviving_in_edges(v)}
    assert set(np.flatnonzero(pruning.alive_edges()).tolist()) == live


@pytest.mark.parametrize("prune", [False, True])
def test_surviving_in_edges_rejects_states_out_of_range(prune):
    ref = init_refinement(gen_random_dfa(10, 2, 4), prune=prune)
    for v in (-1, 10, 99):
        with pytest.raises(ValueError, match=f"state {v} out of range"):
            ref.surviving_in_edges(v)
    assert ref.surviving_in_edges(9)


def test_a_state_left_alone_is_skipped_when_reached_again():
    """0 -a-> 1 -a-> 3 -b-> 2 and 0 -b-> 2. The first round, against B = {0},
    splits {1, 3} into {1} and {3}; the second, against B = {1}, reaches 3
    again and leaves it out of the round, its record untouched."""
    ref = init_refinement(Automaton(4, 2, 0, [(0, 1, 0), (0, 2, 1), (1, 3, 0), (3, 2, 1)]))
    ref.step()
    assert ref.snapshot_partition().parts == [[0], [1], [3], [2]]
    assert ref.seen_gen[1] == ref.seen_gen[3] == K.ALONE
    (e,) = ref.surviving_in_edges(3)
    record = (int(ref.cnt_ref[e]), int(ref.cnt_val[ref.cnt_ref[e]]))
    choice = _select(ref)
    assert choice[0] == (1,)
    ref.step()
    _split_against(ref, choice)
    assert (int(ref.cnt_ref[e]), int(ref.cnt_val[ref.cnt_ref[e]])) == record
    assert ref.regs[K.R_NXS] == 0
    ref.check_invariants()
    while ref.step():
        ref.check_invariants()
    assert ref.snapshot_partition().parts == [[0], [1], [3], [2]]


def test_invariant_scan_sees_a_bad_marker_or_heap():
    a = gen_random_nfa(12, 2, 1)
    ref = init_refinement(a)
    ref.step()
    ref.check_invariants()
    p = int(np.argmax(ref.pend - ref.pbeg))  # a part of two or more states
    v = int(ref.elems[ref.pbeg[p]])
    kept, ref.seen_gen[v] = int(ref.seen_gen[v]), K.ALONE
    with pytest.raises(AssertionError, match=f"marked state {v} is not alone"):
        ref.check_invariants()
    ref.seen_gen[v] = kept
    hsize = int(ref.regs[K.R_HSIZE])
    assert hsize >= 1
    ref.heap[hsize] = ref.heap[hsize - 1]
    ref.regs[K.R_HSIZE] = hsize + 1
    with pytest.raises(AssertionError, match="compound X-part once"):
        ref.check_invariants()


def test_invariant_scan_sees_a_bad_xpart_id():
    """The X-part ids in use are 0..ROUNDS; a part moved to the next id
    breaks that."""
    ref = init_refinement(gen_random_nfa(12, 2, 1))
    ref.step()
    ref.step()
    ref.check_invariants()
    p = int(ref.partof[0])
    ref.xof[p] = ref.rounds + 1
    with pytest.raises(AssertionError, match="X-part ids in use"):
        ref.check_invariants()


def _swap_states(ref: Refinement, u: int, v: int) -> None:
    """Exchange two states' places in the state sequence, and so their parts."""
    i, j = int(ref.pos[u]), int(ref.pos[v])
    ref.elems[i], ref.elems[j] = v, u
    ref.pos[u], ref.pos[v] = j, i
    ref.partof[[u, v]] = ref.partof[[v, u]]


def test_invariant_scan_sees_an_unstable_part():
    """2 and 6 share an X-part but not a part, and X-part 2 reaches 2 and
    not 6: swapping them puts 2 into part 2 beside 8, which it does not
    reach."""
    ref = init_refinement(gen_random_nfa(12, 2, 0))
    ref.step()
    ref.step()
    ref.check_invariants()
    assert ref.partof[2] != ref.partof[6] and ref.xof[ref.partof[2]] == ref.xof[ref.partof[6]]
    _swap_states(ref, 2, 6)
    with pytest.raises(AssertionError, match="part 2 is unstable against X-part 2$"):
        ref.check_invariants()


def test_splitter_members_never_exceed_half_of_span():
    for seed in range(25):
        a = gen_random_nfa(random.Random(seed).randint(2, 20), 2, seed)
        ref = init_refinement(a)
        while (choice := _select(ref)) is not None:
            members, _, (lo, hi) = choice
            assert 2 * len(members) <= hi - lo
            ref.step()
            _split_against(ref, choice)


def test_run_is_deterministic():
    a = gen_random_nfa(30, 3, 99)
    runs = []
    for _ in range(2):
        ref = init_refinement(a)
        run_refinement(ref)
        runs.append(ref.snapshot_partition())
    assert runs[0] == runs[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(list(PRUNE)))
def test_invariants_hold_after_every_step(seed, mode):
    rng = random.Random(seed)
    n = rng.randint(2, 16)
    sigma = rng.randint(1, min(3, n - 1))
    if mode == "off":
        a = gen_random_nfa(n, sigma, seed)
    else:
        a = gen_random_dfa(n, sigma, seed)
    order = rng.choice(["ascending", "descending"])
    ref = init_refinement(a, order, prune=PRUNE[mode])
    ref.check_invariants()
    while not ref.done:
        ref.step()
        ref.check_invariants()
    # and the monolithic path lands on the same partition
    ref2 = init_refinement(a, order, prune=PRUNE[mode])
    run_refinement(ref2)
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
    st.sampled_from(list(PRUNE)),
)
def test_snapshot_matches_per_part_construction(seed, dfa, order, mode):
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    sigma = rng.randint(1, min(3, n - 1))
    # pruning is defined for DFAs only
    a = gen_random_dfa(n, sigma, seed) if dfa or mode != "off" else gen_random_nfa(n, sigma, seed)
    ref = init_refinement(a, order, prune=PRUNE[mode])
    while True:
        snap = ref.snapshot_partition()
        assert snap.parts == _snapshot_by_parts(ref)
        assert snap == OrderedPartition(_snapshot_by_parts(ref))
        if not ref.step():
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
    ref = init_refinement(a, order, prune=PRUNE[mode])
    run_refinement(ref)
    base = init_refinement(a, order, prune=PRUNE[mode])
    raw = K.Engine(*(np.asarray(v) for v in base._st))
    K.run_full(base.regs, raw, int(base.prune), base.n + 1)
    base._raise_status()
    assert ref.rounds > 0
    assert np.array_equal(ref.regs, base.regs)
    for got, want in zip(ref._st, raw):
        assert np.array_equal(np.asarray(got), want)
    assert ref.snapshot_partition() == base.snapshot_partition()
    assert ref.deleted_edge_ids() == base.deleted_edge_ids()
    stepwise = init_refinement(a, order, prune=PRUNE[mode])
    _step_to_end(stepwise)
    assert stepwise.snapshot_partition() == base.snapshot_partition()


def _parts_by_id(ref: Refinement) -> dict[int, tuple[int, ...]]:
    parts = {}
    for p in {int(v) for v in ref.partof}:
        parts[p] = tuple(sorted(int(v) for v in ref.elems[ref.pbeg[p] : ref.pend[p]]))
    return parts


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([("nfa", "off"), ("dfa", "keep-first")]),
    st.sampled_from(["ascending", "descending"]),
)
def test_records_and_created_parts_at_larger_sizes(seed, kind_mode, order):
    """Exact count records, no record shared by two groups, and the parts
    with ids from NPARTS before a step on equal to the snapshot delta after
    every step, three-way splits included."""
    kind, mode = kind_mode
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    sigma = rng.randint(1, min(4, n - 1))
    if kind == "nfa":
        a = gen_random_nfa(n, sigma, seed, m=rng.randint(n - 1, min(4 * (n - 1), n * (n - 1))))
    else:
        a = gen_random_dfa(n, sigma, seed)
    ref = init_refinement(a, order, prune=PRUNE[mode])
    before = _parts_by_id(ref)
    while (delta := _step_delta(ref)) is not None:
        ref.check_invariants()
        after = _parts_by_id(ref)
        created = delta[0]
        assert created == {q: after[q] for q in after.keys() - before.keys()}
        changed = {after[p] for p in before if after[p] != before[p]}
        assert set(after.values()) - set(before.values()) == set(created.values()) | changed
        before = after


def _sturmian_path(n: int, seed: int) -> Automaton:
    """Path DFA of a length-(n - 1) standard Sturmian word, directive digits
    drawn from 1..3: Hopcroft-tight, every split two-way."""
    rng = random.Random(seed)
    word, prev = [0], [1]
    while len(word) < n - 1:
        word, prev = word * rng.randint(1, 3) + prev, word
    return path_dfa(word[: n - 1])


def _family(kind: str, n: int, seed: int) -> Automaton:
    rng = random.Random(seed)
    sigma = rng.randint(1, min(3, n - 1))
    if kind == "nfa":
        return gen_random_nfa(n, sigma, seed, m=rng.randint(n - 1, min(3 * (n - 1), n * (n - 1))))
    if kind == "dfa":
        return gen_random_dfa(n, sigma, seed)
    if kind == "wheeler":
        return gen_wheeler_nfa(n, rng.randint(n - 1, (sigma + 1) * (n - 1)), sigma, seed)
    return _sturmian_path(n, seed)


FAMILIES = ["nfa", "dfa", "wheeler", "sturmian"]


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("mode", sorted(PRUNE))
@pytest.mark.parametrize("kind", FAMILIES)
def test_stepping_matches_one_run_full_call(kind, mode, order):
    """After each step of a stepped run, regs and every Engine array equal
    what one run_full call stopping at that many rounds leaves, the last
    step that finds nothing included: every register run_full holds in a
    local is written back."""
    for seed in range(4):
        a = _family(kind, random.Random(seed).randint(5, 40), seed)
        stepped = init_refinement(a, order, prune=PRUNE[mode])
        for k in range(1, a.n + 2):
            more = stepped.step()
            one = init_refinement(a, order, prune=PRUNE[mode])
            K.run_full(one._kregs, one._st, int(one.prune), k)
            assert np.array_equal(stepped.regs, one.regs), k
            for f in K.Engine._fields:
                assert np.array_equal(getattr(stepped, f), getattr(one, f)), (k, f)
            r = one.regs
            reached = np.append(one.d12[: r[K.R_N12]], one.d11[: r[K.R_NXS] - r[K.R_N12]])
            assert np.array_equal(np.sort(one.xs[: r[K.R_NXS]]), np.sort(reached)), k
            if not more:
                break
        assert stepped.done and stepped.rounds == k - 1


def _records_in_use(ref: Refinement) -> None:
    """The count records a step leaves: the free ones are distinct, below
    NREC, count 0 and held by no counted edge, and those past NREC count 0."""
    r = ref.regs
    free = ref.free_stk[: r[K.R_FREETOP]]
    assert np.unique(free).size == free.size
    assert (free < r[K.R_NREC]).all() and not ref.cnt_val[free].any()
    assert not ref.cnt_val[r[K.R_NREC] :].any()
    counted = [
        e
        for v in range(ref.n)
        if ref.seen_gen[v] != K.ALONE
        for e in ref.surviving_in_edges(v)
    ]
    held = {int(ref.cnt_ref[e]) for e in counted}
    assert not held & set(free.tolist())
    assert all(ref.cnt_val[q] > 0 for q in held)


@pytest.mark.parametrize("mode", sorted(PRUNE))
@pytest.mark.parametrize("kind", FAMILIES)
def test_free_records_are_distinct_unused_and_zero(kind, mode):
    """After every step, records a round frees or never takes are unused
    and count 0, so the next round that takes one starts it from 1."""
    for seed in range(4):
        a = _family(kind, random.Random(seed).randint(5, 40), seed)
        ref = init_refinement(a, ["ascending", "descending"][seed % 2], prune=PRUNE[mode])
        _records_in_use(ref)
        while ref.step():
            _records_in_use(ref)
        _records_in_use(ref)


@pytest.mark.parametrize("mode", sorted(PRUNE))
@pytest.mark.parametrize("kind", FAMILIES)
def test_every_step_splits_against_the_predicted_splitter(kind, mode):
    """Before each step, done is True exactly when no splitter is left;
    step() reports a round exactly when one is, splits against the heap
    root's smaller end part, and never takes more than half of its span."""
    for seed in range(4):
        a = _family(kind, random.Random(seed).randint(5, 40), seed)
        ref = init_refinement(a, ["ascending", "descending"][seed % 2], prune=PRUNE[mode])
        while True:
            choice = _select(ref)
            assert ref.done == (choice is None)
            rounds = ref.rounds
            more = ref.step()
            assert more == (choice is not None)
            if not more:
                break
            assert ref.rounds == rounds + 1
            members, _, (lo, hi) = choice
            assert 2 * len(members) <= hi - lo
            _split_against(ref, choice)
        assert ref.done and ref.rounds == rounds


SIZES = [(0, 5), (1, 12), (2, 30), (3, 60), (6, 40), (4, 500), (5, 2000)]


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("kind", FAMILIES)
def test_run_refinement_matches_the_stepped_kernel(kind, order):
    """Up to n = 2000, one run_refinement call and a stepped run leave the
    same partition, rounds and splitter counts, and the engine invariants
    hold after every step up to n = 200."""
    for seed, n in SIZES:
        a = _family(kind, n, seed)
        stepped = init_refinement(a, order)
        while stepped.step():
            if n <= 200:
                stepped.check_invariants()
        ref = init_refinement(a, order)
        run_refinement(ref)
        assert ref.rounds > 0
        assert ref.snapshot_partition() == stepped.snapshot_partition()
        assert (ref.rounds, ref.max_splitter_count) == (stepped.rounds, stepped.max_splitter_count)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_pruning_runs_of_small_dfas_match_the_stepped_kernel(order, monkeypatch):
    """On the pure-Python backend, pruning runs of DFAs up to n = 2000 equal
    a stepped run, deleted edges included."""
    monkeypatch.setattr(K, "HAVE_NUMBA", False)
    for seed, n in SIZES:
        a = _family("dfa", n, seed)
        kernel = init_refinement(a, order, prune=True)
        _step_to_end(kernel)
        ref = init_refinement(a, order, prune=True)
        run_refinement(ref)
        assert ref.snapshot_partition() == kernel.snapshot_partition()
        assert (ref.rounds, ref.max_splitter_count) == (kernel.rounds, kernel.max_splitter_count)
        assert ref.deleted_edge_ids() == kernel.deleted_edge_ids()


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_pruning_run_matches_the_stepped_kernel_at_full_size(order):
    """On the shape of the dfa-colex input, run_refinement and a stepped
    run of the same pruning refinement leave the same partition, rounds,
    splitter counts, deleted edges and kept in-edges."""
    a = gen_random_dfa(8_000, 4, 7, m=16_000)
    kernel = init_refinement(a, order, prune=True)
    _step_to_end(kernel)
    ref = init_refinement(a, order, prune=True)
    run_refinement(ref)
    assert ref.snapshot_partition() == kernel.snapshot_partition()
    assert (ref.rounds, ref.max_splitter_count) == (kernel.rounds, kernel.max_splitter_count)
    assert ref.deleted_edge_ids() == kernel.deleted_edge_ids()
    direction = "inf" if order == "ascending" else "sup"
    kept = [prune._assemble(a, direction, r).kept_src for r in (ref, kernel)]
    assert np.array_equal(*kept)


@pytest.mark.parametrize("mode", sorted(PRUNE))
def test_record_capacity_breach_stops_the_run(mode):
    """Shrink the count records to the initial ones: the first round that
    needs a fresh record stops with STATUS_RECORD_CAP, pruning or not."""
    ref = init_refinement(gen_random_nfa(40, 2, 3, m=100), prune=PRUNE[mode])
    ref.cnt_val = ref.cnt_val[: ref.n].copy()
    ref._st = ref._st._replace(cnt_val=K.kernel_view(ref.cnt_val))
    with pytest.raises(RuntimeError, match=f"status {K.STATUS_RECORD_CAP}"):
        run_refinement(ref)
    assert ref.regs[K.R_STATUS] == K.STATUS_RECORD_CAP


@pytest.mark.parametrize("numba,mode", [(True, "off"), (True, "keep-first"), (False, "keep-first"), (False, "off")])
def test_run_refinement_makes_one_run_full_call(numba, mode, monkeypatch):
    """On either backend (the kernels given the numpy arrays, as compiled,
    or memoryviews), plain or pruning, run_refinement runs every round in
    one run_full call, and lands where a stepped run does."""
    monkeypatch.setattr(K, "HAVE_NUMBA", numba)
    calls = []
    run_full = K.run_full

    def counted(regs, st, prune, max_rounds):
        calls.append(max_rounds)
        run_full(regs, st, prune, max_rounds)

    monkeypatch.setattr(K, "run_full", counted)
    a = gen_random_dfa(60, 3, 5)
    ref = init_refinement(a, prune=PRUNE[mode])
    run_refinement(ref)
    assert ref.rounds > 1
    assert calls == [a.n + 2]
    kernel = init_refinement(a, prune=PRUNE[mode])
    _step_to_end(kernel)
    assert ref.snapshot_partition() == kernel.snapshot_partition()
    assert ref.deleted_edge_ids() == kernel.deleted_edge_ids()
