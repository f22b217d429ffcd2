"""Stepwise refinement engine: traces, contracts, and invariant scans."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copar import _kernels as K
from copar import partition, prune
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
    """Select the next splitter and leave it pending, as run_full hands a
    large one back: B's states, whether B was first and the span of its
    X-part S before the carve; None once the refinement is done."""
    K.run_full(ref._kregs, ref._st, int(ref.prune), ref.rounds + 1, 1)
    ref._raise_status()
    s, b, first = (int(v) for v in ref.regs[[K.R_SPART, K.R_BPART, K.R_BFIRST]])
    if s < 0:
        return None
    # the carve moved S's begin past B when B was first, else its end
    span = (ref.pbeg[b], ref.xend[s]) if first else (ref.xbeg[s], ref.pend[b])
    members = tuple(int(v) for v in ref.elems[ref.pbeg[b] : ref.pend[b]])
    return members, bool(first), (int(span[0]), int(span[1]))


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

    assert _select(ref) == ((0,), True, (0, 5))
    assert _step_delta(ref) == ({3: (3,)}, [])

    assert _select(ref)[:2] == ((4,), False)
    assert _step_delta(ref) == ({}, [])

    assert _select(ref)[:2] == ((3,), False)
    assert ref.step()

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


@pytest.mark.parametrize("mode", sorted(PRUNE))
def test_step_finishes_a_pending_round(mode):
    """step() after _select splits the pending splitter, counting one
    round, and leaves what a plain step() leaves; run_refinement also splits
    it first."""
    a = gen_random_dfa(30, 3, 2)
    for k in range(3):
        plain = init_refinement(a, prune=PRUNE[mode])
        pending = init_refinement(a, prune=PRUNE[mode])
        for _ in range(k):
            plain.step()
            pending.step()
        assert _select(pending) is not None and pending.rounds == k
        assert plain.step() and pending.step()
        assert pending.rounds == k + 1 and pending.regs[K.R_SPART] == -1
        assert np.array_equal(pending.regs, plain.regs)
        for f in K.Engine._fields:
            assert np.array_equal(getattr(pending, f), getattr(plain, f)), f
        _select(pending)
        run_refinement(pending)
        run_refinement(plain)
        assert pending.snapshot_partition() == plain.snapshot_partition()
        assert pending.rounds == plain.rounds


def test_done_waits_for_a_pending_splitter():
    """A run_full call that hands its splitter back leaves a round to run:
    done stays False until a step splits it."""
    ref = init_refinement(example_quasi_wheeler_nfa())
    ref.step()
    ref.step()
    K.run_full(ref._kregs, ref._st, 0, ref.rounds + 1, 1)
    assert ref.regs[K.R_SPART] >= 0 and ref.regs[K.R_NCOMP] == 0
    assert not ref.done
    assert ref.step() and ref.rounds == 3
    assert ref.done and not ref.step()


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
    for f in ("in_lst", "in_pos", "out_pos"):
        assert getattr(plain, f).size == 1, f
        assert getattr(pruning, f).size == a.m, f
    for v in range(a.n):
        assert sorted(plain.surviving_in_edges(v)) == sorted(pruning.surviving_in_edges(v))
    run_refinement(plain)
    run_refinement(pruning)
    assert plain.deleted_edge_ids() == []
    assert pruning.deleted_edge_ids()


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
    assert _select(ref)[0] == (1,)
    ref.step()
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


def test_splitter_members_never_exceed_half_of_span():
    for seed in range(25):
        a = gen_random_nfa(random.Random(seed).randint(2, 20), 2, seed)
        ref = init_refinement(a)
        while (choice := _select(ref)) is not None:
            members, _, (lo, hi) = choice
            assert 2 * len(members) <= hi - lo
            ref.step()


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
    K.run_full(base.regs, raw, int(base.prune), base.n + 1, 0)
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
    """After each step of a stepped run, every other one after _select,
    regs and every Engine array equal what one run_full call stopping at
    that many rounds leaves, the last step that finds nothing included:
    every register run_full holds in a local is written back, and a
    pending splitter resumes where it stopped."""
    for seed in range(4):
        a = _family(kind, random.Random(seed).randint(5, 40), seed)
        stepped = init_refinement(a, order, prune=PRUNE[mode])
        for k in range(1, a.n + 2):
            if k % 2:
                _select(stepped)
            more = stepped.step()
            one = init_refinement(a, order, prune=PRUNE[mode])
            K.run_full(one._kregs, one._st, int(one.prune), k, 0)
            assert np.array_equal(stepped.regs, one.regs), k
            for f in K.Engine._fields:
                assert np.array_equal(getattr(stepped, f), getattr(one, f)), (k, f)
            r = one.regs
            reached = np.append(one.d12[: r[K.R_N12]], one.d11[: r[K.R_N11]])
            assert np.array_equal(np.sort(one.xs[: r[K.R_NXS]]), np.sort(reached)), k
            if not more:
                break
        assert stepped.done and stepped.rounds == k - 1


# every family without pruning, and the DFAs, for which pruning is defined,
# with it
NUMPY_CASES = [pytest.param(kind, "off", id=kind) for kind in FAMILIES]
NUMPY_CASES.append(pytest.param("dfa", "keep-first", id="dfa-keep-first"))


def _live_edges(ref: Refinement) -> np.ndarray:
    """The ids of the edges pruning has not deleted, ascending."""
    return np.sort(ref.in_lst[ref.live_in_slots()]) if ref.prune else np.arange(ref.m)


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("kind,mode", NUMPY_CASES)
def test_numpy_rounds_match_the_kernel(kind, mode, order, monkeypatch):
    """With the constant at 1 every round is a numpy round of one-edge
    blocks; at 2 or 3, rounds of smaller loads stay in the kernel and the
    others span several blocks; at 1024 only the large splitters of a
    full-size pruning input take numpy rounds. Partitions, rounds, splitter
    counts, deleted edges and kept in-edges equal a kernel-only run, and the
    engine invariants hold after every numpy round up to n = 200."""
    numpy_rounds = []
    one_round = partition._numpy_round

    def checked_round(ref: Refinement) -> None:
        one_round(ref)
        numpy_rounds.append(ref.n)
        if ref.n <= 200:
            ref.check_invariants()

    monkeypatch.setattr(partition, "_numpy_round", checked_round)
    sizes = [(0, 5, 1), (1, 12, 1), (2, 30, 1), (3, 60, 1), (6, 40, 2), (4, 500, 1), (5, 2000, 3)]
    cases = [(_family(kind, n, seed), blk) for seed, n, blk in sizes]
    if mode == "keep-first":  # the shape of the dfa-colex input
        cases.append((gen_random_dfa(8_000, 4, 7, m=16_000), 1024))
    for a, blk in cases:
        kernel = init_refinement(a, order, prune=PRUNE[mode])
        _step_to_end(kernel)
        monkeypatch.setattr(partition, "NUMPY_ROUND_BLOCK", blk)
        numpy_rounds.clear()
        ref = init_refinement(a, order, prune=PRUNE[mode])
        run_refinement(ref)
        assert 0 < len(numpy_rounds) <= ref.rounds
        assert blk > 1 or len(numpy_rounds) == ref.rounds
        assert ref.snapshot_partition() == kernel.snapshot_partition()
        assert (ref.rounds, ref.max_splitter_count) == (kernel.rounds, kernel.max_splitter_count)
        assert ref.deleted_edge_ids() == kernel.deleted_edge_ids()
        if ref.prune:
            direction = "inf" if order == "ascending" else "sup"
            kept = [prune._assemble(a, direction, r).kept_src for r in (ref, kernel)]
            assert np.array_equal(*kept)


def _state_after(a: Automaton, order: str, mode: str, rounds: int) -> Refinement:
    """The engine after that many kernel rounds, with the next splitter pending."""
    ref = init_refinement(a, order, prune=PRUNE[mode])
    for _ in range(rounds):
        ref.step()
    _select(ref)
    return ref


def _adjacency(ref: Refinement) -> tuple[list[list[int]], list[list[int]]]:
    """Each state's live in-edges and out-edges, sorted."""
    outs = [
        sorted(ref.out_lst[ref.out_ptr[u] : ref.out_ptr[u] + ref.out_len[u]].tolist())
        for u in range(ref.n)
    ]
    return [sorted(ref.surviving_in_edges(v)) for v in range(ref.n)], outs


@pytest.mark.parametrize("blk", [1, 2, 1024])
@pytest.mark.parametrize("kind,mode", NUMPY_CASES)
def test_numpy_round_leaves_the_kernel_state(kind, mode, blk, monkeypatch):
    """From the same state, one numpy round and one kernel round leave the
    same engine, up to record ids, the order inside each part and the order
    of the edges inside each adjacency list."""
    monkeypatch.setattr(partition, "NUMPY_ROUND_BLOCK", blk)
    for seed in range(4):
        a = _family(kind, random.Random(seed).randint(5, 40), seed)
        order = ["ascending", "descending"][seed % 2]
        total = init_refinement(a, order, prune=PRUNE[mode])
        _step_to_end(total)
        for k in range(total.rounds):
            want, got = _state_after(a, order, mode, k), _state_after(a, order, mode, k)
            want.step()
            partition._numpy_round(got)
            assert np.array_equal(got.regs, want.regs)
            for f in ("splitcnt", "seen_gen", "partof", "pbeg", "pend", "xof",
                      "xbeg", "xend", "xcnt", "heap", "moved_cnt"):
                assert np.array_equal(getattr(got, f), getattr(want, f)), f
            r = got.regs
            for f, reg in (("xs", K.R_NXS), ("d12", K.R_N12), ("d11", K.R_N11)):
                assert np.array_equal(getattr(got, f)[: r[reg]], getattr(want, f)[: r[reg]]), f
            assert _parts_by_id(got) == _parts_by_id(want)
            assert np.array_equal(got.pos[got.elems], np.arange(got.n))
            assert _adjacency(got) == _adjacency(want)
            if mode == "keep-first":
                for lst, at in ((got.in_lst, got.in_pos), (got.out_lst, got.out_pos)):
                    assert np.array_equal(at[lst], np.arange(got.m))
            # the same grouping of live edges into records, with the same
            # counts; a deleted edge keeps a stale record id
            live = _live_edges(got)
            gref, wref = got.cnt_ref[live], want.cnt_ref[live]
            assert np.array_equal(got.cnt_val[gref], want.cnt_val[wref])
            pairs = set(zip(gref.tolist(), wref.tolist()))
            assert len(pairs) == len({p for p, _ in pairs}) == len({q for _, q in pairs})
            xs = got.xs[: r[K.R_NXS]]
            assert np.array_equal(got.cnt_val[got.xrec[xs]], want.cnt_val[want.xrec[xs]])
            # free records are distinct, unused and count 0, as are those past NREC
            free = got.free_stk[: r[K.R_FREETOP]]
            assert np.unique(free).size == free.size and not got.cnt_val[free].any()
            assert not set(free.tolist()) & set(gref.tolist())
            assert (free < r[K.R_NREC]).all() and not got.cnt_val[r[K.R_NREC] :].any()


@pytest.mark.parametrize("threshold", [1, 10**9])
def test_record_capacity_breach_in_either_round(threshold, monkeypatch):
    """Shrink the count records to the initial ones: the first round that
    needs a fresh record stops with STATUS_RECORD_CAP, in numpy or not."""
    monkeypatch.setattr(partition, "NUMPY_ROUND_BLOCK", threshold)
    ref = init_refinement(gen_random_nfa(40, 2, 3, m=100))
    ref.cnt_val = ref.cnt_val[: ref.n].copy()
    ref._st = ref._st._replace(cnt_val=K.kernel_view(ref.cnt_val))
    with pytest.raises(RuntimeError, match=f"status {K.STATUS_RECORD_CAP}"):
        run_refinement(ref)
    assert ref.regs[K.R_STATUS] == K.STATUS_RECORD_CAP


@pytest.mark.parametrize("numba,mode", [(True, "off"), (True, "keep-first"), (False, "keep-first")])
def test_only_the_python_backend_hands_splitters_back(numba, mode, monkeypatch):
    """Compiled, run_refinement makes one run_full call with big_load 0; on
    the pure-Python backend pruning runs, like plain ones, pass
    NUMPY_ROUND_BLOCK and get large splitters handed back."""
    monkeypatch.setattr(partition, "NUMPY_ROUND_BLOCK", 1)
    monkeypatch.setattr(K, "HAVE_NUMBA", numba)
    calls = []
    run_full = K.run_full

    def counted(regs, st, prune, max_rounds, big_load):
        calls.append(big_load)
        run_full(regs, st, prune, max_rounds, big_load)

    monkeypatch.setattr(K, "run_full", counted)
    a = gen_random_dfa(60, 3, 5)
    ref = init_refinement(a, prune=PRUNE[mode])
    run_refinement(ref)
    assert ref.rounds > 1
    assert calls == ([0] if numba else [1] * (ref.rounds + 1))
    kernel = init_refinement(a, prune=PRUNE[mode])
    _step_to_end(kernel)
    assert ref.snapshot_partition() == kernel.snapshot_partition()
    assert ref.deleted_edge_ids() == kernel.deleted_edge_ids()
