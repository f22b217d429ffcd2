"""Stepwise refinement engine: traces, contracts, and invariant scans."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copar import _kernels as K
from copar import partition
from copar.automaton import Automaton, OrderedPartition, path_dfa
from copar.examples import example_loop_dfa, example_quasi_wheeler_nfa
from copar.generators import gen_random_dfa, gen_random_nfa, gen_wheeler_nfa
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
    K.run_full(base.regs, raw, PRUNE_MODES[mode], base.n + 1, 0)
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
@pytest.mark.parametrize("mode", sorted(PRUNE_MODES))
@pytest.mark.parametrize("kind", FAMILIES)
def test_stepping_matches_one_run_full_call(kind, mode, order):
    """After each step of a stepped run (select_splitter, then
    three_way_split), regs and every Engine array equal what one run_full
    call stopping at that many rounds leaves, the last step's empty
    selection included: every register run_full holds in a local is
    written back, and a pending splitter resumes where it stopped."""
    for seed in range(4):
        a = _family(kind, random.Random(seed).randint(5, 40), seed)
        stepped = init_refinement(a, order)
        for k in range(1, a.n + 2):
            more = stepped.step(mode) is not None
            one = init_refinement(a, order)
            K.run_full(one._kregs, one._st, PRUNE_MODES[mode], k, 0)
            assert np.array_equal(stepped.regs, one.regs), k
            for f in K.Engine._fields:
                assert np.array_equal(getattr(stepped, f), getattr(one, f)), (k, f)
            r = one.regs
            reached = np.append(one.d12[: r[K.R_N12]], one.d11[: r[K.R_N11]])
            assert np.array_equal(np.sort(one.xs[: r[K.R_NXS]]), np.sort(reached)), k
            if not more:
                break
        assert stepped.done and stepped.rounds == k - 1


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("kind", FAMILIES)
def test_numpy_rounds_match_the_kernel(kind, order, monkeypatch):
    """With the constant at 1 every round is a numpy round of one-edge
    blocks; at 3, rounds of loads 1 and 2 stay in the kernel and the others
    span several blocks. Partitions, rounds and splitter counts equal a
    kernel-only run, and the engine invariants hold after every numpy round
    up to n = 200."""
    numpy_rounds = []
    one_round = partition._numpy_round

    def checked_round(ref: Refinement) -> None:
        one_round(ref)
        numpy_rounds.append(ref.n)
        if ref.n <= 200:
            ref.check_invariants()

    monkeypatch.setattr(partition, "_numpy_round", checked_round)
    for seed, n, blk in [(0, 5, 1), (1, 12, 1), (2, 30, 1), (3, 60, 1), (4, 500, 1), (5, 2000, 3)]:
        a = _family(kind, n, seed)
        kernel = init_refinement(a, order)
        kernel.run_to_completion()
        monkeypatch.setattr(partition, "NUMPY_ROUND_BLOCK", blk)
        numpy_rounds.clear()
        ref = init_refinement(a, order)
        run_refinement(ref)
        assert 0 < len(numpy_rounds) <= ref.rounds
        assert blk > 1 or len(numpy_rounds) == ref.rounds
        assert ref.snapshot_partition() == kernel.snapshot_partition()
        assert (ref.rounds, ref.max_splitter_count) == (kernel.rounds, kernel.max_splitter_count)


def _state_after(a: Automaton, order: str, rounds: int) -> tuple[Refinement, partition.SplitterChoice]:
    """The engine after that many kernel rounds, with the next splitter chosen."""
    ref = init_refinement(a, order)
    for _ in range(rounds):
        ref.step()
    return ref, ref.select_splitter()


@pytest.mark.parametrize("blk", [1, 2, 1024])
@pytest.mark.parametrize("kind", FAMILIES)
def test_numpy_round_leaves_the_kernel_state(kind, blk, monkeypatch):
    """From the same state, one numpy round and one kernel round leave the
    same engine, up to record ids and the order inside each part."""
    monkeypatch.setattr(partition, "NUMPY_ROUND_BLOCK", blk)
    for seed in range(4):
        a = _family(kind, random.Random(seed).randint(5, 40), seed)
        order = ["ascending", "descending"][seed % 2]
        total = init_refinement(a, order)
        total.run_to_completion()
        for k in range(total.rounds):
            (want, choice), (got, _) = _state_after(a, order, k), _state_after(a, order, k)
            want.three_way_split(choice)
            partition._numpy_round(got)
            assert np.array_equal(got.regs, want.regs)
            for f in ("binb_gen", "splitcnt", "seen_gen", "partof", "pbeg", "pend", "xof",
                      "xbeg", "xend", "xcnt", "heap", "moved_cnt"):
                assert np.array_equal(getattr(got, f), getattr(want, f)), f
            r = got.regs
            for f, reg in (("xs", K.R_NXS), ("d12", K.R_N12), ("d11", K.R_N11), ("created", K.R_NCREATED)):
                assert np.array_equal(getattr(got, f)[: r[reg]], getattr(want, f)[: r[reg]]), f
            assert _parts_by_id(got) == _parts_by_id(want)
            assert np.array_equal(got.pos[got.elems], np.arange(got.n))
            # the same grouping of edges into records, with the same counts
            assert np.array_equal(got.cnt_val[got.cnt_ref], want.cnt_val[want.cnt_ref])
            pairs = set(zip(got.cnt_ref.tolist(), want.cnt_ref.tolist()))
            assert len(pairs) == len({p for p, _ in pairs}) == len({q for _, q in pairs})
            xs = got.xs[: r[K.R_NXS]]
            assert np.array_equal(got.cnt_val[got.xrec[xs]], want.cnt_val[want.xrec[xs]])
            # free records are distinct, unused and count 0, as are those past NREC
            free = got.free_stk[: r[K.R_FREETOP]]
            assert np.unique(free).size == free.size and not got.cnt_val[free].any()
            assert not set(free.tolist()) & set(got.cnt_ref.tolist())
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


@pytest.mark.parametrize("numba,mode", [(True, "off"), (False, "keep-first"), (False, "keep-last")])
def test_compiled_and_pruning_runs_make_one_run_full_call(numba, mode, monkeypatch):
    """Only the pure-Python backend without pruning hands splitters back."""
    monkeypatch.setattr(partition, "NUMPY_ROUND_BLOCK", 1)
    monkeypatch.setattr(K, "HAVE_NUMBA", numba)
    calls = []
    run_full = K.run_full

    def counted(regs, st, prune_mode, max_rounds, big_load):
        calls.append(big_load)
        run_full(regs, st, prune_mode, max_rounds, big_load)

    monkeypatch.setattr(K, "run_full", counted)
    a = gen_random_dfa(60, 3, 5)
    ref = init_refinement(a)
    run_refinement(ref, mode)
    assert calls == [0] and ref.rounds > 1
    kernel = init_refinement(a)
    kernel.run_to_completion(mode)
    assert ref.snapshot_partition() == kernel.snapshot_partition()
    assert ref.deleted_edge_ids() == kernel.deleted_edge_ids()
