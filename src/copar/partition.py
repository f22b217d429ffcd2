"""Refinable ordered partitions: the stepwise engine over the compiled kernel.

A Refinement holds the whole engine state as flat arrays: the state sequence
(elems/pos/partof), contiguous part and X-part spans, per-(state, X-part)
count records with per-edge record pointers, mutable adjacency in CSR form
with swap-remove deletion, and a min-heap that holds each compound X-part
exactly once, keyed by its begin; a round updates its root in place. Six
more arrays of n serve the rounds: the round marks of the reached states,
the splitter counts, the reached states and their D_12 and D_11 split, and
each reached state's new count record. A round reads the splitter straight
from its span of the state sequence, walks its out-edges once and moves
each reached state once. Refinement packs kernel
views of these arrays into one copar._kernels.Engine record for the one
kernel, run_full, which runs every kernel round: to the fixpoint for
run_refinement, and one round per call for Refinement.step. A step returns
only whether it ran, since the arrays hold the rest: its new parts take the
ids from NPARTS on, its splitter is the newest X-part and its deleted edges
join deleted_edge_ids().

A refinement runs plain or pruning, as chosen when it is built: pruning
deletes, from each contested state, its in-edges from the side of the
splitter that comes later in the part order. Without pruning, a split
that leaves a state alone in its part marks it (seen_gen =
_kernels.ALONE), and every later round skips the edges into it, so its
count records go stale: a pruning round must still find a D_11
singleton's records exact, so pruning runs mark nothing. Only a pruning
refinement builds the arrays that edge deletion updates (in_lst, in_pos
and out_pos); a plain one holds 1-element placeholders. There is no
deletion log: a deleted edge sits past its target's live end in in_lst.

A round runs in one of two modes. The kernel round walks B's out-edges one
at a time: compiled with numba, else as plain Python at about 1 us an edge.
On the pure-Python backend, run_refinement splits against a splitter whose
load, |B| plus the out-degrees of its states, reaches NUMPY_ROUND_BLOCK in
a numpy round (_numpy_round), which leaves the same engine up to record
ids, the order inside parts and, under pruning, the order inside each
adjacency list. A numpy round costs 0.25-0.4 ms even against a splitter of
a few edges (a kernel round 10-30 us), so it pays from a few hundred edges
on. Compiled kernels never take it, since they walk an edge in
nanoseconds. A pruning numpy round scans the D_11 states' in-edges as the
kernel does and moves each doomed edge past the live ends with the swap
its state moves use, so a deletion costs O(1), as in the kernel. The numpy
round works in blocks of at most NUMPY_ROUND_BLOCK edges or
states: freed temporaries of a whole round's size stay in glibc's heap once
the parse has raised its mmap threshold, and unblocked they raised the peak
RSS of the wheeler-sort benchmark by 6-14%.
Refinement.step always runs the kernel round.
"""

from __future__ import annotations

import numpy as np

from copar import _kernels as K
from copar.automaton import Automaton, OrderedPartition, csr, sorted_runs

DEBUG_SCAN_LIMIT = 200


class Refinement:
    """Ordered partition refinement state for one automaton.

    letter_order 'ascending' starts from (source, letter 0 states, letter 1
    states, ...); 'descending' reverses the letter blocks and puts the
    source block last. Input must be input-consistent (unique in-letter per
    state); reachability is not required here. prune deletes, from each
    state reached from both sides of a splitter, its in-edges from the side
    that comes later in the part order (defined for DFAs).
    """

    def __init__(self, a: Automaton, letter_order: str = "ascending", *, prune: bool = False):
        if letter_order not in ("ascending", "descending"):
            raise ValueError(f"letter_order must be 'ascending' or 'descending', got {letter_order!r}")
        n, m = a.n, a.m
        lam = a.in_labels()
        if m and np.any(a.elab != lam[a.edst]):
            raise ValueError("states with conflicting in-letters; make the input consistent first")
        self.automaton = a
        self.letter_order = letter_order
        self.prune = bool(prune)
        self.n = n
        self.m = m
        if letter_order == "ascending":
            key = lam
        else:
            key = np.where(lam >= 0, a.sigma - 1 - lam, np.int64(a.sigma))
        pcap = n + 2
        xcap = n + 2
        rcap = m + n + 2
        hcap = n // 2 + 2  # each compound X-part once, and each has two states

        self.elems, new = sorted_runs(key)
        self.pos = np.empty(n, dtype=np.int64)
        self.pos[self.elems] = np.arange(n, dtype=np.int64)
        starts = np.flatnonzero(new)
        nparts = starts.size
        self.pbeg = np.zeros(pcap, dtype=np.int64)
        self.pend = np.zeros(pcap, dtype=np.int64)
        self.xof = np.zeros(pcap, dtype=np.int64)
        self.pbeg[:nparts] = starts
        self.pend[:nparts] = np.r_[starts[1:], n]
        self.partof = np.empty(n, dtype=np.int64)
        self.partof[self.elems] = np.cumsum(new) - 1

        self.xbeg = np.zeros(xcap, dtype=np.int64)
        self.xend = np.zeros(xcap, dtype=np.int64)
        self.xcnt = np.zeros(xcap, dtype=np.int64)
        self.xend[0] = n
        self.xcnt[0] = nparts

        self.esrc = np.asarray(a.esrc, dtype=np.int64)
        self.edst = np.asarray(a.edst, dtype=np.int64)
        self.out_lst, self.out_ptr, self.out_len = csr(self.esrc, n)
        self.in_len = np.bincount(self.edst, minlength=n)
        self.in_ptr = np.cumsum(self.in_len) - self.in_len
        if self.prune:
            self.in_lst = csr(self.edst, n)[0]
            self.in_pos = np.empty(m, dtype=np.int64)
            self.in_pos[self.in_lst] = np.arange(m, dtype=np.int64)
            self.out_pos = np.empty(m, dtype=np.int64)
            self.out_pos[self.out_lst] = np.arange(m, dtype=np.int64)
        else:  # only pruning deletes edges; the kernels never read these
            self.in_lst = self.in_pos = self.out_pos = np.zeros(1, dtype=np.int64)

        self.cnt_val = np.zeros(rcap, dtype=np.int64)
        self.cnt_val[:n] = self.in_len
        self.cnt_ref = self.edst.copy()
        self.free_stk = np.zeros(rcap, dtype=np.int64)

        self.heap = np.zeros(hcap, dtype=np.int64)
        self.splitcnt = np.zeros(n, dtype=np.int64)
        self.seen_gen = np.zeros(n, dtype=np.int64)
        self.xs = np.zeros(n, dtype=np.int64)
        self.d12 = np.zeros(n, dtype=np.int64)
        self.d11 = np.zeros(n, dtype=np.int64)
        self.xrec = np.zeros(n, dtype=np.int64)
        self.moved_cnt = np.zeros(pcap, dtype=np.int64)
        self.touched = np.zeros(pcap, dtype=np.int64)

        regs = np.zeros(K.NREGS, dtype=np.int64)
        regs[K.R_NPARTS] = nparts
        regs[K.R_NX] = 1
        regs[K.R_NREC] = n
        regs[K.R_SPART] = -1  # no splitter pending
        self.regs = regs
        if nparts >= 2:
            K._heap_push(self.heap, regs, 0)  # X-part 0 at begin 0
            regs[K.R_NCOMP] = 1
        # The kernels take these views, never the arrays: the attributes
        # above stay numpy and see every write the kernels make.
        self._kregs = K.kernel_view(regs)
        self._st = K.Engine(*(K.kernel_view(getattr(self, f)) for f in K.Engine._fields))

    # ------------------------------------------------------------------
    # stepwise operations

    @property
    def done(self) -> bool:
        """True when the partition equals its own X cover (no compound
        X-part) and no splitter is pending."""
        return int(self.regs[K.R_NCOMP]) == 0 and int(self.regs[K.R_SPART]) < 0

    @property
    def rounds(self) -> int:
        return int(self.regs[K.R_ROUNDS])

    @property
    def max_splitter_count(self) -> int:
        """Largest number of times any single state served inside a splitter."""
        return int(self.regs[K.R_MAXSPLIT])

    def step(self) -> bool:
        """Run one kernel round and return True; once done, change nothing
        and return False. A splitter a run_full call left pending is split
        first."""
        rounds = self.rounds
        K.run_full(self._kregs, self._st, int(self.prune), rounds + 1, 0)
        self._raise_status()
        return self.rounds > rounds

    def snapshot_partition(self) -> OrderedPartition:
        """The current partition, parts in positional order, ids sorted inside."""
        # position i starts a part when its state's part begins at i
        at = np.arange(self.n)
        starts = np.flatnonzero(self.pbeg[self.partof[self.elems]] == at)
        return OrderedPartition.from_arrays(self.elems, np.append(starts, self.n))

    # ------------------------------------------------------------------
    # introspection used by pruning and tests

    def surviving_in_edges(self, v: int) -> list[int]:
        """Ids of v's in-edges still alive (in storage order of the CSR)."""
        if not 0 <= v < self.n:
            raise ValueError(f"state {v} out of range")
        if not self.prune:  # every edge is alive
            return np.flatnonzero(self.edst == v).tolist()
        return self.in_lst[self.in_ptr[v] : self.in_ptr[v] + self.in_len[v]].tolist()

    def deleted_edge_ids(self) -> list[int]:
        """Edge ids deleted by pruning so far, ascending."""
        return np.sort(self.in_lst[~self.live_in_slots()]).tolist() if self.prune else []

    def live_in_slots(self) -> np.ndarray:
        """Under pruning, which slots of in_lst hold a live edge: those
        before their target's live end, where swap-remove leaves none of the
        deleted edges."""
        owner = self.edst[self.in_lst]
        return np.arange(self.m) - self.in_ptr[owner] < self.in_len[owner]

    def _raise_status(self) -> None:
        status = int(self.regs[K.R_STATUS])
        if status != K.STATUS_OK:
            raise RuntimeError(f"refinement engine invariant breached (status {status})")

    # ------------------------------------------------------------------
    # debug invariant scans (desk-scale only)

    def check_invariants(self) -> None:
        """Full-state consistency scan; raises AssertionError on any breach.

        Quadratic-ish and deliberately naive; refuses to run above
        DEBUG_SCAN_LIMIT states.
        """
        if self.n > DEBUG_SCAN_LIMIT:
            raise ValueError(f"debug scans are limited to {DEBUG_SCAN_LIMIT} states")
        n = self.n
        assert sorted(int(v) for v in self.elems) == list(range(n)), "elems is not a permutation"
        for i in range(n):
            assert int(self.pos[self.elems[i]]) == i, "pos does not invert elems"
        alive_parts = sorted({int(self.partof[v]) for v in range(n)})
        spans = []
        for p in alive_parts:
            lo, hi = int(self.pbeg[p]), int(self.pend[p])
            assert 0 <= lo < hi <= n, f"part {p} has bad span"
            spans.append((lo, hi, p))
            for i in range(lo, hi):
                assert int(self.partof[self.elems[i]]) == p, f"span of part {p} holds foreign state"
        spans.sort()
        assert spans[0][0] == 0 and spans[-1][1] == n, "part spans do not cover the states"
        for (_, hi, _), (lo2, _, _) in zip(spans, spans[1:]):
            assert hi == lo2, "part spans overlap or leave gaps"
        alive_x = sorted({int(self.xof[p]) for p in alive_parts})
        ncomp = 0
        for x in alive_x:
            members = [p for p in alive_parts if int(self.xof[p]) == x]
            lo = min(int(self.pbeg[p]) for p in members)
            hi = max(int(self.pend[p]) for p in members)
            assert int(self.xbeg[x]) == lo and int(self.xend[x]) == hi, f"X-part {x} span mismatch"
            assert int(self.xcnt[x]) == len(members), f"X-part {x} count mismatch"
            covered = sum(int(self.pend[p]) - int(self.pbeg[p]) for p in members)
            assert covered == hi - lo, f"X-part {x} is not a contiguous union of parts"
            if len(members) >= 2:
                ncomp += 1
        assert ncomp == int(self.regs[K.R_NCOMP]), "compound X-part counter out of sync"
        heap = [int(k) for k in self.heap[: int(self.regs[K.R_HSIZE])]]
        assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap))), "heap order breached"
        assert sorted(heap) == sorted(
            int(self.xbeg[x]) * self.xbeg.shape[0] + x for x in alive_x if int(self.xcnt[x]) >= 2
        ), "the heap does not hold each compound X-part once under its begin"
        alone = {v for v in range(n) if int(self.seen_gen[v]) == K.ALONE}
        for v in alone:
            p = int(self.partof[v])
            assert int(self.pend[p]) - int(self.pbeg[p]) == 1, f"marked state {v} is not alone"

        live = [e for v in range(n) for e in self.surviving_in_edges(v)]
        assert sorted(live) == sorted(
            int(self.out_lst[int(self.out_ptr[u]) + j])
            for u in range(n)
            for j in range(int(self.out_len[u]))
        ), "in and out adjacency disagree on live edges"
        if self.prune:
            dead = self.deleted_edge_ids()
            assert sorted(live + dead) == list(range(self.m)), "live and deleted edges do not partition 0..m-1"
        # rounds skip marked states, so only the others keep exact records
        counted = [e for e in live if int(self.edst[e]) not in alone]
        expected: dict[tuple[int, int], int] = {}
        for e in counted:
            x = int(self.edst[e])
            xp = int(self.xof[self.partof[self.esrc[e]]])
            expected[(x, xp)] = expected.get((x, xp), 0) + 1
        rec_of: dict[tuple[int, int], int] = {}
        for e in counted:
            x = int(self.edst[e])
            xp = int(self.xof[self.partof[self.esrc[e]]])
            r = int(self.cnt_ref[e])
            if (x, xp) in rec_of:
                assert rec_of[(x, xp)] == r, f"edges of ({x}, X{xp}) use distinct records"
            rec_of[(x, xp)] = r
            assert int(self.cnt_val[r]) == expected[(x, xp)], (
                f"record {r} counts {int(self.cnt_val[r])}, expected {expected[(x, xp)]}"
            )
        assert len(set(rec_of.values())) == len(rec_of), "distinct groups share a count record"

        for x in alive_x:
            sources = set(int(v) for v in self.elems[int(self.xbeg[x]) : int(self.xend[x])])
            reached = {int(self.edst[e]) for e in live if int(self.esrc[e]) in sources}
            for p in alive_parts:
                members = set(int(v) for v in self.elems[int(self.pbeg[p]) : int(self.pend[p])])
                inter = members & reached
                assert not inter or inter == members, (
                    f"part {p} is unstable against X-part {x}"
                )

        bound = n.bit_length()  # floor(log2 n) + 1
        for v in range(n):
            assert int(self.splitcnt[v]) <= bound, (
                f"state {v} served in {int(self.splitcnt[v])} splitters, bound {bound}"
            )


# ----------------------------------------------------------------------
# module-level operations


def init_refinement(a: Automaton, letter_order: str = "ascending", *, prune: bool = False) -> Refinement:
    """Set up refinement: parts grouped by in-letter, X covering everything."""
    return Refinement(a, letter_order, prune=prune)


def run_refinement(ref: Refinement) -> None:
    """Refine to the fixpoint (the fast path).

    The loop over rounds runs inside run_full: compiled with numba, else as
    plain Python over zero-copy memoryviews of the engine arrays. On the
    pure-Python backend, pruning or not, run_full hands back every splitter
    whose load reaches NUMPY_ROUND_BLOCK, and _numpy_round splits against
    it before run_full resumes. A refinement of n states takes at most n - 1
    rounds; reaching n + 2 is reported as a round overrun.
    """
    r = ref.regs
    prune = int(ref.prune)
    big_load = 0 if K.HAVE_NUMBA else NUMPY_ROUND_BLOCK
    limit = ref.n + 2
    K.run_full(ref._kregs, ref._st, prune, limit, big_load)
    while r[K.R_STATUS] == K.STATUS_OK and r[K.R_SPART] >= 0:
        _numpy_round(ref)
        K.run_full(ref._kregs, ref._st, prune, limit, big_load)
    if r[K.R_STATUS] == K.STATUS_OK and r[K.R_ROUNDS] >= limit:
        r[K.R_STATUS] = K.STATUS_ROUND_OVERRUN
    ref._raise_status()


# ----------------------------------------------------------------------
# the numpy round

# A splitter whose load (its states plus their out-edges) reaches this many
# is split by _numpy_round, and each temporary array of that round covers at
# most this many edges or states (see the module docstring). On the
# wheeler-sort benchmark input (2 cores, Python 3.11, numpy 2.4) refinement
# takes 0.057 s at 256 (more, smaller blocks), 0.025 s at 1024 and 0.017 s
# at 4096, whose blocks cost more peak RSS.
NUMPY_ROUND_BLOCK = 1024


def _spans(lo: np.ndarray, ln: np.ndarray, blk: int):
    """The indices of the spans [lo[i], lo[i] + ln[i]), one span after
    another, at most blk at a time: yields (owner, index) with owner[j] the
    span that index[j] belongs to."""
    ends = np.cumsum(ln)
    total = int(ends[-1]) if ends.size else 0
    for t0 in range(0, total, blk):
        t = np.arange(t0, min(t0 + blk, total))
        own = np.searchsorted(ends, t, side="right")
        yield own, lo[own] + t - (ends[own] - ln[own])


def _numpy_round(ref: Refinement) -> None:
    """A run_full round against the pending splitter, in numpy; it consumes
    the splitter and counts the round.

    Leaves the engine as the kernel would, up to which count records are
    used and the order of the states inside a part and of the edges inside
    an adjacency list: the same counts, record and free-stack sizes, round
    marks, xs, D_12 and D_11, the same new parts and, under pruning, the
    same live edges. Blocks of at most NUMPY_ROUND_BLOCK edges walk B's
    out-edges in the kernel's order. A free record taken by the kernel on
    x's first edge may be one that a later edge frees, so the fresh records
    a block takes are computed from the running balance of first touches
    over frees, and a block takes its new records from the free stack, the
    records it frees and those fresh ones.
    """
    blk = NUMPY_ROUND_BLOCK
    r = ref.regs
    elems, edst, cnt_ref, cnt_val = ref.elems, ref.edst, ref.cnt_ref, ref.cnt_val
    seen_gen, xrec, xs, free_stk = ref.seen_gen, ref.xrec, ref.xs, ref.free_stk
    r[K.R_GEN] += 1
    g = int(r[K.R_GEN])
    b = int(r[K.R_BPART])
    maxsplit = int(r[K.R_MAXSPLIT])
    ftop = int(r[K.R_FREETOP])
    nrec = int(r[K.R_NREC])
    nxs = 0
    for s0 in range(int(ref.pbeg[b]), int(ref.pend[b]), blk):
        ys = elems[s0 : min(s0 + blk, int(ref.pend[b]))]
        ref.splitcnt[ys] += 1
        maxsplit = max(maxsplit, int(ref.splitcnt[ys].max()))
        for _, j in _spans(ref.out_ptr[ys], ref.out_len[ys], blk):
            es = ref.out_lst[j]
            if not ref.prune:  # pruning runs mark no state ALONE
                es = es[seen_gen[edst[es]] != K.ALONE]
            if es.size == 0:
                continue
            xb = edst[es]
            order, new = sorted_runs(xb)
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], xb.size)
            first, last = order[starts], order[ends - 1]  # each x's first and last edge
            cx = ends - starts
            ux = xb[first]
            # every B'-edge into x points at the record of (x, old splitter)
            rold = cnt_ref[es[first]]
            left = cnt_val[rold] - cx
            cnt_val[rold] = left
            freed = left == 0
            newpos = np.sort(first[seen_gen[ux] != g])
            newx = xb[newpos]
            # the kernel frees at x's last edge and takes at x's first edge
            bal = np.zeros(xb.size, dtype=np.int64)
            bal[newpos] = 1
            bal[last[freed]] -= 1
            nfresh = max(int(np.cumsum(bal).max()) - ftop, 0)
            if nrec + nfresh > cnt_val.shape[0]:
                r[K.R_STATUS] = K.STATUS_RECORD_CAP
                return
            nfreed = int(np.count_nonzero(freed))
            free_stk[ftop : ftop + nfreed] = rold[freed]
            top = ftop + nfreed
            ftop = top - (newx.size - nfresh)
            xrec[newx] = np.append(free_stk[ftop:top], np.arange(nrec, nrec + nfresh))
            nrec += nfresh
            seen_gen[newx] = g
            xs[nxs : nxs + newx.size] = newx
            nxs += newx.size
            cnt_val[xrec[ux]] += cx
            cnt_ref[es] = xrec[xb]
            seen_gen[ux[freed]] = -g
    r[K.R_MAXSPLIT] = maxsplit
    r[K.R_FREETOP] = ftop
    r[K.R_NREC] = nrec
    r[K.R_NXS] = nxs
    n12 = n11 = 0
    for i0 in range(0, nxs, blk):
        xb = xs[i0 : min(i0 + blk, nxs)]
        d11 = seen_gen[xb] == g
        two, one = xb[~d11], xb[d11]
        ref.d12[n12 : n12 + two.size] = two
        ref.d11[n11 : n11 + one.size] = one
        n12 += two.size
        n11 += one.size
    r[K.R_N12] = n12
    r[K.R_N11] = n11
    bfirst = bool(r[K.R_BFIRST])
    if ref.prune:
        r[K.R_FREETOP] = _numpy_prune(ref, ref.d11[:n11], bfirst, b, int(r[K.R_SPART]), ftop)
        _numpy_move(ref, xs[:nxs] if bfirst else ref.d12[:n12], bfirst)
    else:
        _numpy_move(ref, ref.d12[:n12], bfirst)
        if r[K.R_STATUS] == K.STATUS_OK:
            _numpy_move(ref, ref.d11[:n11], bfirst)
    r[K.R_ROUNDS] += 1
    r[K.R_SPART] = -1


def _numpy_prune(ref: Refinement, d11: np.ndarray, bfirst: bool, b: int, s: int, ftop: int) -> int:
    """The kernel's _prune_d11 in numpy: deletes the in-edges of the D_11
    states from the side that comes later in the part order (source in
    X-part s when B was first, else in part b), decrements their count
    records, pushes those reaching zero on the free stack and returns its
    new top. Runs before any state moves. The doomed edges are all found
    before any is moved, since a deletion reorders the in-lists scanned;
    then blocks of them are deleted."""
    blk = NUMPY_ROUND_BLOCK
    esrc, edst, partof, cnt_val = ref.esrc, ref.edst, ref.partof, ref.cnt_val
    doomed = [np.zeros(0, dtype=np.int64)]
    for _, j in _spans(ref.in_ptr[d11], ref.in_len[d11], blk):
        es = ref.in_lst[j]
        p = partof[esrc[es]]
        doomed.append(es[ref.xof[p] == s] if bfirst else es[p == b])
    doomed = np.concatenate(doomed)
    for i0 in range(0, doomed.size, blk):
        de = doomed[i0 : i0 + blk]
        # the scan leaves each target's doomed edges in one run, and they
        # share one count record: that of the target and their X-part
        x = edst[de]
        starts = np.flatnonzero(np.append(True, x[1:] != x[:-1]))
        cnt = np.diff(np.append(starts, de.size))
        rec = ref.cnt_ref[de[starts]]
        cnt_val[rec] -= cnt
        z = rec[cnt_val[rec] == 0]
        ref.free_stk[ftop : ftop + z.size] = z
        ftop += z.size
        tgt = x[starts]
        ref.in_len[tgt] -= cnt
        _swap_into(ref.in_lst, ref.in_pos, de, starts, cnt, ref.in_ptr[tgt] + ref.in_len[tgt])
        order, new = sorted_runs(esrc[de])
        starts = np.flatnonzero(new)
        cnt = np.diff(np.append(starts, de.size))
        src = esrc[de[order[starts]]]
        ref.out_len[src] -= cnt
        _swap_into(ref.out_lst, ref.out_pos, de[order], starts, cnt, ref.out_ptr[src] + ref.out_len[src])
    return ftop


def _swap_into(seq: np.ndarray, pos: np.ndarray, items: np.ndarray, starts: np.ndarray, cnt: np.ndarray,
               lo: np.ndarray) -> None:
    """Swap items into target spans of seq, pos its inverse: the run of
    cnt[g] items from items[starts[g]] on fills the slots from lo[g] on, a
    span inside the range of seq that holds run g's items and no other
    run's. An item already inside its span stays put; the others swap with
    the foreign items there."""
    n = items.size
    run0, base = np.repeat(starts, cnt), np.repeat(lo, cnt)
    span = base + np.arange(n) - run0  # the slot row i fills
    ps = pos[items]
    d = ps - base  # how far into its run's span each item sits
    inside = (d >= 0) & (d < np.repeat(cnt, cnt))
    held = np.zeros(n, dtype=bool)
    held[(run0 + d)[inside]] = True
    holes, outs, px = span[~held], items[~inside], ps[~inside]
    other = seq[holes]
    seq[holes] = outs
    seq[px] = other
    pos[outs] = holes
    pos[other] = px


def _numpy_move(ref: Refinement, move: np.ndarray, to_front: bool) -> None:
    """The kernel's move in numpy: the states of move go to the front (or
    back) of their parts, each touched part splits into the moved piece,
    which takes a fresh id, and the remainder."""
    blk = NUMPY_ROUND_BLOCK
    r = ref.regs
    elems, pos, partof, pbeg, pend = ref.elems, ref.pos, ref.partof, ref.pbeg, ref.pend
    moved_cnt, touched = ref.moved_cnt, ref.touched
    ntouched = 0
    for i0 in range(0, move.size, blk):
        xm = move[i0 : i0 + blk]
        p = partof[xm]
        order, new = sorted_runs(p)
        starts = np.flatnonzero(new)
        cnt = np.append(starts[1:], xm.size) - starts
        up = p[order[starts]]
        k0 = moved_cnt[up]
        fresh = k0 == 0  # first touched in this block, in first-touch order
        tp = up[fresh][np.argsort(order[starts][fresh])]
        touched[ntouched : ntouched + tp.size] = tp
        ntouched += tp.size
        moved_cnt[up] = k0 + cnt
        _swap_into(elems, pos, xm[order], starts, cnt, pbeg[up] + k0 if to_front else pend[up] - k0 - cnt)
    for t0 in range(0, ntouched, blk):
        tp = touched[t0 : min(t0 + blk, ntouched)]
        k = moved_cnt[tp]
        moved_cnt[tp] = 0
        split = k != pend[tp] - pbeg[tp]
        sp, k = tp[split], k[split]
        q0 = int(r[K.R_NPARTS])
        if q0 + sp.size > pbeg.shape[0]:
            r[K.R_STATUS] = K.STATUS_PART_CAP
            return
        r[K.R_NPARTS] = q0 + sp.size
        q = np.arange(q0, q0 + sp.size)
        if to_front:
            pbeg[q] = pbeg[sp]
            pend[q] = pbeg[sp] + k
            pbeg[sp] += k
        else:
            pend[q] = pend[sp]
            pbeg[q] = pend[sp] - k
            pend[sp] -= k
        xp = ref.xof[sp]
        ref.xof[q] = xp
        for own, j in _spans(pbeg[q], k, blk):
            partof[elems[j]] = q[own]
        if not ref.prune:  # mark the states left alone, as the kernel does
            ref.seen_gen[elems[pbeg[q[k == 1]]]] = K.ALONE
            ref.seen_gen[elems[pbeg[sp[pend[sp] - pbeg[sp] == 1]]]] = K.ALONE
        # an X-part of one part is touched at most once per move
        compound = xp[ref.xcnt[xp] == 1].tolist()
        np.add.at(ref.xcnt, xp, 1)
        for x in compound:
            K._heap_push(ref._st.heap, ref._kregs, int(ref.xbeg[x]) * ref.xbeg.shape[0] + x)
        r[K.R_NCOMP] += len(compound)
