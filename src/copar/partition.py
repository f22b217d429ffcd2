"""Refinable ordered partitions: the stepwise engine over the compiled kernel.

A Refinement holds the whole engine state as flat arrays: the state sequence
(elems/pos/partof), contiguous part and X-part spans, per-(state, X-part)
count records with per-edge record pointers, mutable adjacency in CSR form
with swap-remove deletion, and a lazily validated min-heap of compound
X-part candidates. Seven more arrays of n serve the rounds: the round marks
of the splitter and of the reached states, the splitter counts, the reached
states and their D_12 and D_11 split, and each reached state's new count
record. A round reads the splitter straight from its span of the state
sequence, walks its out-edges once and moves each reached state once.
Refinement packs kernel views of these arrays into one copar._kernels.Engine
record for the one kernel, run_full, which runs every kernel round: to the
fixpoint for run_refinement, and one selection or one round per call for
select_splitter and three_way_split (SPART marks the pending splitter).

A round runs in one of two modes. The kernel round walks B's out-edges one
at a time: compiled with numba, else as plain Python at about 1 us an edge.
On the pure-Python backend without pruning, run_refinement splits against
a splitter whose load, |B| plus the out-degrees of its states, reaches
NUMPY_ROUND_BLOCK in a numpy round (_numpy_round), which leaves the same
engine up to record ids and the order inside parts. A numpy round costs
0.25-0.4 ms even against a splitter of a few edges (a kernel round 10-30
us), so it pays from a few hundred edges on. Compiled kernels never take
it, since they walk an edge in nanoseconds; pruning runs never do, since
their rounds also delete edges and the pruned workloads have no large
splitter. The numpy round works in blocks of at most NUMPY_ROUND_BLOCK
edges or states: freed temporaries of a whole round's size stay in glibc's
heap once the parse has raised its mmap threshold, and unblocked they
raised the peak RSS of the wheeler-sort benchmark by 6-14%. The stepwise
API always runs the kernel round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from copar import _kernels as K
from copar.automaton import Automaton, OrderedPartition, csr, sorted_runs

PRUNE_MODES = {"off": K.PRUNE_OFF, "keep-first": K.PRUNE_KEEP_FIRST, "keep-last": K.PRUNE_KEEP_LAST}

DEBUG_SCAN_LIMIT = 200


@dataclass(frozen=True)
class SplitterChoice:
    """A selected splitter: X-part span, its end part B and which end it was."""

    x_span: tuple[int, int]
    part: int
    members: tuple[int, ...]
    b_is_first: bool


@dataclass(frozen=True)
class SplitReport:
    """Outcome of one split: parts created (id, members) and edges deleted."""

    splitter: SplitterChoice
    created_parts: tuple[tuple[int, tuple[int, ...]], ...]
    deleted_edges: tuple[tuple[int, int, int], ...]


class Refinement:
    """Ordered partition refinement state for one automaton.

    letter_order 'ascending' starts from (source, letter 0 states, letter 1
    states, ...); 'descending' reverses the letter blocks and puts the
    source block last. Input must be input-consistent (unique in-letter per
    state); reachability is not required here.
    """

    def __init__(self, a: Automaton, letter_order: str = "ascending"):
        if letter_order not in ("ascending", "descending"):
            raise ValueError(f"letter_order must be 'ascending' or 'descending', got {letter_order!r}")
        n, m = a.n, a.m
        lam = a.in_labels()
        if m and np.any(a.elab != lam[a.edst]):
            raise ValueError("states with conflicting in-letters; make the input consistent first")
        self.automaton = a
        self.letter_order = letter_order
        self.n = n
        self.m = m
        if letter_order == "ascending":
            key = lam
        else:
            key = np.where(lam >= 0, a.sigma - 1 - lam, np.int64(a.sigma))
        pcap = n + 2
        xcap = n + 2
        rcap = m + n + 2
        hcap = 4 * n + 16
        self.kmod = n + 2

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
        self.out_pos = np.empty(m, dtype=np.int64)
        self.out_pos[self.out_lst] = np.arange(m, dtype=np.int64)
        self.in_lst, self.in_ptr, self.in_len = csr(self.edst, n)
        self.in_pos = np.empty(m, dtype=np.int64)
        self.in_pos[self.in_lst] = np.arange(m, dtype=np.int64)

        self.cnt_val = np.zeros(rcap, dtype=np.int64)
        self.cnt_val[:n] = self.in_len
        self.cnt_ref = self.edst.copy()
        self.free_stk = np.zeros(rcap, dtype=np.int64)

        self.heap = np.zeros(hcap, dtype=np.int64)
        self.binb_gen = np.zeros(n, dtype=np.int64)
        self.splitcnt = np.zeros(n, dtype=np.int64)
        self.seen_gen = np.zeros(n, dtype=np.int64)
        self.xs = np.zeros(n, dtype=np.int64)
        self.d12 = np.zeros(n, dtype=np.int64)
        self.d11 = np.zeros(n, dtype=np.int64)
        self.xrec = np.zeros(n, dtype=np.int64)
        self.moved_cnt = np.zeros(pcap, dtype=np.int64)
        self.touched = np.zeros(pcap, dtype=np.int64)
        self.created = np.zeros(pcap, dtype=np.int64)
        self.deleted = np.zeros(max(m, 1), dtype=np.int64)

        regs = np.zeros(K.NREGS, dtype=np.int64)
        regs[K.R_NPARTS] = nparts
        regs[K.R_NX] = 1
        regs[K.R_NREC] = n
        regs[K.R_KMOD] = self.kmod
        regs[K.R_SPART] = -1  # no splitter pending
        self.regs = regs
        if nparts >= 2:
            K._heap_push(self.heap, regs, 0 * self.kmod + 0)
            regs[K.R_NCOMP] = 1
        # The kernels take these views, never the arrays: the attributes
        # above stay numpy and see every write the kernels make.
        self._kregs = K.kernel_view(regs)
        self._st = K.Engine(*(K.kernel_view(getattr(self, f)) for f in K.Engine._fields))

    # ------------------------------------------------------------------
    # stepwise operations

    @property
    def done(self) -> bool:
        """True when the partition equals its own X cover (no compound X-part)."""
        return int(self.regs[K.R_NCOMP]) == 0

    @property
    def rounds(self) -> int:
        return int(self.regs[K.R_ROUNDS])

    @property
    def max_splitter_count(self) -> int:
        """Largest number of times any single state served inside a splitter."""
        return int(self.regs[K.R_MAXSPLIT])

    def select_splitter(self) -> SplitterChoice | None:
        """Pop the first compound X-part, carve its smaller end part B, update X.

        The smaller of the X-part's first and last parts becomes B (ties go
        to the first); B is guaranteed to hold at most half of the X-part's
        states. Returns None once the refinement is complete.
        """
        if self.regs[K.R_SPART] >= 0:
            raise RuntimeError("previous splitter not yet consumed by three_way_split")
        K.run_full(self._kregs, self._st, K.PRUNE_OFF, self.rounds + 1, 1)
        self._raise_status()
        if self.regs[K.R_SPART] < 0:
            return None
        choice = self._pending_choice()
        lo, hi = choice.x_span
        assert 2 * len(choice.members) <= hi - lo, "splitter exceeds half its X-part"
        return choice

    def _pending_choice(self) -> SplitterChoice:
        """The splitter select_splitter left pending in the registers."""
        r = self.regs
        b = int(r[K.R_BPART])
        return SplitterChoice(
            x_span=(int(r[K.R_SLO]), int(r[K.R_SHI])),
            part=b,
            members=tuple(int(v) for v in self.elems[self.pbeg[b] : self.pend[b]]),
            b_is_first=bool(r[K.R_BFIRST]),
        )

    def three_way_split(self, choice: SplitterChoice, prune_mode: str = "off") -> SplitReport:
        """Split every part touched from B into up to three pieces.

        Piece order is (D_12, D_11, rest) when B was first and the mirror
        when B was last; with pruning ('keep-first' or 'keep-last') the D_11
        states lose the losing side's in-edges first, collapsing the split
        to two pieces. Returns the parts created and the edges deleted.
        """
        r = self.regs
        if r[K.R_SPART] < 0:
            raise RuntimeError("call select_splitter before three_way_split")
        if choice != self._pending_choice():
            raise ValueError("choice does not match the pending splitter")
        pm = _prune_code(prune_mode)
        ncreated0 = int(r[K.R_NCREATED])
        ndel0 = int(r[K.R_NDEL])
        K.run_full(self._kregs, self._st, pm, self.rounds + 1, 0)
        self._raise_status()
        created = []
        for q in (int(v) for v in self.created[ncreated0 : int(r[K.R_NCREATED])]):
            members = tuple(int(v) for v in np.sort(self.elems[self.pbeg[q] : self.pend[q]]))
            created.append((q, members))
        deleted = []
        a = self.automaton
        for e in (int(v) for v in self.deleted[ndel0 : int(r[K.R_NDEL])]):
            deleted.append((int(a.esrc[e]), int(a.edst[e]), int(a.elab[e])))
        return SplitReport(choice, tuple(created), tuple(deleted))

    def step(self, prune_mode: str = "off") -> SplitReport | None:
        """select_splitter plus three_way_split; None once refinement is done."""
        choice = self.select_splitter()
        if choice is None:
            return None
        return self.three_way_split(choice, prune_mode)

    def run_to_completion(self, prune_mode: str = "off", debug: bool = False) -> None:
        """Step until done, from Python (use run_refinement for large inputs)."""
        while self.step(prune_mode) is not None:
            if debug:
                self.check_invariants()

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
        base = int(self.in_ptr[v])
        return [int(self.in_lst[base + j]) for j in range(int(self.in_len[v]))]

    def deleted_edge_ids(self) -> list[int]:
        """Edge ids deleted by pruning so far, in deletion order."""
        return [int(e) for e in self.deleted[: int(self.regs[K.R_NDEL])]]

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

        live = [e for v in range(n) for e in self.surviving_in_edges(v)]
        assert sorted(live) == sorted(
            int(self.out_lst[int(self.out_ptr[u]) + j])
            for u in range(n)
            for j in range(int(self.out_len[u]))
        ), "in and out adjacency disagree on live edges"
        expected: dict[tuple[int, int], int] = {}
        for e in live:
            x = int(self.edst[e])
            xp = int(self.xof[self.partof[self.esrc[e]]])
            expected[(x, xp)] = expected.get((x, xp), 0) + 1
        rec_of: dict[tuple[int, int], int] = {}
        for e in live:
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


def _prune_code(prune_mode: str) -> int:
    try:
        return PRUNE_MODES[prune_mode]
    except KeyError:
        raise ValueError(
            f"prune_mode must be one of {sorted(PRUNE_MODES)}, got {prune_mode!r}"
        ) from None


# ----------------------------------------------------------------------
# module-level operations


def init_refinement(a: Automaton, letter_order: str = "ascending") -> Refinement:
    """Set up refinement: parts grouped by in-letter, X covering everything."""
    return Refinement(a, letter_order)


def run_refinement(ref: Refinement, prune_mode: str = "off") -> None:
    """Refine to the fixpoint (the fast path).

    The loop over rounds runs inside run_full: compiled with numba, else as
    plain Python over zero-copy memoryviews of the engine arrays. On the
    pure-Python backend without pruning, run_full hands back every splitter
    whose load reaches NUMPY_ROUND_BLOCK, and _numpy_round splits against
    it before run_full resumes. A refinement of n states takes at most n - 1
    rounds; reaching n + 2 is reported as a round overrun.
    """
    r = ref.regs
    if r[K.R_SPART] >= 0:
        raise RuntimeError("cannot run to completion with a pending splitter")
    pm = _prune_code(prune_mode)
    big_load = NUMPY_ROUND_BLOCK if pm == K.PRUNE_OFF and not K.HAVE_NUMBA else 0
    limit = ref.n + 2
    K.run_full(ref._kregs, ref._st, pm, limit, big_load)
    while r[K.R_STATUS] == K.STATUS_OK and r[K.R_SPART] >= 0:
        _numpy_round(ref)
        K.run_full(ref._kregs, ref._st, pm, limit, big_load)
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
    """A run_full round without pruning against the pending splitter, in
    numpy; it consumes the splitter and counts the round.

    Leaves the engine as the kernel would, up to which count records are
    used and the order of the states inside a part: the same counts,
    record and free-stack sizes, round marks, xs, D_12 and D_11, and the
    same new parts. Blocks of at most NUMPY_ROUND_BLOCK edges walk B's
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
        ref.binb_gen[ys] = g
        ref.splitcnt[ys] += 1
        maxsplit = max(maxsplit, int(ref.splitcnt[ys].max()))
        for _, j in _spans(ref.out_ptr[ys], ref.out_len[ys], blk):
            es = ref.out_lst[j]
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
    _numpy_move(ref, ref.d12[:n12], bfirst)
    if r[K.R_STATUS] == K.STATUS_OK:
        _numpy_move(ref, ref.d11[:n11], bfirst)
    r[K.R_ROUNDS] += 1
    r[K.R_SPART] = -1


def _numpy_move(ref: Refinement, move: np.ndarray, to_front: bool) -> None:
    """The kernel's move in numpy: the states of move go to the front (or
    back) of their parts, each touched part splits into the moved piece,
    which takes a fresh id, and the remainder. A moved state already inside
    its target span stays put; the others swap with the unmoved states
    inside it."""
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
        lo = pbeg[up] + k0 if to_front else pend[up] - k0 - cnt
        # sorted row i belongs to a part whose target span holds span[i]
        grp = np.cumsum(new) - 1
        span = lo[grp] + np.arange(xm.size) - starts[grp]
        xsorted = xm[order]
        ps = pos[xsorted]
        at = ps - span + np.arange(xm.size)  # the row of span that ps would be
        inside = (at >= starts[grp]) & (at < starts[grp] + cnt[grp])
        held = np.zeros(xm.size, dtype=bool)
        held[at[inside]] = True
        holes, outs, px = span[~held], xsorted[~inside], ps[~inside]
        other = elems[holes]
        elems[holes] = outs
        elems[px] = other
        pos[outs] = holes
        pos[other] = px
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
        # an X-part of one part is touched at most once per move
        compound = xp[ref.xcnt[xp] == 1].tolist()
        np.add.at(ref.xcnt, xp, 1)
        for x in compound:
            K._heap_push(ref._st.heap, ref._kregs, int(ref.xbeg[x]) * ref.kmod + x)
        r[K.R_NCOMP] += len(compound)
        nc = int(r[K.R_NCREATED])
        ref.created[nc : nc + sp.size] = q
        r[K.R_NCREATED] = nc + sp.size
