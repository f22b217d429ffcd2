"""Refinable ordered partitions: the stepwise engine over the compiled phases.

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
record, which feeds both the one-step methods here and the monolithic
run_full.
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
        self.regs = regs
        if nparts >= 2:
            K._heap_push(self.heap, regs, 0 * self.kmod + 0)
            regs[K.R_NCOMP] = 1
        self._pending: SplitterChoice | None = None
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
        if self._pending is not None:
            raise RuntimeError("previous splitter not yet consumed by three_way_split")
        K.select_splitter_kernel(self._kregs, self._st)
        r = self.regs
        self._raise_status()
        if r[K.R_SPART] < 0:
            return None
        b = int(r[K.R_BPART])
        members = tuple(int(v) for v in self.elems[self.pbeg[b] : self.pend[b]])
        assert 2 * len(members) <= int(r[K.R_SHI] - r[K.R_SLO]), "splitter exceeds half its X-part"
        choice = SplitterChoice(
            x_span=(int(r[K.R_SLO]), int(r[K.R_SHI])),
            part=b,
            members=members,
            b_is_first=bool(r[K.R_BFIRST]),
        )
        self._pending = choice
        return choice

    def three_way_split(self, choice: SplitterChoice, prune_mode: str = "off") -> SplitReport:
        """Split every part touched from B into up to three pieces.

        Piece order is (D_12, D_11, rest) when B was first and the mirror
        when B was last; with pruning ('keep-first' or 'keep-last') the D_11
        states lose the losing side's in-edges first, collapsing the split
        to two pieces. Returns the parts created and the edges deleted.
        """
        if self._pending is None:
            raise RuntimeError("call select_splitter before three_way_split")
        if choice != self._pending:
            raise ValueError("choice does not match the pending splitter")
        pm = _prune_code(prune_mode)
        r = self.regs
        ncreated0 = int(r[K.R_NCREATED])
        ndel0 = int(r[K.R_NDEL])
        K.split_kernel(self._kregs, self._st, pm)
        self._raise_status()
        r[K.R_ROUNDS] += 1
        self._pending = None
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
    """Refine to the fixpoint in one kernel call (the fast path).

    The loop over rounds runs inside run_full: compiled with numba, else as
    plain Python over zero-copy memoryviews of the engine arrays.
    """
    if ref._pending is not None:
        raise RuntimeError("cannot run to completion with a pending splitter")
    pm = _prune_code(prune_mode)
    K.run_full(ref._kregs, ref._st, pm, ref.n + 1)
    ref._raise_status()
