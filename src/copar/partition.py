"""Refinable ordered partitions: the stepwise engine over the compiled kernel.

A Refinement holds the whole engine state as flat arrays: the state sequence
(elems/pos/partof), contiguous part and X-part spans, the edges grouped
by source (state y's out-edges are the ids out_ptr[y] .. out_ptr[y + 1]:
the automaton's columns where they lie, else sorted copies), per-(state,
X-part) count records with per-edge record pointers, and a min-heap that
holds each compound X-part exactly once, keyed by its begin; a round
updates its root in place. Six more arrays of n serve the rounds: the
round marks of the reached states, the splitter counts, the reached
states and their D_12 and D_11 split, and each reached state's new count
record. A round reads the splitter straight
from its span of the state sequence, walks its out-edges once and moves
each reached state once. Refinement packs kernel
views of these arrays into one copar._kernels.Engine record for the one
kernel, run_full, which runs every kernel round: to the fixpoint for
run_refinement, and one round per call for Refinement.step. A step returns
only whether it ran, since the arrays hold the rest: its new parts take the
ids from NPARTS on, its splitter is X-part ROUNDS and its deleted edges
join deleted_edge_ids().

A refinement runs plain or pruning, as chosen when it is built: pruning
deletes, from each contested state, its in-edges from the side of the
splitter that comes later in the part order. Without pruning, a split
that leaves a state alone in its part marks it (seen_gen =
_kernels.ALONE), and every later round skips the edges into it, so its
count records go stale: a pruning round must still find a D_11
singleton's records exact, so pruning runs mark nothing. Both modes build
the same arrays and count their first records with one bincount of the
targets. Pruning deletes a contested state's losing in-edges by killing
the one count record they share (count -1); there is no deletion log and
no in-edge list: later rounds skip an edge whose record is dead, and code
outside the engine reads deletions through alive_edges() alone.

The arrays are int32 while n + m + 2 < _kernels.ALONE = 2**31 - 1, else
int64 (engine_dtype); the heap's keys reach (n + 2)**2 and stay int64.

Every round, on either backend, is the kernel round, which walks B's
out-edges one at a time: compiled with numba, else as plain Python at
about 1 us an edge. So a pure-Python run executes the code numba compiles.
A round sifts the heap only when it pops S, and ends right after a scan
of B's out-edges that reaches no state.
"""

from __future__ import annotations

import numpy as np

from copar import _kernels as K
from copar.automaton import Automaton, OrderedPartition, sorted_runs

DEBUG_SCAN_LIMIT = 200


def engine_dtype(n: int, m: int) -> type:
    """The dtype of the engine arrays but the heap for n states and m
    edges: int32 when every value they hold stays below _kernels.ALONE =
    2**31 - 1 (record ids below n + m + 2, generations at most n + 2),
    else int64. It reads (n, m) alone and allocates nothing."""
    return np.int32 if n + m + 2 < K.ALONE else np.int64


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
        dt = engine_dtype(n, m)

        elems, new = sorted_runs(key)
        self.elems = elems.astype(dt)
        del elems
        self.pos = np.empty(n, dtype=dt)
        self.pos[self.elems] = np.arange(n, dtype=dt)
        starts = np.flatnonzero(new)
        nparts = starts.size
        self.pbeg = np.zeros(pcap, dtype=dt)
        self.pend = np.zeros(pcap, dtype=dt)
        self.xof = np.zeros(pcap, dtype=dt)
        self.pbeg[:nparts] = starts
        self.pend[:nparts] = np.r_[starts[1:], n]
        self.partof = np.empty(n, dtype=dt)
        self.partof[self.elems] = np.cumsum(new) - 1

        self.xbeg = np.zeros(xcap, dtype=dt)
        self.xend = np.zeros(xcap, dtype=dt)
        self.xcnt = np.zeros(xcap, dtype=dt)
        self.xend[0] = n
        self.xcnt[0] = nparts

        order = self._edge_order()  # dropped at once, not kept as m int64
        if order is None:
            self.esrc, self.edst = a.esrc, a.edst
        else:
            self.esrc = a.esrc[order].astype(dt)
            self.edst = a.edst[order].astype(dt)
        del order
        self.out_ptr = np.zeros(n + 1, dtype=dt)
        np.cumsum(np.bincount(self.esrc, minlength=n), out=self.out_ptr[1:])
        self.cnt_val = np.zeros(rcap, dtype=dt)
        self.cnt_val[:n] = np.bincount(self.edst, minlength=n)
        self.cnt_ref = self.edst.astype(dt)
        self.free_stk = np.zeros(rcap, dtype=dt)

        self.heap = np.zeros(hcap, dtype=np.int64)
        self.splitcnt = np.zeros(n, dtype=dt)
        self.seen_gen = np.zeros(n, dtype=dt)
        self.xs = np.zeros(n, dtype=dt)
        self.d12 = np.zeros(n, dtype=dt)
        self.d11 = np.zeros(n, dtype=dt)
        self.xrec = np.zeros(n, dtype=dt)
        self.moved_cnt = np.zeros(pcap, dtype=dt)

        regs = np.zeros(K.NREGS, dtype=np.int64)
        regs[K.R_NPARTS] = nparts
        regs[K.R_NREC] = n
        self.regs = regs
        if nparts >= 2:
            K._heap_push(self.heap, regs, 0)  # X-part 0 at begin 0
        # The kernels take these views, never the arrays: the attributes
        # above stay numpy and see every write the kernels make.
        self._kregs = K.kernel_view(regs)
        self._st = K.Engine(*(K.kernel_view(getattr(self, f)) for f in K.Engine._fields))

    # ------------------------------------------------------------------
    # stepwise operations

    @property
    def done(self) -> bool:
        """True when the partition equals its own X cover (the heap of
        compound X-parts is empty)."""
        return int(self.regs[K.R_HSIZE]) == 0

    @property
    def rounds(self) -> int:
        return int(self.regs[K.R_ROUNDS])

    @property
    def max_splitter_count(self) -> int:
        """Largest number of times any single state served inside a
        splitter: the maximum of splitcnt, computed on each read."""
        return int(self.splitcnt.max(initial=0))

    def step(self) -> bool:
        """Run one kernel round and return True; once done, change nothing
        and return False."""
        rounds = self.rounds
        K.run_full(self._kregs, self._st, int(self.prune), rounds + 1)
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

    def _edge_order(self) -> np.ndarray | None:
        """Engine edge i is automaton edge order[i], the ids stably sorted
        by source; None when the automaton's edges already lie that way."""
        esrc = self.automaton.esrc
        if np.all(esrc[1:] >= esrc[:-1]):
            return None
        return np.argsort(esrc, kind="stable")

    def surviving_in_edges(self, v: int) -> list[int]:
        """Ids of v's in-edges still alive, ascending."""
        if not 0 <= v < self.n:
            raise ValueError(f"state {v} out of range")
        return np.flatnonzero((self.automaton.edst == v) & self.alive_edges()).tolist()

    def alive_edges(self) -> np.ndarray:
        """One bool per automaton edge id: whether pruning has left the edge
        alive. Pruning deletes edges by killing their count record (count
        -1); a live edge's record counts at least 1."""
        alive = self.cnt_val[self.cnt_ref] >= 0
        order = self._edge_order()
        if order is not None:
            alive[order] = alive.copy()
        return alive

    def deleted_edge_ids(self) -> list[int]:
        """Automaton edge ids deleted by pruning so far, ascending."""
        return np.flatnonzero(~self.alive_edges()).tolist()

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
        # round r makes X-part r
        assert alive_x == list(range(self.rounds + 1)), "X-part ids in use are not 0..ROUNDS"
        for x in alive_x:
            members = [p for p in alive_parts if int(self.xof[p]) == x]
            lo = min(int(self.pbeg[p]) for p in members)
            hi = max(int(self.pend[p]) for p in members)
            assert int(self.xbeg[x]) == lo and int(self.xend[x]) == hi, f"X-part {x} span mismatch"
            assert int(self.xcnt[x]) == len(members), f"X-part {x} count mismatch"
            covered = sum(int(self.pend[p]) - int(self.pbeg[p]) for p in members)
            assert covered == hi - lo, f"X-part {x} is not a contiguous union of parts"
        heap = [int(k) for k in self.heap[: int(self.regs[K.R_HSIZE])]]
        assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap))), "heap order breached"
        assert sorted(heap) == sorted(
            int(self.xbeg[x]) * self.xbeg.shape[0] + x for x in alive_x if int(self.xcnt[x]) >= 2
        ), "the heap does not hold each compound X-part once under its begin"
        alone = {v for v in range(n) if int(self.seen_gen[v]) == K.ALONE}
        for v in alone:
            p = int(self.partof[v])
            assert int(self.pend[p]) - int(self.pbeg[p]) == 1, f"marked state {v} is not alone"

        deg = np.diff(self.out_ptr)
        assert self.out_ptr[0] == 0 and (deg >= 0).all() and np.array_equal(
            np.repeat(np.arange(n), deg), self.esrc
        ), "out ranges do not hold exactly each state's edges"
        live = np.flatnonzero(self.cnt_val[self.cnt_ref] >= 0).tolist()
        free = self.free_stk[: int(self.regs[K.R_FREETOP])].tolist()
        assert len(set(free)) == len(free), "a record is on the free stack twice"
        for r in free:
            assert int(self.cnt_val[r]) == 0, f"free record {r} counts {int(self.cnt_val[r])}"
        # rounds skip marked states, so only the others keep exact records
        counted = [e for e in live if int(self.edst[e]) not in alone]
        key = {e: (int(self.edst[e]), int(self.xof[self.partof[self.esrc[e]]])) for e in counted}
        expected: dict[tuple[int, int], int] = {}
        for e in counted:
            expected[key[e]] = expected.get(key[e], 0) + 1
        rec_of: dict[tuple[int, int], int] = {}
        for e in counted:
            x, xp = key[e]
            r = int(self.cnt_ref[e])
            if (x, xp) in rec_of:
                assert rec_of[(x, xp)] == r, f"edges of ({x}, X{xp}) use distinct records"
            rec_of[(x, xp)] = r
            assert int(self.cnt_val[r]) == expected[(x, xp)], (
                f"record {r} counts {int(self.cnt_val[r])}, expected {expected[(x, xp)]}"
            )
        assert len(set(rec_of.values())) == len(rec_of), "distinct groups share a count record"

        for x in alive_x:
            sources = {int(v) for v in self.elems[int(self.xbeg[x]) : int(self.xend[x])]}
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
    plain Python over zero-copy memoryviews of the engine arrays. A
    refinement of n states takes at most n - 1 rounds; reaching n + 2 is
    reported as a round overrun.
    """
    r = ref.regs
    limit = ref.n + 2
    K.run_full(ref._kregs, ref._st, int(ref.prune), limit)
    if r[K.R_STATUS] == K.STATUS_OK and r[K.R_ROUNDS] >= limit:
        r[K.R_STATUS] = K.STATUS_ROUND_OVERRUN
    ref._raise_status()
