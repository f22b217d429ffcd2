"""Compiled ordered partition refinement: one kernel runs every round.

run_full(regs, st, prune, max_rounds) selects a splitter, splits against
it and loops, over flat int64 arrays plus a small register file (regs).
Both callers drive it: partition.run_refinement runs it to the fixpoint,
and Refinement.step runs one round per call.
With numba installed the functions are njit-compiled (cached); without it
the same code runs as plain Python over zero-copy memoryviews of the engine
arrays (kernel_view), whose items read and write as plain ints, so
behaviour is byte-for-byte equivalent. Every round of either backend runs
here.

The engine arrays travel as one Engine namedtuple. run_full unpacks it
once per call and keeps the registers a round updates in locals, writing
them back on every return: on the pure-Python backend a namedtuple
attribute read is a descriptor call and a register is a memoryview item,
and the sub-kernel calls of a round, with their register traffic and
unpacks, cost about 8 us of a 33-35 us round on the nfa-sort benchmark
input (n = 12 000, 11 931 rounds, 2 cores, CPython 3.11). Only _prune_d11
(pruning rounds with D_11 states, about 7% of them) and the heap's _sift_up
(a push for each X-part a round turns compound, shared with _heap_push,
which serves partition.py) stay calls.

Register layout (indices into regs), every register read or written here:
  counters:  NPARTS, HSIZE, NREC, FREETOP, ROUNDS
  per-round: NXS, N12 (reached states, D_12; D_11 holds NXS - N12)
  fixed:     STATUS (0 ok, nonzero = internal error)
The rest is derived: HSIZE counts the compound X-parts, round r + 1 takes
generation r + 1 and makes X-part r + 1 (X-part 0 covers everything), and
the largest splitter count is the maximum of splitcnt.
"""

from __future__ import annotations

from collections import namedtuple

try:
    from numba import njit
    from numba.core.errors import NumbaError as KernelCompileError

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    class KernelCompileError(Exception):
        """numba's NumbaError (typing and lowering failures) when numba is
        installed; nothing raises it without numba."""

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(f):
            return f

        return deco


def kernel_view(a):
    """An engine array as the kernels take it: the array itself when compiled,
    else a memoryview sharing its buffer, which indexes as plain ints where the
    array would box a numpy scalar per access."""
    return a if HAVE_NUMBA else memoryview(a)


# The engine arrays: state sequence and part/X-part spans, edges and their
# CSR adjacency, count records, then per-round scratch.
Engine = namedtuple(
    "Engine",
    "heap xbeg xend xcnt xof elems pos partof pbeg pend"
    " esrc edst out_ptr out_len out_lst out_pos in_ptr in_len in_lst in_pos"
    " cnt_ref cnt_val free_stk splitcnt seen_gen"
    " xs d12 d11 xrec moved_cnt",
)

NREGS = 8
(
    R_NPARTS,
    R_HSIZE,
    R_NREC,
    R_FREETOP,
    R_ROUNDS,
    R_NXS,
    R_N12,
    R_STATUS,
) = range(NREGS)

STATUS_OK = 0
STATUS_PART_CAP = 1
STATUS_XPART_CAP = 2
STATUS_HEAP_CAP = 3
STATUS_RECORD_CAP = 4
STATUS_SPLITTER_SIZE = 5
STATUS_ROUND_OVERRUN = 6

# seen_gen of a state that a split without pruning left alone in its part:
# larger than any generation, so every later scan skips the state at once.
ALONE = 1 << 62


@njit(cache=True)
def _sift_up(heap, i, key):
    """Put key at heap[i], the end of a min-heap of encoded (begin, xpart)
    keys, and sift it up, moving a hole instead of swapping."""
    while i > 0:
        parent = (i - 1) // 2
        if heap[parent] <= key:
            break
        heap[i] = heap[parent]
        i = parent
    heap[i] = key


@njit(cache=True)
def _heap_push(heap, regs, key):
    """Min-heap push of an encoded (begin, xpart) key."""
    i = regs[R_HSIZE]
    if i >= heap.shape[0]:
        regs[R_STATUS] = STATUS_HEAP_CAP
        return
    regs[R_HSIZE] = i + 1
    _sift_up(heap, i, key)


@njit(cache=True)
def _prune_d11(st, bfirst, b, s, ftop, n11):
    """Delete the losing side's in-edges of every D_11 state; returns the
    new free-stack top.

    Pruning keeps the side that comes first in the part order. It runs
    before the round moves any state, so B is still the one part b, and B
    already has its own X id. bfirst is 1 when B's side is kept, so the
    losing edges come from the remainder of the old splitter (source in
    X-part s), and 0 when they come from B' (source in part b). Deleted
    edges are swap-removed past the live ends of both adjacency lists, where
    Refinement finds them, and their count record is decremented on the
    spot.
    """
    (heap, xbeg, xend, xcnt, xof, elems, pos, partof, pbeg, pend,
     esrc, edst, out_ptr, out_len, out_lst, out_pos, in_ptr, in_len, in_lst, in_pos,
     cnt_ref, cnt_val, free_stk, splitcnt, seen_gen,
     xs, d12, d11, xrec, moved_cnt) = st
    for i in range(n11):
        x = d11[i]
        base = in_ptr[x]
        j = 0
        while j < in_len[x]:
            e = in_lst[base + j]
            y = esrc[e]
            if bfirst == 1:
                doomed = xof[partof[y]] == s
            else:
                doomed = partof[y] == b
            if doomed:
                r = cnt_ref[e]
                cnt_val[r] -= 1
                if cnt_val[r] == 0:
                    free_stk[ftop] = r
                    ftop += 1
                oi = out_pos[e]
                olast = out_ptr[y] + out_len[y] - 1
                f = out_lst[olast]
                out_lst[oi] = f
                out_pos[f] = oi
                out_lst[olast] = e
                out_pos[e] = olast
                out_len[y] -= 1
                ilast = base + in_len[x] - 1
                f2 = in_lst[ilast]
                in_lst[base + j] = f2
                in_pos[f2] = base + j
                in_lst[ilast] = e
                in_pos[e] = ilast
                in_len[x] -= 1
            else:
                j += 1
    return ftop


@njit(cache=True)
def run_full(regs, st, prune, max_rounds):
    """Select and split until no compound X-part remains or ROUNDS reaches
    max_rounds.

    The heap holds each compound X-part exactly once, keyed by its begin
    (xbeg * xcap + id, where xcap = xbeg.shape[0] exceeds every X id), so
    its root is the leftmost one, S. A round carves the smaller of S's end
    parts as B (ties go to the first), and B takes X id ROUNDS + 1. The final
    part sets do not depend on this discipline, but on an input whose
    result is not quasi-Wheeler the part order does. The root
    is updated in place: popped when the remainder of S is simple, its key
    sifted down when B was first (S's begin moved), and left as it is when
    B was last.

    The split is one pass over B's out-edges. Each edge e -> x leaves its
    record of (x, S), which is decremented and freed at zero, and joins the
    record of (x, B's X-part), taken from the free stack on x's first edge.
    When that first edge is x's only one from S, the old record simply
    becomes the new one with its count of 1. Free records and those at or
    past NREC count 0, so a taken record starts at 0, and the old record
    keeps counting the remainder side without being rewritten. An old
    record reaching zero means every in-edge of x from S came from B' (the
    states of B): x is D_12 (seen_gen = -gen, where gen = ROUNDS + 1), the
    other reached states are D_11. No state of B moves during the pass.

    Without pruning (prune = 0), D_12 and then D_11 move toward B's side of
    their parts and split off, giving the pieces (D_12, D_11, rest) when B
    was first and the mirror when it was last. With pruning (prune = 1) the
    D_11 states first lose their in-edges from the side that comes later in
    the part order, and one move takes the states that kept edges from the
    first side toward it: all reached states when B was first, D_12 when it
    was last. A moved piece takes a fresh part id and the remainder keeps
    the old one (and the count records of its states' in-edges); a part
    whose states all moved stays whole, and an X-part turning compound is
    pushed.

    Without pruning, a split that leaves a state alone in its part sets its
    seen_gen to ALONE, and the pass skips every edge into such a state
    before reading a record: a singleton part never splits again, so the
    state never enters xs, D_12, D_11 or a move, and its records go stale.
    Pruning runs mark nothing, since a D_11 singleton still loses edges;
    a refinement fixes prune when it is built.

    The registers a round updates live in locals and are written back on
    every return; the heap sifts move a hole instead of swapping.
    """
    (heap, xbeg, xend, xcnt, xof, elems, pos, partof, pbeg, pend,
     esrc, edst, out_ptr, out_len, out_lst, out_pos, in_ptr, in_len, in_lst, in_pos,
     cnt_ref, cnt_val, free_stk, splitcnt, seen_gen,
     xs, d12, d11, xrec, moved_cnt) = st
    hcap, xcap = heap.shape[0], xbeg.shape[0]
    pcap, rcap = pbeg.shape[0], cnt_val.shape[0]
    ftop, nrec, hsize, nparts = regs[R_FREETOP], regs[R_NREC], regs[R_HSIZE], regs[R_NPARTS]
    rounds, status = regs[R_ROUNDS], regs[R_STATUS]
    nxs, n12 = regs[R_NXS], regs[R_N12]
    while status == STATUS_OK and rounds < max_rounds and hsize > 0:
        s = heap[0] % xcap
        slo = xbeg[s]
        shi = xend[s]
        b = partof[elems[slo]]
        p = partof[elems[shi - 1]]
        bfirst = 1
        if pend[p] - pbeg[p] < pend[b] - pbeg[b]:
            b = p
            bfirst = 0
        if 2 * (pend[b] - pbeg[b]) > shi - slo:
            status = STATUS_SPLITTER_SIZE
            break
        nx = rounds + 1
        if nx >= xcap:
            status = STATUS_XPART_CAP
            break
        xbeg[nx] = pbeg[b]
        xend[nx] = pend[b]
        xcnt[nx] = 1
        xof[b] = nx
        xcnt[s] -= 1
        # S is the heap root: pop it once simple, sift its new key down
        # when B was first, else its key stands
        key = -1
        if xcnt[s] < 2:
            hsize -= 1
            key = heap[hsize]
        elif bfirst == 1:
            key = pend[b] * xcap + s
        if bfirst == 1:
            xbeg[s] = pend[b]
        else:
            xend[s] = pbeg[b]
        if key >= 0:
            i = 0
            c = 1
            while c < hsize:
                if c + 1 < hsize and heap[c + 1] < heap[c]:
                    c += 1
                if key <= heap[c]:
                    break
                heap[i] = heap[c]
                i = c
                c = 2 * i + 1
            heap[i] = key
        gen = rounds + 1
        nxs = 0
        for i in range(pbeg[b], pend[b]):
            y = elems[i]
            splitcnt[y] += 1
            base = out_ptr[y]
            for j in range(base, base + out_len[y]):
                e = out_lst[j]
                x = edst[e]
                sg = seen_gen[x]
                if sg == ALONE:
                    continue
                r = cnt_ref[e]
                left = cnt_val[r] - 1
                if sg == gen:
                    cnt_val[r] = left
                    nr = xrec[x]
                    cnt_val[nr] += 1
                    cnt_ref[e] = nr
                    if left == 0:
                        free_stk[ftop] = r
                        ftop += 1
                        seen_gen[x] = -gen
                    continue
                xs[nxs] = x
                nxs += 1
                if left == 0:  # x's only edge from S keeps its record at 1
                    xrec[x] = r
                    seen_gen[x] = -gen
                    continue
                cnt_val[r] = left
                seen_gen[x] = gen
                if ftop > 0:
                    ftop -= 1
                    nr = free_stk[ftop]
                else:
                    nr = nrec
                    if nr >= rcap:
                        status = STATUS_RECORD_CAP
                        break
                    nrec = nr + 1
                xrec[x] = nr
                cnt_val[nr] = 1
                cnt_ref[e] = nr
            if status != STATUS_OK:
                break
        if status != STATUS_OK:
            break
        n12 = 0
        n11 = 0
        for i in range(nxs):
            x = xs[i]
            if seen_gen[x] == gen:
                d11[n11] = x
                n11 += 1
            else:
                d12[n12] = x
                n12 += 1
        move = d12
        nmove = n12
        if prune == 1:
            if bfirst == 1:
                move = xs
                nmove = nxs
            if n11 > 0:
                ftop = _prune_d11(st, bfirst, b, s, ftop, n11)
        for ps in range(2):
            if ps == 1:
                if prune == 1 or status != STATUS_OK:
                    break
                move = d11
                nmove = n11
            for i in range(nmove):
                x = move[i]
                p = partof[x]
                k = moved_cnt[p]
                moved_cnt[p] = k + 1
                if bfirst == 1:
                    tgt = pbeg[p] + k
                else:
                    tgt = pend[p] - 1 - k
                px = pos[x]
                y = elems[tgt]
                elems[tgt] = x
                elems[px] = y
                pos[x] = tgt
                pos[y] = px
            # a part splits at its first moved state; its later ones sit in
            # the new part or in a part that moved whole, and both count 0
            for i in range(nmove):
                p = partof[move[i]]
                k = moved_cnt[p]
                if k == 0:
                    continue
                moved_cnt[p] = 0
                lo = pbeg[p]
                hi = pend[p]
                if k == hi - lo:
                    continue
                if nparts >= pcap:
                    status = STATUS_PART_CAP
                    break
                q = nparts
                nparts += 1
                if bfirst == 1:
                    pbeg[q] = lo
                    pend[q] = lo + k
                    pbeg[p] = lo + k
                else:
                    pbeg[q] = hi - k
                    pend[q] = hi
                    pend[p] = hi - k
                xp = xof[p]
                xof[q] = xp
                for i in range(pbeg[q], pend[q]):
                    partof[elems[i]] = q
                if prune == 0:
                    if k == 1:
                        seen_gen[elems[pbeg[q]]] = ALONE
                    if hi - lo - k == 1:
                        seen_gen[elems[pbeg[p]]] = ALONE
                xcnt[xp] += 1
                if xcnt[xp] == 2:
                    if hsize >= hcap:
                        status = STATUS_HEAP_CAP
                        break
                    _sift_up(heap, hsize, xbeg[xp] * xcap + xp)
                    hsize += 1
        rounds += 1
    regs[R_FREETOP], regs[R_NREC], regs[R_HSIZE], regs[R_NPARTS] = ftop, nrec, hsize, nparts
    regs[R_ROUNDS], regs[R_STATUS] = rounds, status
    regs[R_NXS], regs[R_N12] = nxs, n12
