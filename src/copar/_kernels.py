"""Compiled ordered partition refinement: one kernel runs every round.

run_full(regs, st, prune_mode, max_rounds, big_load) selects a splitter,
splits against it and loops, over flat int64 arrays plus a small register
file (regs). Both callers drive it: partition.run_refinement runs it to the
fixpoint, and the stepwise Refinement API runs it one selection or one
round at a time (a splitter can be left pending in regs between calls).
With numba installed the functions are njit-compiled (cached); without it
the same code runs as plain Python over zero-copy memoryviews of the engine
arrays (kernel_view), whose items read and write as plain ints, so
behaviour is byte-for-byte equivalent. On that backend run_full can hand a
splitter with many out-edges back to partition.run_refinement, which splits
against it in numpy; compiled, every round stays here.

The engine arrays travel as one Engine namedtuple. run_full unpacks it
once per call and keeps the registers a round updates in locals, writing
them back on every return: on the pure-Python backend a namedtuple
attribute read is a descriptor call and a register is a memoryview item,
and the sub-kernel calls of a round, with their register traffic and
unpacks, cost about 8 us of a 33-35 us round on the nfa-sort benchmark
input (n = 12 000, 11 931 rounds, 2 cores, CPython 3.11). Only _prune_d11 (pruning rounds with
D_11 states, about 7% of them) and the heap's _sift_up (at most two pushes
a round, shared with _heap_push, which serves partition.py) stay calls.

Register layout (indices into regs), every register read or written here:
  counters:  NPARTS, NX, HSIZE, GEN, NREC, FREETOP, ROUNDS, MAXSPLIT, NDEL,
             NCREATED, NCOMP
  per-round: NXS, N12, N11 (reached states, D_12, D_11); SPART, BPART,
             BFIRST (the splitter's X-part, -1 when none is pending, B, and
             whether B was first); SLO, SHI (the X-part's span, read by
             Refinement.select_splitter)
  fixed:     KMOD (heap key modulus), STATUS (0 ok, nonzero = internal error)
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
    " cnt_ref cnt_val free_stk binb_gen splitcnt seen_gen"
    " xs d12 d11 xrec moved_cnt touched created deleted",
)

NREGS = 21
(
    R_NPARTS,
    R_NX,
    R_HSIZE,
    R_GEN,
    R_NREC,
    R_FREETOP,
    R_ROUNDS,
    R_MAXSPLIT,
    R_NDEL,
    R_NCREATED,
    R_NCOMP,
    R_NXS,
    R_N12,
    R_N11,
    R_SPART,
    R_BPART,
    R_BFIRST,
    R_SLO,
    R_SHI,
    R_KMOD,
    R_STATUS,
) = range(NREGS)

STATUS_OK = 0
STATUS_PART_CAP = 1
STATUS_XPART_CAP = 2
STATUS_HEAP_CAP = 3
STATUS_RECORD_CAP = 4
STATUS_SPLITTER_SIZE = 5
STATUS_ROUND_OVERRUN = 6

PRUNE_OFF = 0
PRUNE_KEEP_FIRST = 1
PRUNE_KEEP_LAST = 2


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
def _prune_d11(regs, st, keep_b, g, s, ftop, n11):
    """Delete the losing side's in-edges of every D_11 state; returns the
    new free-stack top.

    keep_b is 1 when the kept side is B's, so the losing edges come from the
    remainder of the old splitter s (not marked g, source in X-part s), and
    0 when they come from B' (marked g). keep-first keeps the side that comes
    first in the part order, keep-last the other. Deleted edges are unlinked
    from both adjacency lists (swap-remove) and their count record is
    decremented on the spot.
    """
    (heap, xbeg, xend, xcnt, xof, elems, pos, partof, pbeg, pend,
     esrc, edst, out_ptr, out_len, out_lst, out_pos, in_ptr, in_len, in_lst, in_pos,
     cnt_ref, cnt_val, free_stk, binb_gen, splitcnt, seen_gen,
     xs, d12, d11, xrec, moved_cnt, touched, created, deleted) = st
    ndel = regs[R_NDEL]
    for i in range(n11):
        x = d11[i]
        base = in_ptr[x]
        j = 0
        while j < in_len[x]:
            e = in_lst[base + j]
            y = esrc[e]
            if keep_b == 1:
                doomed = binb_gen[y] != g and xof[partof[y]] == s
            else:
                doomed = binb_gen[y] == g
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
                deleted[ndel] = e
                ndel += 1
            else:
                j += 1
    regs[R_NDEL] = ndel
    return ftop


@njit(cache=True)
def run_full(regs, st, prune_mode, max_rounds, big_load):
    """Select and split until no compound X-part remains or ROUNDS reaches
    max_rounds.

    A round first pops the leftmost compound X-part S off the heap, lazily
    discarding stale entries (an entry is valid only while its begin is the
    X-part's begin and the X-part is compound), and carves the smaller of
    S's end parts as B (ties go to the first); B takes a fresh X id and the
    remainder is re-queued while it stays compound. With big_load > 0 a
    splitter whose load (|B| plus the out-degrees of its states, summed only
    until it reaches big_load) reaches big_load is handed back pending:
    run_full returns with SPART >= 0 and the caller splits against it
    (Refinement.select_splitter passes 1, partition.run_refinement passes
    NUMPY_ROUND_BLOCK on the pure-Python backend without pruning, else 0).
    A pending splitter is split first on the next call; SPART is -1 when
    none is pending.

    The split is one pass over B's out-edges. Each edge e -> x leaves its
    record of (x, S), which is decremented and freed at zero, and joins the
    record of (x, B's X-part), taken from the free stack on x's first edge
    only after that decrement, so a record freed by x itself is reused at
    once. Free records and those at or past NREC count 0, so a taken record
    starts at 0, and the old record keeps counting the remainder side
    without being rewritten. An old record reaching zero means every in-edge
    of x from S came from B' (the states of B): x is D_12 (seen_gen = -GEN),
    the other reached states are D_11. No state of B moves during the pass.
    Without pruning, D_12 and then D_11 move toward B's side of their parts
    and split off, giving the pieces (D_12, D_11, rest) when B was first and
    the mirror when it was last. With pruning the D_11 states first lose the
    losing side's in-edges, and one move takes the states that kept edges
    from the winning side toward it. A moved piece takes a fresh part id
    and the remainder keeps the old one (and the count records of its
    states' in-edges); a part whose states all moved stays whole, and an
    X-part turning compound is queued.

    The registers a round updates live in locals and are written back on
    every return; the heap sifts move a hole instead of swapping.
    """
    (heap, xbeg, xend, xcnt, xof, elems, pos, partof, pbeg, pend,
     esrc, edst, out_ptr, out_len, out_lst, out_pos, in_ptr, in_len, in_lst, in_pos,
     cnt_ref, cnt_val, free_stk, binb_gen, splitcnt, seen_gen,
     xs, d12, d11, xrec, moved_cnt, touched, created, deleted) = st
    kmod, hcap, xcap = regs[R_KMOD], heap.shape[0], xbeg.shape[0]
    pcap, rcap = pbeg.shape[0], cnt_val.shape[0]
    gen, ftop, nrec, hsize = regs[R_GEN], regs[R_FREETOP], regs[R_NREC], regs[R_HSIZE]
    nx, nparts, ncomp, ncreated = regs[R_NX], regs[R_NPARTS], regs[R_NCOMP], regs[R_NCREATED]
    rounds, maxsplit, status = regs[R_ROUNDS], regs[R_MAXSPLIT], regs[R_STATUS]
    s, b, bfirst, slo, shi = regs[R_SPART], regs[R_BPART], regs[R_BFIRST], regs[R_SLO], regs[R_SHI]
    nxs, n12, n11 = regs[R_NXS], regs[R_N12], regs[R_N11]
    while status == STATUS_OK and rounds < max_rounds:
        if s < 0:
            while hsize > 0:
                key = heap[0]
                hsize -= 1
                hole = heap[hsize]
                i = 0
                c = 1
                while c < hsize:
                    if c + 1 < hsize and heap[c + 1] < heap[c]:
                        c += 1
                    if hole <= heap[c]:
                        break
                    heap[i] = heap[c]
                    i = c
                    c = 2 * i + 1
                heap[i] = hole
                beg = key // kmod
                x = key % kmod
                if xbeg[x] == beg and xcnt[x] >= 2:
                    s = x
                    break
            if s < 0:
                break
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
            if nx >= xcap:
                status = STATUS_XPART_CAP
                break
            xbeg[nx] = pbeg[b]
            xend[nx] = pend[b]
            xcnt[nx] = 1
            xof[b] = nx
            nx += 1
            xcnt[s] -= 1
            if bfirst == 1:
                xbeg[s] = pend[b]
            else:
                xend[s] = pbeg[b]
            if xcnt[s] >= 2:
                if hsize >= hcap:
                    status = STATUS_HEAP_CAP
                    break
                _sift_up(heap, hsize, xbeg[s] * kmod + s)
                hsize += 1
            else:
                ncomp -= 1
            if big_load > 0:
                load = pend[b] - pbeg[b]
                i = pbeg[b]
                while load < big_load and i < pend[b]:
                    load += out_len[elems[i]]
                    i += 1
                if load >= big_load:
                    break
        gen += 1
        nxs = 0
        for i in range(pbeg[b], pend[b]):
            y = elems[i]
            binb_gen[y] = gen
            c = splitcnt[y] + 1
            splitcnt[y] = c
            if c > maxsplit:
                maxsplit = c
            base = out_ptr[y]
            for j in range(base, base + out_len[y]):
                e = out_lst[j]
                x = edst[e]
                r = cnt_ref[e]
                left = cnt_val[r] - 1
                cnt_val[r] = left
                if left == 0:
                    free_stk[ftop] = r
                    ftop += 1
                if seen_gen[x] == gen:
                    nr = xrec[x]
                else:
                    seen_gen[x] = gen
                    xs[nxs] = x
                    nxs += 1
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
                cnt_val[nr] += 1
                cnt_ref[e] = nr
                if left == 0:
                    seen_gen[x] = -gen
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
        if prune_mode != PRUNE_OFF:
            keep_b = 0
            if (prune_mode == PRUNE_KEEP_FIRST) == (bfirst == 1):
                keep_b = 1
                move = xs
                nmove = nxs
            if n11 > 0:
                ftop = _prune_d11(regs, st, keep_b, gen, s, ftop, n11)
        for ps in range(2):
            if ps == 1:
                if prune_mode != PRUNE_OFF or status != STATUS_OK:
                    break
                move = d11
                nmove = n11
            ntouched = 0
            for i in range(nmove):
                x = move[i]
                p = partof[x]
                k = moved_cnt[p]
                if k == 0:
                    touched[ntouched] = p
                    ntouched += 1
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
            for t in range(ntouched):
                p = touched[t]
                k = moved_cnt[p]
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
                xcnt[xp] += 1
                if xcnt[xp] == 2:
                    if hsize >= hcap:
                        status = STATUS_HEAP_CAP
                        break
                    _sift_up(heap, hsize, xbeg[xp] * kmod + xp)
                    hsize += 1
                    ncomp += 1
                created[ncreated] = q
                ncreated += 1
        rounds += 1
        s = -1
    regs[R_GEN], regs[R_FREETOP], regs[R_NREC], regs[R_HSIZE] = gen, ftop, nrec, hsize
    regs[R_NX], regs[R_NPARTS], regs[R_NCOMP], regs[R_NCREATED] = nx, nparts, ncomp, ncreated
    regs[R_ROUNDS], regs[R_MAXSPLIT], regs[R_STATUS] = rounds, maxsplit, status
    regs[R_SPART], regs[R_BPART], regs[R_BFIRST], regs[R_SLO], regs[R_SHI] = s, b, bfirst, slo, shi
    regs[R_NXS], regs[R_N12], regs[R_N11] = nxs, n12, n11
